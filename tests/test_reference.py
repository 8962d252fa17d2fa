"""``reference.py`` shares no private code with the package it checks.

Its routines are the independent side of the tests' comparisons, so they
may use only the public names of ``sconf``: the guard below fails once the
file imports a ``_``-prefixed name from an ``sconf`` module or reads one as
an attribute of an ``sconf`` module, however that module was imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

REFERENCE = Path(__file__).with_name("reference.py")


def _module(name):
    """The ``sconf`` module called ``name``, or None when there is none."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _private_reads(source):
    """Each ``_``-prefixed name that ``source`` imports from ``sconf`` or
    reads off an ``sconf`` module, as ``module.name``, in source order."""
    tree = ast.parse(source)
    bound, found = {}, []  # local name -> the sconf module it names
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sconf":
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = _module(alias.name if alias.asname else local)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sconf":
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
                module = _module(f"{node.module}.{alias.name}")
                if module is not None:
                    bound[alias.asname or alias.name] = module

    def resolve(node):
        """The sconf module that the expression ``node`` names, or None."""
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            base = resolve(node.value)
            return base and _module(f"{base.__name__}.{node.attr}")
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            base = resolve(node.value)
            if base is not None:
                found.append((node.lineno, f"{base.__name__}.{node.attr}"))
    return [name for _, name in sorted(found)]


def test_reference_is_independent():
    source = REFERENCE.read_text()
    assert "from sconf." in source
    assert _private_reads(source) == []


@pytest.mark.parametrize("source, names", [
    ("from sconf.freemod import _ACTION", ["sconf.freemod._ACTION"]),
    ("from sconf.algebras import bracket, _flat as flat", ["sconf.algebras._flat"]),
    ("from sconf import freemod\nfreemod._ACTION", ["sconf.freemod._ACTION"]),
    ("import sconf.algebras\nsconf.algebras._split(v, 1)", ["sconf.algebras._split"]),
    ("import sconf.algebras as alg\nalg._packing", ["sconf.algebras._packing"]),
    ("import sconf\nsconf.submodules._divmod_monic", ["sconf.submodules._divmod_monic"]),
    # a private attribute of a class or a value is not a module's
    ("from sconf.scalars import Scalar\nScalar.__add__", []),
    ("from sconf.freemod import EVEN, act_basis\nact_basis.__name__", []),
    ("import os\nos._exit", []),
])
def test_the_guard_finds_each_private_read(source, names):
    assert _private_reads(source) == names
