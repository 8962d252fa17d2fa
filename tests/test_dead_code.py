"""No dead imports, helpers, public names or methods in ``src/sconf``.

Every name a module imports is used in that module (``__init__.py`` is
exempt: it re-exports), every private function ``_name`` is referenced
somewhere in the package besides its own definition, and so is every public
module-level function and class, where an export from ``__init__.py`` counts
as a reference, unless ``UNREFERENCED_NAMES`` names it with its reason.
Every method that is not a dunder is read as an attribute somewhere in the
package, or named in a class body (``__str__ = render``), unless
``UNREFERENCED_METHODS`` names it with its reason: a bare name elsewhere is
a local or a parameter, not the method.  Every parameter of a function or
method that is not a dunder is read in its body, unless
``UNREAD_PARAMETERS`` names it with its reason; a method's first parameter
is bound by the call, and a lambda's signature is its caller's.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sconf"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def _referenced(tree):
    """Every name read as a bare name or as an attribute in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = _tree(path)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    assert imported - _referenced(tree) == set()


def test_every_private_function_is_referenced():
    trees = [_tree(path) for path in MODULES]
    referenced = set().union(*map(_referenced, trees))
    private = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    }
    assert private - referenced == set()


# public module-level name -> why it stays although nothing in the package uses it
UNREFERENCED_NAMES = {
    "RowSpan": "perfbench/sweeps.py imports it; goes with ROADMAP item 1",
}


def test_every_public_name_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = set().union(*map(_referenced, trees.values()))
    referenced |= {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    assert public - referenced == set(UNREFERENCED_NAMES)


# class.method -> why it stays although nothing in the package calls it
UNREFERENCED_METHODS = {
    "QuadExt.norm": "public field norm; the tests check multiplicativity with it",
    "Scalar.evaluate": "public specialisation of every parameter to a number",
    "VerificationReport.passed": "public verdict of a report for library callers",
    "UniPoly.divmod_monic": "public quotient and remainder; the tests read it",
    "RowSpan.add": "perfbench/sweeps.py imports it; goes with ROADMAP item 1",
    "RowSpan.rank": "part of RowSpan, which perfbench/sweeps.py imports; goes with ROADMAP "
                    "item 1",
}


def _method_references(tree):
    """Every attribute name read in ``tree``, and every name read on the
    right of an assignment in a class body."""
    out = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            out.update(node.id for stmt in cls.body if isinstance(stmt, ast.Assign)
                       for node in ast.walk(stmt.value) if isinstance(node, ast.Name))
    return out


def test_every_method_is_referenced():
    trees = [_tree(path) for path in MODULES]
    referenced = set().union(*map(_method_references, trees))
    unreferenced = {
        f"{cls.name}.{node.name}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
    }
    assert unreferenced == set(UNREFERENCED_METHODS)


# module.[Class.]function.parameter -> why it stays although the body never reads it
UNREAD_PARAMETERS = {
    "n1.check_simplicity_witness.word_length": "perfbench/sweeps.py passes it positionally; "
                                               "goes with ROADMAP item 1",
    "quotients.iso_xi.p": "the layer map multiplies by h~ alone; perfbench/sweeps.py passes it "
                          "positionally; goes with ROADMAP item 1",
}


def _unread_parameters(node, prefix, in_class=False):
    """``prefix + function.parameter`` for every parameter that no name in
    its function's body reads, in every function under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _unread_parameters(child, f"{prefix}{child.name}.", True)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (child.name.startswith("__") and child.name.endswith("__")):
                a = child.args
                params = [*[*a.posonlyargs, *a.args][in_class:], *a.kwonlyargs, a.vararg, a.kwarg]
                read = {n.id for n in ast.walk(child) if isinstance(n, ast.Name)}
                yield from (f"{prefix}{child.name}.{x.arg}" for x in params
                            if x and x.arg not in read)
            yield from _unread_parameters(child, f"{prefix}{child.name}.")
        else:
            yield from _unread_parameters(child, prefix, in_class)


def test_every_parameter_is_read():
    unread = {name for path in MODULES for name in _unread_parameters(_tree(path), f"{path.stem}.")}
    assert unread == set(UNREAD_PARAMETERS)


PERFBENCH = SRC.parents[1] / "perfbench"


def test_an_entry_kept_for_perfbench_names_what_perfbench_still_uses():
    # an entry kept for a perfbench/ file holds only while that file still
    # names its class or function; once the replays go, so must the entry
    kept = [(name.split(".")[0], reason) for allowed in (UNREFERENCED_NAMES, UNREFERENCED_METHODS)
            for name, reason in allowed.items()]
    kept += [(name.split(".")[-2], reason) for name, reason in UNREAD_PARAMETERS.items()]
    for used, reason in kept:
        for cited in re.findall(r"perfbench/(\w+\.py)", reason):
            assert used in (PERFBENCH / cited).read_text(), (used, reason)
