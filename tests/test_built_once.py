"""Every value is complete when its constructor returns.

No QuadExt changes after ``QuadExt.__init__`` or the trusted constructor
``scalars._qe`` returns: the slot setters ``_set_p``, ``_set_q`` and
``_set_d`` appear nowhere else, and the action sums its slices as plain int
lists.  A ``SubmoduleSpec`` computes its divisors when it is built, so no
division changes any of its slots.  The bracket-compatibility sweeps read
their bracket rows as ints, so a passing sweep never builds a
``_basis_bracket`` row.
"""

import ast
import copy
from pathlib import Path

import pytest

from sconf import algebras, freemod
from sconf.freemod import EVEN, ODD
from sconf.n1 import RestrictedAction, check_n1_relations
from sconf.parsing import parse_module_element, parse_submodule_spec
from sconf.quotients import QuotientParams, check_quotient_compatibility
from sconf.submodules import SubmoduleSpec, _remainders, check_closure, contains

SRC = Path(__file__).resolve().parents[1] / "src" / "sconf"
SETTERS = {"_set_p", "_set_q", "_set_d"}


def _setter_uses(tree):
    """(qualified name of the enclosing function, or None at module level,
    setter name, context) for every reference to a QuadExt slot setter in a
    module's syntax tree."""
    uses = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{where}.{child.name}" if where else child.name)
                continue
            name = child.id if isinstance(child, ast.Name) else (
                child.attr if isinstance(child, ast.Attribute) else None)
            if name in SETTERS:
                uses.append((where, name, type(getattr(child, "ctx", None)).__name__))
            walk(child, where)

    walk(tree, None)
    return uses


def test_quadext_setters_run_only_at_construction():
    for path in sorted(SRC.glob("*.py")):
        uses = _setter_uses(ast.parse(path.read_text(), str(path)))
        if path.stem != "scalars":
            assert uses == [], path.stem
            continue
        # each setter is defined once at module level and read only by the
        # two constructors
        assert sorted(u for u in uses if u[0] is None) == [
            (None, name, "Store") for name in sorted(SETTERS)]
        assert {u[0] for u in uses if u[0] is not None} == {"QuadExt.__init__", "_qe"}


@pytest.mark.parametrize("text", ["M[h=y^2 - sqrt2*y + 1/2]", "N[h=y^2 - sqrt2*y + 1/2]",
                                  "N[h=y - 1]"])
def test_submodule_spec_slots_never_change(text):
    spec = parse_submodule_spec(text)
    names = type(spec).__slots__
    before = {name: getattr(spec, name) for name in names}
    copies = copy.deepcopy(before)
    for parity, element in ((EVEN, "x*y^3 - sqrt2*x*y + 1/2*x + y"), (ODD, "s*t^3 + 2*t")):
        v = parse_module_element(element, parity)
        contains(spec, v)
        _remainders(spec._int_divisors[parity], v.to_rows()[1])
    assert check_closure(spec, 1, 2).passed
    for name in names:
        assert getattr(spec, name) is before[name], name
        assert getattr(spec, name) == copies[name], name
    assert spec == SubmoduleSpec(spec.kind, spec.h)


def test_passing_sweeps_build_no_basis_bracket(monkeypatch):
    def refuse(x, y):
        raise AssertionError("a passing sweep read _basis_bracket")

    monkeypatch.setattr(algebras, "_basis_bracket", refuse)
    p = QuotientParams(a=1)
    reports = [
        freemod.check_module_compatibility(1, 1),
        check_quotient_compatibility(p, 1, 1),
        check_n1_relations(RestrictedAction.ramond(p), 1, 1),
        check_n1_relations(RestrictedAction.neveu_schwarz(p), 1, 1),
    ]
    assert all(r.passed for r in reports), [r.render_text() for r in reports]
