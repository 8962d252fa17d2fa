"""The Ramond action against its closed forms, and a wrong action row.

The references, ``module_action`` and ``quotient_action`` of
``reference.py``, transcribe the formulas of the ``freemod`` and
``quotients`` module docstrings with element arithmetic alone: (x+m)^i is i
repeated products by x + m, and y -> y-1, t -> t+1 and y -> -a are spelled
out the same way.  They share no code with the action's row table.
"""

from fractions import Fraction

import pytest

from sconf import freemod
from sconf.algebras import BasisSymbol
from sconf.freemod import (
    EVEN, ODD, ModuleElement, act_basis, check_central_triviality, check_module_compatibility,
)
from sconf.quotients import (
    QuotientElement,
    QuotientParams,
    check_quotient_compatibility,
    quotient_act_basis,
)
from sconf.scalars import QuadExt, Scalar

from reference import module_action, quotient_action

MODES = range(-3, 4)
DEGREE = 3
FAMILIES = ("L", "H", "Gp", "Gm")


def _symbols():
    yield BasisSymbol("R", "C")
    for fam in FAMILIES:
        for m in MODES:
            yield BasisSymbol("R", fam, 2 * m)


# -- the rank-2 module ----------------------------------------------------------

def test_module_action_matches_the_closed_forms():
    checked = 0
    for sym in _symbols():
        for parity in (EVEN, ODD):
            for i in range(DEGREE + 1):
                for j in range(DEGREE + 1 - i):
                    v = ModuleElement.monomial(parity, i, j)
                    got, want = act_basis(sym, v), module_action(sym, v)
                    assert got == want, (sym, parity, i, j, got, want)
                    assert got.parity == want.parity, (sym, parity, i, j)
                    checked += 1
    assert checked == (1 + len(FAMILIES) * len(MODES)) * 2 * 10


# -- the simple quotients -------------------------------------------------------

_NUMERIC = {"lam": Scalar.number(Fraction(3, 2)), "alp": Scalar.number(QuadExt(1, 1))}


@pytest.mark.parametrize("numeric", [False, True], ids=["formal-lam-alp", "numeric-lam-alp"])
@pytest.mark.parametrize("a", [None, 0, Fraction(3, 2), QuadExt(1, 1)],
                         ids=["formal-a", "a=0", "a=3/2", "a=1+sqrt2"])
def test_quotient_action_matches_the_closed_forms(a, numeric):
    p = QuotientParams(a=a, **(_NUMERIC if numeric else {}))
    for sym in _symbols():
        for parity in (EVEN, ODD):
            for k in range(DEGREE + 1):
                v = QuotientElement.monomial(parity, k)
                got, want = quotient_act_basis(sym, v, p), quotient_action(sym, v, p)
                assert got == want, (sym, parity, k, got, want)
                assert got.parity == want.parity, (sym, parity, k)


# -- one wrong row --------------------------------------------------------------

def test_a_wrong_row_fails_the_module_and_the_quotient_sweeps(monkeypatch):
    parity, shift, number, _, rows = freemod._ACTION["Gm", EVEN]
    monkeypatch.setitem(freemod._ACTION, ("Gm", EVEN), (parity, shift, number, 0, rows))
    assert check_module_compatibility(1, 1).status == "fail"
    assert check_quotient_compatibility(QuotientParams(a=1), 1, 1).status == "fail"


@pytest.mark.parametrize("parity", [EVEN, ODD], ids=["even", "odd"])
def test_a_central_row_fails_the_central_sweep(monkeypatch, parity):
    """C acts through the same row lookup as every generator, so the C half
    of the central sweep reads ``_ACTION`` and fails once a C row is there."""
    assert check_central_triviality(1).status == "pass"
    monkeypatch.setitem(freemod._ACTION, ("C", parity), (parity, 0, 1, 0, ((0, 0, 1, 0),)))
    report = check_central_triviality(1)
    assert report.status == "fail"
    assert report.violations and all(
        v.context.startswith("C on ") for v in report.violations)
