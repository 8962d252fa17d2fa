"""The Ramond action against its closed forms, and a wrong action row.

The oracle transcribes the formulas of the ``freemod`` and ``quotients``
module docstrings with element arithmetic alone: (x+m)^i is i repeated
products by x + m, and y -> y-1, t -> t+1 and y -> -a are spelled out the
same way.  It shares no code with the action's row table.
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
from sconf.scalars import SC_ONE, QuadExt, Scalar

MODES = range(-3, 4)
DEGREE = 3
FAMILIES = ("L", "H", "Gp", "Gm")
LAM, ALP = Scalar.param("lam"), Scalar.param("alp")


def _num(c):
    return Scalar.number(c)


def _symbols():
    yield BasisSymbol("R", "C")
    for fam in FAMILIES:
        for m in MODES:
            yield BasisSymbol("R", fam, 2 * m)


# -- the rank-2 module ----------------------------------------------------------

def _times(v, poly):
    """v times a bivariate polynomial {(i, j): coefficient}."""
    return v.times_poly({key: _num(c) for key, c in poly.items()})


def _module_oracle(sym, parity, i, j):
    """The docstring formula for ``sym`` on u^i v^j of the given parity."""
    target = (parity + sym.parity) % 2
    zero = ModuleElement.zero(target)
    if sym.family == "C":
        return zero
    m = sym.twice // 2
    dv = {("Gp", ODD): -1, ("Gm", EVEN): 1}.get((sym.family, parity), 0)
    out = ModuleElement.one(target)
    for _ in range(i):
        out = _times(out, {(1, 0): 1, (0, 0): m})  # u + m
    for _ in range(j):
        out = _times(out, {(0, 1): 1, (0, 0): dv})  # v + shift
    if sym.family == "L":
        pre = {(1, 0): 1, (0, 1): Fraction(m, 2), (0, 0): m * parity}
        return _times(out, pre) * LAM ** m
    if sym.family == "H":
        return _times(out, {(0, 1): 1}) * LAM ** m
    if (sym.family, parity) == ("Gp", ODD):
        return _times(out, {(1, 0): 1, (0, 1): m}) * LAM ** m * ALP.invert_monomial() * _num(2)
    if (sym.family, parity) == ("Gm", EVEN):
        return out * LAM ** m * ALP
    return zero


def test_module_action_matches_the_closed_forms():
    checked = 0
    for sym in _symbols():
        for parity in (EVEN, ODD):
            for i in range(DEGREE + 1):
                for j in range(DEGREE + 1 - i):
                    got = act_basis(sym, ModuleElement.monomial(parity, i, j))
                    want = _module_oracle(sym, parity, i, j)
                    assert got == want, (sym, parity, i, j, got, want)
                    assert got.parity == want.parity, (sym, parity, i, j)
                    checked += 1
    assert checked == (1 + len(FAMILIES) * len(MODES)) * 2 * 10


# -- the simple quotients -------------------------------------------------------

def _qtimes(v, poly):
    """v times a univariate polynomial {k: Scalar}."""
    out = QuotientElement.zero(v.parity)
    for k1, c1 in v.terms.items():
        for k2, c2 in poly.items():
            out = out + QuotientElement.monomial(v.parity, k1 + k2, c1 * c2)
    return out


def _quotient_oracle(sym, parity, k, p):
    """The quotient docstring formula for ``sym`` on x^k or s^k."""
    target = (parity + sym.parity) % 2
    zero = QuotientElement.zero(target)
    if sym.family == "C":
        return zero
    m = sym.twice // 2
    a = Scalar.param("a") if p.a is None else _num(p.a)
    out = QuotientElement.one(target)
    for _ in range(k):
        out = _qtimes(out, {1: SC_ONE, 0: _num(m)})  # x + m
    lam_m = p.lam ** m
    if sym.family == "L":
        constant = a * _num(Fraction(-m, 2)) + _num(Fraction(m, 2) * parity)
        return _qtimes(out, {1: SC_ONE, 0: constant}) * lam_m
    if sym.family == "H":
        return out * (-a - _num(parity)) * lam_m
    if (sym.family, parity) == ("Gp", ODD):
        pre = {1: SC_ONE, 0: a * _num(-m)}
        return _qtimes(out, pre) * lam_m * p.alp.invert_monomial() * _num(2)
    if (sym.family, parity) == ("Gm", EVEN):
        return out * lam_m * p.alp
    return zero


_NUMERIC = {"lam": Scalar.number(Fraction(3, 2)), "alp": Scalar.number(QuadExt(1, 1))}


@pytest.mark.parametrize("numeric", [False, True], ids=["formal-lam-alp", "numeric-lam-alp"])
@pytest.mark.parametrize("a", [None, 0, Fraction(3, 2), QuadExt(1, 1)],
                         ids=["formal-a", "a=0", "a=3/2", "a=1+sqrt2"])
def test_quotient_action_matches_the_closed_forms(a, numeric):
    p = QuotientParams(a=a, **(_NUMERIC if numeric else {}))
    for sym in _symbols():
        for parity in (EVEN, ODD):
            for k in range(DEGREE + 1):
                got = quotient_act_basis(sym, QuotientElement.monomial(parity, k), p)
                want = _quotient_oracle(sym, parity, k, p)
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
