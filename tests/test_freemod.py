"""Action formulas and verification sweeps for the rank-2 module."""

import pytest

from sconf import freemod
from sconf.algebras import BasisSymbol
from sconf.errors import AlgebraMismatch, MixedParity
from sconf.freemod import (
    EVEN,
    ODD,
    ModuleElement,
    act,
    act_basis,
    check_central_triviality,
    check_module_compatibility,
    check_odd_square_zero,
    check_shift_identities,
    check_uh_freeness,
    monomials,
)
from sconf.parsing import parse_algebra_element, parse_module_element
from sconf.scalars import Scalar

from test_compat_failures import on_rows


def sym(family, m):
    return BasisSymbol("R", family, 2 * m)


def mod(text, parity=None):
    return parse_module_element(text, parity)


# -- pinned action values ------------------------------------------------------

def test_L_on_even_one():
    out = act_basis(sym("L", 1), ModuleElement.one(EVEN))
    assert out == mod("lam*x + 1/2*lam*y")


def test_L_on_odd():
    out = act_basis(sym("L", 2), ModuleElement.one(ODD))
    assert out == mod("lam^2*s + lam^2*t + 2*lam^2")


def test_Gp_on_odd_one():
    out = act_basis(sym("Gp", 2), ModuleElement.one(ODD))
    assert out == mod("2*lam^2*alp^-1*x + 4*lam^2*alp^-1*y")
    assert out.parity == EVEN


def test_Gp_kills_even():
    assert act_basis(sym("Gp", 1), mod("x^3*y")).is_zero()


def test_Gm_on_even():
    out = act_basis(sym("Gm", 0), mod("x^2"))
    assert out == mod("alp*s^2")
    assert out.parity == ODD


def test_Gm_substitutes_both_vars():
    # x -> s+1, y -> t+1 with the alp lam prefactor
    out = act_basis(sym("Gm", 1), mod("y"))
    assert out == mod("lam*alp*t + lam*alp")


def test_C_annihilates():
    assert act_basis(BasisSymbol("R", "C"), mod("x^5*y")).is_zero()


def test_H_on_odd():
    out = act_basis(sym("H", -1), mod("s"))
    assert out == mod("lam^-1*s*t - lam^-1*t")


def test_anticommutator_reproduces_2L0():
    # Gm0 Gp0 . 1_even + Gp0 Gm0 . 1_even = 2 L0 . 1_even = 2x
    v = ModuleElement.one(EVEN)
    lhs = act_basis(sym("Gm", 0), act_basis(sym("Gp", 0), v)) + act_basis(
        sym("Gp", 0), act_basis(sym("Gm", 0), v)
    )
    assert lhs == mod("2*x")


def test_H_pair_acts_trivially_on_one():
    v = ModuleElement.one(EVEN)
    out = act_basis(sym("H", 1), act_basis(sym("H", -1), v)) - act_basis(
        sym("H", -1), act_basis(sym("H", 1), v)
    )
    assert out.is_zero()


def test_act_linear_and_parity():
    x = parse_algebra_element("2*L[1] + lam*H[0]", "R")
    v = mod("x*y")
    out = act(x, v)
    expect = act_basis(sym("L", 1), v) * Scalar.number(2) + act_basis(
        sym("H", 0), v
    ) * Scalar.param("lam")
    assert out == expect
    mixed = parse_algebra_element("L[0] + Gp[0]", "R")
    with pytest.raises(MixedParity):
        act(mixed, v)
    with pytest.raises(AlgebraMismatch):
        act(parse_algebra_element("L[0]", "NS"), v)


# -- sweeps ---------------------------------------------------------------------

def test_module_compatibility_window2():
    report = check_module_compatibility(2, 2)
    assert report.passed, report.render_text()


def test_uh_freeness():
    report = check_uh_freeness(3)
    assert report.passed, report.render_text()
    # explicit multiplication statements
    assert act_basis(sym("L", 0), mod("x^2*y")) == mod("x^3*y")
    assert act_basis(sym("H", 0), mod("s*t")) == mod("s*t^2")


def test_uh_freeness_records_each_failure_once(monkeypatch):
    on_rows(monkeypatch, freemod, "basis_rows",
            lambda good, s, v: good(s, v) * (2 if s.family == "H" else 1))
    report = check_uh_freeness(2)
    assert [v.context for v in report.violations] == [f"H0 on {v}" for v in monomials(2)]
    assert (report.violations[-1].lhs, report.violations[-1].rhs) == ("2*s^2*t", "s^2*t")


def test_span_of_iterated_mode_zero_actions():
    # L0^i H0^j . 1 enumerates exactly the monomials of degree <= 3
    got = set()
    for i in range(4):
        for j in range(4 - i):
            w = ModuleElement.one(EVEN)
            for _ in range(i):
                w = act_basis(sym("L", 0), w)
            for _ in range(j):
                w = act_basis(sym("H", 0), w)
            assert w == ModuleElement.monomial(EVEN, i, j)
            got.add((i, j))
    assert got == {(i, j) for i in range(4) for j in range(4 - i)}


def test_shift_identities_window2():
    report = check_shift_identities(2, 3, 2)
    assert report.passed, report.render_text()


def test_odd_square_zero():
    report = check_odd_square_zero(2, 3)
    assert report.passed, report.render_text()


def test_central_triviality():
    report = check_central_triviality(3)
    assert report.passed, report.render_text()


def test_parity_flip_bookkeeping():
    for v in monomials(2):
        for fam, flip in (("L", 0), ("H", 0), ("Gp", 1), ("Gm", 1)):
            out = act_basis(sym(fam, 1), v)
            if not out.is_zero():
                assert out.parity == (v.parity + flip) % 2
