"""The verification sweeps report a wrong action as a failure."""

from itertools import product

import pytest

from sconf import freemod, n1, quotients
from sconf.algebras import AlgebraElement, basis_symbols, bracket
from sconf.freemod import act_basis, monomials
from sconf.n1 import RestrictedAction, check_n1_relations
from sconf.parsing import parse_unipoly
from sconf.quotients import (
    QuotientParams,
    check_phi_intertwines,
    check_projection_intertwines,
    check_quotient_compatibility,
    check_xi_intertwines,
    iso_xi,
    quotient_monomials,
)
from sconf.scalars import Scalar


def _only_violations(report, prefix):
    assert report.status == "fail"
    assert report.violations
    assert all(v.context.startswith(prefix) for v in report.violations)


def _double_family(monkeypatch, module, name, families):
    """Replace ``module.name`` by an action that doubles the given families."""
    good = getattr(module, name)

    def wrong(sym, *rest):
        out = good(sym, *rest)
        return out * 2 if sym.family in families else out

    monkeypatch.setattr(module, name, wrong)
    return good


def test_module_sweep_catches_a_wrong_family(monkeypatch):
    _double_family(monkeypatch, freemod, "act_basis", ("H",))
    _only_violations(freemod.check_module_compatibility(1, 1), "compat (")


def test_quotient_sweep_catches_a_wrong_family(monkeypatch):
    _double_family(monkeypatch, quotients, "quotient_act_basis", ("L",))
    p = QuotientParams(a=1)
    _only_violations(
        check_quotient_compatibility(p, 1, 1), f"quotient compat {p.describe()} ("
    )


def _double_g(monkeypatch):
    """Replace ``n1.restricted_act`` by an action that doubles the G family."""
    good = n1.restricted_act

    def wrong_g(x, v, r):
        out = good(x, v, r)
        return out * 2 if any(s.family == "G" for s in x.terms) else out

    monkeypatch.setattr(n1, "restricted_act", wrong_g)


def test_n1_sweep_catches_a_wrong_family(monkeypatch):
    _double_g(monkeypatch)
    r = RestrictedAction.neveu_schwarz(QuotientParams(a=1))
    _only_violations(
        check_n1_relations(r, 1, 1), f"n1 N1NS {r.params.describe()} ("
    )


def test_projection_sweep_catches_a_wrong_family(monkeypatch):
    _double_family(monkeypatch, quotients, "quotient_act_basis", ("L",))
    p = QuotientParams(a=1)
    _only_violations(check_projection_intertwines(p, 1, 1), "projection ")


def test_phi_sweep_catches_a_wrong_family(monkeypatch):
    good = quotients.quotient_act_basis

    def gm_without_alp(sym, v, p):
        out = good(sym, v, p)
        return out * p.alp.invert_monomial() if sym.family == "Gm" else out

    monkeypatch.setattr(quotients, "quotient_act_basis", gm_without_alp)
    src = QuotientParams(a=1)
    dst = QuotientParams(a=1, alp=Scalar.param("bet"))
    _only_violations(check_phi_intertwines(src, dst, 1, 1), "phi ")


def test_xi_sweep_catches_a_wrong_family_and_reports_the_module_side(monkeypatch):
    good = _double_family(monkeypatch, quotients, "quotient_act_basis", ("L",))
    h_tilde = parse_unipoly("y - 1")
    p = QuotientParams(a=1)
    report = check_xi_intertwines(h_tilde, p, 1, 1)
    _only_violations(report, "xi h~=")
    label = f"xi h~={h_tilde.render()} {p.describe()} "
    expected = {
        (
            f"{label}{sym} on {v}",
            act_basis(sym, iso_xi(v, h_tilde, p)).render(),
            iso_xi(good(sym, v, p) * 2, h_tilde, p).render(),
        )
        for sym in basis_symbols("R", 1)
        if sym.family == "L"
        for v in quotient_monomials(1)
    }
    assert {(v.context, v.lhs, v.rhs) for v in report.violations} <= expected


def test_shift_sweep_catches_a_wrong_family(monkeypatch):
    _double_family(monkeypatch, freemod, "act_basis", ("L", "H"))
    report = freemod.check_shift_identities(1, 1, 1)
    _only_violations(report, "shift ")
    prefixes = {v.context[:len("shift L0^")] for v in report.violations}
    assert prefixes == {"shift L0^", "shift H0^"}


# -- the violations are those of the Scalar action -------------------------------

def _scalar_violations(syms, act, vectors, label):
    """(context, lhs, rhs) of every (X, Y, v), in sweep order, where
    [X, Y].v != X.(Y.v) -+ Y.(X.v) through the public action ``act``."""
    out = []
    for xs, ys in product(syms, repeat=2):
        x, y = AlgebraElement.basis(xs), AlgebraElement.basis(ys)
        for v in vectors:
            lhs = act(bracket(x, y), v)
            xy, yx = act(x, act(y, v)), act(y, act(x, v))
            rhs = xy + yx if xs.parity and ys.parity else xy - yx
            if lhs != rhs:
                out.append((f"{label}({xs}, {ys}) on {v}", lhs.render(), rhs.render()))
    return out


def _module_sweeps():
    return (freemod.check_module_compatibility(1, 1),
            _scalar_violations(basis_symbols("R", 1), freemod.act, monomials(1), "compat "))


def _module_case(monkeypatch):
    _double_family(monkeypatch, freemod, "act_basis", ("H",))
    return _module_sweeps()


def _module_lam_over_alp_case(monkeypatch):
    # lam/alp has exponent sum 0: the sweep must keep exponent vectors apart
    good = freemod.act_basis
    shift = Scalar.param("lam") * Scalar.param("alp", -1)
    monkeypatch.setattr(
        freemod, "act_basis", lambda sym, v: good(sym, v) * (shift if sym.family == "Gm" else 1)
    )
    return _module_sweeps()


def _quotient_case(monkeypatch):
    _double_family(monkeypatch, quotients, "quotient_act_basis", ("L",))
    p = QuotientParams(a=1)
    return (check_quotient_compatibility(p, 1, 1),
            _scalar_violations(basis_symbols("R", 1),
                               lambda x, v: quotients.quotient_act(x, v, p),
                               quotient_monomials(1), f"quotient compat {p.describe()} "))


def _n1_case(monkeypatch):
    _double_g(monkeypatch)
    r = RestrictedAction.neveu_schwarz(QuotientParams(a=1))
    return (check_n1_relations(r, 1, 1),
            _scalar_violations(basis_symbols("N1NS", 1),
                               lambda x, v: n1.restricted_act(x, v, r),
                               quotient_monomials(1), f"n1 N1NS {r.params.describe()} "))


@pytest.mark.parametrize(
    "case", [_module_case, _module_lam_over_alp_case, _quotient_case, _n1_case]
)
def test_sweep_violations_are_those_of_the_scalar_action(monkeypatch, case):
    report, expected = case(monkeypatch)
    assert report.status == "fail" and expected
    assert [(v.context, v.lhs, v.rhs) for v in report.violations] == expected
