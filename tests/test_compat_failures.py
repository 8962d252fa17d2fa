"""The verification sweeps report a wrong action as a failure.

``scale_family`` is the one fault injector of the sweep tests: it scales the
images of the generators of some families at one basis-action seam.  That
each report's violations are exactly those of the element-wise reference is
checked in ``test_representation_sweep.py`` and
``test_intertwining_sweeps.py``."""

from sconf import freemod, n1, quotients
from sconf.algebras import AlgebraElement, basis_symbols
from sconf.freemod import act_basis
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
    assert all(v.context.startswith(prefix) for v in report.violations), report.violations


def scale_family(monkeypatch, module, name, families, factor=2):
    """Replace ``module.name``, a basis action or ``n1.restricted_act``, by an
    action that scales by ``factor`` the image of a generator of one of the
    ``families`` (of an element with such a generator); return the action it
    replaced."""
    good = getattr(module, name)

    def wrong(x, *rest):
        out = good(x, *rest)
        syms = x.terms if isinstance(x, AlgebraElement) else (x,)
        return out * factor if any(s.family in families for s in syms) else out

    monkeypatch.setattr(module, name, wrong)
    return good


def test_module_sweep_catches_a_wrong_family(monkeypatch):
    scale_family(monkeypatch, freemod, "act_basis", ("H",))
    _only_violations(freemod.check_module_compatibility(1, 1), "compat (")


def test_quotient_sweep_catches_a_wrong_family(monkeypatch):
    scale_family(monkeypatch, quotients, "quotient_act_basis", ("L",))
    p = QuotientParams(a=1)
    _only_violations(
        check_quotient_compatibility(p, 1, 1), f"quotient compat {p.describe()} ("
    )


def test_n1_sweep_catches_a_wrong_family(monkeypatch):
    scale_family(monkeypatch, n1, "restricted_act", ("G",))
    r = RestrictedAction.neveu_schwarz(QuotientParams(a=1))
    _only_violations(
        check_n1_relations(r, 1, 1), f"n1 N1NS {r.params.describe()} ("
    )


def test_projection_sweep_catches_a_wrong_family(monkeypatch):
    scale_family(monkeypatch, quotients, "quotient_act_basis", ("L",))
    p = QuotientParams(a=1)
    _only_violations(check_projection_intertwines(p, 1, 1), "projection ")


def test_phi_sweep_catches_a_wrong_family(monkeypatch):
    good = quotients.quotient_act_basis

    def gm_without_alp(sym, v, p, *coeff):
        out = good(sym, v, p, *coeff)
        return out * p.alp.invert_monomial() if sym.family == "Gm" else out

    monkeypatch.setattr(quotients, "quotient_act_basis", gm_without_alp)
    src = QuotientParams(a=1)
    dst = QuotientParams(a=1, alp=Scalar.param("bet"))
    _only_violations(check_phi_intertwines(src, dst, 1, 1), "phi ")


def test_xi_sweep_catches_a_wrong_family_and_reports_the_module_side(monkeypatch):
    good = scale_family(monkeypatch, quotients, "quotient_act_basis", ("L",))
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
    scale_family(monkeypatch, freemod, "act_basis", ("L", "H"))
    report = freemod.check_shift_identities(1, 1, 1)
    _only_violations(report, "shift ")
    prefixes = {v.context[:len("shift L0^")] for v in report.violations}
    assert prefixes == {"shift L0^", "shift H0^"}
