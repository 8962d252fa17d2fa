"""The verification sweeps report a wrong action as a failure.

``on_rows`` is the one fault injector of the action in the sweep tests: it
replaces a rows seam (``freemod.basis_rows``, ``quotients.quotient_rows``
or ``n1.restricted_rows``), which every sweep and every built image reads,
by the rows, target parity and slices, of a wrong image of each vector of
the list the seam is given.  ``on_map`` does
the same for a map seam (``quotients.project_rows``, ``phi_rows`` or
``xi_rows``), which the intertwining sweeps and the element maps read.
``scale_family``
scales the images of the generators of some families through it.  That
each report's violations are exactly those of the element-wise reference is
checked in ``test_representation_sweep.py`` and
``test_intertwining_sweeps.py``."""

from sconf import freemod, n1, quotients
from sconf.algebras import AlgebraElement, basis_symbols
from sconf.freemod import ModuleElement, act_basis
from sconf.n1 import RestrictedAction, check_n1_relations
from sconf.parsing import parse_unipoly
from sconf.quotients import (
    QuotientElement,
    QuotientParams,
    check_phi_intertwines,
    check_projection_intertwines,
    check_quotient_compatibility,
    check_xi_intertwines,
    iso_xi,
    quotient_monomials,
)
from sconf.scalars import Scalar, slices_of


def _only_violations(report, prefix):
    assert report.status == "fail"
    assert report.violations
    assert all(v.context.startswith(prefix) for v in report.violations), report.violations


def as_rows(element):
    """``element`` as the rows, target parity and fresh slices ``{key: {ev:
    [p, q, d]}}``, that a rows function returns."""
    return element.parity, slices_of(element.terms.items())


def families_of(x):
    """The families of the generators of ``x``, a basis symbol or an element."""
    return {s.family for s in (x.terms if isinstance(x, AlgebraElement) else (x,))}


# module -> the class of the elements its rows seam acts on
_ELEMENTS = {freemod: ModuleElement, quotients: QuotientElement, n1: QuotientElement}


def on_rows(monkeypatch, module, name, fault):
    """Replace the rows seam ``module.name``, ``(x, vs, ...)`` -> one rows
    per vector of the list ``vs``, by the rows of ``fault(good, x, v,
    ...)``, an element, for each vector: v is the element that its rows
    stand for, and ``good(x, v, ...)`` the element that the right seam maps
    v to; return ``good``."""
    right, cls = getattr(module, name), _ELEMENTS[module]

    def good(x, v, *rest):
        return type(v).from_rows(right(x, [v.to_rows()], *rest)[0])

    monkeypatch.setattr(module, name, lambda x, vs, *rest: [
        as_rows(fault(good, x, cls.from_rows(w), *rest)) for w in vs])
    return good


def on_map(monkeypatch, module, name, classes, fault):
    """Replace the map seam ``module.name``, ``(rows, *rest) -> rows``
    (``quotients.project_rows``, ``phi_rows`` or ``xi_rows``), by the rows
    of ``fault(good, v, *rest)``, an element: v is the element of the first
    of the two ``classes`` that the rows given stand for, and ``good(v,
    *rest)`` the element of the second that the right seam maps v to;
    return ``good``."""
    right, (source, target) = getattr(module, name), classes

    def good(v, *rest):
        return target.from_rows(right(v.to_rows(), *rest))

    monkeypatch.setattr(module, name, lambda rows, *rest: as_rows(
        fault(good, source.from_rows(rows), *rest)))
    return good


def scale_family(monkeypatch, module, name, families, factor=2):
    """Put on the rows function ``module.name`` a fault that scales by
    ``factor`` the image of a generator of one of the ``families`` (of an
    element with such a generator); return the right action (``on_rows``)."""
    def wrong(good, x, *rest):
        out = good(x, *rest)
        return out * factor if families_of(x) & set(families) else out

    return on_rows(monkeypatch, module, name, wrong)


def test_module_sweep_catches_a_wrong_family(monkeypatch):
    scale_family(monkeypatch, freemod, "basis_rows", ("H",))
    _only_violations(freemod.check_module_compatibility(1, 1), "compat (")


def test_quotient_sweep_catches_a_wrong_family(monkeypatch):
    scale_family(monkeypatch, quotients, "quotient_rows", ("L",))
    p = QuotientParams(a=1)
    _only_violations(
        check_quotient_compatibility(p, 1, 1), f"quotient compat {p.describe()} ("
    )


def test_n1_sweep_catches_a_wrong_family(monkeypatch):
    scale_family(monkeypatch, n1, "restricted_rows", ("G",))
    r = RestrictedAction.neveu_schwarz(QuotientParams(a=1))
    _only_violations(
        check_n1_relations(r, 1, 1), f"n1 N1NS {r.params.describe()} ("
    )


def test_projection_sweep_catches_a_wrong_family(monkeypatch):
    scale_family(monkeypatch, quotients, "quotient_rows", ("L",))
    p = QuotientParams(a=1)
    _only_violations(check_projection_intertwines(p, 1, 1), "projection ")


def test_phi_sweep_catches_a_wrong_family(monkeypatch):
    def gm_without_alp(good, sym, v, p, *coeff):
        out = good(sym, v, p, *coeff)
        return out * p.alp.invert_monomial() if sym.family == "Gm" else out

    on_rows(monkeypatch, quotients, "quotient_rows", gm_without_alp)
    src = QuotientParams(a=1)
    dst = QuotientParams(a=1, alp=Scalar.param("bet"))
    _only_violations(check_phi_intertwines(src, dst, 1, 1), "phi ")


def test_xi_sweep_catches_a_wrong_family_and_reports_the_module_side(monkeypatch):
    good = scale_family(monkeypatch, quotients, "quotient_rows", ("L",))
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
    scale_family(monkeypatch, freemod, "basis_rows", ("L", "H"))
    report = freemod.check_shift_identities(1, 1, 1)
    _only_violations(report, "shift ")
    prefixes = {v.context[:len("shift L0^")] for v in report.violations}
    assert prefixes == {"shift L0^", "shift H0^"}
