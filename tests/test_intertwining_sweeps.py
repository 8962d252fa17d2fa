"""The projection, phi and xi intertwining sweeps against element-wise oracles.

They give the reports of the element-wise sweeps, kept here verbatim as
``reference_projection``, ``reference_phi`` and ``reference_xi``, with the
generator loop they ran, ``_check_images``: equal reports, so the same
suite, params, notes and violations (context, lhs and rhs, in order), with
the action right, with each family doubled at either rows seam
(``scale_family``), and with a fault of its own for each map at its rows
seam (``on_map``).  Each is the only reference for its sweep, so it stays
here and not in ``reference.py``.  Each sweep maps each vector once and
each case once more through its map seam (``project_rows``, ``phi_rows``,
``xi_rows``); the xi sweep also tests one membership through
``contains_rows`` per case, and the phi sweep checks its parameters once.
The battery holds a xi layer and a phi pair with sqrt2 coefficients.
``reference_xi`` lifts by a product of its own, ``_times``, so an
``xi_rows`` that is wrong, on monomials or only on elements of several
terms, fails the sweep and not the reference."""

from collections import Counter
from fractions import Fraction
from operator import eq

import pytest

from sconf import freemod, quotients
from sconf.algebras import basis_symbols
from sconf.freemod import EVEN, ODD, ModuleElement, act, monomials
from sconf.parsing import parse_quotient_element, parse_unipoly
from sconf.quotients import (
    QuotientElement, QuotientParams, check_phi_intertwines, check_projection_intertwines,
    check_xi_intertwines, iso_phi, project, quotient_act, quotient_monomials,
)
from sconf.reports import VerificationReport
from sconf.scalars import QE_ONE, QuadExt, Scalar, add_terms
from sconf.submodules import SubmoduleSpec, UniPoly, contains

from test_compat_failures import on_map, on_rows, scale_family


def _check_images(report, syms, vectors, lhs, rhs, label, same=eq):
    """Record ``label``-prefixed violations where ``same(lhs(X, v), rhs(X, v))``
    fails, for every X of ``syms`` (outer loop) and every v of ``vectors``
    (inner loop).  Each side is recorded as its text, so it may be an element
    or a fixed text such as ``"member"``."""
    for sym in syms:
        for v in vectors:
            left, right = lhs(sym, v), rhs(sym, v)
            if not same(left, right):
                report.record(f"{label}{sym} on {v}", left, right)
    return report


def reference_projection(p, index_window, degree_bound):
    report = VerificationReport(
        "projection-intertwines",
        {"params": p.describe(), "window": index_window, "degree": degree_bound},
    )
    vectors = monomials(degree_bound)
    projected = {id(v): project(v, p) for v in vectors}  # formed once per vector
    return _check_images(
        report,
        basis_symbols("R", index_window),
        vectors,
        lambda sym, v: project(act(sym, v), p),
        lambda sym, v: quotient_act(sym, projected[id(v)], p),
        f"projection {p.describe()} ",
    )


def reference_phi(src, dst, index_window, degree_bound):
    report = VerificationReport(
        "phi-intertwines",
        {
            "src": src.describe(),
            "dst": dst.describe(),
            "window": index_window,
            "degree": degree_bound,
        },
    )
    vectors = quotient_monomials(degree_bound)
    mapped = {id(v): iso_phi(v, src, dst) for v in vectors}  # formed once per vector
    return _check_images(
        report,
        basis_symbols("R", index_window),
        vectors,
        lambda sym, v: iso_phi(quotient_act(sym, v, src), src, dst),
        lambda sym, v: quotient_act(sym, mapped[id(v)], dst),
        f"phi {src.describe()}->{dst.describe()} ",
    )


def _times(v, by):
    """The quotient element v times the polynomial ``by`` in the second
    variable, as a module element."""
    return ModuleElement(v.parity, add_terms({}, (
        ((k, j), c * hc) for k, c in v.terms.items() for j, hc in enumerate(by.coeffs)
    )))


def reference_xi(h_tilde, p, index_window, degree_bound):
    a = p.concrete_a()
    h = UniPoly((a, QE_ONE)) * h_tilde
    full = SubmoduleSpec("M", h)
    lifts = {EVEN: h_tilde, ODD: h_tilde.shifted(1)}  # parity -> multiplier

    def xi(v):
        return _times(v, lifts[v.parity])

    report = VerificationReport(
        "xi-intertwines",
        {
            "h_tilde": h_tilde.render(),
            "params": p.describe(),
            "window": index_window,
            "degree": degree_bound,
        },
    )
    vectors = quotient_monomials(degree_bound)
    lifted = {id(v): xi(v) for v in vectors}  # formed once per vector
    return _check_images(
        report,
        basis_symbols("R", index_window),
        vectors,
        lambda sym, v: act(sym, lifted[id(v)]),
        lambda sym, v: xi(quotient_act(sym, v, p)),
        f"xi h~={h_tilde.render()} {p.describe()} ",
        same=lambda left, right: contains(full, left - right),
    )


ROOTS = (0, 1, -1, Fraction(3, 2), QuadExt(1, 1), QuadExt(0, Fraction(1, 2)))
PHI = (
    (QuotientParams(a=1), QuotientParams(a=1, alp=Scalar.param("bet"))),
    (QuotientParams(a=QuadExt(1, 1), alp=Scalar.number(2)),
     QuotientParams(a=QuadExt(1, 1), alp=Scalar.param("bet", -1))),
    # alp with sqrt2 coefficients: dst.alp/src.alp = (1 + sqrt2)/sqrt2 * bet/alp
    (QuotientParams(a=QuadExt(1, 1), alp=Scalar.monomial(QuadExt(0, 1), alp=1)),
     QuotientParams(a=QuadExt(1, 1), alp=Scalar.monomial(QuadExt(1, 1), bet=1))),
)
XI = ((1, "y - 1"), (0, "y + 1"), (-1, "y^2 + y - 2"), (1, "y^2 - 2"),
      (QuadExt(1, 1), "y - sqrt2"))


def _sweeps(window, degree):
    """(new report, reference report) for every sweep of the battery."""
    out = []
    for a in ROOTS:
        p = QuotientParams(a=a)
        out.append((check_projection_intertwines(p, window, degree),
                    reference_projection(p, window, degree)))
    for src, dst in PHI:
        out.append((check_phi_intertwines(src, dst, window, degree),
                    reference_phi(src, dst, window, degree)))
    for a, h_tilde in XI:
        p, h_tilde = QuotientParams(a=a), parse_unipoly(h_tilde)
        out.append((check_xi_intertwines(h_tilde, p, window, degree),
                    reference_xi(h_tilde, p, window, degree)))
    return out


def test_the_sweeps_pass_with_the_reference_on_a_right_action():
    for window, degree in ((1, 1), (2, 2)):
        for got, want in _sweeps(window, degree):
            assert got.passed, got.render_text()
            assert got == want


@pytest.mark.parametrize("module, name", [(quotients, "quotient_rows"),
                                          (freemod, "basis_rows")], ids=["quotient", "module"])
@pytest.mark.parametrize("family", ["L", "H", "Gp", "Gm"])
def test_a_doubled_family_fails_as_the_reference_does(monkeypatch, module, name, family):
    scale_family(monkeypatch, module, name, (family,))
    reports = _sweeps(2, 2)
    for got, want in reports:
        assert got == want
    assert any(got.violations for got, _ in reports)


def test_a_gm_without_alp_fails_phi_as_the_reference_does(monkeypatch):
    # doubling a family fails no phi case, since both sides double; dropping
    # alp from Gm differs between the two alp values
    def gm_without_alp(good, sym, v, p, *coeff):
        out = good(sym, v, p, *coeff)
        return out * p.alp.invert_monomial() if sym.family == "Gm" else out

    on_rows(monkeypatch, quotients, "quotient_rows", gm_without_alp)
    for src, dst in PHI:
        got = check_phi_intertwines(src, dst, 2, 2)
        assert got.status == "fail"
        assert got == reference_phi(src, dst, 2, 2)


def test_a_lift_by_h_tilde_of_t_fails_as_the_reference_does(monkeypatch):
    # the odd lift multiplies by h~(t) where h~(t+1) is right; the kernel
    # M_h keeps its true odd divisor h(t+1)
    layers = [(QuotientParams(a=a), parse_unipoly(h_tilde)) for a, h_tilde in XI]
    wrong = [h_tilde for _, h_tilde in layers]
    good = UniPoly.shifted
    monkeypatch.setattr(UniPoly, "shifted",
                        lambda poly, c: poly if any(poly is h for h in wrong) else good(poly, c))
    for p, h_tilde in layers:
        got = check_xi_intertwines(h_tilde, p, 2, 2)
        assert got.status == "fail"
        assert got == reference_xi(h_tilde, p, 2, 2)


def _xi_swapped(good, v, lifts):
    """xi_rows with its parity branches swapped."""
    return good(v, lifts[::-1])


def _xi_odd_minus_one(good, v, lifts):
    """xi_rows lifting the odd part by h~(t-1), where h~(t+1) is right."""
    return good(v, (lifts[0], lifts[0].shifted(-1)))


def _xi_leading_term(good, v, lifts):
    """xi_rows keeping only the leading term of an element of several terms."""
    top = max(v.terms, default=None)
    return good(v if len(v.terms) < 2 else v.monomial(v.parity, top, v.terms[top]), lifts)


@pytest.mark.parametrize("wrong", [_xi_swapped, _xi_odd_minus_one, _xi_leading_term],
                         ids=["swapped", "t-1", "leading-term"])
def test_a_wrong_iso_xi_fails_every_layer(monkeypatch, wrong):
    on_map(monkeypatch, quotients, "xi_rows", (QuotientElement, ModuleElement), wrong)
    for a, h_tilde in XI:
        p, h_tilde = QuotientParams(a=a), parse_unipoly(h_tilde)
        assert check_xi_intertwines(h_tilde, p, 2, 2).status == "fail", (a, h_tilde)
        assert reference_xi(h_tilde, p, 2, 2).passed


def test_a_phi_without_its_odd_scale_fails_as_the_reference_does(monkeypatch):
    # phi_rows returns the odd part unscaled; iso_phi reads the seam too
    on_map(monkeypatch, quotients, "phi_rows", (QuotientElement, QuotientElement),
           lambda good, v, scale: v)
    for src, dst in PHI:
        got = check_phi_intertwines(src, dst, 2, 2)
        assert got.status == "fail"
        assert got == reference_phi(src, dst, 2, 2)


def test_a_projection_freezing_t_at_minus_a_fails_as_the_reference_does(monkeypatch):
    # project_rows divides the odd part by t + a, where t + a + 1 is right;
    # project reads the seam too
    def odd_root_off_by_one(good, v, p):
        return good(v, QuotientParams(a=p.a - 1, lam=p.lam, alp=p.alp) if v.parity else p)

    on_map(monkeypatch, quotients, "project_rows", (ModuleElement, QuotientElement),
           odd_root_off_by_one)
    for a in ROOTS:
        p = QuotientParams(a=a)
        got = check_projection_intertwines(p, 2, 2)
        assert got.status == "fail", a
        assert got == reference_projection(p, 2, 2)


@pytest.mark.parametrize("a, h_tilde", XI)
def test_iso_xi_lifts_elements_of_several_terms(a, h_tilde):
    p, h_tilde = QuotientParams(a=a), parse_unipoly(h_tilde)
    lifts = {EVEN: h_tilde, ODD: h_tilde.shifted(1)}
    for text, parity in (("x^3 - 2*lam*x + sqrt2", EVEN),
                         ("alp*s^2 + (1 + sqrt2)*s - 1/2*lam^-1", ODD)):
        v = parse_quotient_element(text, parity)
        assert len(v.terms) == 3
        assert quotients.iso_xi(v, h_tilde, p) == _times(v, lifts[parity])


def _counted(monkeypatch, sweep):
    """How often the passing ``sweep()`` calls each map seam, the membership
    seam, the difference of the xi sides and the phi parameter check."""
    seen = Counter()
    with monkeypatch.context() as m:
        for name in ("project_rows", "phi_rows", "xi_rows", "contains_rows", "_minus",
                     "_phi_scale"):
            def counted(*args, _good=getattr(quotients, name), _name=name):
                seen[_name] += 1
                return _good(*args)

            m.setattr(quotients, name, counted)
        assert sweep().passed
    return seen


def test_projection_phi_and_xi_map_each_vector_once_and_each_case_once(monkeypatch):
    degree = 2
    for window in (1, 2):
        gens = len(basis_symbols("R", window))
        seen = _counted(monkeypatch, lambda: check_projection_intertwines(
            QuotientParams(a=QuadExt(1, 1)), window, degree))
        assert seen["project_rows"] == len(monomials(degree)) * (1 + gens)
        seen = _counted(monkeypatch, lambda: check_phi_intertwines(*PHI[0], window, degree))
        assert seen["phi_rows"] == len(quotient_monomials(degree)) * (1 + gens)
        assert seen["_phi_scale"] == 1
        seen = _counted(monkeypatch, lambda: check_xi_intertwines(
            parse_unipoly("y^2 - 2"), QuotientParams(a=1), window, degree))
        assert seen["xi_rows"] == len(quotient_monomials(degree)) * (1 + gens)
        assert seen["contains_rows"] == seen["_minus"] == len(quotient_monomials(degree)) * gens
