"""The projection, phi and xi intertwining sweeps against element-wise oracles.

They give the reports of the element-wise sweeps, kept here verbatim as
``reference_projection``, ``reference_phi`` and ``reference_xi``, with the
generator loop they ran, ``_check_images``: the same params, status and
violations (context, lhs and rhs, in order), with the action right, with
each family doubled at either basis-action seam, and with a fault of its
own for phi and for xi.  The projection and phi sweeps build each vector's
own image once and call their map once more per case; the xi sweep decides
each case in ints, so it lifts each vector once through ``iso_xi``, tests
no membership through ``contains``, and the window does not change how
often it calls them.  ``reference_xi`` lifts by a product of its own, so a
wrong ``iso_xi`` fails the sweep and not the reference."""

from collections import Counter
from fractions import Fraction
from operator import eq

import pytest

from sconf import freemod, quotients, submodules
from sconf.algebras import basis_symbols
from sconf.freemod import EVEN, ODD, ModuleElement, ParityElement, act, monomials
from sconf.parsing import parse_unipoly
from sconf.quotients import (
    QuotientParams, check_phi_intertwines, check_projection_intertwines,
    check_xi_intertwines, iso_phi, project, quotient_act, quotient_monomials,
)
from sconf.reports import VerificationReport
from sconf.scalars import QE_ONE, QuadExt, Scalar, add_terms
from sconf.submodules import SubmoduleSpec, UniPoly, contains


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
)
XI = ((1, "y - 1"), (0, "y + 1"), (-1, "y^2 + y - 2"), (1, "y^2 - 2"))


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


def _facts(report):
    return (report.suite, report.params, report.status,
            [(v.context, v.lhs, v.rhs) for v in report.violations])


def _double(monkeypatch, module, name, family):
    good = getattr(module, name)

    def wrong(sym, *rest):
        out = good(sym, *rest)
        return out * 2 if sym.family == family else out

    monkeypatch.setattr(module, name, wrong)


def test_the_sweeps_pass_with_the_reference_on_a_right_action():
    for window, degree in ((1, 1), (2, 2)):
        for got, want in _sweeps(window, degree):
            assert got.passed, got.render_text()
            assert _facts(got) == _facts(want)


@pytest.mark.parametrize("module, name", [(quotients, "quotient_act_basis"),
                                          (freemod, "act_basis")], ids=["quotient", "module"])
@pytest.mark.parametrize("family", ["L", "H", "Gp", "Gm"])
def test_a_doubled_family_fails_as_the_reference_does(monkeypatch, module, name, family):
    _double(monkeypatch, module, name, family)
    reports = _sweeps(2, 2)
    for got, want in reports:
        assert _facts(got) == _facts(want)
    assert any(got.violations for got, _ in reports)


def test_a_gm_without_alp_fails_phi_as_the_reference_does(monkeypatch):
    # doubling a family fails no phi case, since both sides double; dropping
    # alp from Gm differs between the two alp values
    good = quotients.quotient_act_basis

    def gm_without_alp(sym, v, p):
        out = good(sym, v, p)
        return out * p.alp.invert_monomial() if sym.family == "Gm" else out

    monkeypatch.setattr(quotients, "quotient_act_basis", gm_without_alp)
    for src, dst in PHI:
        got = check_phi_intertwines(src, dst, 2, 2)
        assert got.status == "fail"
        assert _facts(got) == _facts(reference_phi(src, dst, 2, 2))


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
        assert _facts(got) == _facts(reference_xi(h_tilde, p, 2, 2))


def _xi_swapped(v, h_tilde, p):
    """iso_xi with its parity branches swapped."""
    return _times(v, h_tilde.shifted(1) if v.parity == EVEN else h_tilde)


def _xi_odd_minus_one(v, h_tilde, p):
    """iso_xi lifting the odd part by h~(t-1), where h~(t+1) is right."""
    return _times(v, h_tilde if v.parity == EVEN else h_tilde.shifted(-1))


@pytest.mark.parametrize("wrong", [_xi_swapped, _xi_odd_minus_one], ids=["swapped", "t-1"])
def test_a_wrong_iso_xi_fails_every_layer(monkeypatch, wrong):
    monkeypatch.setattr(quotients, "iso_xi", wrong)
    for a, h_tilde in XI:
        p, h_tilde = QuotientParams(a=a), parse_unipoly(h_tilde)
        assert check_xi_intertwines(h_tilde, p, 2, 2).status == "fail", (a, h_tilde)
        assert reference_xi(h_tilde, p, 2, 2).passed


def _counted(monkeypatch, sweep):
    """How often the passing ``sweep()`` calls each element map and element
    operation."""
    seen = Counter()
    with monkeypatch.context() as m:
        for owner, name in ((quotients, "project"), (quotients, "iso_phi"),
                            (quotients, "iso_xi"), (submodules, "contains"),
                            (ParityElement, "__sub__"), (Scalar, "__eq__")):
            def counted(*args, _good=getattr(owner, name), _name=name):
                seen[_name] += 1
                return _good(*args)

            m.setattr(owner, name, counted)
        assert sweep().passed
    return seen


def test_projection_and_phi_map_each_case_and_xi_each_vector_once(monkeypatch):
    degree = 2
    for window in (1, 2):
        gens = len(basis_symbols("R", window))
        seen = _counted(monkeypatch, lambda: check_projection_intertwines(
            QuotientParams(a=QuadExt(1, 1)), window, degree))
        assert seen["project"] == len(monomials(degree)) * (1 + gens)
        seen = _counted(monkeypatch, lambda: check_phi_intertwines(*PHI[0], window, degree))
        assert seen["iso_phi"] == len(quotient_monomials(degree)) * (1 + gens)
    at_one, at_two = (
        _counted(monkeypatch, lambda: check_xi_intertwines(
            parse_unipoly("y^2 - 2"), QuotientParams(a=1), window, degree))
        for window in (1, 2))
    assert at_one == at_two
    assert at_one["iso_xi"] == len(quotient_monomials(degree))
    assert at_one["contains"] == at_one["__sub__"] == 0
