"""The bracket-compatibility sweeps act through the basis action they are
given, one generator at a time, never through ``act`` or ``quotient_act`` on
whole algebra elements.  The sweep, which sums each unordered generator pair
once in packed ints, records the violations of the element-wise ordered-pair
sweep ``pair_violations`` of ``reference.py``, in its order and with its
texts: on every sweep with the action right, with families scaled at the
basis-action seam and with twisted bracket rows, and on vectors packed side
by side as the signed digits of one int."""

import pytest

from sconf import algebras, freemod, n1, quotients
from sconf.algebras import BasisSymbol, basis_symbols
from sconf.errors import MixedParity
from sconf.freemod import EVEN, ODD, ModuleElement, monomials
from sconf.n1 import RestrictedAction, check_n1_relations
from sconf.quotients import QuotientParams, check_quotient_compatibility, quotient_monomials
from sconf.reports import VerificationReport
from sconf.scalars import QuadExt, Scalar

from reference import linear, pair_violations
from test_compat_failures import scale_family

P = QuotientParams(a=1)
WIDE = QuotientParams(a=QuadExt(10**30, 7), lam=Scalar.number(12345678901234567891),
                      alp=Scalar.number(98765432109876543211))
ROOT2 = QuotientParams(a=QuadExt(1, 1))


def test_sweeps_build_no_linear_action(monkeypatch):
    def refuse(*args):
        raise AssertionError("a compatibility sweep acted by a whole element")

    good = n1.restricted_act

    def one_generator(x, w, r):
        assert len(x.terms) == 1, f"an N=1 sweep acted by {x}"
        return good(x, w, r)

    monkeypatch.setattr(freemod, "act", refuse)
    monkeypatch.setattr(quotients, "quotient_act", refuse)
    monkeypatch.setattr(n1, "restricted_act", one_generator)
    reports = [
        freemod.check_module_compatibility(1, 1),
        check_quotient_compatibility(P, 1, 1),
        check_n1_relations(RestrictedAction.ramond(P), 1, 1),
        check_n1_relations(RestrictedAction.neveu_schwarz(P), 1, 1),
    ]
    assert all(r.passed for r in reports), [r.render_text() for r in reports]


@pytest.mark.parametrize("module, name, sweep", [
    (freemod, "act_basis", lambda: freemod.check_module_compatibility(1, 1)),
    (quotients, "quotient_act_basis", lambda: check_quotient_compatibility(P, 1, 1)),
    (n1, "restricted_act", lambda: check_n1_relations(RestrictedAction.ramond(P), 1, 1)),
])
def test_an_image_of_the_wrong_parity_is_an_error(monkeypatch, module, name, sweep):
    # returning its argument, an odd generator keeps the monomial's parity
    monkeypatch.setattr(module, name, lambda x, w, *rest: w)
    with pytest.raises(MixedParity, match="maps a monomial to the wrong parity"):
        sweep()


# ---------------------------------------------------------------------------
# the element-wise ordered-pair sweep
# ---------------------------------------------------------------------------

def _module(window, degree):
    return (freemod, "act_basis", "R",
            lambda: freemod.check_module_compatibility(window, degree),
            lambda: pair_violations(basis_symbols("R", window), freemod.act,
                                    monomials(degree), "compat "))


def _quotient(p, window, degree):
    return (quotients, "quotient_act_basis", "R",
            lambda: check_quotient_compatibility(p, window, degree),
            lambda: pair_violations(basis_symbols("R", window),
                                    lambda x, v: quotients.quotient_act(x, v, p),
                                    quotient_monomials(degree), f"quotient compat {p.describe()} "))


def _n1(r, window, degree):
    return (n1, "restricted_act", r.source,
            lambda: check_n1_relations(r, window, degree),
            lambda: pair_violations(basis_symbols(r.source, window),
                                    lambda x, v: n1.restricted_act(x, v, r),
                                    quotient_monomials(degree),
                                    f"n1 {r.source} {r.params.describe()} "))


# name -> (module holding the basis action the sweep reads, its name, the
# algebra of the generators, the sweep, the element-wise reference's
# (context, lhs, rhs) triples)
SWEEPS = {
    "module": _module(1, 1),
    "quotient": _quotient(P, 1, 1),
    "N1R": _n1(RestrictedAction.ramond(P), 1, 1),
    "N1NS": _n1(RestrictedAction.neveu_schwarz(P), 1, 1),
    # wide digits: a = 10**30 + 7 sqrt2, lam and alp of 20 digits
    "quotient-wide": _quotient(WIDE, 1, 2),
    # images with sqrt2 coefficients reach the sqrt2 rows
    "N1NS-sqrt2": _n1(RestrictedAction.neveu_schwarz(ROOT2), 2, 2),
}


def _twist_brackets(monkeypatch, algebra):
    """Patch ``_bracket_ints``, which every bracket row is read through, so
    that [X, L0] gains the term X for two generators X, an even and an odd
    one: for the even X, [L0, X] keeps its true row, so the two rows are not
    sign-related; for the odd X, [L0, X] gains -X in front of its true row,
    so the rows are sign-related in a different term order."""
    good = algebras._bracket_ints
    zero = BasisSymbol(algebra, "L", 0)
    syms = basis_symbols(algebra, 1)
    lone = next(s for s in syms if s.family == "L" and s != zero)
    paired = next(s for s in syms if s.parity)
    twists = {(lone.family, lone.twice), (paired.family, paired.twice)}

    def twisted(alg, den, f1, t1, f2, t2):
        row = good(alg, den, f1, t1, f2, t2)
        if alg == algebra and (f2, t2) == ("L", 0) and (f1, t1) in twists:
            return row + [(f1, den)]
        if alg == algebra and (f1, t1) == ("L", 0) and (f2, t2) == (paired.family, paired.twice):
            return [(f2, -den)] + row
        return row

    # the sweep reads the rows through ``_numbered_brackets``, the reference
    # and the failure texts through ``_basis_bracket``: both call this
    monkeypatch.setattr(algebras, "_bracket_ints", twisted)
    return zero, lone, paired


# case -> the families whose images ``scale_family`` scales, and the factor
SCALED = {
    "doubled": (("G", "L"), 2),
    "H-doubled": (("H",), 2),
    "L-doubled": (("L",), 2),
    "G-doubled": (("G",), 2),
    # lam/alp has exponent sum 0: the sweep must keep exponent vectors apart
    "Gm-lam-over-alp": (("Gm",), Scalar.param("lam") * Scalar.param("alp", -1)),
}
CASES = [(name, case) for case in ("right", "doubled", "twisted") for name in SWEEPS] + [
    ("module", "H-doubled"), ("module", "Gm-lam-over-alp"), ("quotient", "L-doubled"),
    ("N1NS", "G-doubled"),
]


@pytest.mark.parametrize("name, case", CASES, ids=[f"{name}-{case}" for name, case in CASES])
def test_pair_sweep_reports_as_the_ordered_pair_sweep(monkeypatch, name, case):
    module, act_name, algebra, sweep, reference = SWEEPS[name]
    if case == "twisted":
        _twist_brackets(monkeypatch, algebra)
    elif case != "right":
        scale_family(monkeypatch, module, act_name, *SCALED[case])
    report, expected = sweep(), reference()
    assert [(v.context, v.lhs, v.rhs) for v in report.violations] == expected
    assert report.passed == (case == "right")


def test_a_twisted_pair_fails_in_the_orders_its_rows_allow(monkeypatch):
    zero, lone, paired = _twist_brackets(monkeypatch, "R")
    report = freemod.check_module_compatibility(1, 1)
    pairs = {v.context.split(" on ")[0] for v in report.violations}
    assert pairs == {f"compat ({x}, {y})" for x, y in [(lone, zero), (paired, zero), (zero, paired)]}


# ---------------------------------------------------------------------------
# every vector is one signed digit of a packed int
# ---------------------------------------------------------------------------

def _as_reference(syms, basis_act, vectors):
    """The sweep's report on ``vectors``, checked against the reference's."""
    got = algebras.check_representation(VerificationReport("compat", {}), syms, basis_act,
                                        vectors, "")
    want = pair_violations(syms, lambda x, v: linear(basis_act, x, v), vectors, "")
    assert [(v.context, v.lhs, v.rhs) for v in got.violations] == want
    return got


def _failing_vectors(report):
    return {v.context.split(" on ", 1)[1] for v in report.violations}


# the even R generators keep each parity, so a fault on the odd part reaches
# the odd vectors only
EVEN_R = [s for s in basis_symbols("R", 1) if not s.parity]


def _odd_l_doubled(sym, w):
    out = freemod.act_basis(sym, w)
    return out * 2 if w.parity == ODD and sym.family == "L" else out


@pytest.mark.parametrize("where", ["first", "last"])
def test_a_fault_in_the_end_digit_fails_that_vector_only(where):
    even, odd = freemod.monomials(2, (EVEN,)), freemod.monomials(1, (ODD,))[-1:]
    vectors = odd + even if where == "first" else even + odd
    report = _as_reference(EVEN_R, _odd_l_doubled, vectors)
    assert _failing_vectors(report) == {str(odd[0])}


def test_digits_of_opposite_signs_side_by_side_each_fail():
    v = ModuleElement.monomial(ODD, 1, 1)
    report = _as_reference(EVEN_R, _odd_l_doubled, [v, -v, v])
    contexts = [x.context for x in report.violations]
    assert _failing_vectors(report) == {str(v), str(-v)}
    assert len(contexts) == 3 * len({c.split(" on ")[0] for c in contexts})


@pytest.mark.parametrize("degree", [1, 2])
def test_a_passing_sweep_splits_once_per_generator_at_any_vector_count(monkeypatch, degree):
    calls, good = [], algebras._split
    monkeypatch.setattr(algebras, "_split", lambda *args: calls.append(args) or good(*args))
    assert freemod.check_module_compatibility(1, degree).passed
    assert len(calls) == len(basis_symbols("R", 1)) + 1
