"""N=1 restriction: transported action, rank-1 freeness, simplicity."""

import re
from fractions import Fraction
from itertools import product

import pytest

from sconf import algebras, n1, quotients
from sconf.algebras import (BasisSymbol, basis_symbols, bracket, AlgebraElement, _generator_map,
                            apply_map)
from sconf.errors import AlgebraMismatch, MixedParity
from sconf.freemod import EVEN, ODD
from sconf.n1 import (
    RestrictedAction,
    check_n1_relations,
    check_rank1_freeness,
    check_simplicity_witness,
    restricted_act,
)
from sconf.parsing import parse_algebra_element, parse_quotient_element
from sconf.quotients import QuotientElement, QuotientParams, quotient_monomials
from sconf.scalars import INV_SQRT2, SQRT2, QuadExt, Scalar
from test_algebras import _corrupted_maps
from test_compat_failures import families_of, on_rows


def q(text, parity=None):
    return parse_quotient_element(text, parity)


def n1sym(family, twice):
    return BasisSymbol("N1R", family, twice)


@pytest.fixture
def r1():
    return RestrictedAction.ramond(QuotientParams(a=1))


# -- pinned values -------------------------------------------------------------

def test_G0_on_even_one(r1):
    out = restricted_act(n1sym("G", 0), QuotientElement.one(EVEN), r1)
    # (alp / sqrt2) 1_odd
    assert out == QuotientElement.monomial(ODD, 0, Scalar.param("alp") * INV_SQRT2)


def test_G0_on_odd_one(r1):
    out = restricted_act(n1sym("G", 0), QuotientElement.one(ODD), r1)
    assert out == q("sqrt2*alp^-1*x")


def test_G0_squared_is_L0(r1):
    for v in (q("x^2 + 1", EVEN), q("s^3 - 2*s", ODD)):
        twice = restricted_act(n1sym("G", 0), restricted_act(n1sym("G", 0), v, r1), r1)
        l0v = restricted_act(n1sym("L", 0), v, r1)
        assert twice == l0v


def test_defining_relation_transported(r1):
    # [G0, G0] = 2 L0 acting on monomials up to degree 5
    G0 = AlgebraElement.basis(n1sym("G", 0))
    br = bracket(G0, G0)
    for parity in (EVEN, ODD):
        for k in range(6):
            v = QuotientElement.monomial(parity, k)
            lhs = restricted_act(br, v, r1)
            gv = restricted_act(G0, v, r1)
            rhs = restricted_act(G0, gv, r1) + restricted_act(G0, gv, r1)
            assert lhs == rhs


def test_source_validation(r1):
    with pytest.raises(AlgebraMismatch):
        restricted_act(BasisSymbol("R", "L", 0), QuotientElement.one(EVEN), r1)
    with pytest.raises(AlgebraMismatch):
        RestrictedAction("R", r1.embedding, r1.params)


def test_ns_restriction_mode_doubling():
    # through the composed embedding, L_m acts with lam^{2m}
    r = RestrictedAction.neveu_schwarz(QuotientParams(a=0))
    out = restricted_act(BasisSymbol("N1NS", "L", 2), QuotientElement.one(ODD), r)
    # (1/2) L_2 . 1_odd = (1/2) lam^2 (s + 1)
    assert out == q("1/2*lam^2*s + 1/2*lam^2")


# -- sweeps -----------------------------------------------------------------------

@pytest.mark.parametrize("a", [0, 1, QuadExt(1, 1)])
def test_relations_ramond(a):
    r = RestrictedAction.ramond(QuotientParams(a=a))
    report = check_n1_relations(r, 2, 2)
    assert report.passed, report.render_text()


def test_relations_neveu_schwarz():
    r = RestrictedAction.neveu_schwarz(QuotientParams(a=1))
    report = check_n1_relations(r, 2, 3)
    assert report.passed, report.render_text()


def _twist_images(monkeypatch, twist):
    """Replace every restricted image by ``twist(x, image)``, at the rows seam."""
    on_rows(monkeypatch, n1, "restricted_rows", lambda good, x, v, r: twist(x, good(x, v, r)))


def _restriction(source):
    build = RestrictedAction.ramond if source == "N1R" else RestrictedAction.neveu_schwarz
    return build(QuotientParams(a=1))


def _conjugate(x, out):
    return type(out)(out.parity, {
        k: Scalar({ev: q.conjugate() for ev, q in c.terms.items()}) for k, c in out.terms.items()
    })


@pytest.mark.parametrize("source", ["N1R", "N1NS"])
def test_relations_hold_under_the_galois_twist(monkeypatch, source):
    # sqrt2 -> -sqrt2 on every image is again a representation: the brackets
    # are rational.  Through the NS embeddings the two 1/sqrt2 multiply to 1/2,
    # so only the N1R images carry sqrt2.
    _twist_images(monkeypatch, _conjugate)
    r = _restriction(source)
    image = n1.restricted_act(basis_symbols(source, 1)[-1], QuotientElement.one(EVEN), r)
    assert any(q.q for c in image.terms.values() for q in c.terms.values()) == (source == "N1R")
    report = check_n1_relations(r, 2, 2)
    assert report.passed, report.render_text()


@pytest.mark.parametrize("source", ["N1R", "N1NS"])
def test_sqrt2_on_g_breaks_exactly_the_g_pairs(monkeypatch, source):
    # sqrt2 G . sqrt2 G = 2 G.G while [G, G] = 2 L keeps its coefficient;
    # [L, G] scales by sqrt2 on both sides
    _twist_images(
        monkeypatch, lambda x, out: out * SQRT2 if "G" in families_of(x) else out
    )
    r = _restriction(source)
    report = check_n1_relations(r, 1, 1)
    assert report.status == "fail"
    odd = [s for s in basis_symbols(source, 1) if s.family == "G"]
    label = f"n1 {source} {r.params.describe()} "
    assert [v.context for v in report.violations] == [
        f"{label}({x}, {y}) on {v}" for x, y in product(odd, repeat=2) for v in quotient_monomials(1)
    ]


def test_relations_window0():
    r = RestrictedAction.ramond(QuotientParams(a=1))
    assert check_n1_relations(r, 0, 3).passed


def test_rank1_freeness():
    for a in (0, 1, Fraction(-3, 2)):
        r = RestrictedAction.ramond(QuotientParams(a=a))
        report = check_rank1_freeness(r, 5)
        assert report.passed, report.render_text()


def test_rank1_requires_ramond_source():
    r = RestrictedAction.neveu_schwarz(QuotientParams(a=1))
    with pytest.raises(AlgebraMismatch):
        check_rank1_freeness(r, 3)


def test_simplicity_nonzero_a():
    for a in (1, -1, 2):
        report = check_simplicity_witness(a, Fraction(3, 2), 2, 3, 3)
        assert report.passed, report.render_text()


def test_simplicity_full_span_from_odd_unit():
    # the certificate covers every nonzero vector, 1_odd among them: at a = 1
    # an odd start reaches 1_even through G0 and the even differences
    report = check_simplicity_witness(1, Fraction(3, 2), 2, 3, 3)
    assert report.passed, report.render_text()
    assert any("goes through G0" in note for note in report.notes)


def test_simplicity_a_zero_closure_certificate():
    report = check_simplicity_witness(0, Fraction(3, 2), 2, 3, 3)
    assert report.passed, report.render_text()
    assert any("not simple" in note for note in report.notes)
    # the candidate subspace is proper: its even part misses the constants
    r = RestrictedAction.ramond(
        QuotientParams(a=0, lam=Scalar.number(Fraction(3, 2)), alp=Scalar.number(2))
    )
    # explicit closure spot-checks from the derivation
    out = restricted_act(n1sym("G", 2), q("x"), r)
    assert out.parity == ODD
    out = restricted_act(n1sym("G", 2), QuotientElement.one(ODD), r)
    assert out.parity == EVEN and 0 not in out.terms


def test_simplicity_requires_nonzero_specialization():
    with pytest.raises(ValueError):
        check_simplicity_witness(1, 0, 2, 3, 3)


def test_simplicity_smallest_bounds_give_the_exact_pass():
    # degree 1, window 1 and no words: the certificate is exact at any bounds
    report = check_simplicity_witness(1, Fraction(3, 2), 2, 1, 0, index_window=1)
    assert report.status == "pass" and not report.violations
    assert report.notes[-1].endswith("so the restriction is simple")


# -- the embedding read per generator -------------------------------------------

def _old_route(x, v, r):
    """The reference: the embedded image built whole by ``apply_map`` and
    acted by through ``quotient_act``."""
    return quotients.quotient_act(apply_map(r.embedding, x), v, r.params)


def _fold():
    """N1R -> R modulo C with G_m -> (-1)^m (Gp_0 + Gm_0)/sqrt2: the targets
    of G[0] + G[1] cancel.  Not a homomorphism; only the merge is tested."""
    def sign(m):
        return INV_SQRT2 if m % 2 == 0 else -INV_SQRT2

    return _generator_map("fold", "N1R", "R", {
        "L": (("L", 1, 0, 1),), "G": (("Gp", 0, 0, sign), ("Gm", 0, 0, sign))}, mod_center=True)


_ACTING = {
    "N1R": ["2*L[1] + lam*L[-2]", "G[0] + sqrt2*G[1] - alp*G[-2]", "0"],
    "N1NS": ["L[1] - 1/3*L[0]", "G[1/2] + lam*G[-3/2]", "0"],
    "fold": ["G[0] + G[1]", "G[0] + G[1] + 3*G[2]", "L[2] - L[-1]", "0"],
}
_VECTORS = [*quotient_monomials(3), q("x^3 - lam*x + 1/2"), q("sqrt2*s^2 + s - alp"),
            q("x + 1") * Scalar.param("alp"), QuotientElement.zero(ODD)]
_PARAMS = [QuotientParams(a=a, **specialized) for a in (0, 1, QuadExt(1, 1), None)
           for specialized in ({}, {"lam": Scalar.number(Fraction(3, 2)), "alp": Scalar.number(2)})]


@pytest.mark.parametrize("p", _PARAMS, ids=lambda p: p.describe())
@pytest.mark.parametrize("source", ["N1R", "N1NS", "fold"])
def test_restricted_act_matches_the_embedded_image(source, p):
    if source == "fold":
        r = RestrictedAction("N1R", _fold(), p)
        assert apply_map(r.embedding, parse_algebra_element("G[0] + G[1]", "N1R")).is_zero()
    else:
        r = (RestrictedAction.ramond if source == "N1R" else RestrictedAction.neveu_schwarz)(p)
    acting = [parse_algebra_element(text, r.source) for text in _ACTING[source]]
    for x in [*basis_symbols(r.source, 3), *acting]:
        for v in _VECTORS:
            got, want = restricted_act(x, v, r), _old_route(x, v, r)
            assert got == want and got.parity == want.parity and got.terms == want.terms, (x, v)


def test_a_mixed_restricted_element_is_refused_as_its_image_was():
    r = RestrictedAction.ramond(QuotientParams(a=1))
    x = parse_algebra_element("L[1] + G[0]", "N1R")
    with pytest.raises(MixedParity) as old:
        _old_route(x, QuotientElement.one(EVEN), r)
    with pytest.raises(MixedParity, match=re.escape(str(old.value))):
        restricted_act(x, QuotientElement.one(EVEN), r)


def test_the_restriction_checks_build_no_embedded_image(monkeypatch):
    def refuse(*args):
        raise AssertionError("apply_map called on the N=1 path")

    monkeypatch.setattr(algebras, "apply_map", refuse)
    p = QuotientParams(a=1)
    reports = [check_n1_relations(RestrictedAction.ramond(p), 1, 2),
               check_n1_relations(RestrictedAction.neveu_schwarz(p), 1, 2),
               check_rank1_freeness(RestrictedAction.ramond(p), 3)]
    reports += [check_simplicity_witness(a, Fraction(3, 2), 2, 2, index_window=1) for a in (0, 1, 2)]
    assert all(report.passed for report in reports), [r.render_text() for r in reports]


def test_restricted_act_reads_the_map_it_is_given():
    # upsilon2 with Gm's coefficient 1/sqrt2 -> sqrt2
    r = RestrictedAction("N1R", _corrupted_maps()["upsilon2"], QuotientParams(a=1))
    report = check_n1_relations(r, 1, 1)
    # only {G, G} = 2 L reads the product of the Gp and Gm coefficients
    assert not report.passed
    assert all(v.context.count("G[") == 2 for v in report.violations)
