"""Simple quotients: action, projection, isomorphisms, composition series."""

import signal
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sconf import quotients
from sconf.algebras import AlgebraElement, BasisSymbol, basis_symbols
from sconf.errors import ParamMismatch, UnsplitPolynomial
from sconf.freemod import EVEN, ODD, act_basis, monomials
from sconf.linalg import RowSpan
from sconf.parsing import (
    parse_module_element,
    parse_quotient_element,
    parse_unipoly,
)
from sconf.quotients import (
    QuotientElement,
    QuotientParams,
    check_phi_intertwines,
    check_projection_intertwines,
    check_quotient_compatibility,
    check_xi_intertwines,
    composition_series,
    find_roots,
    iso_phi,
    iso_xi,
    project,
    project_rows,
    quotient_act_basis,
    quotient_monomials,
)
from sconf.scalars import QuadExt, Scalar
from sconf.submodules import SubmoduleSpec, UniPoly, contains


def sym(family, m):
    return BasisSymbol("R", family, 2 * m)


def q(text, parity=None):
    return parse_quotient_element(text, parity)


def mod(text, parity=None):
    return parse_module_element(text, parity)


# -- pinned action values -------------------------------------------------------

def test_L_even_a1():
    p = QuotientParams(a=1)
    out = quotient_act_basis(sym("L", 1), q("x"), p)
    # lam (x - 1/2)(x + 1)
    assert out == q("lam*x^2 + 1/2*lam*x - 1/2*lam")


def test_H_even_a1():
    p = QuotientParams(a=1)
    assert quotient_act_basis(sym("H", 0), QuotientElement.one(EVEN), p) == q("-1", EVEN)


def test_Gp_odd_any_a():
    for a in (0, 1, Fraction(-3, 2)):
        p = QuotientParams(a=a)
        out = quotient_act_basis(sym("Gp", 0), QuotientElement.one(ODD), p)
        assert out == q("2*alp^-1*x")


def test_Gm_even():
    p = QuotientParams(a=1)
    out = quotient_act_basis(sym("Gm", 2), q("x^2"), p)
    assert out == q("lam^2*alp*s^2 + 4*lam^2*alp*s + 4*lam^2*alp")


def test_formal_a_action():
    p = QuotientParams(a=None)
    out = quotient_act_basis(sym("H", 1), QuotientElement.one(EVEN), p)
    assert out == q("-1*a*lam", EVEN) == QuotientElement.monomial(
        EVEN, 0, -Scalar.param("a") * Scalar.param("lam")
    )


def test_custom_lam_alp():
    p = QuotientParams(a=0, lam=Scalar.number(Fraction(3, 2)), alp=Scalar.number(2))
    out = quotient_act_basis(sym("L", -1), q("x"), p)
    # (3/2)^-1 x (x-1) = 2/3 x^2 - 2/3 x
    assert out == q("2/3*x^2 - 2/3*x")


# -- projection -------------------------------------------------------------------

def test_the_action_sums_its_image_in_one_pass(monkeypatch):
    """The root is read in the row's prefactor, so no image is reduced after
    the row is summed: with ``_remainders``, the division that ``project``
    reduces by, refusing, every family and parity still acts, by a basis
    symbol and by an element."""
    cases = [(p, BasisSymbol("R", "C") if family == "C" else sym(family, m), parity)
             for p in (QuotientParams(), QuotientParams(a=QuadExt(1, 1), lam=Scalar.number(2)))
             for family in ("L", "H", "Gp", "Gm", "C") for m in (-2, 0, 3)
             for parity in (EVEN, ODD)]
    element = AlgebraElement("R", {sym("L", 1): Scalar.number(QuadExt(1, 1)),
                                   sym("H", -2): Scalar.param("lam"),
                                   BasisSymbol("R", "C"): Scalar.number(1)})
    v = {EVEN: q("x^2 + 2*x - lam"), ODD: q("s^3 + alp", ODD)}
    want = [(quotient_act_basis(x, v[parity], p), quotients.quotient_act(x, v[parity], p),
             quotients.quotient_act(element, v[parity], p)) for p, x, parity in cases]

    def refuse(*args):
        raise AssertionError("an image is reduced after it is summed")

    monkeypatch.setattr(quotients, "_remainders", refuse)
    got = [(quotient_act_basis(x, v[parity], p), quotients.quotient_act(x, v[parity], p),
            quotients.quotient_act(element, v[parity], p)) for p, x, parity in cases]
    assert got == want
    assert sum(not image.is_zero() for row in got for image in row) > len(cases)


def test_project_kernel_generator():
    p = QuotientParams(a=1)
    assert project(mod("y + 1"), p).is_zero()


def test_project_substitutes():
    p = QuotientParams(a=1)
    assert project(mod("x*y"), p) == q("-x")
    # odd part: t -> -a-1 = -2
    assert project(mod("s*t"), p) == q("-2*s")


def test_project_needs_concrete_a():
    with pytest.raises(ValueError):
        project(mod("x"), QuotientParams(a=None))


def test_no_kernel_is_built_by_params_or_the_projection_sweep(monkeypatch):
    """A ``QuotientParams``, concrete or formal, stores the int divisors of
    y + a and t + a + 1, those of the kernel, and builds no
    ``SubmoduleSpec``, nor does a projection sweep."""
    want, built = SubmoduleSpec("M", parse_unipoly("y + 1 + sqrt2")), []
    good = SubmoduleSpec.__init__

    def counted(self, *args):
        built.append(args)
        good(self, *args)

    monkeypatch.setattr(SubmoduleSpec, "__init__", counted)
    p, formal = QuotientParams(a=QuadExt(1, 1)), QuotientParams()
    assert not built and formal.divisors is None
    report = check_projection_intertwines(p, 2, 2)
    assert report.passed, report.render_text()
    assert not built
    assert want._int_divisors == p.divisors
    with pytest.raises(ValueError, match="^this operation needs a concrete value for a$"):
        project_rows(mod("x").to_rows(), formal)


def test_projection_intertwines_H2_spot():
    # both routes give 4 lam^2 (s + 2) for v = s*t at a = 1
    p = QuotientParams(a=1)
    v = mod("s*t")
    lhs = project(act_basis(sym("H", 2), v), p)
    rhs = quotient_act_basis(sym("H", 2), project(v, p), p)
    assert lhs == rhs == q("4*lam^2*s + 8*lam^2")


@pytest.mark.parametrize("a", [0, 1, -1, Fraction(3, 2)])
def test_projection_intertwines_window2(a):
    report = check_projection_intertwines(QuotientParams(a=a), 2, 3)
    assert report.passed, report.render_text()


@pytest.mark.parametrize("a", [0, 1, QuadExt(1, 1)])
def test_quotient_compatibility_window2(a):
    report = check_quotient_compatibility(QuotientParams(a=a), 2, 3)
    assert report.passed, report.render_text()


def test_quotient_compatibility_formal_a():
    report = check_quotient_compatibility(QuotientParams(a=None), 2, 2)
    assert report.passed, report.render_text()


def test_project_surjective_with_kernel_dimension():
    # on the degree-<=d truncation the projection has rank d+1 and its kernel
    # dimension matches the span of (y+a) * monomials of degree <= d-1
    d = 3
    p = QuotientParams(a=1)
    span = RowSpan(d + 1)
    n_monos = 0
    rankful = 0
    for v in monomials(d, parities=(EVEN,)):
        n_monos += 1
        w = project(v, p)
        vec = [QuadExt(0)] * (d + 1)
        for k, c in w.terms.items():
            vec[k] = c.constant()
        if span.add(vec):
            rankful += 1
    assert span.rank == d + 1
    kernel_dim = n_monos - span.rank
    assert kernel_dim == d * (d + 1) // 2  # count of (y+a) x^i y^j, i+j <= d-1
    ker = SubmoduleSpec("M", parse_unipoly("y + 1"))  # the kernel at a = 1
    for v in monomials(d - 1, parities=(EVEN,)):
        lifted = v.times_poly({(0, 1): Scalar.number(1), (0, 0): Scalar.number(1)})
        assert contains(ker, lifted) and project(lifted, p).is_zero()


# -- isomorphisms -----------------------------------------------------------------

def test_phi_values_and_mismatch():
    src = QuotientParams(a=1)
    dst = QuotientParams(a=1, alp=Scalar.param("bet"))
    assert iso_phi(q("x^2"), src, dst) == q("x^2")
    assert iso_phi(q("s"), src, dst) == QuotientElement.monomial(
        ODD, 1, Scalar.param("bet") * Scalar.param("alp", -1)
    )
    with pytest.raises(ParamMismatch):
        iso_phi(q("x"), QuotientParams(a=1), QuotientParams(a=2, alp=Scalar.param("bet")))
    with pytest.raises(ParamMismatch):
        iso_phi(
            q("x"),
            QuotientParams(a=1),
            QuotientParams(a=1, lam=Scalar.param("mu"), alp=Scalar.param("bet")),
        )


@pytest.mark.parametrize("a", [0, 1])
def test_phi_refuses_a_formal_against_a_concrete_root(a):
    formal, concrete = QuotientParams(), QuotientParams(a=a)
    for src, dst in ((formal, concrete), (concrete, formal)):
        with pytest.raises(ParamMismatch, match="root parameter differs"):
            iso_phi(q("x"), src, dst)


def test_phi_intertwines_window2():
    src = QuotientParams(a=Fraction(3, 2))
    dst = QuotientParams(a=Fraction(3, 2), alp=Scalar.param("bet"))
    assert check_phi_intertwines(src, dst, 2, 3).passed


def test_xi_values():
    p = QuotientParams(a=1)
    ht = parse_unipoly("y - 1")
    assert iso_xi(QuotientElement.one(EVEN), ht, p) == mod("y - 1")
    assert iso_xi(q("s"), ht, p) == mod("s*t")  # h~(t+1) = t
    # h~ = 1 is a section of the projection
    one = parse_unipoly("1")
    v = q("x^2 - 3", EVEN)
    assert project(iso_xi(v, one, p), p) == v


def test_xi_intertwines_spot_Gm0():
    p = QuotientParams(a=1)
    ht = parse_unipoly("y - 1")
    h = parse_unipoly("y^2 - 1")
    full = SubmoduleSpec("M", h)
    lhs = act_basis(sym("Gm", 0), iso_xi(QuotientElement.one(EVEN), ht, p))
    rhs = iso_xi(quotient_act_basis(sym("Gm", 0), QuotientElement.one(EVEN), p), ht, p)
    assert lhs == rhs == mod("alp*t")
    assert contains(full, lhs - rhs)


@pytest.mark.parametrize(
    "a, ht",
    [
        (1, "y - 1"),
        (0, "y + 1"),
        (-1, "y^2 + y - 2"),
    ],
)
def test_xi_intertwines_window2(a, ht):
    report = check_xi_intertwines(parse_unipoly(ht), QuotientParams(a=a), 2, 3)
    assert report.passed, report.render_text()


def test_xi_sweep_shifts_the_kernel_divisors_and_each_odd_element_it_lifts(monkeypatch):
    calls = []
    good = UniPoly.shifted
    monkeypatch.setattr(UniPoly, "shifted", lambda self, c: calls.append(self) or good(self, c))
    h_tilde = parse_unipoly("y^2 + y - 2")
    report = check_xi_intertwines(h_tilde, QuotientParams(a=-1), 1, 2)
    assert report.passed, report.render_text()
    # the odd divisor of the full kernel, then h~(t+1) once for every odd
    # vector and odd image X . v the sweep lifts; no kernel spec of y + a
    assert len(calls) == 2 and calls[1] is h_tilde


# -- roots and composition series ---------------------------------------------------

def test_find_roots_examples():
    assert find_roots(parse_unipoly("y^2 - 1")) == [QuadExt(1), QuadExt(-1)]
    assert find_roots(parse_unipoly("y")) == [QuadExt(0)]
    assert find_roots(parse_unipoly("y^2 - 2")) == [QuadExt(0, 1), QuadExt(0, -1)]
    assert find_roots(parse_unipoly("y^2 - 2*y + 1")) == [QuadExt(1), QuadExt(1)]
    with pytest.raises(UnsplitPolynomial):
        find_roots(parse_unipoly("y^2 - 3"))
    with pytest.raises(UnsplitPolynomial):
        find_roots(parse_unipoly("y^3 - y + 1"))
    with pytest.raises(UnsplitPolynomial):
        find_roots(parse_unipoly("y^2 - 1"), root_hint=[QuadExt(2)])
    # a hint's denominator need not divide those of h
    with pytest.raises(UnsplitPolynomial, match=r"^hinted value 1/7 - 2/7\*sqrt2 is not a root "
                       r"of y \+ 1$"):
        find_roots(parse_unipoly("y^2 - 1"),
                   root_hint=[1, QuadExt(Fraction(1, 7), Fraction(-2, 7))])
    assert find_roots(parse_unipoly("y^2 - 1"), root_hint=[-1]) == [QuadExt(-1), QuadExt(1)]
    # irrational roots that are not one conjugate pair of a rational quadratic
    assert find_roots(UniPoly.from_roots([1, QuadExt(0, 1)])) == [QuadExt(1), QuadExt(0, 1)]
    assert find_roots(parse_unipoly("y^2 - 2*sqrt2*y + 2")) == [QuadExt(0, 1), QuadExt(0, 1)]
    assert Counter(find_roots(parse_unipoly("y^4 - 10*y^2 + 16"))) == Counter(
        [QuadExt(0, 1), QuadExt(0, -1), QuadExt(0, 2), QuadExt(0, -2)]
    )
    # the unsplit note names the factor left after deflation
    with pytest.raises(UnsplitPolynomial, match=r"^cannot split y\^2 - 3 over Q\(sqrt2\)$"):
        find_roots(UniPoly.from_roots([QuadExt(0, 2)]) * parse_unipoly("y^2 - 3"))


def test_find_roots_rational_candidates():
    roots = find_roots(parse_unipoly("y^2 - 1/6*y - 1/3"))
    assert sorted(r.rat for r in roots) == [Fraction(-1, 2), Fraction(2, 3)]


def test_find_roots_large_constant_in_bounded_time():
    # the root search must stay fast on constants up to 10^18
    def timeout(*_):
        raise TimeoutError("find_roots took longer than 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        roots = find_roots(parse_unipoly("y^2 - 1234567*y + 234567000000"))
        big16 = find_roots(parse_unipoly("y^2 - 9999999999999999*y - 10000000000000000"))
        big18 = find_roots(parse_unipoly("y^2 - 999999999999999999*y - 1000000000000000000"))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert roots == [QuadExt(234567), QuadExt(1000000)]
    assert big16 == [QuadExt(-1), QuadExt(10 ** 16)]
    assert big18 == [QuadExt(-1), QuadExt(10 ** 18)]


_SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=4)
# y^2 - k with k neither a square nor twice a square, and y^3 - c with c no cube
_IRREDUCIBLE = [
    parse_unipoly(text) for text in ("y^2 - 3", "y^2 + 2", "y^2 - 6", "y^3 - 2", "y^3 + 5")
]


@st.composite
def _root_multisets(draw):
    """1 to 5 roots p + q sqrt2 of small height, with repeats and conjugates."""
    roots = draw(st.lists(st.builds(QuadExt, _SMALL, _SMALL | st.just(0)), min_size=1, max_size=3))
    for r in list(roots):
        roots.extend(draw(st.sampled_from(((), (r,), (r.conjugate(),)))))
    return roots[:5]


@settings(max_examples=150, deadline=None)
@given(_root_multisets(), st.sampled_from(_IRREDUCIBLE), st.integers(1, 5))
def test_find_roots_returns_the_drawn_multiset(roots, irreducible, hinted):
    h = UniPoly.from_roots(roots)
    assert Counter(find_roots(h)) == Counter(roots)
    hints = roots[:hinted]  # put first, repeated and sqrt2 roots among them
    found = find_roots(h, hints)
    assert found[:len(hints)] == hints and Counter(found) == Counter(roots)
    with pytest.raises(UnsplitPolynomial):
        find_roots(h * irreducible)


@settings(max_examples=25, deadline=None)
@given(_root_multisets(), st.sampled_from([UniPoly.const(1)] + _IRREDUCIBLE))
def test_find_roots_agrees_with_sympy_linear_factors(roots, extra):
    sympy = pytest.importorskip("sympy")
    h = UniPoly.from_roots(roots) * extra
    y = sympy.Symbol("y")
    expr = sum(
        (sympy.Rational(c.rat) + sympy.Rational(c.root2) * sympy.sqrt(2)) * y ** k
        for k, c in enumerate(h.coeffs)
    )
    _, factors = sympy.factor_list(expr, y, extension=sympy.sqrt(2))
    linear = sum(m for f, m in factors if sympy.degree(f, y) == 1)
    try:
        found = len(find_roots(h))
    except UnsplitPolynomial:
        found = len(roots)
        assert extra.degree > 0
    assert linear == found


def test_root_search_evaluates_each_sturm_point_once(monkeypatch):
    """Every decompose shape of this file, split or not: within one call of
    the Sturm bisection no point is evaluated twice."""
    texts = ["y^2 - 1", "y", "y^2 - 2", "y^2 - 2*y + 1", "y^2 - 3", "y^3 - y + 1",
             "y^2 - 2*sqrt2*y + 2", "y^4 - 10*y^2 + 16", "y^2 - 1/6*y - 1/3",
             "y^2 - 1234567*y + 234567000000", "y^2 - 9999999999999999*y - 10000000000000000",
             "y^2 - 999999999999999999*y - 1000000000000000000", "y^3 - 2*y^2 - y + 2"]
    shapes = [parse_unipoly(text) for text in texts] + [
        UniPoly.from_roots([1, QuadExt(0, 1)]),
        UniPoly.from_roots([QuadExt(0, 2)]) * parse_unipoly("y^2 - 3"),
    ]
    drawn = [QuadExt(Fraction(3, 2), -2), QuadExt(Fraction(3, 2), 2), QuadExt(-1), QuadExt(-1)]
    shapes += [UniPoly.from_roots(drawn) * extra for extra in [UniPoly.const(1)] + _IRREDUCIBLE]
    points = []
    sign_changes = quotients._sign_changes
    monkeypatch.setattr(quotients, "_sign_changes",
                        lambda chain, z: points.append(z) or sign_changes(chain, z))
    for h in shapes:
        points.clear()
        try:
            find_roots(h)
        except UnsplitPolynomial:
            pass
        assert points and len(points) == len(set(points)), h


def test_composition_series_y2_minus_1():
    cs = composition_series(parse_unipoly("y^2 - 1"))
    assert [s.render() for s in cs.chain] == ["M[h=y - 1]", "M[h=y^2 - 1]"]
    assert Counter(cs.factors) == Counter([QuadExt(-1), QuadExt(1)])


def test_composition_series_single_root():
    cs = composition_series(parse_unipoly("y"))
    assert cs.factors == (QuadExt(0),)
    assert cs.chain[0].h == parse_unipoly("y")


def test_composition_series_respects_hints_and_permutation():
    h = parse_unipoly("y^3 - 2*y^2 - y + 2")  # (y-1)(y+1)(y-2)
    base = composition_series(h)
    for perm in ([1, -1, 2], [2, 1, -1], [-1, 2, 1]):
        cs = composition_series(h, root_hint=[QuadExt(r) for r in perm])
        assert Counter(cs.factors) == Counter(base.factors)
        assert cs.chain[-1].h == h
        # chain really descends
        for inner, outer in zip(cs.chain[1:], cs.chain[:-1]):
            assert outer.h.divides(inner.h)


def test_composition_series_unsplit():
    with pytest.raises(UnsplitPolynomial):
        composition_series(parse_unipoly("y^2 - 3"))
