"""Arithmetic unit tests and ring-axiom property tests for the scalar tower."""

from collections import Counter
from fractions import Fraction
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sconf import scalars
from sconf.errors import NotAUnit
from sconf.scalars import (
    LAURENT_PARAMS,
    PARAMS,
    QE_ONE,
    SC_ONE,
    QuadExt,
    SQRT2,
    Scalar,
    _power,
    add_terms,
    as_quadext,
    build_slices,
    same_rows,
)


def S(text):
    from sconf.parsing import parse_scalar

    return parse_scalar(text)


# -- pinned examples ----------------------------------------------------------

def test_add_identity():
    lam = Scalar.param("lam")
    assert lam + Scalar.number(0) == lam


def test_add_like_terms():
    half_lam2 = Scalar.monomial(Fraction(1, 2), lam=2)
    assert half_lam2 + half_lam2 == Scalar.param("lam", 2)


def test_add_cancels_laurent():
    two_over_alp = Scalar.monomial(2, alp=-1)
    assert (two_over_alp + Scalar.monomial(-2, alp=-1)).is_zero()


def test_mul_unit_inverse():
    lam3 = Scalar.param("lam", 3)
    assert lam3 * Scalar.param("lam", -3) == Scalar.number(1)


def test_mul_inv_sqrt2():
    inv = Scalar.number(QuadExt(0, Fraction(1, 2)))  # 1/sqrt2
    assert inv * inv == Scalar.number(Fraction(1, 2))


def test_mul_alp_cancel():
    # alp * (2/alp) = 2; the same cancellation that makes Gp0 Gm0 . 1 = 2 L0 . 1
    assert Scalar.param("alp") * Scalar.monomial(2, alp=-1) == Scalar.number(2)


def test_mul_by_quadext_builds_one_quadext(monkeypatch):
    built = []
    good = scalars._qe

    def counting(p, q, d):
        built.append((p, q, d))
        return good(p, q, d)

    lam, factor = Scalar.monomial(Fraction(2, 3), lam=1), QuadExt(Fraction(1, 2), 1)
    monkeypatch.setattr(scalars, "_qe", counting)
    out = lam * factor
    assert built == [(2, 4, 6)]  # the one product, (2/3) * (1 + 2 sqrt2)/2
    assert lam * QE_ONE is lam
    assert len(built) == 1
    monkeypatch.undo()
    assert out == Scalar.monomial(QuadExt(Fraction(1, 3), Fraction(2, 3)), lam=1)


def test_invert_examples():
    assert Scalar.monomial(2, alp=1).invert_monomial() == Scalar.monomial(
        Fraction(1, 2), alp=-1
    )
    assert Scalar.monomial(1, lam=2, alp=-1).invert_monomial() == Scalar.monomial(
        1, lam=-2, alp=1
    )
    with pytest.raises(NotAUnit):
        (Scalar.param("lam") + Scalar.number(1)).invert_monomial()
    with pytest.raises(NotAUnit):
        Scalar.param("a").invert_monomial()


def test_param_exponent_rules():
    with pytest.raises(ValueError):
        Scalar.param("a", -1)
    Scalar.param("lam", -5)  # fine


def test_evaluate():
    s = S("3/2*lam^2*alp^-1*sqrt2")
    v = s.evaluate({"lam": 2, "alp": Fraction(1, 2)})
    assert v == QuadExt(0, 12)
    with pytest.raises(ValueError):
        S("lam^-1").evaluate({"lam": 0})
    with pytest.raises(ValueError):
        S("lam*a").evaluate({"lam": 1})


def test_constant():
    assert S("1 + sqrt2").constant() == QuadExt(1, 1)
    with pytest.raises(ValueError):
        S("lam").constant()


def test_quadext_field():
    u = QuadExt(1, 1)
    assert u * u.conjugate() == QuadExt(u.norm())
    assert u * u.inverse() == QE_ONE
    assert (SQRT2 ** 2) == QuadExt(2)
    assert SQRT2 ** -2 == QuadExt(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        QuadExt(0).inverse()


# -- hypothesis strategies ----------------------------------------------------

_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_quadexts = st.builds(QuadExt, _fractions, _fractions)


def _exps():
    slots = []
    for name in PARAMS:
        if name in LAURENT_PARAMS:
            slots.append(st.integers(min_value=-2, max_value=2))
        else:
            slots.append(st.integers(min_value=0, max_value=2))
    return st.tuples(*slots)


def _mk_scalar(d):
    out = Scalar({})
    for ev, c in d.items():
        if not c.is_zero():
            out = out + Scalar({ev: c})
    return out


_scalars = st.dictionaries(_exps(), _quadexts, max_size=3).map(_mk_scalar)

_unit_monomials = st.builds(
    lambda c, l, a: Scalar.monomial(c, lam=l, alp=a),
    _quadexts.filter(lambda q: not q.is_zero()),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)


@settings(max_examples=120)
@given(_scalars, _scalars, _scalars)
def test_ring_axioms(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u
    assert (u * v) * w == u * (v * w)
    assert u * v == v * u
    assert u * (v + w) == u * v + u * w


@settings(max_examples=120)
@given(_quadexts, _quadexts)
def test_norm_multiplicative(u, v):
    assert (u * v).norm() == u.norm() * v.norm()


@settings(max_examples=100)
@given(_unit_monomials)
def test_invert_monomial_roundtrip(u):
    assert u * u.invert_monomial() == Scalar.number(1)


@settings(max_examples=120)
@given(_scalars)
def test_render_parse_roundtrip(u):
    from sconf.parsing import parse_scalar

    assert parse_scalar(u.render()) == u


@settings(max_examples=80)
@given(_quadexts, st.integers(min_value=0, max_value=5))
def test_quadext_pow(u, n):
    expect = QE_ONE
    for _ in range(n):
        expect = expect * u
    assert u ** n == expect


# -- the kernel's operand shapes ----------------------------------------------
#
# QuadExt arithmetic takes a shorter path when an operand has no sqrt2 part;
# these draw each shape on purpose and check every path against the
# schoolbook formulas on plain Fractions.

_nonzero_fractions = _fractions.filter(bool)
_rational = st.builds(QuadExt, _fractions)
_pure_root2 = st.builds(lambda q: QuadExt(0, q), _nonzero_fractions)
_mixed = st.builds(QuadExt, _nonzero_fractions, _nonzero_fractions)
_shaped = st.one_of(_rational, _pure_root2, _mixed)
_rationals = st.one_of(st.integers(min_value=-5, max_value=5), _fractions)


def _parts(u):
    _canonical(u)
    assert type(u.rat) is Fraction and type(u.root2) is Fraction
    return u.rat, u.root2


def _schoolbook(op, u, v):
    p, q = Fraction(u.rat), Fraction(u.root2)
    r, s = Fraction(v.rat), Fraction(v.root2)
    if op == "+":
        return p + r, q + s
    if op == "-":
        return p - r, q - s
    return p * r + 2 * q * s, p * s + q * r


@settings(max_examples=150)
@given(_shaped, _shaped)
def test_quadext_ops_match_schoolbook(u, v):
    assert _parts(u + v) == _schoolbook("+", u, v)
    assert _parts(u - v) == _schoolbook("-", u, v)
    assert _parts(u * v) == _schoolbook("*", u, v)
    assert _parts(v * u) == _schoolbook("*", u, v)
    assert _parts(-u) == (-u.rat, -u.root2)


@settings(max_examples=100)
@given(_shaped, _rationals)
def test_quadext_with_rational_operands(u, k):
    kq = QuadExt(k)
    for op, got in (("+", u + k), ("+", k + u), ("-", u - k), ("*", u * k), ("*", k * u)):
        assert _parts(got) == _schoolbook(op, u, kq)
    assert _parts(k - u) == _schoolbook("-", kq, u)
    assert _parts(as_quadext(k)) == (k, 0)
    assert _parts(Scalar.number(k).constant()) == (k, 0)


@pytest.mark.parametrize("bad", [0.1, "1/2", None, 1j])
def test_quadext_rejects_parts_that_are_not_int_or_fraction(bad):
    with pytest.raises(TypeError):
        QuadExt(bad)
    with pytest.raises(TypeError):
        QuadExt(1, bad)


def _generic(k):
    """A constant Scalar built without the shared SC_ONE, so that a product
    with it takes the generic Scalar x Scalar path."""
    return Scalar.monomial(k)


@settings(max_examples=100)
@given(_scalars, st.sampled_from([1, 0, -3, 7, Fraction(-2, 3), QE_ONE, QuadExt(1)]) | _shaped)
def test_scalar_times_number_matches_generic_product(u, k):
    expect = u * _generic(k)
    assert u * k == expect and k * u == expect
    assert u * Scalar.number(k) == expect and Scalar.number(k) * u == expect
    if k == 1:
        assert u * k is u and k * u is u


@settings(max_examples=50)
@given(_scalars)
def test_scalar_times_one(u):
    assert u * SC_ONE is u and SC_ONE * u is u
    assert Scalar.number(1) is SC_ONE
    assert u * _generic(1) == u and _generic(1) * u == u


@settings(max_examples=100)
@given(_shaped | _quadexts, _rationals | st.sampled_from([0, 1, -3, QuadExt(1, -1)]))
def test_reflected_division_matches_the_forward_operator(u, k):
    """``k / u`` for a number k reaches ``QuadExt.__rtruediv__``."""
    if u.is_zero():
        with pytest.raises(ZeroDivisionError):
            k / u
        return
    got = k / u
    assert type(got) is QuadExt
    assert got == as_quadext(k) / u == as_quadext(k) * u.inverse()
    assert got * u == as_quadext(k)


@settings(max_examples=100)
@given(_scalars, _rationals | st.sampled_from([0, 1, -3, QuadExt(1, -1)]))
def test_reflected_subtraction_matches_the_forward_operator(u, k):
    """``k - u`` for a number k reaches ``Scalar.__rsub__``."""
    got = k - u
    assert type(got) is Scalar
    assert got == Scalar.number(k) - u == -(u - k)
    assert got + u == Scalar.number(k)
    with pytest.raises(TypeError):
        "1" - u


# -- the integer-triple invariant ----------------------------------------------
#
# A QuadExt is (p + q*sqrt2)/d in lowest terms.  Equality compares the triples,
# so every result must come out canonical, and a rational value must hash like
# the equal int or Fraction.

def _canonical(u):
    p, q, d = u.p, u.q, u.d
    assert all(type(x) is int for x in (p, q, d))
    assert d > 0 and gcd(p, q, d) == 1  # so zero is (0, 0, 1)
    return u


@settings(max_examples=200)
@given(_shaped | _quadexts, _shaped | _quadexts, st.integers(min_value=-4, max_value=4))
def test_every_result_is_canonical(u, v, n):
    results = [u + v, u - v, u * v, -u, u.conjugate(), u ** abs(n)]
    if v:
        results += [u / v, v.inverse(), v ** n]
    for w in results:
        _canonical(w)
    _canonical(QuadExt(u.rat, u.root2))
    zero = u - u
    assert (zero.p, zero.q, zero.d) == (0, 0, 1)


@settings(max_examples=150)
@given(_shaped | _quadexts, _shaped | _quadexts, _rationals)
def test_equal_values_hash_equal(u, v, k):
    w = (u * v) / v if v else u  # u again, reached through the kernel
    assert w == u and hash(w) == hash(u)
    kq = (QuadExt(k) * u - u * k) + k  # k again, reached through the kernel
    assert kq == k and hash(kq) == hash(k)
    assert kq == Fraction(k) and hash(kq) == hash(Fraction(k))
    assert (u == v) == ((u.p, u.q, u.d) == (v.p, v.q, v.d))


@settings(max_examples=60)
@given(st.lists(st.tuples(_fractions, _fractions), min_size=1, max_size=4))
def test_counter_keys_match_the_public_constructor(roots):
    # the shape of cli-mix's oracle: roots built from parts against roots
    # that came out of arithmetic
    want = Counter(QuadExt(-p, -q) for p, q in roots)
    got = Counter(-(QuadExt(p) + QuadExt(0, q) * QE_ONE) for p, q in roots)
    assert got == want


def _fraction_inverse(p, q):
    n = p * p - 2 * q * q
    return p / n, -q / n


@settings(max_examples=150)
@given(_shaped | _quadexts, _shaped.filter(bool), st.integers(min_value=-4, max_value=4))
def test_inverse_division_power_norm_match_schoolbook(u, v, n):
    p, q = _parts(u)
    r, s = _parts(v)
    assert u.norm() == p * p - 2 * q * q and type(u.norm()) is Fraction
    assert _parts(v.inverse()) == _fraction_inverse(r, s)
    ir, is_ = _fraction_inverse(r, s)
    assert _parts(u / v) == (p * ir + 2 * q * is_, p * is_ + q * ir)
    if n < 0 and not u:
        with pytest.raises(ZeroDivisionError):
            u ** n
        return
    base = (p, q) if n >= 0 else _fraction_inverse(p, q)
    expect = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        a, b = expect
        expect = (a * base[0] + 2 * b * base[1], a * base[1] + b * base[0])
    assert _parts(u ** n) == expect


_one_term = st.builds(
    lambda c, ev: Scalar({ev: c}), _quadexts.filter(bool), _exps()
)


@settings(max_examples=150)
@given(_one_term, _one_term | _scalars)
def test_one_term_products_match_the_sparse_kernel(u, v):
    def generic(x, y):
        return Scalar(add_terms({}, (
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in x.terms.items()
            for e2, c2 in y.terms.items()
        )))

    assert u * v == generic(u, v)
    assert v * u == generic(v, u)


@settings(max_examples=150)
@given(_one_term, st.integers(min_value=-4, max_value=4))
def test_one_term_powers_match_repeated_squaring(u, n):
    laurent = Scalar({ev[:4] + (0, 0): c for ev, c in u.terms.items()})
    assert u ** abs(n) == _power(u, abs(n), SC_ONE)
    assert laurent ** n == _power(laurent if n >= 0 else laurent.invert_monomial(), abs(n), SC_ONE)
    a, b = PARAMS.index("a"), PARAMS.index("b")
    if n < 0 and any(ev[a] or ev[b] for ev in u.terms):
        with pytest.raises(NotAUnit):
            u ** n


# -- rows equality ----------------------------------------------------------------

_E0 = (0,) * len(PARAMS)
_LAM = (1,) + (0,) * (len(PARAMS) - 1)


def test_same_rows_pinned_cases():
    def same(left, right):
        return same_rows(left, right), same_rows(right, left)

    # slices are not normalised: one value over two denominators
    assert same((0, {1: {_E0: [1, 0, 2]}}), (0, {1: {_E0: [2, 0, 4]}})) == (True, True)
    assert same((0, {1: {_E0: [1, 3, 2]}}), (0, {1: {_E0: [-2, -6, -4]}})) == (True, True)
    # a value whose ints sum to 0, a key on one side only with value 0, and
    # an empty slot all count as absent
    assert same((0, {1: {_E0: [1, 0, 2]}, 2: {_E0: [0, 0, 3]}}),
                (0, {1: {_E0: [2, 0, 4]}})) == (True, True)
    assert same((0, {1: {_E0: [1, 0, 2], _LAM: [0, 0, 5]}}),
                (0, {1: {_E0: [1, 0, 2]}, 3: {}})) == (True, True)
    # a differing sqrt2 part, exponent vector or key is unequal
    assert same((0, {1: {_E0: [1, 1, 2]}}), (0, {1: {_E0: [1, 0, 2]}})) == (False, False)
    assert same((0, {1: {_E0: [1, 0, 2]}}), (0, {1: {_LAM: [1, 0, 2]}})) == (False, False)
    assert same((0, {1: {_E0: [1, 0, 2]}}), (0, {2: {_E0: [1, 0, 2]}})) == (False, False)
    assert same((0, {1: {_E0: [1, 0, 2]}}), (0, {})) == (False, False)
    # zeros of either parity are the same; nonzero images of two parities are not
    assert same((0, {}), (1, {3: {_E0: [0, 0, 7]}})) == (True, True)
    assert same((0, {1: {_E0: [1, 0, 2]}}), (1, {1: {_E0: [1, 0, 2]}})) == (False, False)


_slices = st.dictionaries(
    st.integers(0, 2),
    st.dictionaries(st.sampled_from([_E0, _LAM]),
                    st.tuples(st.integers(-2, 2), st.integers(-1, 1), st.integers(1, 4)).map(list),
                    max_size=2),
    max_size=3)


@settings(max_examples=300)
@given(st.integers(0, 1), _slices, st.integers(0, 1), _slices)
def test_same_rows_compares_the_values_the_slices_stand_for(lp, left, rp, right):
    built = build_slices(left), build_slices(right)
    assert same_rows((lp, left), (rp, right)) == (built[0] == built[1] and (
        lp == rp or not built[0]))
