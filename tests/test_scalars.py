"""Arithmetic unit tests and ring-axiom property tests for the scalar tower."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sconf.errors import NotAUnit
from sconf.scalars import (
    LAURENT_PARAMS,
    PARAMS,
    QE_ONE,
    SC_ONE,
    QuadExt,
    SQRT2,
    Scalar,
    as_quadext,
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
