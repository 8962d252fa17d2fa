"""The action kernel against the earlier Scalar-by-Scalar kernel.

``freemod._row_terms`` sums an element's image in ints, once per output
monomial and parameter monomial, and builds each output Scalar once;
``quotients.quotient_act_basis`` reads the same rows on the quotient
element's terms x^k (s^k), with the frozen root in each row's prefactor,
so nothing is frozen after the sum; and ``freemod.extend_linearly``
scales the input by each generator's coefficient.  The oracle below is the
earlier kernel, kept verbatim: it scaled and summed one Scalar per input
term and output monomial, froze the built bivariate image, and scaled each
generator's image.  Both must give
equal elements of equal parity on a seeded corpus that covers every family,
modes |m| <= 5, degrees <= 6, both parities, multi-term Laurent
coefficients with sqrt2 parts, concrete and formal roots a, and numeric
lam and alp with sqrt2 parts.
"""

import random
from fractions import Fraction

import pytest

from sconf import freemod, quotients
from sconf.algebras import AlgebraElement, BasisSymbol, _checked, basis_symbols
from sconf.freemod import (
    _ACTION, EVEN, ODD, ModuleElement, _require_r, binomial_shift,
)
from sconf.quotients import QuotientElement, QuotientParams
from sconf.scalars import QuadExt, Scalar, add_terms

_LAM, _ALP = Scalar.param("lam"), Scalar.param("alp")
_OWNER = "the rank-2 module is an R-module"
_Q_OWNER = "simple quotients are R-modules"


# -- the earlier kernel, verbatim -------------------------------------------

def _row_terms(sym, parity, terms, lam, alp):
    """Read the ``_ACTION`` row of ``sym`` on the ``((k, l), c)`` pairs
    ``terms`` of a parity, with ``lam`` and ``alp``: the target parity and,
    per pair, c times the row's scale with the integers ``{(i, j): n}`` of
    the image of u^k v^l, so that the image is the sum of c * n * u^i v^j."""
    row = _ACTION.get((sym.family, parity))
    if row is None:
        return (parity + sym.parity) % 2, ()
    parity, dy, number, power, rows = row
    m = sym.twice // 2
    pre = [((i, j), c + d * m) for i, j, c, d in rows if c + d * m]
    scale = lam ** m * number
    if power:
        scale = scale * alp ** power
    images = []
    for (k, l), c in terms:
        nums = {}
        for i, bx in binomial_shift(k, m):
            for j, by in binomial_shift(l, dy):
                for (p, q), n in pre:
                    key = (i + p, j + q)
                    nums[key] = nums.get(key, 0) + bx * by * n
        images.append((c * scale, nums))
    return parity, images


def act_basis(sym, v):
    """Action of one basis generator of the Ramond algebra."""
    _require_r(sym, _OWNER)
    parity, images = _row_terms(sym, v.parity, v.terms.items(), _LAM, _ALP)
    out = {}
    for c, nums in images:
        add_terms(out, ((key, c * n) for key, n in nums.items()))
    return ModuleElement(parity, out)


def extend_linearly(x, v, basis_act, owner):
    """Act by ``x``, an R element or basis symbol, on ``v``: the sum over the
    generators of x of coeff * ``basis_act(generator, v)``, each acting once
    on the whole of v.  ``owner`` names the module in the error for an
    element of another algebra."""
    _require_r(x, owner)
    if isinstance(x, BasisSymbol):
        return _checked(basis_act, x, v)
    out = type(v).zero((v.parity + x.parity()) % 2)
    for sym, c in x.terms.items():
        out = out + _checked(basis_act, sym, v) * c
    return out


def quotient_act_basis(sym, v, p):
    """Action of one Ramond basis generator on a quotient element: the
    module's row on v lifted to C[x,y] + C[s,t], then frozen."""
    _require_r(sym, _Q_OWNER)
    lifted = (((k, 0), c) for k, c in v.terms.items())
    parity, images = _row_terms(sym, v.parity, lifted, p.lam, p.alp)
    out = {}
    for c, nums in images:
        add_terms(out, ((i, c * n) for i, n in _freeze(nums, parity, p.root).items()))
    return QuotientElement(parity, out)


def _freeze(terms, parity, a):
    """Terms in x^i y^j (s^i t^j) as terms in x^i (s^i): y -> -a on the
    even part, t -> -a-1 on the odd part."""
    sub = -a if parity == EVEN else -a - 1
    return add_terms({}, ((i, c * sub ** j if j else c) for (i, j), c in terms.items()))


# -- the corpus ---------------------------------------------------------------

_NUMBERS = (1, -1, 2, Fraction(1, 2), Fraction(-3, 4), QuadExt(0, 1), QuadExt(1, -1),
            QuadExt(Fraction(2, 3), Fraction(1, 2)), QuadExt(-3, Fraction(5, 2)))
_ROOTS = (0, 1, -1, Fraction(3, 2), QuadExt(1, 1), None)
_UNITS = (_LAM, _ALP, Scalar.number(QuadExt(0, 1)), Scalar.number(QuadExt(1, 1)),
          Scalar.number(Fraction(3, 2)), Scalar.monomial(-2, lam=1),
          Scalar.monomial(QuadExt(1, 1), mu=-1))


def _coefficient(rng, formal_a=False):
    """A Laurent polynomial in lam and alp (and a, when asked) with one to
    three terms, some with sqrt2 parts."""
    out = Scalar({})
    for _ in range(rng.randint(1, 3)):
        named = {"lam": rng.randint(-2, 2), "alp": rng.randint(-2, 2)}
        if formal_a:
            named["a"] = rng.randint(0, 1)
        out = out + Scalar.monomial(rng.choice(_NUMBERS), **named)
    return out or Scalar.number(1)


def _module_element(rng, parity, degree=6):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, degree)
        terms[(i, rng.randint(0, degree - i))] = _coefficient(rng)
    return ModuleElement(parity, terms)


def _quotient_element(rng, parity, formal_a=False):
    return QuotientElement(parity, {rng.randint(0, 6): _coefficient(rng, formal_a)
                                    for _ in range(rng.randint(1, 4))})


def _params(rng):
    return QuotientParams(a=rng.choice(_ROOTS), lam=rng.choice(_UNITS), alp=rng.choice(_UNITS))


_SYMBOLS = basis_symbols("R", 5)


def _algebra_element(rng):
    parity = rng.randint(0, 1)
    pool = [s for s in _SYMBOLS if s.parity == parity and s.family != "C"]
    chosen = rng.sample(pool, rng.randint(1, 3))
    if rng.random() < 0.3:
        chosen.append(BasisSymbol("R", "C"))
    return AlgebraElement("R", {s: _coefficient(rng) for s in chosen})


def _same(new, old):
    assert new == old and new.parity == old.parity, (new, old)


@pytest.mark.parametrize("seed", range(4))
def test_act_basis_matches_the_earlier_kernel(seed):
    rng = random.Random(seed)
    for sym in _SYMBOLS:
        for parity in (EVEN, ODD):
            for _ in range(3):
                v = _module_element(rng, parity)
                _same(freemod.act_basis(sym, v), act_basis(sym, v))
        mono = ModuleElement.monomial(rng.randint(0, 1), rng.randint(0, 6), rng.randint(0, 6))
        _same(freemod.act_basis(sym, mono), act_basis(sym, mono))


@pytest.mark.parametrize("seed", range(4))
def test_quotient_act_basis_matches_the_earlier_kernel(seed):
    rng = random.Random(100 + seed)
    for sym in _SYMBOLS:
        for parity in (EVEN, ODD):
            for _ in range(3):
                p = _params(rng)
                v = _quotient_element(rng, parity, formal_a=p.a is None)
                _same(quotients.quotient_act_basis(sym, v, p), quotient_act_basis(sym, v, p))
        p = _params(rng)
        mono = QuotientElement.monomial(rng.randint(0, 1), rng.randint(0, 6))
        _same(quotients.quotient_act_basis(sym, mono, p), quotient_act_basis(sym, mono, p))


@pytest.mark.parametrize("seed", range(3))
def test_linear_extension_matches_the_earlier_kernel(seed):
    rng = random.Random(200 + seed)
    for _ in range(40):
        x = _algebra_element(rng)
        v = _module_element(rng, rng.randint(0, 1))
        _same(freemod.act(x, v), extend_linearly(x, v, act_basis, _OWNER))
        p = _params(rng)
        w = _quotient_element(rng, rng.randint(0, 1), formal_a=p.a is None)
        _same(quotients.quotient_act(x, w, p),
              extend_linearly(x, w, lambda sym, u: quotient_act_basis(sym, u, p), _Q_OWNER))


@pytest.mark.parametrize("seed", range(2))
def test_projection_matches_the_earlier_freeze(seed):
    rng = random.Random(300 + seed)
    for _ in range(60):
        p = QuotientParams(a=rng.choice(_ROOTS[:-1]))
        v = _module_element(rng, rng.randint(0, 1))
        old = QuotientElement(v.parity, _freeze(v.terms, v.parity, p.concrete_a()))
        _same(quotients.project(v, p), old)


def _count_scalar_adds(monkeypatch):
    calls = []
    add = Scalar.__add__
    monkeypatch.setattr(Scalar, "__add__", lambda s, o: calls.append(1) or add(s, o))
    return calls


def test_colliding_images_are_summed_without_scalar_additions(monkeypatch):
    """x^3 + x^2 y under L_2: the binomial shifts of the two terms land on
    shared monomials, and the image is summed in ints."""
    L2 = BasisSymbol("R", "L", 4)
    v = ModuleElement(EVEN, {(3, 0): Scalar.number(QuadExt(1, 1)), (2, 1): Scalar.param("lam")})
    q = QuotientElement(ODD, {3: Scalar.number(2), 2: Scalar.param("alp", -1)})
    p = QuotientParams(a=QuadExt(1, 1))
    want = act_basis(L2, v), quotient_act_basis(L2, q, p)
    calls = _count_scalar_adds(monkeypatch)
    act_basis(L2, v)
    assert calls, "the earlier kernel merges colliding images by Scalar addition"
    calls.clear()
    got = freemod.act_basis(L2, v), quotients.quotient_act_basis(L2, q, p)
    assert not calls
    assert got == want
