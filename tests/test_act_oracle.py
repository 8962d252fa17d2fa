"""The action kernel against the closed forms, on a seeded corpus.

``freemod.act_basis`` sums an element's image in ints, once per output
monomial and parameter monomial; ``quotients.quotient_act_basis`` reads the
same rows on the quotient element's terms x^k (s^k), with the frozen root in
each row's prefactor; ``freemod.extend_linearly`` passes each generator's
coefficient to the basis action, which folds it into the row scale; and
``quotients.project`` reduces modulo the kernel by the one long division
that ``submodules.reduce_mod`` runs.  The references
of ``reference.py`` share none of that code: ``module_action`` and
``quotient_action`` evaluate the docstring formulas term by term,
``linear`` sums the generators' images, and ``projection`` substitutes the
root.  Both sides must give equal elements of
equal parity on a corpus that covers every family, modes |m| <= 5, degrees
<= 6, both parities, multi-term Laurent coefficients with sqrt2 parts,
concrete and formal roots a, and numeric lam and alp with sqrt2 parts.
Acting by a whole element is checked on the module, on quotients and on
both N=1 restrictions, by operators whose coefficients have two terms, one
with a sqrt2 part.  The tests keep the names they had when the reference was
a copy of the earlier kernel.
"""

import random
from fractions import Fraction

import pytest

from sconf import freemod, n1, quotients
from sconf.algebras import AlgebraElement, BasisSymbol, apply_map, basis_symbols
from sconf.freemod import EVEN, ODD, ModuleElement, ParityElement
from sconf.n1 import RestrictedAction
from sconf.quotients import QuotientElement, QuotientParams
from sconf.scalars import QuadExt, Scalar

from reference import linear, module_action, projection, quotient_action

_LAM, _ALP = Scalar.param("lam"), Scalar.param("alp")


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
                _same(freemod.act_basis(sym, v), module_action(sym, v))
        mono = ModuleElement.monomial(rng.randint(0, 1), rng.randint(0, 6), rng.randint(0, 6))
        _same(freemod.act_basis(sym, mono), module_action(sym, mono))


@pytest.mark.parametrize("seed", range(4))
def test_quotient_act_basis_matches_the_earlier_kernel(seed):
    rng = random.Random(100 + seed)
    for sym in _SYMBOLS:
        for parity in (EVEN, ODD):
            for _ in range(3):
                p = _params(rng)
                v = _quotient_element(rng, parity, formal_a=p.a is None)
                _same(quotients.quotient_act_basis(sym, v, p), quotient_action(sym, v, p))
        p = _params(rng)
        mono = QuotientElement.monomial(rng.randint(0, 1), rng.randint(0, 6))
        _same(quotients.quotient_act_basis(sym, mono, p), quotient_action(sym, mono, p))


@pytest.mark.parametrize("seed", range(3))
def test_linear_extension_matches_the_earlier_kernel(seed):
    rng = random.Random(200 + seed)
    for _ in range(40):
        x = _algebra_element(rng)
        v = _module_element(rng, rng.randint(0, 1))
        _same(freemod.act(x, v), linear(module_action, x, v))
        p = _params(rng)
        w = _quotient_element(rng, rng.randint(0, 1), formal_a=p.a is None)
        _same(quotients.quotient_act(x, w, p),
              linear(lambda sym, u: quotient_action(sym, u, p), x, w))


_SURDS = tuple(c for c in _NUMBERS if isinstance(c, QuadExt))
_QUOTIENTS = (QuotientParams(a=QuadExt(1, 1)), QuotientParams(),
              QuotientParams(a=Fraction(3, 2), lam=Scalar.number(QuadExt(1, -1)),
                             alp=Scalar.number(Fraction(-2, 3))))


def _two_terms(rng, formal_a=False):
    """A coefficient of two terms, of different lam powers, the first with a
    sqrt2 part (the second with a, when asked)."""
    lam, alp = rng.randint(-2, 2), rng.randint(-2, 2)
    second = {"a": 1} if formal_a else {}
    return (Scalar.monomial(rng.choice(_SURDS), lam=lam, alp=alp)
            + Scalar.monomial(rng.choice(_NUMBERS), lam=lam + rng.choice((-1, 1)), **second))


def _operator(rng, algebra, formal_a=False):
    """An element of ``algebra`` of one parity: one to three generators, each
    with a two-term coefficient."""
    parity = rng.randint(0, 1)
    pool = [s for s in basis_symbols(algebra, 3) if s.parity == parity and s.family != "C"]
    return AlgebraElement(algebra, {s: _two_terms(rng, formal_a)
                                    for s in rng.sample(pool, rng.randint(1, 3))})


def _cases(rng):
    """(what acts, its operator, vector and reference): the module, each of
    ``_QUOTIENTS`` and both N=1 restrictions of the concrete first one."""
    x = _operator(rng, "R")
    v = _module_element(rng, rng.randint(0, 1))
    out = [(freemod.act, x, v, linear(module_action, x, v))]
    for p in _QUOTIENTS:
        x = _operator(rng, "R", p.a is None)
        w = _quotient_element(rng, rng.randint(0, 1), p.a is None)
        out.append((lambda y, u, p=p: quotients.quotient_act(y, u, p), x, w,
                    linear(lambda sym, u, p=p: quotient_action(sym, u, p), x, w)))
    p = _QUOTIENTS[0]
    for r in (RestrictedAction.ramond(p), RestrictedAction.neveu_schwarz(p)):
        x = _operator(rng, r.source)
        w = _quotient_element(rng, rng.randint(0, 1))
        out.append((lambda y, u, r=r: n1.restricted_act(y, u, r), x, w,
                    linear(lambda sym, u: quotient_action(sym, u, r.params),
                           apply_map(r.embedding, x), w)))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_two_term_coefficients_fold_into_the_row_scale(seed):
    rng = random.Random(400 + seed)
    for _ in range(15):
        for act, x, v, want in _cases(rng):
            _same(act(x, v), want)


def test_acting_by_an_element_scales_no_element(monkeypatch):
    """Each coefficient enters the row scale: no input or image is scaled by
    ``ParityElement.__mul__`` on the way."""
    cases = _cases(random.Random(500))
    calls = []
    good = ParityElement.__mul__
    monkeypatch.setattr(ParityElement, "__mul__", lambda v, c: calls.append(1) or good(v, c))
    for act, x, v, want in cases:
        _same(act(x, v), want)
    assert not calls


@pytest.mark.parametrize("seed", range(2))
def test_projection_matches_the_earlier_freeze(seed):
    rng = random.Random(300 + seed)
    for _ in range(60):
        p = QuotientParams(a=rng.choice(_ROOTS[:-1]))
        v = _module_element(rng, rng.randint(0, 1))
        _same(quotients.project(v, p), projection(v, p.concrete_a()))


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
    want = module_action(L2, v), quotient_action(L2, q, p)
    calls = _count_scalar_adds(monkeypatch)
    got = freemod.act_basis(L2, v), quotients.quotient_act_basis(L2, q, p)
    assert not calls
    assert got == want
