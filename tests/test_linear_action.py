"""Acting by a whole element equals the per-generator reference.

The reference, ``linear`` of ``reference.py``, is the linear extension
written out: act by each basis generator of x on the whole element v, scale
its image by the generator's coefficient and sum.
``freemod.act``, ``quotients.quotient_act`` and ``n1.restricted_act`` go
through ``freemod.linear_rows``, which calls the rows seam once per
generator of x on the whole of v and sums the rows in ints; they must agree
with the reference term by term and in parity, also on the zero vector.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sconf import freemod, n1, quotients
from sconf.algebras import AlgebraElement, BasisSymbol, apply_map, basis_symbols
from sconf.errors import AlgebraMismatch, MixedParity
from sconf.freemod import EVEN, ODD, ModuleElement, act, act_basis, basis_rows, linear_rows
from sconf.n1 import RestrictedAction, restricted_act
from sconf.quotients import (
    QuotientElement, QuotientParams, quotient_act, quotient_act_basis, quotient_rows,
)
from sconf.scalars import LAURENT_PARAMS, PARAMS, SC_ONE, QuadExt, Scalar

from reference import linear
from test_compat_failures import as_rows

_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_quadexts = st.builds(QuadExt, _fractions, _fractions)
_nonzero = _quadexts.filter(bool)
_exps = st.tuples(*(
    st.integers(min_value=-2 if name in LAURENT_PARAMS else 0, max_value=2) for name in PARAMS
))
_scalars = st.dictionaries(_exps, _quadexts, min_size=1, max_size=3).map(
    lambda d: sum((Scalar({ev: c}) for ev, c in d.items() if c), Scalar({}))
).filter(bool)


def _elements(cls, keys):
    return st.builds(cls, st.sampled_from((EVEN, ODD)),
                     st.dictionaries(keys, _scalars, max_size=4))


_module_elements = _elements(
    ModuleElement, st.tuples(st.integers(0, 3), st.integers(0, 3)))
_quotient_elements = _elements(QuotientElement, st.integers(0, 4))


@st.composite
def _algebra_elements(draw, algebra):
    """A homogeneous element with one to three generators, Scalar coefficients
    and maybe a C term riding along."""
    syms = basis_symbols(algebra, 2)
    parity = draw(st.sampled_from((0, 1)))
    pool = [s for s in syms if s.family != "C" and s.parity == parity]
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    if any(s.family == "C" for s in syms) and draw(st.booleans()):
        chosen.append(BasisSymbol(algebra, "C"))
    return AlgebraElement(algebra, {s: draw(_scalars) for s in chosen})


_unit_scalars = st.one_of(
    st.sampled_from((Scalar.param("lam"), Scalar.param("mu"), Scalar.monomial(3, lam=2))),
    st.builds(Scalar.number, _nonzero),
)
_params = st.builds(
    QuotientParams,
    st.one_of(st.none(), _quadexts),
    _unit_scalars,
    st.one_of(_unit_scalars, st.just(Scalar.monomial(QuadExt(1, 1), alp=-1, bet=1))),
)


def assert_same(got, want):
    assert got == want
    assert got.parity == want.parity
    assert got.terms == want.terms


@settings(max_examples=30, deadline=None)
@given(_algebra_elements("R"), _module_elements)
def test_act_matches_the_per_generator_reference(x, v):
    assert_same(act(x, v), linear(act_basis, x, v))


@settings(max_examples=30, deadline=None)
@given(_algebra_elements("R"), _quotient_elements, _params)
def test_quotient_act_matches_the_per_generator_reference(x, v, p):
    want = linear(lambda sym, w: quotient_act_basis(sym, w, p), x, v)
    assert_same(quotient_act(x, v, p), want)


@settings(max_examples=20, deadline=None)
@given(st.data(), st.sampled_from(("N1R", "N1NS")), _quotient_elements, _params)
def test_restricted_act_matches_the_per_generator_reference(data, source, v, p):
    r = RestrictedAction.ramond(p) if source == "N1R" else RestrictedAction.neveu_schwarz(p)
    x = data.draw(_algebra_elements(source))
    image = apply_map(r.embedding, x)
    want = linear(lambda sym, w: quotient_act_basis(sym, w, p), image, v)
    assert_same(restricted_act(x, v, r), want)


@pytest.mark.parametrize("x, parity", [
    (AlgebraElement.basis(BasisSymbol("R", "Gp", 2)), ODD),
    (AlgebraElement.basis(BasisSymbol("R", "L", -2)), EVEN),
    (AlgebraElement.zero("R"), EVEN),
    (BasisSymbol("R", "Gm", 0), ODD),
])
def test_the_zero_vector_keeps_its_parity(x, parity):
    p = QuotientParams(a=1)
    for v in (ModuleElement.zero(EVEN), ModuleElement.one(EVEN) * 0):
        for out in (act(x, v), ModuleElement.from_rows(
                linear_rows(x, [v.to_rows()], basis_rows, "m")[0])):
            assert out.is_zero() and out.parity == parity
    w = QuotientElement.zero(EVEN)
    for out in (quotient_act(x, w, p), QuotientElement.from_rows(
            linear_rows(x, [w.to_rows()], quotient_rows, "m", p)[0])):
        assert out.is_zero() and out.parity == parity


def test_zero_images_keep_the_parity_of_the_generator():
    # Gp kills the even part: the image of an even element is the odd zero
    out = act(BasisSymbol("R", "Gp", 2), ModuleElement.monomial(EVEN, 1, 1))
    assert out.is_zero() and out.parity == ODD


def test_mixed_parity_is_an_error():
    x = AlgebraElement("R", {BasisSymbol("R", "L", 2): Scalar.number(1),
                             BasisSymbol("R", "Gp", 2): Scalar.number(1)})
    with pytest.raises(MixedParity):
        act(x, ModuleElement.one(EVEN))
    with pytest.raises(MixedParity):
        quotient_act(x, QuotientElement.one(ODD), QuotientParams(a=1))


@pytest.mark.parametrize("act_on, v, message", [
    (act, ModuleElement.one(EVEN), "the rank-2 module is an R-module; got N1R"),
    (lambda x, w: quotient_act(x, w, QuotientParams()), QuotientElement.one(EVEN),
     "simple quotients are R-modules; got N1R"),
])
def test_elements_of_another_algebra_are_an_error(act_on, v, message):
    for x in (BasisSymbol("N1R", "L", 2), AlgebraElement.basis(BasisSymbol("N1R", "G", 0))):
        with pytest.raises(AlgebraMismatch, match=message):
            act_on(x, v)


def test_restricted_action_takes_only_its_source_algebra():
    r = RestrictedAction.ramond(QuotientParams(a=1))
    with pytest.raises(AlgebraMismatch, match="expected a N1R element, got R"):
        restricted_act(BasisSymbol("R", "L", 0), QuotientElement.one(EVEN), r)


def test_a_basis_action_that_changes_parity_wrongly_is_an_error():
    def flip(sym, ws, *coeff):
        return [as_rows(ModuleElement(1 - parity, ModuleElement.from_rows((parity, slices)).terms))
                for parity, slices in ws]

    v = ModuleElement(EVEN, {(0, 0): Scalar.number(1), (2, 1): Scalar.param("lam")})
    for x in (BasisSymbol("R", "L", 0), AlgebraElement.basis(BasisSymbol("R", "H", 2), 3)):
        with pytest.raises(MixedParity, match="maps a monomial to the wrong parity"):
            linear_rows(x, [ModuleElement.zero(ODD).to_rows(), v.to_rows()], flip, "m")


def test_each_generator_acts_once_on_the_whole_element(monkeypatch):
    seen = []
    L2, Hm2 = BasisSymbol("R", "L", 2), BasisSymbol("R", "H", -2)
    v = ModuleElement(EVEN, {(1, 0): Scalar.number(3), (0, 2): Scalar.param("alp")})
    want = act_basis(L2, v)  # before the seams count: act_basis reads basis_rows too
    # the coefficient follows (sym, ws) in basis_rows and (sym, ws, p) in quotient_rows
    for module, name, fixed in ((freemod, "basis_rows", 0), (quotients, "quotient_rows", 1)):
        good = getattr(module, name)
        monkeypatch.setattr(module, name, lambda sym, ws, *rest, good=good, fixed=fixed: (
            seen.append((sym, ws, rest[fixed:])) or good(sym, ws, *rest)))

    def calls_on(v, x=None):
        # each generator acts on the rows of v, converted once per call, and
        # is passed its coefficient in x, nothing when that is SC_ONE
        coeff = {} if x is None or isinstance(x, BasisSymbol) else x.terms
        assert all(ws is seen[0][1] for _, ws, _ in seen), "v was converted once per generator"
        assert seen[0][1] == [v.to_rows()]
        for sym, _, passed in seen:
            c = coeff.get(sym, SC_ONE)
            assert passed == (() if c is SC_ONE else (c,)), (sym, passed)
        out = sorted(sym for sym, _, _ in seen)
        seen.clear()
        return out

    x = AlgebraElement("R", {L2: Scalar.number(2), Hm2: Scalar.param("lam")})
    freemod.act(x, v)
    assert calls_on(v, x) == sorted((L2, Hm2))
    assert freemod.act(L2, v) == want and calls_on(v) == [L2]
    p = QuotientParams(a=1)
    q = QuotientElement(ODD, {0: Scalar.number(1), 3: Scalar.param("lam")})
    quotients.quotient_act(x, q, p)
    assert calls_on(q, x) == sorted((L2, Hm2))
    r = RestrictedAction.ramond(p)
    xn = AlgebraElement("N1R", {BasisSymbol("N1R", "G", 0): Scalar.number(1),
                                BasisSymbol("N1R", "G", 2): Scalar.number(2)})
    n1.restricted_act(xn, q, r)
    image = apply_map(r.embedding, xn)
    assert calls_on(q, image) == sorted(image.terms) and len(seen) == 0
    # a unit coefficient stays SC_ONE through the embedding: L_2 acts on q itself
    n1.restricted_act(AlgebraElement.basis(BasisSymbol("N1R", "L", 2)), q, r)
    assert calls_on(q) == [L2]
