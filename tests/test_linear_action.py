"""The tabulated linear action equals the per-generator action on whole elements.

The reference below is the linear extension the sweeps used before the table:
act by each basis generator of x on the whole element v, scale by its
coefficient and sum.  ``linear_action`` instead evaluates the generator on
each monomial once and sums coeff(x) * coeff(v) * image; the two must agree
term by term and in parity, also on the zero vector.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sconf import freemod, n1, quotients
from sconf.algebras import AlgebraElement, BasisSymbol, apply_map, basis_symbols
from sconf.errors import AlgebraMismatch, MixedParity
from sconf.freemod import EVEN, ODD, ModuleElement, act_basis, linear_action, module_action
from sconf.n1 import RestrictedAction, restricted_action
from sconf.quotients import QuotientElement, QuotientParams, quotient_act_basis, quotient_action
from sconf.scalars import LAURENT_PARAMS, PARAMS, QuadExt, Scalar

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


def reference(basis_act, x, v):
    """Sum over the generators of x of coeff * basis_act(generator, v)."""
    acc = type(v).zero((v.parity + x.parity()) % 2)
    for sym, coeff in x.terms.items():
        acc = acc + basis_act(sym, v) * coeff
    return acc


def assert_same(got, want):
    assert got == want
    assert got.parity == want.parity
    assert got.terms == want.terms


@settings(max_examples=30, deadline=None)
@given(_algebra_elements("R"), _module_elements)
def test_module_table_equals_per_generator_action(x, v):
    assert_same(module_action()(x, v), reference(act_basis, x, v))


@settings(max_examples=30, deadline=None)
@given(_algebra_elements("R"), _quotient_elements, _params)
def test_quotient_table_equals_per_generator_action(x, v, p):
    want = reference(lambda sym, w: quotient_act_basis(sym, w, p), x, v)
    assert_same(quotient_action(p)(x, v), want)


@settings(max_examples=20, deadline=None)
@given(st.data(), st.sampled_from(("N1R", "N1NS")), _quotient_elements, _params)
def test_restricted_table_equals_per_generator_action(data, source, v, p):
    r = RestrictedAction.ramond(p) if source == "N1R" else RestrictedAction.neveu_schwarz(p)
    x = data.draw(_algebra_elements(source))
    image = apply_map(r.embedding, x)
    want = reference(lambda sym, w: quotient_act_basis(sym, w, p), image, v)
    assert_same(restricted_action(r)(x, v), want)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(_algebra_elements("R"), _module_elements), min_size=2, max_size=4))
def test_one_table_serves_many_calls(pairs):
    act = module_action()
    for x, v in pairs:
        assert_same(act(x, v), reference(act_basis, x, v))


@pytest.mark.parametrize("x, parity", [
    (AlgebraElement.basis(BasisSymbol("R", "Gp", 2)), ODD),
    (AlgebraElement.basis(BasisSymbol("R", "L", -2)), EVEN),
    (AlgebraElement.zero("R"), EVEN),
    (BasisSymbol("R", "Gm", 0), ODD),
])
def test_the_zero_vector_keeps_its_parity(x, parity):
    for v in (ModuleElement.zero(EVEN), ModuleElement.one(EVEN) * 0):
        out = module_action()(x, v)
        assert out.is_zero() and out.parity == parity
    out = quotient_action(QuotientParams(a=1))(x, QuotientElement.zero(EVEN))
    assert out.is_zero() and out.parity == parity


def test_zero_images_keep_the_parity_of_the_generator():
    # Gp kills the even part: the image of an even element is the odd zero
    out = module_action()(BasisSymbol("R", "Gp", 2), ModuleElement.monomial(EVEN, 1, 1))
    assert out.is_zero() and out.parity == ODD


def test_mixed_parity_is_an_error():
    x = AlgebraElement("R", {BasisSymbol("R", "L", 2): Scalar.number(1),
                             BasisSymbol("R", "Gp", 2): Scalar.number(1)})
    for act, v in ((module_action(), ModuleElement.one(EVEN)),
                   (quotient_action(QuotientParams(a=1)), QuotientElement.one(ODD))):
        with pytest.raises(MixedParity):
            act(x, v)


@pytest.mark.parametrize("make, v, message", [
    (module_action, ModuleElement.one(EVEN), "the rank-2 module is an R-module; got N1R"),
    (lambda: quotient_action(QuotientParams()), QuotientElement.one(EVEN),
     "simple quotients are R-modules; got N1R"),
])
def test_elements_of_another_algebra_are_an_error(make, v, message):
    act = make()
    for x in (BasisSymbol("N1R", "L", 2), AlgebraElement.basis(BasisSymbol("N1R", "G", 0))):
        with pytest.raises(AlgebraMismatch, match=message):
            act(x, v)


def test_restricted_action_takes_only_its_source_algebra():
    act = restricted_action(RestrictedAction.ramond(QuotientParams(a=1)))
    with pytest.raises(AlgebraMismatch, match="N1R-module; got R"):
        act(BasisSymbol("R", "L", 0), QuotientElement.one(EVEN))


def test_a_basis_action_that_changes_parity_wrongly_is_an_error():
    act = linear_action(lambda sym, w: ModuleElement(1 - w.parity, dict(w.terms)), "R", "m")
    with pytest.raises(MixedParity):
        act(BasisSymbol("R", "L", 0), ModuleElement.one(EVEN))


def test_each_monomial_is_evaluated_once_per_table():
    seen = []

    def counting(sym, w):
        seen.append((sym, w.parity, next(iter(w.terms))))
        return act_basis(sym, w)

    act = linear_action(counting, "R", "m")
    x = AlgebraElement("R", {BasisSymbol("R", "L", 2): Scalar.number(2),
                             BasisSymbol("R", "H", -2): Scalar.param("lam")})
    v = ModuleElement(EVEN, {(1, 0): Scalar.number(3), (0, 2): Scalar.param("alp")})
    first = act(x, v)
    assert act(x, v) == first and act(x, v * 5) == first * 5
    assert sorted(seen) == sorted(set(seen)) and len(seen) == 4
    # a second table evaluates again
    linear_action(counting, "R", "m")(x, v)
    assert len(seen) == 8


def test_one_shot_calls_build_a_table_each(monkeypatch):
    calls = []
    good = freemod.act_basis

    def counting(sym, w):
        calls.append(sym)
        return good(sym, w)

    monkeypatch.setattr(freemod, "act_basis", counting)
    v = ModuleElement.monomial(EVEN, 2, 1)
    assert freemod.act(BasisSymbol("R", "L", 2), v) == freemod.act(BasisSymbol("R", "L", 2), v)
    assert len(calls) == 2
    monkeypatch.setattr(quotients, "quotient_act_basis", lambda sym, w, p: calls.append(sym) or w)
    p = QuotientParams(a=1)
    quotients.quotient_act(BasisSymbol("R", "L", 2), QuotientElement.one(EVEN), p)
    quotients.quotient_act(BasisSymbol("R", "L", 2), QuotientElement.one(EVEN), p)
    assert len(calls) == 4
    r = RestrictedAction.ramond(p)
    monkeypatch.setattr(n1, "restricted_act",
                        lambda x, w, r: calls.append(x) or QuotientElement(ODD, dict(w.terms)))
    act = restricted_action(r)
    act(BasisSymbol("N1R", "G", 0), QuotientElement.one(EVEN))
    act(BasisSymbol("N1R", "G", 0), QuotientElement.one(EVEN))
    assert len(calls) == 5
