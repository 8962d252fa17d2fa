"""Each rows seam acts by one generator on a whole list of vectors.

``freemod.basis_rows``, ``quotients.quotient_rows`` and
``n1.restricted_rows`` take a list of rows of mixed parity and return one
rows per vector.  Vector for vector, a batch must give what the
element-wise action of ``reference.py`` gives, with and without a
coefficient, on a list that holds the zero vector of each parity,
multi-term vectors and sqrt2 coefficients.  The head of a row
(``freemod._head``) is formed once per (generator, parity) in a call, and
each sweep of the quotient-n1 pass calls each seam once per generator on
its whole vector list; ``map_image`` is read once per generator and call.
The operator-identity checks of ``freemod`` call ``basis_rows`` a number
of times that does not depend on the degree.
"""

from collections import Counter
from fractions import Fraction

import pytest

from sconf import freemod, n1, quotients
from sconf.algebras import AlgebraElement, BasisSymbol, apply_map, basis_symbols
from sconf.freemod import EVEN, ODD, ModuleElement
from sconf.n1 import RestrictedAction
from sconf.parsing import parse_module_element, parse_quotient_element, parse_unipoly
from sconf.quotients import QuotientElement, QuotientParams
from sconf.scalars import QuadExt, Scalar

from reference import linear, module_action, quotient_action

ROOT2 = Scalar.number(QuadExt(0, 1))
COEFFS = [None, Scalar.number(Fraction(-3, 2)),
          Scalar.param("lam", -1) + ROOT2 * Scalar.param("alp")]

MODULE_VECTORS = [
    ModuleElement.zero(EVEN),
    parse_module_element("x^2*y - sqrt2*x + 1/3*lam*y^2", EVEN),
    ModuleElement.zero(ODD),
    parse_module_element("(1 + sqrt2)*s*t^2 - alp^-1*t + 2", ODD),
    ModuleElement.monomial(EVEN, 1, 1),
    ModuleElement.monomial(ODD, 0, 0),
    parse_module_element("lam^2*x^3 + lam*y - sqrt2", EVEN),
]
QUOTIENT_VECTORS = [
    QuotientElement.zero(ODD),
    parse_quotient_element("x^3 - 2*lam*x + sqrt2", EVEN),
    parse_quotient_element("alp*s^2 + (1 + sqrt2)*s - 1/2*lam^-1", ODD),
    QuotientElement.zero(EVEN),
    QuotientElement.monomial(ODD, 2),
    QuotientElement.monomial(EVEN, 0, ROOT2),
]
PARAMS = [QuotientParams(a=1), QuotientParams(a=QuadExt(1, 1)), QuotientParams()]


def _assert_each(got, vectors, want):
    """Vector for vector, the rows ``got`` stand for ``want(v)``, an
    element, in value and in parity."""
    assert len(got) == len(vectors)
    for (parity, slices), v in zip(got, vectors):
        w = want(v)
        assert type(w).from_rows((parity, slices)) == w, v
        assert parity == w.parity, v


def _scaled(element, coeff):
    return element if coeff is None else element * coeff


@pytest.mark.parametrize("coeff", COEFFS, ids=["none", "number", "two-terms"])
def test_a_module_batch_equals_one_vector_at_a_time(coeff):
    vs = [v.to_rows() for v in MODULE_VECTORS]
    for sym in basis_symbols("R", 2):
        got = freemod.basis_rows(sym, vs) if coeff is None else freemod.basis_rows(sym, vs, coeff)
        _assert_each(got, MODULE_VECTORS, lambda v: _scaled(module_action(sym, v), coeff))


@pytest.mark.parametrize("coeff", COEFFS, ids=["none", "number", "two-terms"])
@pytest.mark.parametrize("p", PARAMS, ids=lambda p: p.describe())
def test_a_quotient_batch_equals_one_vector_at_a_time(p, coeff):
    vs = [v.to_rows() for v in QUOTIENT_VECTORS]
    for sym in basis_symbols("R", 2):
        got = (quotients.quotient_rows(sym, vs, p) if coeff is None
               else quotients.quotient_rows(sym, vs, p, coeff))
        _assert_each(got, QUOTIENT_VECTORS, lambda v: _scaled(quotient_action(sym, v, p), coeff))


@pytest.mark.parametrize("source", ["N1R", "N1NS"])
@pytest.mark.parametrize("p", PARAMS, ids=lambda p: p.describe())
def test_a_restricted_batch_equals_one_vector_at_a_time(p, source):
    r = RestrictedAction.ramond(p) if source == "N1R" else RestrictedAction.neveu_schwarz(p)
    vs = [v.to_rows() for v in QUOTIENT_VECTORS]
    syms = basis_symbols(source, 2)
    # each generator alone, and with coefficients: the seam's coeff
    acting = [*syms, AlgebraElement(source, {syms[0]: COEFFS[2], syms[2]: COEFFS[1]}),
              AlgebraElement.basis(syms[-1], COEFFS[2])]
    for x in acting:
        image = apply_map(r.embedding, AlgebraElement.basis(x) if isinstance(x, BasisSymbol) else x)
        _assert_each(n1.restricted_rows(x, vs, r), QUOTIENT_VECTORS,
                     lambda v: linear(lambda s, w: quotient_action(s, w, p), image, v))


# ---------------------------------------------------------------------------
# heads, seam calls and map images per sweep
# ---------------------------------------------------------------------------

def _counted(monkeypatch, sweep):
    """The heads formed, rows-seam calls made and map images read by the
    passing ``sweep()``, each counted through its module global."""
    heads, calls, maps = Counter(), Counter(), Counter()
    head, image = freemod._head, n1.map_image
    seams = [(freemod, "basis_rows"), (quotients, "quotient_rows"), (n1, "restricted_rows")]

    def counting_head(sym, parity, units, roots, coeff):
        heads[sym, parity, id(units), id(roots), coeff and coeff.render()] += 1
        return head(sym, parity, units, roots, coeff)

    def counting_image(gmap, sym):
        maps[sym] += 1
        return image(gmap, sym)

    with monkeypatch.context() as m:
        m.setattr(freemod, "_head", counting_head)
        m.setattr(n1, "map_image", counting_image)
        for module, name in seams:
            def seam(x, vs, *rest, _good=getattr(module, name), _name=name):
                calls[_name, x, *map(id, rest[:1])] += 1
                return _good(x, vs, *rest)

            m.setattr(module, name, seam)
        report = sweep()
    assert report.passed, report.render_text()
    return heads, calls, maps


# the sweeps of the quotient-n1 workload, at window 1 and degree 1
P1 = QuotientParams(a=1)
LAM0, ALP0 = Fraction(3, 2), 2
ONCE = {
    "projection": lambda: quotients.check_projection_intertwines(QuotientParams(a=-1), 1, 1),
    "phi": lambda: quotients.check_phi_intertwines(
        P1, QuotientParams(a=1, alp=Scalar.param("bet")), 1, 1),
    "xi": lambda: quotients.check_xi_intertwines(
        parse_unipoly("y^2 + y - 2"), QuotientParams(a=-1), 1, 1),
    "witness-a0": lambda: n1.check_simplicity_witness(0, LAM0, ALP0, 1, index_window=1),
    "witness-a1": lambda: n1.check_simplicity_witness(1, LAM0, ALP0, 1, index_window=1),
    "witness-a2": lambda: n1.check_simplicity_witness(2, LAM0, ALP0, 1, index_window=1),
}
FILLS = {
    "quotient": lambda: quotients.check_quotient_compatibility(P1, 1, 1),
    "N1R": lambda: n1.check_n1_relations(RestrictedAction.ramond(P1), 1, 1),
    "N1NS": lambda: n1.check_n1_relations(RestrictedAction.neveu_schwarz(P1), 1, 1),
}


@pytest.mark.parametrize("name", list(ONCE))
def test_a_map_sweep_or_certificate_acts_by_each_generator_once(monkeypatch, name):
    heads, calls, maps = _counted(monkeypatch, ONCE[name])
    assert heads and max(heads.values()) == 1
    assert calls and max(calls.values()) == 1
    assert max(maps.values(), default=1) == 1


@pytest.mark.parametrize("name", list(FILLS))
def test_a_compatibility_sweep_acts_by_each_generator_once_per_fill(monkeypatch, name):
    # once on the vectors' monomials, and once more on the new monomials of
    # the images Y.v
    heads, calls, maps = _counted(monkeypatch, FILLS[name])
    assert max(heads.values()) == max(calls.values()) == 2
    assert max(maps.values(), default=2) == 2


def test_the_operator_identity_checks_act_on_the_whole_monomial_list(monkeypatch):
    # the seam calls do not grow with the number of monomials
    window, n_max = 1, 2
    gens = [s for s in basis_symbols("R", window) if s.family != "C"]
    L0, H0, H1, Hm1, C = (BasisSymbol("R", *f) for f in (
        ("L", 0), ("H", 0), ("H", 2), ("H", -2), ("C",)))

    def calls_of(sweep):
        return {sym: n for (_, sym), n in _counted(monkeypatch, sweep)[1].items()}

    for degree in (1, 3):
        assert calls_of(lambda: freemod.check_uh_freeness(degree)) == {L0: 1, H0: 1}
        # each Y on the monomials, each X on the images of its family
        assert calls_of(lambda: freemod.check_odd_square_zero(window, degree)) == {
            X: 2 for X in gens if X.parity}
        assert calls_of(lambda: freemod.check_central_triviality(degree)) == {
            C: 1, H1: 2, Hm1: 2}
        # each X on the monomials and on all the Z^n.v; each power of Z on
        # the monomials and on each list X.v
        z_calls = n_max * (1 + len(gens))
        assert calls_of(lambda: freemod.check_shift_identities(window, n_max, degree)) == {
            X: 2 + z_calls * (X in (L0, H0)) for X in gens}


def test_the_rank1_words_act_once_per_step(monkeypatch):
    degree = 3
    r = RestrictedAction.ramond(P1)
    heads, calls, maps = _counted(monkeypatch, lambda: n1.check_rank1_freeness(r, degree))
    L0, G0 = BasisSymbol("N1R", "L", 0), BasisSymbol("N1R", "G", 0)
    # G0 once on 1_even; L0 once per step on the even and the odd word,
    # from the words of L0-degree 0 to those of the degree checked last
    assert calls == Counter({("restricted_rows", G0, id(r)): 1,
                             ("restricted_rows", L0, id(r)): degree,
                             ("quotient_rows", BasisSymbol("R", "L", 0), id(P1)): degree,
                             ("quotient_rows", BasisSymbol("R", "Gp", 0), id(P1)): 1,
                             ("quotient_rows", BasisSymbol("R", "Gm", 0), id(P1)): 1})
    assert maps == Counter({G0: 1, L0: degree})
    assert set(heads.values()) == {1, degree}
