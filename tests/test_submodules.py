"""Membership, closure, and lattice order for the submodule family.

The int long division that ``UniPoly`` and membership share is checked
against the list division of ``reference.py``, which divides Q(sqrt2) or
Scalar coefficients one by one; ``UniPoly.shifted`` against the binomial
expansion it replaced, ``_binomial_shifted``."""

import random
from fractions import Fraction

import pytest

from sconf import submodules
from sconf.algebras import basis_symbols
from sconf.freemod import EVEN, ODD, ModuleElement, act, binomial_shift
from sconf.linalg import RowSpan
from sconf.parsing import parse_module_element, parse_submodule_spec, parse_unipoly
from sconf.scalars import QE_ZERO, QuadExt, Scalar, as_quadext
from sconf.submodules import (
    SubmoduleSpec,
    UniPoly,
    _poly_in_second_var,
    check_closure,
    check_containment,
    check_lattice_order,
    contains,
    reduce_mod,
)

from reference import divide_in_second_var, divmod_monic


def spec(text):
    return parse_submodule_spec(text)


def mod(text, parity=None):
    return parse_module_element(text, parity)


# -- UniPoly ----------------------------------------------------------------------

def test_unipoly_arithmetic():
    p = parse_unipoly("y^2 - 1")
    q = parse_unipoly("y + 1")
    quo, rem = p.divmod_monic(q)
    assert quo == parse_unipoly("y - 1") and rem.is_zero()
    assert q.divides(p)
    assert not parse_unipoly("y - 2").divides(p)
    assert p.shifted(1) == parse_unipoly("y^2 + 2*y")
    assert UniPoly.from_roots([1, -1]) == p
    assert p(3) == QuadExt(8)
    assert parse_unipoly("2*y + 2").monic() == q


def _random_quadext(rng):
    """A Q(sqrt2) number; zero a third of the time, irrational a third."""
    roll = rng.randrange(3)
    if roll == 0:
        return QuadExt(0)
    rat = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return QuadExt(rat, rng.randint(-3, 3) if roll == 2 else 0)


def _random_poly(rng, degree, monic):
    coeffs = [_random_quadext(rng) for _ in range(degree)]
    return UniPoly(coeffs + [QuadExt(1) if monic else _random_quadext(rng)])


def _random_scalar(rng):
    return sum(
        (Scalar.monomial(_random_quadext(rng), lam=rng.randint(-2, 2), alp=rng.randint(-2, 2))
         for _ in range(rng.randint(1, 3))),
        Scalar.number(0),
    )


def test_one_division_matches_both_oracles():
    """The int long division that ``UniPoly`` and membership share, against
    the list division of ``reference.py``: on UniPolys, and per power of the
    first variable on module elements."""
    rng = random.Random(20)
    for _ in range(2000):
        d = _random_poly(rng, rng.randint(0, 3), monic=True)
        p = _random_poly(rng, rng.randint(0, 7), monic=False)
        quo, rem = divmod_monic(list(p.coeffs), d)
        assert p.divmod_monic(d) == (UniPoly(quo), UniPoly(rem))
    for _ in range(1000):
        d = _random_poly(rng, rng.randint(0, 3), monic=True)
        terms = {}
        for _ in range(rng.randint(0, 6)):
            c = _random_scalar(rng)
            if c:
                terms[(rng.randint(0, 3), rng.randint(0, 6))] = c
        rem, quo = divide_in_second_var(terms, d)
        v = ModuleElement(EVEN, terms)
        for kind in ("M", "N"):
            s = SubmoduleSpec(kind, d)
            assert reduce_mod(s, v) == ModuleElement(EVEN, rem)
            assert contains(s, v) == (not rem and not (kind == "N" and (0, 0) in quo))
    for d in (UniPoly((1, 2)), UniPoly((QuadExt(0, 1),)), UniPoly(())):
        with pytest.raises(ValueError):
            parse_unipoly("y^3 - 1").divmod_monic(d)


def test_divides_reads_the_remainder_of_the_division():
    rng = random.Random(29)
    outcomes = set()
    for _ in range(1500):
        d = _random_poly(rng, rng.randint(0, 3), monic=rng.randrange(2))
        if d.is_zero():
            continue
        p = _random_poly(rng, rng.randint(0, 7), monic=False)
        dp = d * p
        nudged = UniPoly(tuple(c + (k == 0) for k, c in enumerate(dp.coeffs)))
        for other in (p, dp, nudged):
            want = other.divmod_monic(d.monic())[1].is_zero()
            assert d.divides(other) == want, (d, other)
            outcomes.add((d.is_monic(), want))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
    sqrt2_lead = UniPoly((1, QuadExt(0, 1)))  # sqrt2*y + 1
    assert sqrt2_lead.divides(sqrt2_lead * parse_unipoly("y^2 - 3"))
    assert not sqrt2_lead.divides(parse_unipoly("y^2 - 3"))
    assert sqrt2_lead.divides(UniPoly(()))
    for other in (parse_unipoly("y - 1"), UniPoly(())):
        with pytest.raises(ValueError, match="cannot be made monic"):
            UniPoly(()).divides(other)


def _scalar_membership(s, w):
    """Membership read straight off the Scalar division: the remainder is
    empty and, for the N kind's even part, the quotient has no constant term;
    with the remainder, which ``reduce_mod`` returns."""
    even = w.parity == EVEN
    rem, quo = divide_in_second_var(w.terms, s.h if even else s.odd_divisor)
    return not rem and not (even and s.kind == "N" and (0, 0) in quo), rem, quo


_ORACLE_SPECS = ("M[h=y^2-1]", "N[h=y-2]", "M[h=y + sqrt2]", "N[h=y^2 - sqrt2*y + 1/2]",
                 "M[h=y^3 - 3*y + 2]")


def test_membership_per_parameter_slice_matches_the_scalar_division():
    """Every window-2 generator on every spanning element of five specs, each
    image with and without a stray lam term: the division per parameter
    slice decides membership and reduces as the Scalar division did."""
    stray = Scalar.param("lam")
    cases = 0
    for text in _ORACLE_SPECS:
        s = spec(text)
        for v in s.spanning_elements(2):
            for sym in basis_symbols("R", 2):
                image = act(sym, v)
                for w in (image, image + ModuleElement.monomial(image.parity, 1, 0, stray)):
                    member, rem, _ = _scalar_membership(s, w)
                    assert contains(s, w) == member, (text, sym, w)
                    assert reduce_mod(s, w) == ModuleElement(w.parity, rem), (text, sym, w)
                    cases += 1
    assert cases == 3024


def test_membership_builds_no_scalar(monkeypatch):
    """The closure sweeps of the oracle specs: ``contains`` decides every
    image in ints."""
    inside, built, calls = [], [], []
    init, real = Scalar.__init__, submodules.contains

    def counting_init(self, terms=None):
        if inside:
            built.append(terms)
        init(self, terms)

    def tracked(s, v):
        calls.append(v)
        inside.append(v)
        try:
            return real(s, v)
        finally:
            inside.pop()

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    monkeypatch.setattr(submodules, "contains", tracked)
    for text in _ORACLE_SPECS:
        assert check_closure(spec(text), 2, 2).passed
    assert len(calls) > 1000 and built == []


_HOSTILE = ("N[h=y^6 + (1/12345678901234567890*sqrt2)*y^5 "
            "+ (98765432109876543210/99999999999999999989)*y + 7/13]")
_SQRT2_SEXTIC = "M[h=y^6 - sqrt2*y^5 + 1/2*y^4 + (3 - 2*sqrt2)*y^2 - 5/3*sqrt2*y + 7]"


@pytest.mark.parametrize("text", [_HOSTILE, _SQRT2_SEXTIC, "N[h=y-2]", "M[h=y-2]"])
def test_membership_edge_cases_match_the_scalar_division(text):
    """20-digit parts, a degree-6 h with sqrt2 coefficients, and an N-kind
    quotient whose constant term lies in one parameter slice only."""
    s = spec(text)
    lam, alp = Scalar.param("lam"), Scalar.param("alp")
    h_even = _poly_in_second_var(s.h, EVEN)
    one_slice = h_even * lam + h_even.times_poly({(1, 0): alp})  # quotient lam + alp*x
    elements = [one_slice, one_slice + ModuleElement.monomial(EVEN, 0, 7, alp)]
    for g in s.spanning_elements(1):
        elements += [g, g * lam + g.times_poly({(2, 1): alp}),
                     g + ModuleElement.monomial(g.parity, 1, 0, lam),
                     g * alp - g.times_poly({(0, 1): lam})]
    verdicts = []
    for w in elements:
        member, _, _ = _scalar_membership(s, w)
        assert contains(s, w) == member, w
        verdicts.append(member)
    assert verdicts[0] == (s.kind == "M") and True in verdicts and False in verdicts


def test_membership_refuses_a_and_b_before_dividing():
    """A stray a or b is refused even when an earlier slice already fails."""
    for name in ("a", "b"):
        v = ModuleElement.one(EVEN) + ModuleElement.monomial(EVEN, 0, 1, Scalar.param(name))
        assert next(iter(v.terms)) == (0, 0)
        with pytest.raises(ValueError, match="^membership is defined for elements free of the "
                           "parameters a, b$"):
            contains(spec("M[h=y]"), v)


def _binomial_shifted(self, c):
    """The earlier ``UniPoly.shifted``, verbatim: the binomial expansion."""
    c = as_quadext(c)
    n = self.degree
    if n < 0 or c.is_zero():
        return self
    out = [QE_ZERO] * (n + 1)
    for k, ck in enumerate(self.coeffs):
        if ck:
            for l, b in binomial_shift(k, c):
                out[l] = out[l] + ck * b
    return UniPoly(tuple(out))


def test_shift_matches_the_binomial_expansion():
    rng = random.Random(25)
    polys = [_random_poly(rng, rng.randint(0, 7), monic=rng.random() < 0.5) for _ in range(150)]
    polys += [spec(_HOSTILE).h, spec(_SQRT2_SEXTIC).h]
    for c in (1, -1, Fraction(3, 2), QuadExt(0, 1), QuadExt(1, 1)):
        for p in polys:
            assert p.shifted(c) == _binomial_shifted(p, c), (p, c)


def test_unipoly_sqrt2_coefficients():
    p = UniPoly.from_roots([QuadExt(0, 1), QuadExt(0, -1)])  # (y-sqrt2)(y+sqrt2)
    assert p == parse_unipoly("y^2 - 2")
    assert p(QuadExt(0, 1)).is_zero()


def test_spec_normalizes_monic():
    s = SubmoduleSpec("M", parse_unipoly("2*y - 2"))
    assert s.h == parse_unipoly("y - 1")
    with pytest.raises(ValueError):
        SubmoduleSpec("M", UniPoly(()))
    with pytest.raises(ValueError):
        SubmoduleSpec("X", parse_unipoly("y"))


# -- membership ---------------------------------------------------------------------

def test_membership_M_y():
    assert contains(spec("M[h=y]"), mod("x*y"))
    assert not contains(spec("M[h=y]"), mod("x"))
    assert not contains(spec("M[h=y]"), ModuleElement.one(EVEN))


def test_membership_N_1():
    n1 = spec("N[h=1]")
    assert not contains(n1, ModuleElement.one(EVEN))
    assert contains(n1, mod("x"))
    assert contains(n1, mod("y"))
    assert contains(n1, mod("s*t + 3", ODD))
    assert contains(n1, mod("1", ODD))  # odd part is everything


def test_membership_odd_shifted_divisor():
    # odd membership divides by h(t+1); h = y+1 gives t+2
    assert contains(spec("M[h=y+1]"), mod("s*t + 2*s"))
    assert not contains(spec("M[h=y+1]"), mod("s*t + s"))


def test_membership_rejects_parametric_elements():
    v = ModuleElement.monomial(EVEN, 0, 1, Scalar.param("a"))
    with pytest.raises(ValueError):
        contains(spec("M[h=y]"), v)


def test_membership_formal_lam_alp_fine():
    v = mod("lam*x*y + alp*y^2")
    assert contains(spec("M[h=y]"), v)


def test_reduce_mod():
    s = spec("M[h=y^2-1]")
    v = mod("x*y^3")
    r = reduce_mod(s, v)
    assert r == mod("x*y")  # y^3 = y mod y^2-1
    assert contains(s, v - r)


# -- closure and containment -----------------------------------------------------------

BATTERY = ["1", "y", "y+1", "y-2", "y^2-1"]


@pytest.mark.parametrize("h", BATTERY)
@pytest.mark.parametrize("kind", ["M", "N"])
def test_closure_battery_window2(kind, h):
    report = check_closure(spec(f"{kind}[h={h}]"), 2, 2)
    assert report.passed, report.render_text()


def test_closure_sqrt2_shift():
    # an h with a root outside Q still closes (a-free rational/quadratic shifts)
    report = check_closure(SubmoduleSpec("M", parse_unipoly("y^2 - 2")), 2, 2)
    assert report.passed


def test_containment_examples():
    assert check_containment(spec("N[h=y+1]"), spec("M[h=y+1]"))
    assert check_containment(spec("M[h=y^2-1]"), spec("M[h=y+1]"))
    assert not check_containment(spec("M[h=y+1]"), spec("M[h=y-1]"))


def test_lattice_order_battery():
    specs = [spec(f"{k}[h={h}]") for h in BATTERY for k in ("M", "N")]
    assert check_lattice_order(specs).passed


def test_strict_chain_maximality_witness():
    # deg-2 h = h1 h2: M_h < M_h1 < whole module, strictly
    h1 = spec("M[h=y-1]")
    h = spec("M[h=y^2-1]")
    assert check_containment(h, h1)
    assert contains(h1, mod("y - 1"))
    assert not contains(h, mod("y - 1"))  # strict at the bottom
    assert not contains(h1, ModuleElement.one(EVEN))  # strict at the top


def test_non_simplicity_witness():
    my = spec("M[h=y]")
    assert contains(my, mod("y"))
    assert not contains(my, ModuleElement.one(EVEN))


def test_quotient_class_count():
    # classes of x^i y^j mod M_h, truncated at x-degree d, span exactly
    # deg(h) * (d+1) dimensions in one parity
    for h_text, d in (("y^2-1", 3), ("y+1", 2), ("y^2-2", 2)):
        s = spec(f"M[h={h_text}]")
        n = s.h.degree
        dim = n * (d + 1)
        span = RowSpan(dim)
        for i in range(d + 1):
            for j in range(n + 3):
                r = reduce_mod(s, ModuleElement.monomial(EVEN, i, j))
                vec = [QuadExt(0)] * dim
                for (ii, jj), c in r.terms.items():
                    vec[ii * n + jj] = c.constant()
                span.add(vec)
        assert span.rank == dim


def test_odd_divisor_is_stored_once(monkeypatch):
    spec = SubmoduleSpec("N", parse_unipoly("2*y^2 - 2"))
    assert spec.odd_divisor == spec.h.shifted(1) == parse_unipoly("y^2 + 2*y")
    assert "odd_divisor" not in repr(spec)
    assert spec == SubmoduleSpec("N", parse_unipoly("y^2 - 1"))

    def no_shift(self, c):
        raise AssertionError("odd divisor recomputed")

    monkeypatch.setattr(UniPoly, "shifted", no_shift)
    odd = parse_module_element("s*t^2 + 2*s*t")
    assert contains(spec, odd)
    assert reduce_mod(spec, odd).is_zero()
    assert spec.generators()[-1] == parse_module_element("t^2 + 2*t")


def test_int_divisor_is_computed_once_per_spec_and_parity(monkeypatch):
    calls, real = [], submodules._int_divisor
    monkeypatch.setattr(submodules, "_int_divisor", lambda d: calls.append(d) or real(d))
    s = spec("N[h=y^2 - sqrt2*y + 1/2]")
    assert calls == [s.h, s.odd_divisor]  # both parities, at construction
    assert s == spec("N[h=y^2 - sqrt2*y + 1/2]") and "_int_divisors" not in repr(s)
    calls.clear()
    assert contains(s, mod("x*y^2 - sqrt2*x*y + 1/2*x"))
    assert check_closure(s, 2, 2).passed
    assert reduce_mod(s, mod("s*t^3", ODD)) == reduce_mod(s, mod("s*t^3", ODD))
    assert calls == []  # no division computes one again
