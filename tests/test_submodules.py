"""Membership, closure, and lattice order for the submodule family."""

import random
from fractions import Fraction

import pytest

from sconf.freemod import EVEN, ODD, ModuleElement
from sconf.linalg import RowSpan
from sconf.parsing import parse_module_element, parse_submodule_spec, parse_unipoly
from sconf.scalars import QE_ZERO, QuadExt, Scalar, add_terms
from sconf.submodules import (
    SubmoduleSpec,
    UniPoly,
    _divide_in_second_var,
    check_closure,
    check_containment,
    check_lattice_order,
    contains,
    reduce_mod,
)


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


# Two independent long divisions, kept as oracles for the one that UniPoly and
# membership share: the dense UniPoly loop and the sparse bivariate one.

def _dense_divmod_monic(self, d):
    if not d.is_monic():
        raise ValueError("divisor must be monic")
    dd = d.degree
    rem = list(self.coeffs)
    quo = [QE_ZERO] * max(len(rem) - dd, 0)
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if c.is_zero():
            continue
        quo[k - dd] = c
        for l in range(dd + 1):
            rem[k - dd + l] = rem[k - dd + l] - c * d.coeffs[l]
    return UniPoly(tuple(quo)), UniPoly(tuple(rem[:dd]))


def _sparse_divide_in_second_var(terms, divisor):
    dd = divisor.degree
    minus_h = [(l, -d) for l, d in enumerate(divisor.coeffs) if d]
    work = dict(terms)
    quo = {}
    while work:
        jmax = max(j for _, j in work)
        if jmax < dd:
            break
        for i, j in [k for k in work if k[1] == jmax]:
            c = work[(i, j)]
            quo[(i, j - dd)] = c
            # subtract c * u^i v^(j-dd) * h; h is monic, so (i, j) cancels
            add_terms(work, (((i, j - dd + l), c * d) for l, d in minus_h))
    return work, quo


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
    rng = random.Random(20)
    for _ in range(2000):
        d = _random_poly(rng, rng.randint(0, 3), monic=True)
        p = _random_poly(rng, rng.randint(0, 7), monic=False)
        assert p.divmod_monic(d) == _dense_divmod_monic(p, d)
    for _ in range(1000):
        d = _random_poly(rng, rng.randint(0, 3), monic=True)
        terms = {}
        for _ in range(rng.randint(0, 6)):
            c = _random_scalar(rng)
            if c:
                terms[(rng.randint(0, 3), rng.randint(0, 6))] = c
        assert _divide_in_second_var(terms, d) == _sparse_divide_in_second_var(terms, d)
    for d in (UniPoly((1, 2)), UniPoly((QuadExt(0, 1),)), UniPoly(())):
        with pytest.raises(ValueError):
            parse_unipoly("y^3 - 1").divmod_monic(d)


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
