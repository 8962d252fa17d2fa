"""Exact rendered text of each element type (the CLI prints these strings)."""

import random
from fractions import Fraction

from sconf.algebras import AlgebraElement, BasisSymbol
from sconf.freemod import EVEN, ODD, ModuleElement
from sconf.quotients import QuotientElement
from sconf.scalars import QuadExt, Scalar
from sconf.submodules import UniPoly


def test_rendered_strings_are_pinned():
    sqrt2 = QuadExt(0, 1)
    lam, alp = Scalar.param("lam"), Scalar.param("alp")

    assert str(QuadExt(1, -1)) == "1 - sqrt2"
    assert str(QuadExt(0, Fraction(-1, 2))) == "-1/2*sqrt2"
    assert str(QuadExt(0)) == "0"

    s = Scalar.monomial(QuadExt(-1, -1), lam=1) + Scalar.monomial(1, a=3)
    assert s.render() == "-lam - lam*sqrt2 + a^3"
    assert repr(s) == "<Scalar -lam - lam*sqrt2 + a^3>"

    even = ModuleElement(EVEN, {
        (1, 1): lam + alp,
        (0, 2): Scalar.number(-3 * sqrt2),
        (0, 0): Scalar.number(Fraction(1, 2)),
    })
    assert even.render() == "(lam + alp)*x*y - 3*sqrt2*y^2 + 1/2"
    odd = ModuleElement(ODD, {
        (1, 1): Scalar.number(1),
        (1, 0): Scalar.number(-2),
        (0, 0): alp - Scalar.param("a") * sqrt2,
    })
    assert repr(odd) == "<ModuleElement odd s*t - 2*s + (alp - a*sqrt2)>"
    assert repr(ModuleElement.zero(ODD)) == "<ModuleElement odd 0>"

    q = QuotientElement(EVEN, {
        2: Scalar.number(-1), 1: Scalar.number(QuadExt(1, -1)), 0: -lam,
    })
    assert repr(q) == "<QuotientElement even -x^2 + (1 - sqrt2)*x - lam>"
    assert str(-q * lam) == "lam*x^2 + (-lam + lam*sqrt2)*x + lam^2"

    x = AlgebraElement("R", {
        BasisSymbol("R", "L", 2): Scalar.number(QuadExt(1, 1)),
        BasisSymbol("R", "Gp", 2): Scalar.number(-1),
        BasisSymbol("R", "C"): Scalar.number(-1),
    })
    assert x.render() == "(1 + sqrt2)*L[1] - Gp[1] - C"

    h = UniPoly((QuadExt(1, -1), Fraction(-1, 2), 0, sqrt2))
    assert h.render() == "sqrt2*y^3 - 1/2*y + 1 - sqrt2"
    assert h.render("t") == "sqrt2*t^3 - 1/2*t + 1 - sqrt2"


def _signed_terms_oracle(x, before, after):
    """``QuadExt.signed_terms`` written over the Fraction parts."""
    out = []
    for c, root in ((Fraction(x.p, x.d), ""), (Fraction(x.q, x.d), "sqrt2")):
        if c:
            factors = [f for f in (before, root, after) if f]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            out.append((1 if c > 0 else -1, "*".join(factors)))
    return out


def test_quadext_terms_render_as_fractions_do():
    rng = random.Random(18)
    seen_d = set()
    for _ in range(3000):
        d = rng.choice((1, 2, 3, 4, 6, 12, rng.randint(1, 10**6)))
        x = QuadExt(Fraction(rng.randint(-30, 30), d), Fraction(rng.randint(-30, 30), d))
        seen_d.add(x.d > 1)
        for before, after in (("", ""), ("lam", ""), ("", "y^2"), ("alp^2", "t")):
            assert x.signed_terms(before, after) == _signed_terms_oracle(x, before, after), x
    assert seen_d == {True, False}
