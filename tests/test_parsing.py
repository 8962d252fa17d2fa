"""Grammar coverage: round trips and error positions."""

from fractions import Fraction

import pytest

from sconf.errors import ParseError
from sconf.freemod import EVEN, ODD
from sconf.parsing import (
    parse_algebra_element,
    parse_module_element,
    parse_quadext,
    parse_quotient_element,
    parse_scalar,
    parse_submodule_spec,
    parse_unipoly,
)
from sconf.scalars import QuadExt


def test_scalar_roundtrips():
    for text in (
        "3/2*lam^2*alp^-1*sqrt2",
        "a",
        "1",
        "0",
        "lam + 1",
        "-b^2 + 4*mu^-1*bet^3",
        "1/2*sqrt2 - 7",
    ):
        v = parse_scalar(text)
        assert parse_scalar(v.render()) == v


def test_module_roundtrips():
    for text, parity in (
        ("x^2*y - 3", None),
        ("s*t^3", None),
        ("lam*x + 1/2*lam*y", None),
        ("1", EVEN),
        ("(lam + 1)*s", None),
    ):
        v = parse_module_element(text, parity)
        assert parse_module_element(v.render(), v.parity) == v


def test_module_parity_inference():
    assert parse_module_element("x^2*y - 3").parity == EVEN
    assert parse_module_element("s*t^3").parity == ODD
    with pytest.raises(ParseError):
        parse_module_element("x*t")
    with pytest.raises(ParseError):
        parse_module_element("1")  # constant needs explicit parity
    with pytest.raises(ParseError):
        parse_module_element("x", parity=ODD)


def test_quotient_parsing():
    v = parse_quotient_element("2*alp^-1*x + 1")
    assert v.parity == EVEN
    assert parse_quotient_element(v.render()) == v
    with pytest.raises(ParseError):
        parse_quotient_element("x + s")
    with pytest.raises(ParseError):
        parse_quotient_element("y")


def test_algebra_roundtrips():
    cases = [
        ("R", "2*L[1] + lam*H[0] - C"),
        ("R", "Gp[2] - Gm[-2]"),
        ("R", "(lam - 1)*L[0] - C"),
        ("R", "(1 + sqrt2)*Gp[3]"),
        ("NS", "Gp[1/2] + Gm[-3/2]"),
        ("T", "G[0] + Q[5] - 1/2*H[-2]"),
        ("N1R", "G[0] + 3*L[-4]"),
        ("N1NS", "sqrt2*G[7/2]"),
    ]
    for algebra, text in cases:
        v = parse_algebra_element(text, algebra)
        assert parse_algebra_element(v.render(), algebra) == v


def test_algebra_zero_roundtrip():
    from sconf.algebras import AlgebraElement

    zero = AlgebraElement.zero("R")
    assert zero.render() == "0"
    assert parse_algebra_element("0", "R") == zero
    assert parse_algebra_element("0*L[1]", "R") == zero


def test_algebra_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_algebra_element("2*L[1] + x", "R")
    assert "position" in str(info.value)
    with pytest.raises(ParseError):
        parse_algebra_element("L[1/2]", "R")  # even-family mode must be integer
    with pytest.raises(ParseError):
        parse_algebra_element("Gp[1]", "NS")  # NS odd modes are half-integers
    with pytest.raises(ParseError):
        parse_algebra_element("Q[0]", "R")  # Q only exists in T
    with pytest.raises(ParseError):
        parse_algebra_element("C", "N1R")  # centerless
    with pytest.raises(ParseError):
        parse_algebra_element("L[1]*2", "R")  # coefficient after generator
    with pytest.raises(ParseError):
        parse_algebra_element("2*L[1] @", "R")
    with pytest.raises(ParseError):
        parse_algebra_element("", "R")


def test_spec_parsing():
    s = parse_submodule_spec("M[h=y^2-1]")
    assert s.kind == "M" and s.h.degree == 2
    assert parse_submodule_spec(s.render()) == s
    n = parse_submodule_spec("N[h=1]")
    assert n.kind == "N" and n.h.degree == 0
    with pytest.raises(ParseError):
        parse_submodule_spec("K[h=y]")
    with pytest.raises(ParseError):
        parse_submodule_spec("M[h=lam*y]")
    with pytest.raises(ParseError):
        parse_submodule_spec("M[h=0]")


def test_unipoly_parsing():
    p = parse_unipoly("y^2 - 2*y + 1")
    assert p.coeffs == (QuadExt(1), QuadExt(-2), QuadExt(1))
    assert parse_unipoly(p.render()) == p
    q = parse_unipoly("y^2 - 2 + sqrt2*y")
    assert parse_unipoly(q.render()) == q
    with pytest.raises(ParseError):
        parse_unipoly("x + 1")


def test_quadext_parsing():
    assert parse_quadext("1 + 1/2*sqrt2") == QuadExt(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        parse_quadext("lam")


def test_laurent_exponent_restrictions():
    parse_scalar("lam^-3")
    with pytest.raises(ParseError):
        parse_scalar("a^-1")
    with pytest.raises(ParseError):
        parse_module_element("x^-1")


@pytest.mark.parametrize(
    "parse, args, message",
    [
        (parse_module_element, ("x*t",),
         "cannot mix x/y with s/t in one polynomial (token 'x*t' at position 0)"),
        (parse_quotient_element, ("x + s",),
         "cannot mix x with s in one polynomial (token 'x + s' at position 0)"),
        (parse_module_element, ("1",),
         "parity is ambiguous for a constant polynomial; pass parity= "
         "(token '1' at position 0)"),
        (parse_quotient_element, ("3",),
         "parity is ambiguous for a constant polynomial; pass parity= "
         "(token '3' at position 0)"),
        (parse_module_element, ("x", ODD),
         "polynomial variables contradict the requested parity (token 'x' at position 0)"),
        (parse_quotient_element, ("s", EVEN),
         "polynomial variables contradict the requested parity (token 's' at position 0)"),
        (parse_unipoly, ("lam*y + 1",),
         "coefficients of y must be parameter-free (token 'lam*y + 1' at position 0)"),
        (parse_unipoly, ("a*x", "x"),
         "coefficients of x must be parameter-free (token 'a*x' at position 0)"),
        (parse_submodule_spec, ("M[h=lam*y]",),
         "h must have parameter-free coefficients (token 'M[h=lam*y]' at position 0)"),
    ],
)
def test_parse_error_texts(parse, args, message):
    with pytest.raises(ParseError) as info:
        parse(*args)
    assert str(info.value) == message
