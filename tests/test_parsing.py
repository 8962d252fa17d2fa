"""Grammar coverage: round trips and error positions."""

from fractions import Fraction

import pytest

from sconf.errors import ParseError
from sconf.freemod import EVEN, ODD
from sconf.parsing import (
    MAX_DIGITS,
    MAX_NESTING,
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
    assert parse_algebra_element(" \t0\n", "R") == zero
    for text in ("\u00a00", "0\u00a0"):  # a non-ASCII space, as around any other term
        with pytest.raises(ParseError, match="unexpected character"):
            parse_algebra_element(text, "R")


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
        (parse_unipoly, ("a*y",),
         "coefficients of y must be parameter-free (token 'a*y' at position 0)"),
        (parse_submodule_spec, ("M[h=lam*y]",),
         "h must have parameter-free coefficients (token 'M[h=lam*y]' at position 0)"),
    ],
)
def test_parse_error_texts(parse, args, message):
    with pytest.raises(ParseError) as info:
        parse(*args)
    assert str(info.value) == message


_TWENTY = "9" * MAX_DIGITS  # the largest integer a parsed number may hold


@pytest.mark.parametrize("parse, text", [
    (parse_quadext, f"{_TWENTY}/7 + {_TWENTY}/7*sqrt2"),
    (parse_scalar, f"{_TWENTY}*lam^-2"),
    (parse_module_element, f"-{_TWENTY}*x*y"),
    (parse_quotient_element, f"1/{_TWENTY}*s"),
    (parse_unipoly, f"y^2 - {_TWENTY}"),
    (parse_submodule_spec, f"M[h=y - {_TWENTY}]"),
    (lambda text: parse_algebra_element(text, "R"), f"{_TWENTY}*sqrt2*L[1]"),
])
def test_numbers_up_to_the_digit_cap_parse(parse, text):
    parse(text)


@pytest.mark.parametrize("parse, text", [
    # one integer in the text over the cap
    (parse_quadext, "1" + "0" * MAX_DIGITS),
    (parse_quadext, "1" + "0" * 5000),
    (parse_scalar, f"lam^1{'0' * MAX_DIGITS}"),
    # parsed parts over the cap: numerator, sqrt2 part, denominator
    (parse_quadext, f"{_TWENTY} + 1"),
    (parse_quadext, f"1 + 10*{_TWENTY}*sqrt2"),
    (parse_module_element, f"1/{_TWENTY}*1/{_TWENTY}*x"),
    (parse_quotient_element, f"(1/7 + 1/{_TWENTY})*s"),
    (parse_unipoly, f"y - {_TWENTY}*{_TWENTY}"),
    (parse_submodule_spec, f"N[h=y + {_TWENTY}*sqrt2*3]"),
    (lambda text: parse_algebra_element(text, "R"), f"{_TWENTY}*L[1] + {_TWENTY}*L[1]"),
])
def test_numbers_over_the_digit_cap_are_parse_errors(parse, text):
    with pytest.raises(ParseError, match=f"numbers must have at most {MAX_DIGITS} digits"):
        parse(text)


def _nested(text, depth):
    return "(" * depth + text + ")" * depth


_PARSERS = {
    "quadext": parse_quadext,
    "scalar": parse_scalar,
    "unipoly": parse_unipoly,
    "module": lambda text: parse_module_element(text + "*x*y"),
    "quotient": lambda text: parse_quotient_element(text + "*s"),
    "spec": lambda text: parse_submodule_spec(f"M[h=y + {text}]"),
    "algebra": lambda text: parse_algebra_element(text + "*L[1]", "R"),
}


@pytest.mark.parametrize("name", _PARSERS)
def test_parentheses_nest_up_to_the_cap(name):
    _PARSERS[name](_nested("2", MAX_NESTING) + "*" + _nested("1 + sqrt2", MAX_NESTING // 2)
                   + "*" + _nested("-3 + " + _nested("sqrt2", MAX_NESTING - 1), 1))


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 250, 1000])
@pytest.mark.parametrize("name", _PARSERS)
def test_parentheses_past_the_cap_are_parse_errors(name, depth):
    with pytest.raises(ParseError) as info:
        _PARSERS[name](_nested("2", depth))
    assert str(info.value).startswith(f"parentheses must nest at most {MAX_NESTING} deep")


def test_algebra_element_inside_deep_parentheses_is_a_parse_error():
    with pytest.raises(ParseError, match="parentheses must nest"):
        parse_algebra_element(_nested("L[1]", 1000), "R")


@pytest.mark.parametrize("parse, text, token", [
    (parse_quotient_element, "(x)", "x"),
    (parse_quotient_element, "2*(1 + s)", "s"),
    (parse_module_element, "x*((y))", "y"),
    (parse_unipoly, "(y-1)^2", "y"),
    (parse_submodule_spec, "M[h=(y+1)]", "y"),
])
def test_parentheses_hold_scalars_only(parse, text, token):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == ("parentheses hold scalars only: numbers, sqrt2 and parameters "
                               f"(token {token!r} at position {text.index(token)})")


def test_unknown_names_in_parentheses_stay_unknown():
    with pytest.raises(ParseError, match="unknown name"):
        parse_quotient_element("(q)*x")
