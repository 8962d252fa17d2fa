"""Text grammar for scalars, algebra elements, module polynomials, and
submodule specs.

Expressions are sums of terms; a term is a ``*``-separated product of
factors.  Factors are integers, fractions (``3/2``), ``sqrt2``, parameters
with optional integer exponents (``lam^-2``), variables with nonnegative
exponents (``x^2``), or a parenthesized scalar subexpression.  Algebra terms
end in exactly one generator, e.g. ``2*L[1] + lam*H[0] - C``; half-integer
modes are written ``Gp[1/2]``.  Renderers elsewhere in the package emit this
grammar, and parse(render(v)) == v is part of the contract.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

from .algebras import AlgebraElement, BasisSymbol, ALGEBRAS
from .errors import ParseError
from .freemod import EVEN, ODD, ModuleElement
from .quotients import QuotientElement
from .scalars import PARAMS, LAURENT_PARAMS, QE_ZERO, SC_ZERO, SQRT2, Scalar, add_terms
from .submodules import SubmoduleSpec, UniPoly

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^()\[\]=,]))")

_FAMILIES = ("Gp", "Gm", "L", "H", "G", "Q", "C")
MAX_EXPONENT = 64  # largest exponent of a variable in one term


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.items = []  # (kind, value, pos)
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == m.start():
                stray = text[pos:].lstrip()
                if not stray:
                    break
                raise ParseError("unexpected character", pos=pos, token=stray[0])
            if m.group("num") is not None:
                self.items.append(("num", int(m.group("num")), m.start("num")))
            elif m.group("name") is not None:
                self.items.append(("name", m.group("name"), m.start("name")))
            elif m.group("op") is not None:
                self.items.append(("op", m.group("op"), m.start("op")))
            pos = m.end()
        self.k = 0

    def peek(self):
        if self.k < len(self.items):
            return self.items[self.k]
        return ("end", None, len(self.text))

    def next(self):
        item = self.peek()
        self.k += 1
        return item

    def accept_op(self, op):
        kind, value, _ = self.peek()
        if kind == "op" and value == op:
            self.k += 1
            return True
        return False

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos=pos, token=value)

    def error(self, message):
        _, value, pos = self.peek()
        raise ParseError(message, pos=pos, token=value)


def _parse_integer(toks):
    neg = toks.accept_op("-")
    kind, value, pos = toks.next()
    if kind != "num":
        raise ParseError("expected an integer", pos=pos, token=value)
    return -value if neg else value


class _PolyParser:
    """Recursive-descent parser for polynomial expressions.

    ``variables`` maps a variable name to its slot in the exponent tuple;
    terms accumulate into a dict mapping variable-exponent tuples to Scalar.
    """

    def __init__(self, toks, variables):
        self.toks = toks
        self.vars = variables
        self.nvars = len(variables)

    def parse_sum(self):
        acc = {}
        sign = -1 if self.toks.accept_op("-") else 1
        self._add_term(acc, sign)
        while True:
            if self.toks.accept_op("+"):
                self._add_term(acc, 1)
            elif self.toks.accept_op("-"):
                self._add_term(acc, -1)
            else:
                return acc

    def _add_term(self, acc, sign):
        coeff, exps = self.parse_term()
        add_terms(acc, ((exps, -coeff if sign < 0 else coeff),))

    def parse_term(self):
        pos = self.toks.peek()[2]
        coeff, exps = self.parse_factor()
        while self.toks.accept_op("*"):
            c2, e2 = self.parse_factor()
            coeff = coeff * c2
            exps = tuple(a + b for a, b in zip(exps, e2))
        if max(exps, default=0) > MAX_EXPONENT:
            raise ParseError(f"variable exponents must be <= {MAX_EXPONENT}", pos=pos)
        return coeff, exps

    def parse_factor(self):
        toks = self.toks
        zero_exps = (0,) * self.nvars
        kind, value, pos = toks.peek()
        if kind == "num":
            toks.next()
            num = value
            if toks.accept_op("/"):
                kind2, den, pos2 = toks.next()
                if kind2 != "num" or den == 0:
                    raise ParseError("expected a nonzero denominator", pos=pos2, token=den)
                return Scalar.number(Fraction(num, den)), zero_exps
            return Scalar.number(num), zero_exps
        if kind == "op" and value == "(":
            toks.next()
            inner = _PolyParser(toks, {}).parse_sum()
            toks.expect_op(")")
            return sum(inner.values(), SC_ZERO), zero_exps
        if kind != "name":
            toks.error("expected a number, name, or parenthesized expression")
        toks.next()
        if value == "sqrt2":
            return Scalar.number(SQRT2), zero_exps
        if value in PARAMS:
            exp = self._parse_exponent(allow_negative=value in LAURENT_PARAMS, name=value, pos=pos)
            return Scalar.param(value, exp), zero_exps
        if value in self.vars:
            exp = self._parse_exponent(allow_negative=False, name=value, pos=pos)
            exps = [0] * self.nvars
            exps[self.vars[value]] = exp
            return Scalar.number(1), tuple(exps)
        raise ParseError("unknown name", pos=pos, token=value)

    def _parse_exponent(self, allow_negative, name, pos):
        if not self.toks.accept_op("^"):
            return 1
        exp = _parse_integer(self.toks)
        if exp < 0 and not allow_negative:
            raise ParseError(f"{name!r} cannot carry a negative exponent", pos=pos, token=name)
        return exp


def _parse_all(toks, variables):
    out = _PolyParser(toks, variables).parse_sum()
    kind, value, pos = toks.peek()
    if kind != "end":
        raise ParseError("trailing input", pos=pos, token=value)
    return out


def parse_scalar(text):
    """Parse a scalar expression such as ``3/2*lam^2*alp^-1*sqrt2``."""
    return sum(_parse_all(_Tokens(text), {}).values(), SC_ZERO)


def parse_quadext(text):
    """Parse a constant (parameter-free) scalar into a QuadExt."""
    return parse_scalar(text).constant()


def _parse_parity_poly(text, parity, even_vars, odd_vars):
    """Parse a polynomial in the even or the odd variables; return
    ``(parity, terms)`` with the exponents of both families folded onto one
    key tuple.

    The variables decide the parity; mixing the two families is an error,
    and a polynomial without variables needs an explicit parity.
    """
    n = len(even_vars)
    acc = _parse_all(_Tokens(text), {v: k for k, v in enumerate(even_vars + odd_vars)})
    uses_even = any(any(e[:n]) for e in acc)
    uses_odd = any(any(e[n:]) for e in acc)
    if uses_even and uses_odd:
        raise ParseError(
            f"cannot mix {'/'.join(even_vars)} with {'/'.join(odd_vars)} in one polynomial",
            pos=0,
            token=text,
        )
    inferred = EVEN if uses_even else ODD if uses_odd else None
    if inferred is None:
        if parity is None:
            raise ParseError(
                "parity is ambiguous for a constant polynomial; pass parity=",
                pos=0,
                token=text,
            )
        inferred = parity
    elif parity is not None and parity != inferred:
        raise ParseError("polynomial variables contradict the requested parity", pos=0, token=text)
    return inferred, {tuple(map(add, e[:n], e[n:])): c for e, c in acc.items()}


def parse_module_element(text, parity=None):
    """Parse a bivariate polynomial; parity is inferred from the variables.

    ``x``/``y`` select the even part, ``s``/``t`` the odd part; mixing the two
    families is an error.  A polynomial without variables needs an explicit
    parity.
    """
    return ModuleElement(*_parse_parity_poly(text, parity, ("x", "y"), ("s", "t")))


def parse_quotient_element(text, parity=None):
    """Parse a univariate polynomial in x (even) or s (odd)."""
    inferred, terms = _parse_parity_poly(text, parity, ("x",), ("s",))
    return QuotientElement(inferred, {k: c for (k,), c in terms.items()})


def _unipoly(acc, message, text):
    """The UniPoly of a sum in one variable; ParseError ``message`` when a
    coefficient carries a formal parameter."""
    coeffs = [QE_ZERO] * (max((k for (k,) in acc), default=-1) + 1)
    for (k,), c in acc.items():
        if not c.is_constant():
            raise ParseError(message, pos=0, token=text)
        coeffs[k] = c.constant()
    return UniPoly(coeffs)


def parse_unipoly(text, var="y"):
    """Parse a univariate polynomial with QuadExt coefficients."""
    acc = _parse_all(_Tokens(text), {var: 0})
    return _unipoly(acc, f"coefficients of {var} must be parameter-free", text)


def parse_submodule_spec(text):
    """Parse a submodule spec such as ``M[h=y^2-1]`` or ``N[h=1]``."""
    toks = _Tokens(text)
    kind_item = toks.next()
    if kind_item[0] != "name" or kind_item[1] not in ("M", "N"):
        raise ParseError("expected submodule kind M or N", pos=kind_item[2], token=kind_item[1])
    toks.expect_op("[")
    name_item = toks.next()
    if name_item[0] != "name" or name_item[1] != "h":
        raise ParseError("expected 'h='", pos=name_item[2], token=name_item[1])
    toks.expect_op("=")
    acc = _PolyParser(toks, {"y": 0}).parse_sum()
    toks.expect_op("]")
    kind, value, pos = toks.peek()
    if kind != "end":
        raise ParseError("trailing input", pos=pos, token=value)
    h = _unipoly(acc, "h must have parameter-free coefficients", text)
    if h.is_zero():
        raise ParseError("h must be nonzero", pos=0, token=text)
    return SubmoduleSpec(kind_item[1], h)


def parse_algebra_element(text, algebra):
    """Parse a linear combination of generators of the given algebra."""
    if algebra not in ALGEBRAS:
        raise ParseError(f"unknown algebra {algebra!r}", pos=0, token=algebra)
    if text.strip() == "0":  # the rendering of the zero element
        return AlgebraElement.zero(algebra)
    toks = _Tokens(text)
    acc = AlgebraElement.zero(algebra)
    first = True
    while True:
        kind, value, pos = toks.peek()
        if kind == "end":
            if first:
                toks.error("empty expression")
            break
        if not first:
            if toks.accept_op("+"):
                sign = 1
            elif toks.accept_op("-"):
                sign = -1
            else:
                toks.error("expected '+' or '-' between terms")
        else:
            sign = -1 if toks.accept_op("-") else 1
            first = False
        acc = acc + _parse_algebra_term(toks, algebra, sign)
    return acc


def _parse_algebra_term(toks, algebra, sign):
    poly = _PolyParser(toks, {})
    coeff = Scalar.number(sign)
    while True:
        kind, value, pos = toks.peek()
        if kind == "name" and value in _FAMILIES:
            toks.next()
            sym = _parse_symbol(toks, algebra, value, pos)
            if toks.accept_op("*"):
                toks.error("coefficients must precede the generator")
            return AlgebraElement.basis(sym, coeff)
        c, _ = poly.parse_factor()
        coeff = coeff * c
        if not toks.accept_op("*"):
            toks.error("a term must contain exactly one generator")


def _parse_symbol(toks, algebra, family, pos):
    if family == "C":
        try:
            return BasisSymbol(algebra, "C")
        except ValueError as exc:
            raise ParseError(str(exc), pos=pos, token=family) from exc
    toks.expect_op("[")
    num = _parse_integer(toks)
    twice = 2 * num
    if toks.accept_op("/"):
        kind, den, dpos = toks.next()
        if kind != "num" or den != 2:
            raise ParseError("mode denominators must be 2", pos=dpos, token=den)
        if num % 2 == 0:
            raise ParseError("half-integer modes need an odd numerator", pos=dpos, token=num)
        twice = num
    toks.expect_op("]")
    try:
        return BasisSymbol(algebra, family, twice)
    except ValueError as exc:
        raise ParseError(str(exc), pos=pos, token=family) from exc
