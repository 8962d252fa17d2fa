"""Text grammar for scalars, algebra elements, module polynomials, and
submodule specs.

Expressions are sums of terms; a term is a ``*``-separated product of
factors.  Factors are integers, fractions (``3/2``), ``sqrt2``, parameters
with optional integer exponents (``lam^-2``), variables with nonnegative
exponents (``x^2``), or a parenthesized scalar subexpression (no variables,
at most MAX_NESTING parentheses deep).  Algebra terms end in exactly one
generator, e.g. ``2*L[1] + lam*H[0] - C``; half-integer modes are written
``Gp[1/2]``.  Renderers elsewhere in the package emit this grammar, and
parse(render(v)) == v is part of the contract.

A text is cut into pieces by one ``_TOKEN.findall``.  Its alternatives tile
the text, so a piece starts at the summed length of the pieces before it;
that sum is taken only when an error is reported.  The tokens are the pieces
that are not white space, then the end token ``""``, reported as None at
position ``len(text)``.  A number stays a digit string until it is read.  One
search of the whole text (``_SUSPECT``) looks for a stray character or a
number of more than MAX_DIGITS digits first; when it finds one, the first
such piece in text order is reported, a number where it starts and a stray
character where the token before it ends.

A term is accumulated in plain ints: a signed numerator and a denominator, a
count of ``sqrt2`` factors, an exponent list for the parameters and one for
the variables.  When the term ends it becomes one QuadExt coefficient, added
into one dict for the whole sum under the key (variable exponents, parameter
exponents), or (generator, parameter exponents) in an algebra element; the
Scalars are formed from that dict once, at the end.  A parenthesized factor
holds scalars only: it is parsed as a sum of its own, and multiplied into the
coefficient when it is a constant, or into the term as a Scalar when it
carries a parameter.
"""

from __future__ import annotations

import re

from .algebras import AlgebraElement, BasisSymbol, ALGEBRAS
from .errors import ParseError
from .freemod import EVEN, ODD, ModuleElement
from .quotients import QuotientElement
from .scalars import (LAURENT_PARAMS, PARAMS, QE_ONE, QE_ZERO, SC_ONE, SC_ZERO, Scalar,
                      _qe, add_terms)
from .submodules import SubmoduleSpec, UniPoly

_FAMILIES = ("Gp", "Gm", "L", "H", "G", "Q", "C")
MAX_EXPONENT = 64  # largest exponent of a variable in one term
MAX_NESTING = 32  # deepest nesting of parentheses
# most digits of an integer in the text, and of each of p, q, d in a parsed
# number (p + q*sqrt2)/d
MAX_DIGITS = 20
_NUMBER_BOUND = 10 ** MAX_DIGITS
_DIGITS_ERROR = f"numbers must have at most {MAX_DIGITS} digits"

# The alternatives tile the text: names, numbers, operators, white space, and
# any other character as a stray piece of its own.
_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9]*|\d+|[-+*/^()\[\]=,]|\s+|.", re.ASCII | re.DOTALL)
# a character no token holds, or a number with too many digits (or a name
# holding that many)
_SUSPECT = re.compile(rf"[^-+*/^()\[\]=,A-Za-z0-9\s]|\d{{{MAX_DIGITS + 1}}}", re.ASCII)
_OPERATORS = frozenset("-+*/^()[]=,")
_SPACE_TEXT = " \t\n\r\f\v"  # what \s matches under re.ASCII
_SPACE = frozenset(_SPACE_TEXT)
_NPARAMS = len(PARAMS)
_PARAM_SLOTS = {name: (False, slot) for slot, name in enumerate(PARAMS)}


def _check_pieces(pieces):
    """ParseError at the first stray character or overlong number, in text
    order; a stray character is reported where the token before it ends."""
    pos = end = 0
    for piece in pieces:
        c = piece[0]
        if c not in _SPACE:
            if c not in _OPERATORS and not (c.isascii() and c.isalnum()):
                raise ParseError("unexpected character", pos=end, token=piece)
            if c.isdigit() and len(piece) > MAX_DIGITS:
                raise ParseError(_DIGITS_ERROR, pos=pos)
            end = pos + len(piece)
        pos += len(piece)


class _Parser:
    """Recursive descent over the tokens of one text, ``k`` the current one.

    ``variables`` names the variables, in the order of their exponent slots;
    ``names`` maps each parameter and variable to (is a variable, slot).
    ``depth`` counts the parentheses around the expression being read:
    inside them the variables are known but refused, since parentheses hold
    scalars only.
    """

    def __init__(self, text, variables=()):
        self.pieces = _TOKEN.findall(text)
        if _SUSPECT.search(text):
            _check_pieces(self.pieces)
        self.toks = [piece for piece in self.pieces if not piece.isspace()]
        self.toks.append("")
        self.k = 0
        self.nvars = len(variables)
        self.names = {**_PARAM_SLOTS, **{v: (True, slot) for slot, v in enumerate(variables)}}

    def value(self, k):
        """Token k as an error reports it: an int for a number, None at the end."""
        tok = self.toks[k]
        return int(tok) if tok.isdigit() else tok or None

    def position(self, k):
        """Where token k starts: the length of the pieces before it."""
        pos = 0
        for piece in self.pieces:
            if not piece.isspace():
                if not k:
                    break
                k -= 1
            pos += len(piece)
        return pos

    def fail(self, message, k, token=None):
        raise ParseError(message, pos=self.position(k), token=token)

    def error(self, message):
        """A ParseError at the current token."""
        self.fail(message, self.k, self.value(self.k))

    def accept(self, op):
        if self.toks[self.k] == op:
            self.k += 1
            return True
        return False

    def expect(self, op):
        if not self.accept(op):
            self.error(f"expected {op!r}")

    def finish(self):
        if self.toks[self.k]:
            self.error("trailing input")

    def integer(self, k):
        """The integer, perhaps negated, that starts at token ``k``, and the
        index of its last token."""
        toks = self.toks
        neg = toks[k] == "-"
        if neg:
            k += 1
        if not toks[k].isdigit():
            self.fail("expected an integer", k, self.value(k))
        value = int(toks[k])
        return -value if neg else value, k

    def sum(self, acc, depth=0):
        """Add the terms of a signed sum into ``acc``; returns ``acc``."""
        toks = self.toks
        sign = -1 if self.accept("-") else 1
        while True:
            self.term(acc, sign, depth)
            tok = toks[self.k]
            if tok == "+":
                sign = 1
            elif tok == "-":
                sign = -1
            else:
                return acc
            self.k += 1

    def term(self, acc, sign, depth, algebra=None):
        """Read one term and add it into ``acc``.

        The term is accumulated as ``num/den * sqrt2**r2 * params**pexp *
        variables**vexp``, times ``mult`` for the constant parenthesized
        factors and the Scalar of each other one in ``parens``, and added
        under (variable exponents, parameter exponents).  When
        ``algebra`` is given the term ends in a generator of that algebra
        instead, and is added under (generator, parameter exponents).
        """
        toks, k, names = self.toks, self.k, self.names
        start = k
        num, den, r2 = sign, 1, 0
        pexp, vexp, mult, parens = [0] * _NPARAMS, [0] * self.nvars, QE_ONE, []
        while True:
            tok = toks[k]
            if tok in names:
                is_var, slot = names[tok]
                if is_var and depth:
                    self.fail("parentheses hold scalars only: numbers, sqrt2 and parameters",
                              k, tok)
                if toks[k + 1] == "^":
                    e, last = self.integer(k + 2)
                    if e < 0 and (is_var or tok not in LAURENT_PARAMS):
                        self.fail(f"{tok!r} cannot carry a negative exponent", k, tok)
                    k = last
                else:
                    e = 1
                if is_var:
                    vexp[slot] += e
                else:
                    pexp[slot] += e
            elif tok.isdigit():
                num *= int(tok)
                if toks[k + 1] == "/":
                    k += 2
                    d = int(toks[k]) if toks[k].isdigit() else 0
                    if not d:
                        self.fail("expected a nonzero denominator", k, self.value(k))
                    den *= d
            elif tok == "sqrt2":
                r2 += 1
            elif tok == "(":
                if depth == MAX_NESTING:
                    self.fail(f"parentheses must nest at most {MAX_NESTING} deep", k)
                self.k = k + 1
                inner = self.sum({}, depth + 1)
                self.expect(")")
                k = self.k - 1
                s = Scalar({p: c for (_, p), c in inner.items()})
                if s.is_constant():
                    mult = mult * s.constant()
                else:
                    parens.append(s)
            elif algebra and tok in _FAMILIES:
                self.k = k
                key = self.symbol(algebra)
                if self.accept("*"):
                    self.error("coefficients must precede the generator")
                break
            elif not tok or tok in _OPERATORS:
                self.fail("expected a number, name, or parenthesized expression", k,
                          self.value(k))
            else:
                self.fail("unknown name", k, tok)
            k += 1
            if toks[k] == "*":
                k += 1
            elif algebra:
                self.fail("a term must contain exactly one generator", k, self.value(k))
            else:
                if vexp and max(vexp) > MAX_EXPONENT:
                    self.fail(f"variable exponents must be <= {MAX_EXPONENT}", start)
                self.k = k
                key = tuple(vexp)
                break
        if not num:
            return
        num <<= r2 >> 1  # sqrt2**r2 is 2**(r2 // 2), times sqrt2 when r2 is odd
        coeff = _qe(0, num, den) if r2 & 1 else _qe(num, 0, den)
        if mult is not QE_ONE:
            coeff = coeff * mult
        if not parens:
            add_terms(acc, (((key, tuple(pexp)), coeff),))
            return
        value = Scalar({tuple(pexp): coeff})
        for s in parens:
            value = value * s
        add_terms(acc, (((key, p), c) for p, c in value.terms.items()))

    def symbol(self, algebra):
        """The basis symbol at the current token: a family, then its mode."""
        k = self.k
        family = self.toks[k]
        self.k += 1
        twice = 0
        if family != "C":
            self.expect("[")
            num, last = self.integer(self.k)
            self.k = last + 1
            twice = 2 * num
            if self.accept("/"):
                if self.value(self.k) != 2:
                    self.error("mode denominators must be 2")
                if num % 2 == 0:
                    self.fail("half-integer modes need an odd numerator", self.k, num)
                self.k += 1
                twice = num
            self.expect("]")
        try:
            return BasisSymbol(algebra, family, twice)
        except ValueError as exc:
            raise ParseError(str(exc), pos=self.position(k), token=family) from exc


def _check_digits(acc):
    """``acc``; ParseError when a coefficient has a part of more than
    MAX_DIGITS digits."""
    for q in acc.values():
        if max(abs(q.p), abs(q.q), q.d) >= _NUMBER_BOUND:
            raise ParseError(_DIGITS_ERROR)
    return acc


def _parse_all(text, variables=()):
    parser = _Parser(text, variables)
    acc = parser.sum({})
    parser.finish()
    return _check_digits(acc)


def _scalars(acc):
    """``{key: Scalar}`` from ``{(key, parameter exponents): QuadExt}``; a
    coefficient equal to one is ``SC_ONE``, as ``Scalar.number(1)`` is."""
    out = {}
    for (key, pexp), c in acc.items():
        out.setdefault(key, {})[pexp] = c
    return {key: SC_ONE if terms == SC_ONE.terms else Scalar(terms)
            for key, terms in out.items()}


def parse_scalar(text):
    """Parse a scalar expression such as ``3/2*lam^2*alp^-1*sqrt2``."""
    return _scalars(_parse_all(text)).get((), SC_ZERO)


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
    acc = _parse_all(text, even_vars + odd_vars)
    uses_even = any(any(e[:n]) for e, _ in acc)
    uses_odd = any(any(e[n:]) for e, _ in acc)
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
    return inferred, _scalars({(e[:n] if uses_even else e[n:], pexp): c
                               for (e, pexp), c in acc.items()})


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
    coeffs = [QE_ZERO] * (max((k for (k,), _ in acc), default=-1) + 1)
    for ((k,), pexp), c in acc.items():
        if any(pexp):
            raise ParseError(message, pos=0, token=text)
        coeffs[k] = c
    return UniPoly(coeffs)


def parse_unipoly(text):
    """Parse a univariate polynomial in y with QuadExt coefficients."""
    return _unipoly(_parse_all(text, ("y",)), "coefficients of y must be parameter-free", text)


def parse_submodule_spec(text):
    """Parse a submodule spec such as ``M[h=y^2-1]`` or ``N[h=1]``."""
    parser = _Parser(text, ("y",))
    kind = parser.toks[0]
    if not (parser.accept("M") or parser.accept("N")):
        parser.error("expected submodule kind M or N")
    parser.expect("[")
    if not parser.accept("h"):
        parser.error("expected 'h='")
    parser.expect("=")
    acc = _check_digits(parser.sum({}))
    parser.expect("]")
    parser.finish()
    h = _unipoly(acc, "h must have parameter-free coefficients", text)
    if h.is_zero():
        raise ParseError("h must be nonzero", pos=0, token=text)
    return SubmoduleSpec(kind, h)


def parse_algebra_element(text, algebra):
    """Parse a linear combination of generators of the given algebra."""
    if algebra not in ALGEBRAS:
        raise ParseError(f"unknown algebra {algebra!r}", pos=0, token=algebra)
    if text.strip(_SPACE_TEXT) == "0":  # the rendering of the zero element
        return AlgebraElement.zero(algebra)
    parser = _Parser(text)
    if not parser.toks[0]:
        parser.error("empty expression")
    acc = {}
    sign = -1 if parser.accept("-") else 1
    while True:
        parser.term(acc, sign, 0, algebra)
        if parser.accept("+"):
            sign = 1
        elif parser.accept("-"):
            sign = -1
        elif not parser.toks[parser.k]:
            return AlgebraElement(algebra, _scalars(_check_digits(acc)))
        else:
            parser.error("expected '+' or '-' between terms")
