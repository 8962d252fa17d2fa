"""The parser checked against the one it replaced, kept here verbatim.

``sconf.parsing`` reads each term in plain ints.  The reference below is the
earlier parser, token objects and Scalar products included, copied with only
its imports made absolute and its lone-zero shortcut stripping only ASCII
white space, as ``sconf.parsing`` does.  On a seeded corpus -- the expression options of
``tests/cli_golden.json``, the texts of ``tests/test_parsing.py``, two
cli-mix decks, every prefix of ten of those texts, and hostile mutations at
and past the caps -- every entry point must return an equal value (of the
same parity), or raise the same ParseError: message, position and token.
"""

import ast
import json
import random
import re
import sys
from fractions import Fraction
from operator import add
from pathlib import Path

from sconf import parsing
from sconf.algebras import ALGEBRAS, AlgebraElement, BasisSymbol
from sconf.errors import ParseError
from sconf.freemod import EVEN, ODD, ModuleElement
from sconf.quotients import QuotientElement
from sconf.scalars import LAURENT_PARAMS, PARAMS, QE_ZERO, SC_ZERO, SQRT2, Scalar, add_terms
from sconf.submodules import SubmoduleSpec, UniPoly

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS.parent / "perfbench"))

import climix  # noqa: E402

# -- the reference: the earlier sconf/parsing.py, verbatim ----------------------

_TOKEN = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^()\[\]=,])"
                    r"|(?P<space>\s+)|(?P<stray>.)", re.ASCII | re.DOTALL)

_FAMILIES = ("Gp", "Gm", "L", "H", "G", "Q", "C")
MAX_EXPONENT = 64  # largest exponent of a variable in one term
MAX_NESTING = 32  # deepest nesting of parentheses
# most digits of an integer in the text, and of each of p, q, d in a parsed
# number (p + q*sqrt2)/d
MAX_DIGITS = 20
_NUMBER_BOUND = 10 ** MAX_DIGITS
_DIGITS_ERROR = f"numbers must have at most {MAX_DIGITS} digits"


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.items = []  # (kind, value, pos)
        end = 0  # an unexpected character is reported where the token before it ends
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "space":
                continue
            value = m[kind]
            if kind == "stray":
                raise ParseError("unexpected character", pos=end, token=value)
            if kind == "num":
                if len(value) > MAX_DIGITS:
                    raise ParseError(_DIGITS_ERROR, pos=m.start())
                value = int(value)
            self.items.append((kind, value, m.start()))
            end = m.end()
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
    ``depth`` counts the parentheses around the expression: inside them the
    variables are known but refused, since parentheses hold scalars only.
    """

    def __init__(self, toks, variables, depth=0):
        self.toks = toks
        self.vars = variables
        self.nvars = len(variables)
        self.depth = depth

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
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses must nest at most {MAX_NESTING} deep", pos=pos)
            toks.next()
            inner = _PolyParser(toks, self.vars, self.depth + 1).parse_sum()
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
            if self.depth:
                raise ParseError("parentheses hold scalars only: numbers, sqrt2 and parameters",
                                 pos=pos, token=value)
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


def _check_digits(coeffs):
    """ParseError when a parsed number has a part of more than MAX_DIGITS digits."""
    for c in coeffs:
        for q in c.terms.values():
            if max(abs(q.p), abs(q.q), q.d) >= _NUMBER_BOUND:
                raise ParseError(_DIGITS_ERROR)
    return coeffs


def _parse_all(toks, variables):
    out = _PolyParser(toks, variables).parse_sum()
    kind, value, pos = toks.peek()
    if kind != "end":
        raise ParseError("trailing input", pos=pos, token=value)
    _check_digits(out.values())
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


def parse_unipoly(text):
    """Parse a univariate polynomial in y with QuadExt coefficients."""
    acc = _parse_all(_Tokens(text), {"y": 0})
    return _unipoly(acc, "coefficients of y must be parameter-free", text)


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
    _check_digits(acc.values())
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
    if text.strip(" \t\n\r\f\v") == "0":  # the rendering of the zero element
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
    _check_digits(acc.terms.values())
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


# -- the corpus -----------------------------------------------------------------

SEED = 21
# options whose value the CLI parses: --roots is a comma-separated list
OPTION_PARSERS = {"--h": "unipoly", "--spec": "spec", "--a": "quadext", "--lam0": "quadext",
                  "--alp0": "quadext", "--roots": "quadext"}
PARSERS = {
    "scalar": "parse_scalar",
    "quadext": "parse_quadext",
    "module": "parse_module_element",
    "quotient": "parse_quotient_element",
    "unipoly": "parse_unipoly",
    "spec": "parse_submodule_spec",
    "algebra": "parse_algebra_element",
}
# non-ASCII, control and white-space characters, and ASCII ones no token holds
INSERTED_CHARACTERS = ["λ", "é", "²", "−", "一", "\U0001f600", "\x00", "\x1c", "\x7f", "١",
                    "２", "\u00a0", "\t", "\n", "@", "_", ".", "{"]


def _argv_texts(argv):
    """(parser kind, text) for every expression the CLI parses out of argv."""
    out = []
    if argv[0] == "act":
        out += [("algebra", word) for word in argv[1].split(";")]
        out.append(("element", argv[2]))
    for k, token in enumerate(argv):
        name, eq, value = token.partition("=")
        if not eq and name in OPTION_PARSERS and k + 1 < len(argv):
            value = argv[k + 1]
        if name in OPTION_PARSERS:
            kind = OPTION_PARSERS[name]
            out.append((kind, value))
            if name == "--roots":
                out += [(kind, part) for part in value.split(",")]
    return out


def _test_parsing_texts():
    """Every string constant of tests/test_parsing.py, and every string in its
    parametrized cases."""
    import test_parsing

    tree = ast.parse((TESTS / "test_parsing.py").read_text())
    texts = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}

    def strings(value):
        if isinstance(value, str):
            yield value
        elif isinstance(value, (tuple, list)):
            for v in value:
                yield from strings(v)

    for test in vars(test_parsing).values():
        for mark in getattr(test, "pytestmark", ()):
            if mark.name == "parametrize":
                texts.update(strings(mark.args[1]))
    return sorted(texts)


def _mutations(rng, text):
    """Hostile variants of ``text``, as the CLI fuzz test makes them."""
    at = rng.randrange(len(text) + 1)
    big, over = "9" * parsing.MAX_DIGITS, "1" * (parsing.MAX_DIGITS + 1)
    cap = parsing.MAX_EXPONENT
    return [
        "(" * parsing.MAX_NESTING + text + ")" * parsing.MAX_NESTING,
        "(" * (parsing.MAX_NESTING + 1) + text + ")" * (parsing.MAX_NESTING + 1),
        text[:at] + rng.choice(INSERTED_CHARACTERS) + text[at:],
        text[:at] + rng.choice([big, over, "7" * 5000, f"1/{over}", f"{big}*{big}",
                                f"{big}*sqrt2", "0", "00", "0/0", "2/02"]) + text[at:],
        text[:at] + rng.choice([f"x^{cap}", f"y^{cap + 1}", f"x^{cap}*x", f"s^{over}",
                                "lam^-3", "a^-1", "x^-1", "t^-0", "^", "^-", "**"]) + text[at:],
        " + ".join([text] * 3),
        text + " ",
        "\t" + text,
    ]


def _corpus():
    """(kind, text) pairs; kind "any" goes through every parser."""
    rng = random.Random(SEED)
    pairs = []
    for entry in json.loads((TESTS / "cli_golden.json").read_text()):
        pairs += _argv_texts(entry["argv"])
    for seed, unit in ((SEED, 0), (SEED, 1)):
        for req in climix.CliMix._build_deck(seed, unit):
            pairs += _argv_texts(req.argv)
    pairs = sorted(set(pairs))
    seen = list(pairs)
    for kind, text in rng.sample(seen, 10):
        pairs += [(kind, text[:i]) for i in range(len(text))]
    for kind, text in rng.sample(seen, 300):
        pairs += [(kind, t) for t in _mutations(rng, text)]
    pairs += [("any", text) for text in _test_parsing_texts()]
    pairs += [("any", text) for text in ("", " ", "\t", "0", "-", "+", "()", "(((", ")")]
    return pairs


# which entry points read a text of each kind, and with what extra arguments
READERS = {
    "quadext": [("quadext",), ("scalar",)],
    "unipoly": [("unipoly",), ("spec",)],
    "spec": [("spec",)],
    "algebra": [("algebra", "R"), ("algebra", "NS"), ("algebra", "N1R")],
    "element": [("module", None), ("module", EVEN), ("quotient", None), ("quotient", ODD)],
}
READERS["any"] = [("scalar",)] + [r for kind in READERS for r in READERS[kind]]


def _outcome(module, reader, text):
    name, *args = reader
    try:
        value = getattr(module, PARSERS[name])(text, *args)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.pos, exc.token)
    except Exception as exc:  # noqa: BLE001 -- parse_quadext's ValueError, compared as text
        return (type(exc).__name__, str(exc))
    parity = value.parity if isinstance(value, (ModuleElement, QuotientElement)) else None
    return ("value", value, parity)


def test_the_parser_matches_the_reference_on_the_corpus():
    reference = sys.modules[__name__]
    corpus = _corpus()
    assert len(corpus) >= 2000
    compared = 0
    for kind, text in corpus:
        for reader in READERS[kind]:
            got = _outcome(parsing, reader, text)
            want = _outcome(reference, reader, text)
            assert got == want, (reader, text)
            compared += 1
    assert compared >= 5000
