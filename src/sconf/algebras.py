"""The five superconformal algebras, their super-brackets, and the standard
homomorphisms between them.

Supported algebras (by tag):

* ``R``    -- N=2, Ramond sector: L_m, H_m, Gp_m, Gm_m (integer modes), C.
* ``NS``   -- N=2, Neveu-Schwarz sector: as R but Gp/Gm at half-integer modes.
* ``T``    -- N=2, topological: L_m, H_m, G_m, Q_m (integer modes), C.
* ``N1R``  -- centerless N=1, Ramond sector: L_m, G_m (integer modes).
* ``N1NS`` -- centerless N=1, Neveu-Schwarz sector: L_m, G_r (half-integer).

Mode indices are stored doubled (``twice``), so half-integer modes stay exact
integers.  The brackets and the standard maps are data.  A bracket table
(one for R/NS, one for T, one for the N=1 pair) maps each canonically ordered
family pair to rows (result family, coefficient(m, n)), and a map maps each
source family to rows (target family, doubled image mode, coefficient(m)).
One evaluator, ``_basis_bracket``, reads the tables: it places every term at
the total mode, keeps a central row only at total mode 0, drops zero terms,
and derives the other ordering from super-antisymmetry
``[x, y] = -(-1)^{|x||y|} [y, x]``.  Its cache holds every pair it has
seen; a miss calls each row on the two symbols' stored Fraction modes,
keeps the Fraction the row returns (wrapping only a constant row's int),
negates it for the reversed order, and builds each result symbol through
the one validated constructor, whose check is a single set lookup.  A
symbol stores its mode and its hash when built, and equality compares the
``sort_index`` tuples, so every lookup, hit or miss, hashes and compares
symbols without building a tuple.  One builder, ``_generator_map``, reads
the map rows the same way.  The graded Jacobi sweep reads each row it needs
from ``_basis_bracket`` once, scales them all to integers over one common
denominator, and computes one sum in machine ints per cyclic orbit of
triples, since the three rotations of a triple give the same sum.  The
bracket-compatibility sweep of a basis action, ``check_representation``,
also runs in machine ints, over a table of that action's images local to
the call; it and ``freemod.extend_linearly`` read every image through one
parity guard, ``_checked``, which refuses an image of the wrong parity.
``_check_images`` is the one loop that applies each generator of a list to
each vector of a list and tests the image.  Its five callers are the
projection, phi and xi intertwining sweeps (``quotients``), the submodule
closure (``submodules.check_closure``) and the a = 0 closure certificate
of ``n1.check_simplicity_witness``.  The homomorphism check reads the
map's images through a table local to the call, one image per symbol it
needs, and compares the two sides of each pair as sums of Scalars,
building no element for a pair that passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import lcm
from operator import eq
from typing import Callable

from .errors import AlgebraMismatch, MixedParity
from .reports import VerificationReport
from .scalars import INV_SQRT2, SC_ONE, Scalar, add_terms, as_scalar, render_combination

ALGEBRAS = ("R", "NS", "T", "N1R", "N1NS")

# family -> parity (0 even, 1 odd)
_FAMILY_PARITY = {"L": 0, "H": 0, "C": 0, "Gp": 1, "Gm": 1, "G": 1, "Q": 1}
_FAMILY_ORDER = {"L": 0, "H": 1, "Gp": 2, "Gm": 3, "G": 4, "Q": 5, "C": 6}

# families present in each algebra, and whether the odd modes are half-integer
_ALGEBRA_FAMILIES = {
    "R": ("L", "H", "Gp", "Gm", "C"),
    "NS": ("L", "H", "Gp", "Gm", "C"),
    "T": ("L", "H", "G", "Q", "C"),
    "N1R": ("L", "G"),
    "N1NS": ("L", "G"),
}
_HALF_ODD = {"NS", "N1NS"}  # odd generators live at half-integer modes


# (algebra, family, twice % 2) of every valid symbol; C's entry holds its
# one doubled mode, 0, in that place
_VALID_SYMBOLS = frozenset(
    (algebra, family, int(_FAMILY_PARITY[family] == 1 and algebra in _HALF_ODD))
    for algebra, families in _ALGEBRA_FAMILIES.items() for family in families
)


@dataclass(frozen=True, order=True)
class BasisSymbol:
    """One basis generator, identified by algebra tag, family, and 2*mode.

    The constructor validates with one set lookup of (algebra, family,
    ``twice % 2``), ``twice`` itself for C; only a refused symbol runs the
    branches that pick its message.  It stores the exact mode ``index`` (a
    Fraction) and the hash of ``sort_index``, neither compared nor shown by
    ``repr``.  Symbols are equal exactly when their ``sort_index`` tuples
    are, which orders them; equality checks identity first.
    """

    sort_index: tuple = field(init=False, repr=False, compare=True)
    algebra: str = field(compare=False)
    family: str = field(compare=False)
    twice: int = field(compare=False, default=0)
    index: Fraction = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        algebra, family, twice = self.algebra, self.family, self.twice
        if (algebra, family, twice if family == "C" else twice % 2) not in _VALID_SYMBOLS:
            self._refuse()
        sort_index = (algebra, _FAMILY_ORDER[family], twice)
        object.__setattr__(self, "sort_index", sort_index)
        object.__setattr__(self, "index", Fraction(twice, 2))
        object.__setattr__(self, "_hash", hash(sort_index))

    def _refuse(self):
        """Raise the ValueError that names why the symbol is invalid."""
        if self.algebra not in _ALGEBRA_FAMILIES:
            raise ValueError(f"unknown algebra {self.algebra!r}")
        if self.family not in _ALGEBRA_FAMILIES[self.algebra]:
            raise ValueError(f"family {self.family!r} does not exist in {self.algebra}")
        if self.family == "C":
            if self.twice != 0:
                raise ValueError("C carries no mode index")
        elif self.family in ("L", "H"):
            if self.twice % 2:
                raise ValueError(f"{self.family} modes are integers")
        else:  # odd family
            want_odd = self.algebra in _HALF_ODD
            if (self.twice % 2 == 0) == want_odd:
                kind = "half-integers" if want_odd else "integers"
                raise ValueError(f"{self.family} modes in {self.algebra} are {kind}")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_index == other.sort_index

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # unpickle through the constructor: the stored hash of a str differs
        # between interpreters
        return BasisSymbol, (self.algebra, self.family, self.twice)

    @property
    def parity(self):
        return _FAMILY_PARITY[self.family]

    def render(self):
        if self.family == "C":
            return "C"
        if self.twice % 2 == 0:
            return f"{self.family}[{self.twice // 2}]"
        return f"{self.family}[{self.twice}/2]"

    __str__ = render


class AlgebraElement:
    """Finite linear combination of basis symbols with Scalar coefficients.

    All symbols share one algebra tag.  All non-central symbols must share one
    parity; the central element C is even and may ride along with either.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms=None):
        if algebra not in _ALGEBRA_FAMILIES:
            raise ValueError(f"unknown algebra {algebra!r}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "terms", terms or {})

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @classmethod
    def basis(cls, symbol, coeff=1):
        coeff = as_scalar(coeff)
        if coeff.is_zero():
            return cls(symbol.algebra)
        return cls(symbol.algebra, {symbol: coeff})

    @classmethod
    def zero(cls, algebra):
        return cls(algebra)

    def is_zero(self):
        return not self.terms

    def parity(self):
        """Common parity of the non-central symbols (0 if only C or zero)."""
        seen = {sym.parity for sym in self.terms if sym.family != "C"}
        if len(seen) > 1:
            raise MixedParity(f"element {self} has mixed parity")
        return seen.pop() if seen else 0

    def drop_center(self):
        terms = {s: c for s, c in self.terms.items() if s.family != "C"}
        return AlgebraElement(self.algebra, terms)

    # -- linear structure -----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, AlgebraElement):
            raise TypeError(f"cannot combine AlgebraElement with {other!r}")
        if other.algebra != self.algebra:
            raise AlgebraMismatch(f"{self.algebra} element combined with {other.algebra}")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(self.algebra, {s: -c for s, c in self.terms.items()})

    def __mul__(self, scalar):
        scalar = as_scalar(scalar)
        if scalar.is_zero():
            return AlgebraElement(self.algebra)
        return AlgebraElement(self.algebra, {s: c * scalar for s, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    __hash__ = None

    def render(self):
        return render_combination((sym.render(), self.terms[sym]) for sym in sorted(self.terms))

    __str__ = render

    def __repr__(self):
        return f"<{self.algebra} element {self.render()}>"


def basis_symbols(algebra, window):
    """All basis symbols with |mode| <= window, i.e. |twice| <= 2*window, and C."""
    out = []
    half = algebra in _HALF_ODD
    for family in _ALGEBRA_FAMILIES[algebra]:
        if family == "C":
            out.append(BasisSymbol(algebra, "C"))
            continue
        if _FAMILY_PARITY[family] == 1 and half:
            modes = [t for t in range(-2 * window, 2 * window + 1) if t % 2]
        else:
            modes = [2 * m for m in range(-window, window + 1)]
        out.extend(BasisSymbol(algebra, family, t) for t in modes)
    return out


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

# family pair -> rows (result family, coefficient(m, n)), m and n the modes
# of the pair as Fractions; _basis_bracket reads them (see the docstring above)
_N2 = {
    ("L", "L"): (("L", lambda m, n: m - n), ("C", lambda m, n: (m**3 - m) / 12)),
    ("L", "H"): (("H", lambda m, n: -n),),
    ("H", "H"): (("C", lambda m, n: m / 3),),
    ("L", "Gp"): (("Gp", lambda m, n: m / 2 - n),),
    ("L", "Gm"): (("Gm", lambda m, n: m / 2 - n),),
    ("H", "Gp"): (("Gp", lambda m, n: 1),),
    ("H", "Gm"): (("Gm", lambda m, n: -1),),
    ("Gm", "Gp"): (
        ("L", lambda m, n: 2),
        ("H", lambda m, n: n - m),
        ("C", lambda m, n: (m * m - Fraction(1, 4)) / 3),
    ),
    ("Gp", "Gp"): (),
    ("Gm", "Gm"): (),
}

_TOPOLOGICAL = {
    ("L", "L"): (("L", lambda m, n: m - n),),
    ("L", "H"): (("H", lambda m, n: -n), ("C", lambda m, n: (m * m + m) / 6)),
    ("H", "H"): (("C", lambda m, n: m / 3),),
    ("L", "G"): (("G", lambda m, n: m - n),),
    ("L", "Q"): (("Q", lambda m, n: -n),),
    ("H", "G"): (("G", lambda m, n: 1),),
    ("H", "Q"): (("Q", lambda m, n: -1),),
    ("G", "Q"): (
        ("L", lambda m, n: 2),
        ("H", lambda m, n: -2 * n),
        ("C", lambda m, n: (m * m + m) / 3),
    ),
    ("G", "G"): (),
    ("Q", "Q"): (),
}

_N1 = {  # centerless
    ("L", "L"): (("L", lambda m, n: m - n),),
    ("L", "G"): (("G", lambda m, n: m / 2 - n),),
    ("G", "G"): (("L", lambda m, n: 2),),
}

_TABLES = {"R": _N2, "NS": _N2, "T": _TOPOLOGICAL, "N1R": _N1, "N1NS": _N1}


@lru_cache(maxsize=None)
def _basis_bracket(x, y):
    """Bracket of two basis symbols as a tuple of (symbol, nonzero Fraction).

    The one reader of the tables above.
    """
    if x.family == "C" or y.family == "C":
        return ()
    table = _TABLES[x.algebra]
    rows, m, n, negate = table.get((x.family, y.family)), x.index, y.index, False
    if rows is None:
        # super-antisymmetry: [x,y] = -(-1)^{|x||y|} [y,x]
        rows, m, n = table.get((y.family, x.family)), n, m
        negate = not (x.parity and y.parity)
        if rows is None:
            raise LookupError(f"no bracket of {x.family} with {y.family} in {x.algebra}")
    tot = x.twice + y.twice
    out = []
    for family, coeff in rows:
        c = coeff(m, n)  # a Fraction over Fraction modes; a constant row gives an int
        if c and (tot == 0 or family != "C"):
            if type(c) is int:
                c = Fraction(c)
            out.append((BasisSymbol(x.algebra, family, tot), -c if negate else c))
    return tuple(out)


def bracket(x, y):
    """Super-bracket of two homogeneous elements of the same algebra."""
    if not isinstance(x, AlgebraElement) or not isinstance(y, AlgebraElement):
        raise TypeError("bracket expects AlgebraElement arguments")
    if x.algebra != y.algebra:
        raise AlgebraMismatch(f"bracket across {x.algebra} and {y.algebra}")
    x.parity()
    y.parity()
    return AlgebraElement(x.algebra, _bracket_terms(x.terms, y.terms))


def _bracket_terms(xterms, yterms, drop_center=False):
    """The terms of the bracket of two elements given by their terms: the sum
    of c1 * c2 * ``_basis_bracket(s1, s2)``, without C when ``drop_center``."""
    acc = {}
    for s1, c1 in xterms.items():
        for s2, c2 in yterms.items():
            parts = _basis_bracket(s1, s2)
            if parts:
                c = c1 * c2
                add_terms(acc, ((s, c * f) for s, f in parts
                                if not (drop_center and s.family == "C")))
    return acc


def _checked(basis_act, sym, v):
    """``basis_act(sym, v)``, refused when it lands in the wrong parity."""
    image = basis_act(sym, v)
    if image.terms and image.parity != (v.parity + sym.parity) % 2:
        raise MixedParity(f"{sym} maps a monomial to the wrong parity")
    return image


def check_representation(report, syms, basis_act, vectors, label):
    """Bracket compatibility of an action, recorded into ``report``.

    For every ordered pair (X, Y) of ``syms`` and every vector v:

        [X, Y] . v  ==  X.(Y.v) - (-1)^{|X||Y|} Y.(X.v)

    ``basis_act(sym, w)`` applies one basis symbol to a vector.  Each
    violation's context is ``label`` followed by ``(X, Y) on v``.

    The sweep runs in machine ints over a table local to the call.  The table
    holds ``basis_act(symbol, monomial)`` once per (symbol, parity, monomial
    key) the sweep needs: every symbol of ``syms`` and of their brackets on
    the monomials of each v, and every symbol of ``syms`` on the monomials of
    each Y.v, each read through ``_checked``.  A
    coefficient (p + q sqrt2)/d of a parameter monomial becomes the ints
    p D/d and q D/d, D the common denominator of the table and the vectors,
    keyed by one int that packs the monomial, the exponent vector and the
    power r of sqrt2; a product whose r reaches 2 doubles its int.  The
    bracket rows are scaled by B, the lcm of their denominators.  Both sides
    of a case are then D**3 B times the exact ones, so they are equal exactly
    when those are.  Per v, X.(Y.v) is formed once for every pair and serves
    both (X, Y) and (Y, X).  Only a failing case is rebuilt, for its text,
    from ``basis_act`` and the ``_basis_bracket`` rows.
    """
    n = len(syms)
    number = {s: k for k, s in enumerate(syms)}  # symbol -> table row
    brackets = [[_basis_bracket(x, y) for y in syms] for x in syms]
    for row in chain.from_iterable(brackets):
        for s, _ in row:
            number.setdefault(s, len(number))
    symbols = list(number)
    images = {}  # (symbol number, parity, key) -> basis_act(symbol, monomial)

    def fill(count, parity, keys, cls):
        for k in range(count):
            sym = symbols[k]
            for key in keys:
                if (k, parity, key) not in images:
                    images[k, parity, key] = _checked(basis_act, sym, cls(parity, {key: SC_ONE}))

    for v in vectors:
        fill(len(symbols), v.parity, v.terms, type(v))
    for (y, _, _), img in list(images.items()):
        if y < n:
            fill(n, img.parity, img.terms, type(img))

    elements = [*images.values(), *vectors]
    coeffs = [c for e in elements for c in e.terms.values()]
    den = lcm(*(q.d for c in coeffs for q in c.terms.values()))
    # exponent vectors pack into one int in base ``base``: a sum of three
    # of them keeps every entry below base / 2 in size, so packing is injective
    base = 6 * max((abs(e) for c in coeffs for ev in c.terms for e in ev), default=0) + 1
    keys = {}  # (parity, monomial key) -> number
    for e in elements:
        for key in e.terms:
            keys.setdefault((e.parity, key), len(keys))
    nk = len(keys)

    def flat(e):
        """``den`` times ``e`` as {key + nk (r + 2 packed ev): int}."""
        out = {}
        for key, c in e.terms.items():
            at = keys[e.parity, key]
            for ev, q in c.terms.items():
                packed = 0
                for x in reversed(ev):
                    packed = packed * base + x
                where, s = at + 2 * nk * packed, den // q.d
                if q.p:
                    out[where] = q.p * s
                if q.q:
                    out[where + nk] = q.q * s
        return out

    # rows[symbol][monomial] = (image, sqrt2 times image) as (int key, int) pairs
    rows = [[None] * nk for _ in symbols]
    for (k, parity, key), img in images.items():
        plain = list(flat(img).items())
        root2 = [(c - nk, 2 * m) if c // nk & 1 else (c + nk, m) for c, m in plain]
        rows[k][keys[parity, key]] = (plain, root2)

    def split(vec, scale=1):
        """The nonzero entries of a flat vector as (monomial, r, offset, int)."""
        out = []
        for c, m in vec.items():
            if m:
                rest, at = divmod(c, nk)
                r = rest & 1
                out.append((at, r, (rest - r) * nk, m * scale))
        return out

    def apply(k, parts):
        table, acc = rows[k], {}
        for at, r, off, m in parts:
            for c, f in table[at][r]:
                c += off
                acc[c] = acc.get(c, 0) + m * f
        return acc

    lcm_b = lcm(*(f.denominator for row in chain.from_iterable(brackets) for _, f in row))
    scaled = [[tuple((number[s], den * f.numerator * (lcm_b // f.denominator)) for s, f in row)
               for row in row_list] for row_list in brackets]
    odd = [s.parity for s in syms]
    fails = []
    for t, v in enumerate(vectors):
        parts = split(flat(v))
        zv = [apply(k, parts) for k in range(len(symbols))]
        yv = [split(zv[y], lcm_b) for y in range(n)]
        xyv = [[apply(x, yv[y]) for y in range(n)] for x in range(n)]
        for x, y in product(range(n), repeat=2):
            diff = dict(xyv[x][y])
            sign = 1 if odd[x] and odd[y] else -1
            for c, m in xyv[y][x].items():
                diff[c] = diff.get(c, 0) + sign * m
            for z, f in scaled[x][y]:
                for c, m in zv[z].items():
                    diff[c] = diff.get(c, 0) - f * m
            if any(diff.values()):
                fails.append((x, y, t))
    for x, y, t in sorted(fails):
        xs, ys, v = syms[x], syms[y], vectors[t]
        lhs = type(v).zero(v.parity)
        for z, f in brackets[x][y]:
            lhs = lhs + basis_act(z, v) * f
        xy, yx = basis_act(xs, basis_act(ys, v)), basis_act(ys, basis_act(xs, v))
        rhs = xy + yx if xs.parity and ys.parity else xy - yx
        report.record(f"{label}({xs}, {ys}) on {v}", lhs.render(), rhs.render())
    return report


def _check_images(report, syms, vectors, lhs, rhs, label, same=eq):
    """Record ``label``-prefixed violations where ``same(lhs(X, v), rhs(X, v))``
    fails, for every X of ``syms`` (outer loop) and every v of ``vectors``
    (inner loop).  Each side is recorded as its text, so it may be an element
    or a fixed text such as ``"member"``."""
    for sym in syms:
        for v in vectors:
            left, right = lhs(sym, v), rhs(sym, v)
            if not same(left, right):
                report.record(f"{label}{sym} on {v}", left, right)
    return report


# ---------------------------------------------------------------------------
# whole-algebra sweeps
# ---------------------------------------------------------------------------

def _render_fraction_combo(acc):
    """Render a symbol -> Fraction accumulator for violation messages."""
    elem = AlgebraElement(
        next(iter(acc)).algebra, {s: Scalar.number(c) for s, c in acc.items() if c}
    )
    return elem.render()


def check_super_jacobi(algebra, window):
    """Exhaustive graded Jacobi sweep over basis triples within the window.

    Checks (-1)^{|x||z|}[x,[y,z]] + (-1)^{|y||x|}[y,[z,x]] + (-1)^{|z||y|}[z,[x,y]] = 0.
    The three cyclic rotations of a triple give the same sum, term for term,
    so the sweep computes one sum per cyclic orbit: the triples (i, j, k) of
    symbol numbers with j >= i and k > i, and the diagonal (i, i, i).  A
    nonzero sum is recorded at every distinct rotation of its orbit, in the
    order of the ordered triples.  The structure constants in these triples
    are rational, so the sweep works in machine ints.  It numbers the
    window's symbols and every symbol a bracket yields once, reads each
    needed ``_basis_bracket`` row once, and scales all of them by ``den``,
    the lcm of their denominators.  An orbit's sum is then ``den**2`` times
    the Fraction sum, zero exactly when that is, and a nonzero one is
    rendered divided by ``den**2``.  The tables live for this call only.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    report = VerificationReport(
        "algebra-jacobi", {"which": algebra, "window": window}
    )
    syms = basis_symbols(algebra, window)
    n = len(syms)
    index = {s: k for k, s in enumerate(syms)}  # symbol -> number
    inner = [[_basis_bracket(y, z) for z in syms] for y in syms]
    for row in chain.from_iterable(inner):
        for s, _ in row:
            index.setdefault(s, len(index))
    # the outer rows: each window symbol bracketed with every numbered symbol
    outer = [[_basis_bracket(x, s) for s in list(index)] for x in syms]
    den = lcm(*(c.denominator for table in (inner, outer)
                for row in chain.from_iterable(table) for _, c in row))

    def scaled(row):
        return tuple((index.setdefault(s, len(index)), c.numerator * (den // c.denominator))
                     for s, c in row)

    inner = [[scaled(row) for row in row_list] for row_list in inner]
    outer = [[scaled(row) for row in row_list] for row_list in outer]
    parity = [s.parity for s in syms]
    fails = []
    for i in range(n):
        for j in range(i, n):
            for k in range(i if j == i else i + 1, n):
                acc = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    rows = outer[a]
                    sign = -1 if parity[a] & parity[c] else 1
                    for s, f in inner[b][c]:
                        f *= sign
                        for s2, f2 in rows[s]:
                            acc[s2] = acc.get(s2, 0) + f * f2
                if any(acc.values()):
                    fails.extend((t, acc) for t in {(i, j, k), (j, k, i), (k, i, j)})
    symbols = list(index)
    for (i, j, k), acc in sorted(fails, key=lambda fail: fail[0]):
        lhs = {symbols[s]: Fraction(v, den * den) for s, v in acc.items()}
        report.record(f"jacobi {algebra} ({syms[i]}, {syms[j]}, {syms[k]})",
                      _render_fraction_combo(lhs), "0")
    return report


def check_antisymmetry(algebra, window):
    """[x,y] + (-1)^{|x||y|}[y,x] = 0 for all basis pairs in the window."""
    report = VerificationReport(
        "algebra-antisymmetry", {"which": algebra, "window": window}
    )
    syms = basis_symbols(algebra, window)
    for x, y in product(syms, repeat=2):
        sign = -1 if (x.parity and y.parity) else 1
        acc = add_terms({}, _basis_bracket(x, y))
        add_terms(acc, ((sym, sign * f) for sym, f in _basis_bracket(y, x)))
        if acc:
            report.record(
                f"antisymmetry {algebra} ({x}, {y})", _render_fraction_combo(acc), "0"
            )
    return report


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorMap:
    """A linear map given on basis symbols, extended linearly to elements.

    ``mod_center`` marks maps into a quotient by the center: C components are
    dropped from images, and homomorphism checks compare modulo C.
    """

    name: str
    source: str
    target: str
    rule: Callable[[BasisSymbol], AlgebraElement]
    mod_center: bool = False


def apply_map(gmap, x):
    """Linear extension of a GeneratorMap to an AlgebraElement."""
    if isinstance(x, BasisSymbol):
        x = AlgebraElement.basis(x)
    if x.algebra != gmap.source:
        raise AlgebraMismatch(
            f"map {gmap.name} expects {gmap.source} elements, got {x.algebra}"
        )
    out = {}
    for sym, coeff in x.terms.items():
        image = gmap.rule(sym)
        if image.algebra != gmap.target:
            raise AlgebraMismatch(
                f"rule of {gmap.name} produced a {image.algebra} element"
            )
        if sym.parity != image.parity():
            raise MixedParity(f"map {gmap.name} does not preserve parity at {sym}")
        add_terms(out, (
            (s, c * coeff) for s, c in image.terms.items()
            if not (gmap.mod_center and s.family == "C")
        ))
    return AlgebraElement(gmap.target, out)


def compose(outer, inner):
    """The composite map ``outer . inner``."""
    if inner.target != outer.source:
        raise AlgebraMismatch(
            f"cannot compose {outer.name} after {inner.name}: "
            f"{inner.target} != {outer.source}"
        )
    return GeneratorMap(
        name=f"{outer.name}.{inner.name}",
        source=inner.source,
        target=outer.target,
        rule=lambda sym: apply_map(outer, apply_map(inner, sym)),
        mod_center=outer.mod_center or inner.mod_center,
    )


def check_homomorphism(gmap, window):
    """apply([x,y]) == [apply(x), apply(y)] for basis pairs in the window.

    A table local to the call holds ``apply_map(gmap, s)`` for each window
    symbol, and for each symbol a bracket reaches, filled when first needed.
    Per pair, the sum of f * image(z) over ``_basis_bracket(x, y)`` is
    compared with the sum of c1 * c2 * ``_basis_bracket(s1, s2)`` over the
    terms of the two images (``_bracket_terms``, which ``bracket`` sums
    too), C dropped when ``mod_center`` is set, as
    ``apply_map`` drops it from the other side.  ``apply_map`` refuses an
    image of mixed or wrong parity, which is all ``bracket`` would check.
    """
    report = VerificationReport(
        "homomorphism", {"map": gmap.name, "window": window, "mod_center": gmap.mod_center}
    )
    syms = basis_symbols(gmap.source, window)
    mod_center = gmap.mod_center
    images = {s: apply_map(gmap, s).terms for s in syms}  # symbol -> image terms

    def image(s):
        if s not in images:
            images[s] = apply_map(gmap, s).terms
        return images[s]

    for x, y in product(syms, repeat=2):
        lhs = {}
        for z, f in _basis_bracket(x, y):
            add_terms(lhs, ((s, c * f) for s, c in image(z).items()))
        rhs = _bracket_terms(images[x], images[y], mod_center)
        if lhs != rhs:
            report.record(f"hom {gmap.name} ({x}, {y})",
                          AlgebraElement(gmap.target, lhs).render(),
                          AlgebraElement(gmap.target, rhs).render())
    return report


def maps_agree(m1, m2, window):
    """Report whether two maps agree on every basis symbol in the window."""
    report = VerificationReport(
        "map-agreement", {"maps": f"{m1.name} vs {m2.name}", "window": window}
    )
    if m1.source != m2.source or m1.target != m2.target:
        raise AlgebraMismatch("maps with different source or target cannot agree")
    for s in basis_symbols(m1.source, window):
        a = apply_map(m1, s)
        b = apply_map(m2, s)
        if a != b:
            report.record(f"agreement {m1.name} vs {m2.name} ({s})", a.render(), b.render())
    return report


# -- the standard maps ------------------------------------------------------

def _generator_map(name, source, target, rows, mod_center=False):
    """The GeneratorMap read from ``rows``: source family -> rows (target
    family, a, b, coefficient), one image term coefficient(m) * Y_{(a t + b)/2}
    per row for the source symbol X_{t/2} with mode m = t/2.  A C row is a
    central term, present only at t = 0; a coefficient may be a constant.
    """

    def rule(sym):
        t = sym.twice
        terms = {}
        for family, a, b, coeff in rows[sym.family]:
            c = as_scalar(coeff(sym.index) if callable(coeff) else coeff)
            if not c.is_zero() and (t == 0 or family != "C"):
                terms[BasisSymbol(target, family, a * t + b)] = c
        return AlgebraElement(target, terms)

    return GeneratorMap(name, source, target, rule, mod_center)


def spectral_flow():
    """The mode-shifting isomorphism from the NS sector onto the Ramond one."""
    return _generator_map("sigma", "NS", "R", {
        "L": (("L", 1, 0, 1), ("H", 1, 0, Fraction(1, 2)), ("C", 0, 0, Fraction(1, 24))),
        "H": (("H", 1, 0, 1), ("C", 0, 0, Fraction(1, 6))),
        "Gp": (("Gp", 1, 1, 1),),
        "Gm": (("Gm", 1, -1, 1),),
        "C": (("C", 0, 0, 1),),
    })


def topological_twist():
    """The current-shifted map from the NS sector onto the topological algebra."""
    return _generator_map("tau", "NS", "T", {
        "L": (("L", 1, 0, 1), ("H", 1, 0, lambda m: -(m + 1) / 2)),
        "H": (("H", 1, 0, 1),),
        "Gp": (("G", 1, -1, 1),),
        "Gm": (("Q", 1, 1, 1),),
        "C": (("C", 0, 0, 1),),
    })


def topological_to_ramond():
    """The isomorphism from the topological algebra onto the Ramond one."""
    return _generator_map("t2r", "T", "R", {
        "L": (("L", 1, 0, 1), ("H", 1, 0, lambda m: m / 2 + 1), ("C", 0, 0, Fraction(1, 8))),
        "H": (("H", 1, 0, 1), ("C", 0, 0, Fraction(1, 6))),
        "G": (("Gp", 1, 2, 1),),
        "Q": (("Gm", 1, -2, 1),),
        "C": (("C", 0, 0, 1),),
    })


def embed_ns1_in_r1():
    """Mode-doubling embedding of the N=1 NS algebra into the N=1 Ramond one."""
    return _generator_map("upsilon1", "N1NS", "N1R", {
        "L": (("L", 2, 0, Fraction(1, 2)),),
        "G": (("G", 2, 0, INV_SQRT2),),
    })


def embed_r1_in_r2():
    """Embedding of the N=1 Ramond algebra into the N=2 one, modulo center."""
    return _generator_map("upsilon2", "N1R", "R", {
        "L": (("L", 1, 0, 1),),
        "G": (("Gp", 1, 0, INV_SQRT2), ("Gm", 1, 0, INV_SQRT2)),
    }, mod_center=True)


STANDARD_MAPS = {
    "sigma": spectral_flow,
    "tau": topological_twist,
    "t2r": topological_to_ramond,
    "upsilon1": embed_ns1_in_r1,
    "upsilon2": embed_r1_in_r2,
}


def check_twist_composition(window):
    """(T->R) composed with the twist must equal the spectral flow on NS."""
    composite = compose(topological_to_ramond(), topological_twist())
    report = maps_agree(composite, spectral_flow(), window)
    report.suite = "homomorphism-composition"
    return report
