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
family pair to rows (result family, terms, d): integer terms (c, i, j) of a
polynomial in the pair's doubled modes t and u, over one positive int
denominator d, so that (m^3 - m)/12 is (t^3 - 4t)/96.  A map maps each
source family to rows (target family, doubled image mode, coefficient(m)).
One evaluator, ``_bracket_ints``, reads the bracket tables at concrete
(family, twice) pairs: it places every term at the total mode, keeps a
central row only at total mode 0, drops zero terms, derives the other
ordering from super-antisymmetry ``[x, y] = -(-1)^{|x||y|} [y, x]``, raises
LookupError for a pair the table lacks, and returns int numerators over a
denominator the caller computes from the rows with ``_denominator``.
Nothing caches what it returns.  It has these readers:

* ``_basis_bracket`` turns its ints into (symbol, Fraction) pairs for
  ``bracket``, ``check_antisymmetry`` and the failure texts of the sweeps.
* ``_numbered_brackets`` reads the brackets of every two symbols of a list
  as (number, int) pairs, numbering each result symbol by (family, twice):
  the rows of the representation sweep, the inner rows of the Jacobi sweep
  and the source pairs of the homomorphism check.
* The graded Jacobi sweep computes one sum per cyclic orbit of triples,
  since the three rotations of a triple give the same sum, as one int that
  packs a digit per family.
* The homomorphism check reads the map's image of each symbol it needs
  once, through ``apply_map``, into a table local to the call, flattens the
  images to ints as the representation sweep does, and compares the two
  sides of each pair in machine ints.

Both sweeps build symbols, Fractions and elements only for a failing case,
for its text.  A symbol stores its mode and its hash when built, and
equality compares the ``sort_index`` tuples.  ``_generator_map`` builds a
map from rows; ``map_image`` reads and checks its image of one symbol, and
``apply_map`` extends that linearly.  ``check_representation``, the
bracket-compatibility sweep of an action's rows, sums each unordered pair
of generators once for all vectors, each vector a signed digit of one packed
int per coordinate, as the Jacobi sweep packs its families (``_signed_digits``
unpacks both).  ``_check_images`` is the one generator-by-vector check
loop of the map sweeps and closure checks: each side acts by a generator
on the whole vector list at once, each vector whole, since a seam fault
need not be linear, and the sides of a case are compared in ints.  Every
image of a rows seam is read through one parity guard, ``_checked``, and
only a failing case builds elements, for its text.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from itertools import chain, product
from math import lcm

from .errors import AlgebraMismatch, MixedParity
from .reports import VerificationReport
from .scalars import (
    _ZERO_EXP, INV_SQRT2, Scalar, add_terms, as_scalar, render_combination, same_rows,
    slices_of, sum_rows,
)
from .values import Value

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


@total_ordering
class BasisSymbol(Value):
    """One basis generator, identified by algebra tag, family, and 2*mode.

    The constructor validates with one set lookup of (algebra, family,
    ``twice % 2``), ``twice`` itself for C; only a refused symbol runs the
    branches that pick its message.  It stores ``sort_index``, the tuple
    (algebra, family order, twice), and its hash, neither shown by ``repr``.
    Symbols are equal exactly when their ``sort_index`` tuples are, which
    orders them; equality checks identity first.  The exact mode ``index``
    (a Fraction) is computed on read.  A symbol pickles and copies through
    its constructor, since the stored hash of a str differs between
    interpreters.
    """

    __slots__ = ("algebra", "family", "twice", "sort_index", "_hash")
    _fields = ("algebra", "family", "twice")

    def __init__(self, algebra, family, twice=0):
        _set_algebra(self, algebra)
        _set_family(self, family)
        _set_twice(self, twice)
        if (algebra, family, twice if family == "C" else twice % 2) not in _VALID_SYMBOLS:
            self._refuse()
        sort_index = (algebra, _FAMILY_ORDER[family], twice)
        _set_sort_index(self, sort_index)
        _set_hash(self, hash(sort_index))

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

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_index < other.sort_index

    def __hash__(self):
        return self._hash

    @property
    def index(self):
        return Fraction(self.twice, 2)

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


_set_algebra = BasisSymbol.algebra.__set__
_set_family = BasisSymbol.family.__set__
_set_twice = BasisSymbol.twice.__set__
_set_sort_index = BasisSymbol.sort_index.__set__
_set_hash = BasisSymbol._hash.__set__


class AlgebraElement(Value):
    """Finite linear combination of basis symbols with Scalar coefficients.

    All symbols share one algebra tag.  All non-central symbols must share one
    parity; the central element C is even and may ride along with either.
    """

    __slots__ = ("algebra", "terms")
    _fields = __slots__

    def __init__(self, algebra, terms=None):
        if algebra not in _ALGEBRA_FAMILIES:
            raise ValueError(f"unknown algebra {algebra!r}")
        _set_element_algebra(self, algebra)
        _set_element_terms(self, terms or {})

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
        return _parity(self.terms)

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

    __hash__ = None

    def render(self):
        return render_combination((sym.render(), self.terms[sym]) for sym in sorted(self.terms))

    __str__ = render

    def __repr__(self):
        return f"<{self.algebra} element {self.render()}>"


_set_element_algebra = AlgebraElement.algebra.__set__
_set_element_terms = AlgebraElement.terms.__set__


def _parity(terms):
    """The common parity of the non-central symbols of an element's terms
    ``{symbol: coeff}`` (0 if only C or none)."""
    seen = {sym.parity for sym in terms if sym.family != "C"}
    if len(seen) > 1:
        element = AlgebraElement(next(iter(terms)).algebra, terms)
        raise MixedParity(f"element {element} has mixed parity")
    return seen.pop() if seen else 0


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

# family pair -> rows (result family, terms, d).  The coefficient of the
# result family at the total mode is sum(c * t**i * u**j) / d over the terms
# (c, i, j), t and u the doubled modes (``twice``) of the pair: at m = t/2,
# (m**3 - m)/12 is (t**3 - 4 t)/96.  ``_bracket_ints`` reads them (see the
# docstring above)
_N2 = {
    ("L", "L"): (("L", ((1, 1, 0), (-1, 0, 1)), 2), ("C", ((1, 3, 0), (-4, 1, 0)), 96)),
    ("L", "H"): (("H", ((-1, 0, 1),), 2),),
    ("H", "H"): (("C", ((1, 1, 0),), 6),),
    ("L", "Gp"): (("Gp", ((1, 1, 0), (-2, 0, 1)), 4),),
    ("L", "Gm"): (("Gm", ((1, 1, 0), (-2, 0, 1)), 4),),
    ("H", "Gp"): (("Gp", ((1, 0, 0),), 1),),
    ("H", "Gm"): (("Gm", ((-1, 0, 0),), 1),),
    ("Gm", "Gp"): (
        ("L", ((2, 0, 0),), 1),
        ("H", ((-1, 1, 0), (1, 0, 1)), 2),
        ("C", ((1, 2, 0), (-1, 0, 0)), 12),
    ),
    ("Gp", "Gp"): (),
    ("Gm", "Gm"): (),
}

_TOPOLOGICAL = {
    ("L", "L"): (("L", ((1, 1, 0), (-1, 0, 1)), 2),),
    ("L", "H"): (("H", ((-1, 0, 1),), 2), ("C", ((1, 2, 0), (2, 1, 0)), 24)),
    ("H", "H"): (("C", ((1, 1, 0),), 6),),
    ("L", "G"): (("G", ((1, 1, 0), (-1, 0, 1)), 2),),
    ("L", "Q"): (("Q", ((-1, 0, 1),), 2),),
    ("H", "G"): (("G", ((1, 0, 0),), 1),),
    ("H", "Q"): (("Q", ((-1, 0, 0),), 1),),
    ("G", "Q"): (
        ("L", ((2, 0, 0),), 1),
        ("H", ((-1, 0, 1),), 1),
        ("C", ((1, 2, 0), (2, 1, 0)), 12),
    ),
    ("G", "G"): (),
    ("Q", "Q"): (),
}

_N1 = {  # centerless
    ("L", "L"): (("L", ((1, 1, 0), (-1, 0, 1)), 2),),
    ("L", "G"): (("G", ((1, 1, 0), (-2, 0, 1)), 4),),
    ("G", "G"): (("L", ((2, 0, 0),), 1),),
}

_TABLES = {"R": _N2, "NS": _N2, "T": _TOPOLOGICAL, "N1R": _N1, "N1NS": _N1}


def _denominator(table):
    """The lcm of the row denominators of a bracket table."""
    return lcm(*(d for rows in table.values() for _, _, d in rows))


def _bracket_ints(algebra, den, f1, t1, f2, t2):
    """The bracket of the symbols (f1, t1) and (f2, t2) of ``algebra``, given
    by family and doubled mode, as a list of (family, int): ``den`` times each
    nonzero coefficient at the total mode (t1 + t2)/2.

    The one reader of the tables above; ``den`` must be a multiple of every
    row denominator, as ``_denominator`` of the table is.
    """
    if f1 == "C" or f2 == "C":
        return []
    table = _TABLES[algebra]
    rows, sign = table.get((f1, f2)), 1
    if rows is None:
        # super-antisymmetry: [x,y] = -(-1)^{|x||y|} [y,x]
        rows, t1, t2 = table.get((f2, f1)), t2, t1
        sign = 1 if _FAMILY_PARITY[f1] and _FAMILY_PARITY[f2] else -1
        if rows is None:
            raise LookupError(f"no bracket of {f1} with {f2} in {algebra}")
    central = t1 + t2 == 0
    out = []
    for family, terms, d in rows:
        if central or family != "C":
            c = 0
            for k, i, j in terms:
                c += k * t1**i * t2**j
            if c:
                out.append((family, sign * (den // d) * c))
    return out


def _numbered_brackets(algebra, den, keys, number):
    """The brackets of every two (family, twice) ``keys`` of ``algebra``, as
    rows [k1][k2] of (number, int) pairs: ``_bracket_ints`` over ``den``,
    each result symbol numbered by its (family, twice) in the dict
    ``number``, which gains the keys it lacks in the order they appear."""
    return [[[(number.setdefault((family, t1 + t2), len(number)), c)
              for family, c in _bracket_ints(algebra, den, f1, t1, f2, t2)]
             for f2, t2 in keys] for f1, t1 in keys]


def _basis_bracket(x, y):
    """Bracket of two basis symbols as a tuple of (symbol, nonzero Fraction),
    read through ``_bracket_ints``."""
    algebra, tot = x.algebra, x.twice + y.twice
    den = _denominator(_TABLES[algebra])
    return tuple((BasisSymbol(algebra, family, tot), Fraction(c, den))
                 for family, c in _bracket_ints(algebra, den, x.family, x.twice, y.family, y.twice))


def bracket(x, y):
    """Super-bracket of two homogeneous elements of the same algebra."""
    if not isinstance(x, AlgebraElement) or not isinstance(y, AlgebraElement):
        raise TypeError("bracket expects AlgebraElement arguments")
    if x.algebra != y.algebra:
        raise AlgebraMismatch(f"bracket across {x.algebra} and {y.algebra}")
    x.parity()
    y.parity()
    return AlgebraElement(x.algebra, _bracket_terms(x.terms, y.terms))


def _bracket_terms(xterms, yterms):
    """The terms of the bracket of two elements given by their terms: the sum
    of c1 * c2 * ``_basis_bracket(s1, s2)``."""
    acc = {}
    for s1, c1 in xterms.items():
        for s2, c2 in yterms.items():
            parts = _basis_bracket(s1, s2)
            if parts:
                c = c1 * c2
                add_terms(acc, ((s, c * f) for s, f in parts))
    return acc


def _checked(images, sym, vs):
    """``images``, the rows of ``sym`` on each of the rows ``vs``, refused
    when one is nonzero and of the wrong parity or when their counts
    differ."""
    odd = sym.parity
    for (target, slices), (parity, _) in zip(images, vs, strict=True):
        if target != (parity + odd) % 2 and any(
                p or q for slot in slices.values() for p, q, _ in slot.values()):
            raise MixedParity(f"{sym} maps a monomial to the wrong parity")
    return images


def _packing(exponents, base):
    """Each exponent vector ev of ``exponents`` packed as sum(ev[i] base**i)."""
    return {ev: sum([x * base**i for i, x in enumerate(ev)]) for ev in exponents}


def _flat(slices, number, den, packing, stride):
    """``den`` times the slices {key: {ev: (p, q, d)}}, each (p + q sqrt2)/d ev
    e_k, k = ``number[key]`` < ``stride``, as {k + stride (r + 2 packing[ev]):
    int}, r 0 for p and 1 for q; ``den`` is a multiple of every d."""
    out = {}
    for key, slot in slices.items():
        at = number[key]
        for ev, (p, q, d) in slot.items():
            where, s = at + 2 * stride * packing[ev], den // d
            if p:
                out[where] = p * s
            if q:
                out[where + stride] = q * s
    return out


def _split(vec, stride, scale=1):
    """The nonzero entries of a ``_flat`` vector as (at, r, offset, int), the
    offset ``2 stride packed ev`` and the int scaled by ``scale``."""
    out = []
    for c, m in vec.items():
        if m:
            rest, at = divmod(c, stride)
            r = rest & 1
            out.append((at, r, (rest - r) * stride, m * scale))
    return out


def _signed_digits(packed, w):
    """The digits of ``packed`` in base 2**w, lowest first, each in [-2**(w -
    1), 2**(w - 1)), up to the last nonzero one: the inverse of sum(d << w *
    g) over digits d of size below 2**(w - 1)."""
    half, mask, out = 1 << (w - 1), (1 << w) - 1, []
    while packed:
        d = packed & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        packed = (packed - d) >> w
    return out


def check_representation(report, syms, rows, vectors, label):
    """Bracket compatibility of an action, recorded into ``report``: for
    every ordered pair (X, Y) of ``syms`` and every vector v,

        [X, Y] . v  ==  X.(Y.v) - (-1)^{|X||Y|} Y.(X.v)

    ``rows(sym, ws)`` is the action's rows seam (``freemod.basis_rows``),
    one rows per rows of the list ``ws``.  Each violation's context is
    ``label`` followed by ``(X, Y) on v``.

    The sweep runs in ints over a table local to the call: the rows of each
    symbol of ``syms`` and of their brackets on each monomial of the
    vectors, and of ``syms`` on each monomial of each Y.v, read once through
    ``_checked``: one seam call per symbol and fill round, on the unit
    monomials it lacks.  ``_flat`` turns their slices (p + q sqrt2)/d, and
    the vectors' coefficients, into ints p D/d and q D/d over the common
    denominator D; the bracket rows are ints over B, the table's
    ``_denominator``, so both sides of a case are D**3 B times the exact ones.

    Every vector is swept at once: vector t is the signed digit t, of width
    w, of one int per coordinate, so Z.V for each numbered symbol Z, and
    Y.V, are formed once, and each case is summed once.  R_k, twice the
    largest sum of |f| over one table row of symbol k (so that it bounds the
    sqrt2 variant too), bounds digit t of a case by (sum |scale| R_k B R_j +
    sum |f| R_z) times the L1 norm of vector t; w is the bit length of the
    largest such bound plus one, so no digit carries into the next, a case
    passes exactly when its ints are 0, and the nonzero digits name the
    failing vectors.

    A case sums X.(Y.v) + sign Y.(X.v) - [X, Y].v, sign = -(-1)^{|X||Y|},
    once per unordered pair {X, Y}; when the rows of [Y, X] are sign times
    those of [X, Y], in any term order, (Y, X) fails exactly when (X, Y)
    does, and otherwise is a case of its own.  Only a failing case builds
    elements (``from_rows``), for its text: the ``_basis_bracket`` rows and
    the two products, each summed in ints (``sum_rows``).
    """
    n, algebra = len(syms), syms[0].algebra
    bden = _denominator(_TABLES[algebra])
    number = {(s.family, s.twice): k for k, s in enumerate(syms)}  # -> table row
    brackets = _numbered_brackets(algebra, bden, list(number), number)
    symbols = [*syms, *(BasisSymbol(algebra, *key) for key in list(number)[n:])]
    images = {}  # (symbol number, parity, key) -> rows(symbol, monomial)

    def fill(count):
        """The rows of the first ``count`` symbols on the unit monomials of
        ``needs`` that they lack, one seam call per symbol."""
        for k, sym in enumerate(symbols[:count]):
            todo = [(parity, key) for parity, keys in enumerate(needs) for key in keys
                    if (k, parity, key) not in images]
            if todo:
                units = [(parity, {key: {_ZERO_EXP: [1, 0, 1]}}) for parity, key in todo]
                images.update(zip([(k, *t) for t in todo], _checked(rows(sym, units), sym, units)))

    needs = ({}, {})  # parity -> the monomial keys to act on, in order
    for v in vectors:
        needs[v.parity].update(dict.fromkeys(v.terms))
    fill(len(symbols))
    for (y, _, _), (parity, slices) in list(images.items()):
        if y < n:  # the monomials of Y.v (one whose slice sums to 0 adds an unread row)
            needs[parity].update(dict.fromkeys(slices))
    fill(n)

    tables = [*images.values(), *((v.parity, slices_of(v.terms.items())) for v in vectors)]
    slots = [slot for _, slices in tables for slot in slices.values()]
    den = lcm(*{x[2] for slot in slots for x in slot.values()})
    # each exponent vector packs once into one int, in a base that keeps every
    # entry of a sum of three below base / 2 in size, so packing is injective
    exponents = {ev for slot in slots for ev in slot}
    packing = _packing(exponents, 6 * max((abs(e) for ev in exponents for e in ev), default=0) + 1)
    keys = ({}, {})  # parity -> {monomial key: number}
    for parity, slices in tables:
        for key in slices:
            keys[parity].setdefault(key, len(keys[0]) + len(keys[1]))
    nk = len(keys[0]) + len(keys[1])
    # table[symbol][monomial] = [image, sqrt2 times image] as (int key, int)
    # pairs, each ``den`` times the exact one, keyed by ``_flat``; the sqrt2
    # row is built when a part with r = 1 first reaches it.  spread[k] is
    # R_k: twice the largest sum of |f| over one row of symbol k bounds the
    # sums of both variants.
    table = [[None] * nk for _ in symbols]
    spread = [0] * len(symbols)
    for (k, parity, key), (target, slices) in images.items():
        flat = _flat(slices, keys[target], den, packing, nk)
        table[k][keys[parity][key]] = [flat.items(), None]
        spread[k] = max(spread[k], 2 * sum(map(abs, flat.values())))

    def apply(k, parts, acc, scale=1):
        """Add ``scale`` times symbol k on the ``_split`` vector into ``acc``."""
        row, get = table[k], acc.get
        for at, r, off, m in parts:
            m *= scale
            entry = row[at]
            terms = entry[r]
            if terms is None:
                terms = entry[1] = [(c - nk, 2 * f) if c // nk & 1 else (c + nk, f)
                                    for c, f in entry[0]]
            for c, f in terms:
                c += off
                acc[c] = get(c, 0) + m * f
        return acc

    scaled = [[tuple((z, den * c) for z, c in row) for row in row_list] for row_list in brackets]
    odd = [s.parity for s in syms]
    # the cases, (x, y, sums, bracket row, mirrored): sums lists (k, j,
    # scale) for the terms scale * k.(j.v), sign = -(-1)^{|X||Y|}; an even
    # diagonal pair has none, and a mirrored case stands for (y, x) as well
    cases = []
    for x in range(n):
        for y in range(x, n):
            sign = 1 if odd[x] and odd[y] else -1
            if x == y:
                cases.append((x, x, ((x, x, 2),) if sign > 0 else (), scaled[x][x], False))
                continue
            mirrored = sorted(scaled[y][x]) == sorted((z, sign * f) for z, f in scaled[x][y])
            cases.append((x, y, ((x, y, 1), (y, x, sign)), scaled[x][y], mirrored))
            if not mirrored:
                cases.append((y, x, ((y, x, 1), (x, y, sign)), scaled[y][x], False))
    # vector t is digit t of width w in one int per coordinate; w bounds
    # every digit of every case accumulator, by its L1 norm
    flats = [_flat(s, keys[parity], den, packing, nk) for parity, s in tables[len(images):]]
    bound = max([sum([abs(scale) * spread[k] * bden * spread[at] for k, at, scale in sums])
                 + sum([abs(f) * spread[z] for z, f in row]) for _, _, sums, row, _ in cases])
    norm = max([sum(map(abs, flat.values())) for flat in flats], default=0)
    w = (bound * norm).bit_length() + 1
    packed = {}
    for t, flat in enumerate(flats):
        for c, m in flat.items():
            packed[c] = packed.get(c, 0) + (m << w * t)
    parts = _split(packed, nk)
    zv = [apply(k, parts, {}) for k in range(len(symbols))]
    yv = [_split(zv[y], nk, bden) for y in range(n)]
    fails = []
    for x, y, sums, row, mirrored in cases:
        acc = {}
        for k, at, scale in sums:
            apply(k, yv[at], acc, scale)
        for z, f in row:
            for c, m in zv[z].items():
                acc[c] = acc.get(c, 0) - f * m
        if any(acc.values()):
            for t in {t for m in acc.values() for t, d in enumerate(_signed_digits(m, w)) if d}:
                fails.append((x, y, t))
                if mirrored:
                    fails.append((y, x, t))

    def image(sym, w):  # rows, for a failing case's text
        return rows(sym, [w])[0]

    for x, y, t in sorted(fails):
        xs, ys, v = syms[x], syms[y], vectors[t]
        w, parity = v.to_rows(), (v.parity + xs.parity + ys.parity) % 2
        lhs = sum_rows(parity, [(f, image(z, w)) for z, f in _basis_bracket(xs, ys)])
        rhs = sum_rows(parity, [(1, image(xs, image(ys, w))),
                                (1 if xs.parity and ys.parity else -1, image(ys, image(xs, w)))])
        report.record(f"{label}({xs}, {ys}) on {v}", *map(type(v).from_rows, (lhs, rhs)))
    return report


def _check_images(report, syms, vectors, lhs, rhs, label, cls, same=same_rows):
    """Record a ``label``-prefixed violation wherever ``same`` of the two
    sides of a case fails, for every X of ``syms`` (outer loop) and every v
    of ``vectors`` (inner loop).  ``lhs(X, vs)`` and ``rhs(X, vs)`` act by X
    on the rows ``vs`` of the whole vector list at once and return one side
    per vector: rows, (target parity, slices), or a fixed text.  ``same``
    compares two sides in ints, by default by ``same_rows``.  Only a
    failing case builds its rows into elements of ``cls`` (``from_rows``),
    for its text."""
    vs = [v.to_rows() for v in vectors]
    for sym in syms:
        for v, left, right in zip(vectors, lhs(sym, vs), rhs(sym, vs), strict=True):
            if not same(left, right):
                report.record(f"{label}{sym} on {v}", *[
                    x if isinstance(x, str) else cls.from_rows(x) for x in (left, right)])
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
    order of the ordered triples.  The sweep works in machine ints: it
    numbers the window's symbols and every symbol their brackets yield by
    (family, twice), and reads each bracket it needs once from
    ``_bracket_ints`` over ``den``, the table's ``_denominator``.  All terms
    of an orbit's sum sit at one total mode, so the sum has one int per
    family, ``den**2`` times its Fraction coefficient.

    Those ints are packed into one Python int as digits of width w, the
    digit of the g-th family of the algebra at bit w * g: each outer row
    [a, s] is packed once, as sum(c << (w * g)), so a rotation is one int
    multiply-add per term of its inner bracket [b, c].  A family's sum is at
    most 3 * F * G in absolute value, F the largest sum of |f| over the
    terms of an inner bracket and G the largest |coefficient| of an outer
    one.  So w is the bit length of 3 * F * G plus one sign bit: every
    signed digit stays below 2**(w - 1), no digit carries into the next, and
    an orbit passes exactly when its int is 0.  Only a nonzero int is
    unpacked into its family ints and rebuilt as symbols and Fractions, for
    its text.  The tables live for this call only.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    report = VerificationReport(
        "algebra-jacobi", {"which": algebra, "window": window}
    )
    syms = basis_symbols(algebra, window)
    n = len(syms)
    keys = [(s.family, s.twice) for s in syms]
    index = {key: k for k, key in enumerate(keys)}  # (family, twice) -> number
    den = _denominator(_TABLES[algebra])
    # the inner rows: every two window symbols, each term as (number, int)
    inner = _numbered_brackets(algebra, den, keys, index)
    # the outer rows: each window symbol bracketed with every numbered symbol
    outer = [[_bracket_ints(algebra, den, f1, t1, f2, t2) for f2, t2 in index]
             for f1, t1 in keys]
    # the digit width: a family's orbit sum is at most 3 * spread * largest
    spread = max([sum([abs(f) for _, f in cell]) for row in inner for cell in row])
    largest = max([abs(c) for row in outer for cell in row for _, c in cell], default=0)
    w = (3 * spread * largest).bit_length() + 1
    families = sorted(_ALGEBRA_FAMILIES[algebra], key=_FAMILY_ORDER.get)
    shift = {family: w * g for g, family in enumerate(families)}
    packed = [[sum([c << shift[family] for family, c in cell]) for cell in row] for row in outer]
    parity = [s.parity for s in syms]
    # signed[a][p]: the packed rows of a, negated when a and parity p are odd
    signed = [(row, [-v for v in row] if p else row) for row, p in zip(packed, parity)]
    fails = []
    for i in range(n):
        inner_i, signed_i = inner[i], signed[i]
        for j in range(i, n):
            inner_j, ij = inner[j], inner_i[j]
            rows_j = signed[j][parity[i]]     # a = j, c = i
            p_j = parity[j]
            for k in range(i if j == i else i + 1, n):
                tot = 0
                rows = signed_i[parity[k]]    # a = i, b = j, c = k
                for s, f in inner_j[k]:
                    tot += f * rows[s]
                for s, f in inner[k][i]:      # a = j, b = k, c = i
                    tot += f * rows_j[s]
                rows = signed[k][p_j]         # a = k, b = i, c = j
                for s, f in ij:
                    tot += f * rows[s]
                if tot:
                    fails.extend((t, tot) for t in {(i, j, k), (j, k, i), (k, i, j)})
    for (i, j, k), tot in sorted(fails, key=lambda fail: fail[0]):
        mode = syms[i].twice + syms[j].twice + syms[k].twice
        lhs = {BasisSymbol(algebra, family, mode): Fraction(v, den * den)
               for family, v in zip(families, _signed_digits(tot, w)) if v}
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

class GeneratorMap(Value):
    """A linear map given on basis symbols, extended linearly to elements.

    ``rule`` sends a BasisSymbol of ``source`` to an AlgebraElement of
    ``target``.  ``mod_center`` marks maps into a quotient by the center: C
    components are dropped from images, and homomorphism checks compare
    modulo C.
    """

    __slots__ = ("name", "source", "target", "rule", "mod_center")
    _fields = __slots__

    def __init__(self, name, source, target, rule, mod_center=False):
        super().__init__(name, source, target, rule, mod_center)


def map_image(gmap, sym):
    """The image of the basis symbol ``sym`` under ``gmap`` as (target
    symbol, coefficient) pairs, C dropped when ``mod_center`` is set.  Refuses
    an image in another algebra or of another parity."""
    image = gmap.rule(sym)
    if image.algebra != gmap.target:
        raise AlgebraMismatch(
            f"rule of {gmap.name} produced a {image.algebra} element"
        )
    if sym.parity != image.parity():
        raise MixedParity(f"map {gmap.name} does not preserve parity at {sym}")
    return [(s, c) for s, c in image.terms.items() if not (gmap.mod_center and s.family == "C")]


def apply_map(gmap, x):
    """Linear extension of ``map_image`` to an AlgebraElement."""
    if isinstance(x, BasisSymbol):
        x = AlgebraElement.basis(x)
    if x.algebra != gmap.source:
        raise AlgebraMismatch(
            f"map {gmap.name} expects {gmap.source} elements, got {x.algebra}"
        )
    out = {}
    for sym, coeff in x.terms.items():
        add_terms(out, ((s, c * coeff) for s, c in map_image(gmap, sym)))
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
        rule=lambda sym: AlgebraElement(outer.target, add_terms({}, (
            (t, c * d) for s, d in map_image(inner, sym) for t, c in map_image(outer, s)))),
        mod_center=outer.mod_center or inner.mod_center,
    )


def check_homomorphism(gmap, window):
    """apply([x,y]) == [apply(x), apply(y)] for basis pairs in the window.

    The sweep works in machine ints.  A table local to the call holds
    ``apply_map(gmap, s)`` for each window symbol s and each symbol their
    brackets yield (``_bracket_ints``), all numbered by (family, twice);
    ``apply_map`` refuses an image of mixed or wrong parity, which is all
    ``bracket`` would check.  Each image is flattened by ``_flat`` over D,
    the lcm of the coefficient denominators.  Per pair, the sum of f *
    image(z) over the source bracket is compared with the sum of c1 * c2
    [s1, s2] over the terms of the two images, C dropped when
    ``mod_center`` is set, both scaled to D**2 times the product of the two
    tables' denominators.  Only a failing pair is rebuilt as elements, for
    its text, from ``_basis_bracket`` and ``_bracket_terms``, the bracket
    side passed through ``drop_center`` when ``mod_center`` is set.
    """
    report = VerificationReport(
        "homomorphism", {"map": gmap.name, "window": window, "mod_center": gmap.mod_center}
    )
    source, target, mod_center = gmap.source, gmap.target, gmap.mod_center
    syms = basis_symbols(source, window)
    n = len(syms)
    sden, tden = _denominator(_TABLES[source]), _denominator(_TABLES[target])
    number = {(s.family, s.twice): k for k, s in enumerate(syms)}  # source symbols
    # per window pair (x, y), at x n + y: the source bracket as (symbol number, int)
    pairs = [*chain.from_iterable(_numbered_brackets(source, sden, list(number), number))]
    images = {}  # symbol -> the terms of its image, in symbol number order
    for s in syms + [BasisSymbol(source, *key) for key in list(number)[n:]]:
        images[s] = apply_map(gmap, s).terms
    terms = [slices_of(((t.family, t.twice), c) for t, c in image.items())
             for image in images.values()]
    tnumber = {}  # target (family, twice) -> number, the window images' first
    for key in chain.from_iterable(terms[:n]):
        tnumber.setdefault(key, len(tnumber))
    keys = list(tnumber)
    # [k1][k2]: -sden times the target bracket of keys k1 and k2, as (number, int)
    brackets = [[[(tnumber.setdefault((family, t1 + t2), len(tnumber)), -g * sden)
                  for family, g in _bracket_ints(target, tden, f1, t1, f2, t2)
                  if not (mod_center and family == "C")]
                 for f2, t2 in keys] for f1, t1 in keys]
    for key in chain.from_iterable(terms):
        tnumber.setdefault(key, len(tnumber))
    nt = len(tnumber)
    slots = [slot for row in terms for slot in row.values()]
    den = lcm(*{x[2] for slot in slots for x in slot.values()})
    # packed in a base that keeps every exponent of a product of two
    # coefficients below base / 2 in size
    exponents = {ev for slot in slots for ev in slot}
    packing = _packing(exponents, 4 * max((abs(e) for ev in exponents for e in ev), default=0) + 1)
    flat = [_flat(row, tnumber, den, packing, nt) for row in terms]
    parts = [_split(image, nt) for image in flat[:n]]
    scale = den * tden
    fails = []
    for p, (xp, yp) in enumerate(product(parts, repeat=2)):
        acc = {}
        for z, f in pairs[p]:
            f *= scale
            for c, m in flat[z].items():
                acc[c] = acc.get(c, 0) + f * m
        for k1, r1, off1, m1 in xp:
            row = brackets[k1]
            for k2, r2, off2, m2 in yp:
                m = m1 * m2
                if r1 & r2:
                    m *= 2
                off = off1 + off2 + (r1 ^ r2) * nt
                for z, g in row[k2]:
                    acc[z + off] = acc.get(z + off, 0) + g * m
        if any(acc.values()):
            fails.append(p)
    for p in fails:
        x, y = syms[p // n], syms[p % n]
        lhs = {}
        for z, f in _basis_bracket(x, y):
            add_terms(lhs, ((s, c * f) for s, c in images[z].items()))
        rhs = AlgebraElement(target, _bracket_terms(images[x], images[y]))
        rhs = rhs.drop_center() if mod_center else rhs
        report.record(f"hom {gmap.name} ({x}, {y})",
                      AlgebraElement(target, lhs).render(), rhs.render())
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
