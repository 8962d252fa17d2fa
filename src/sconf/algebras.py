"""The five superconformal algebras, their super-brackets, and the standard
homomorphisms between them.

Supported algebras (by tag):

* ``R``    -- N=2, Ramond sector: L_m, H_m, Gp_m, Gm_m (integer modes), C.
* ``NS``   -- N=2, Neveu-Schwarz sector: as R but Gp/Gm at half-integer modes.
* ``T``    -- N=2, topological: L_m, H_m, G_m, Q_m (integer modes), C.
* ``N1R``  -- centerless N=1, Ramond sector: L_m, G_m (integer modes).
* ``N1NS`` -- centerless N=1, Neveu-Schwarz sector: L_m, G_r (half-integer).

Mode indices are stored doubled (``twice``), so half-integer modes stay exact
integers.  Structure constants are tabulated once per canonically ordered
family pair; the remaining orderings come from super-antisymmetry
``[x, y] = -(-1)^{|x||y|} [y, x]``, which removes a whole class of
transcription hazards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable

from .errors import AlgebraMismatch, MixedParity
from .reports import VerificationReport
from .scalars import INV_SQRT2, Scalar, add_terms, as_scalar, render_combination

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


@dataclass(frozen=True, order=True)
class BasisSymbol:
    """One basis generator, identified by algebra tag, family, and 2*mode."""

    sort_index: tuple = field(init=False, repr=False, compare=True)
    algebra: str = field(compare=False)
    family: str = field(compare=False)
    twice: int = field(compare=False, default=0)

    def __post_init__(self):
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
        object.__setattr__(
            self, "sort_index", (self.algebra, _FAMILY_ORDER[self.family], self.twice)
        )

    @property
    def parity(self):
        return _FAMILY_PARITY[self.family]

    @property
    def index(self):
        """The mode index as an exact Fraction."""
        return Fraction(self.twice, 2)

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


def basis_symbols(algebra, window, include_center=True):
    """All basis symbols with |mode| <= window, i.e. |twice| <= 2*window."""
    out = []
    half = algebra in _HALF_ODD
    for family in _ALGEBRA_FAMILIES[algebra]:
        if family == "C":
            if include_center:
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

def _sym(algebra, family, twice=0):
    return BasisSymbol(algebra, family, twice)


def _n2_table(x, y):
    """Canonical brackets of the Ramond/Neveu-Schwarz N=2 algebra.

    Returns a list of (symbol, Fraction) or None when the ordered pair is not
    in canonical order.  Central terms carry the delta factor on the total
    mode already evaluated.
    """
    alg = x.algebra
    fx, fy = x.family, y.family
    m, n = x.index, y.index
    tot = x.twice + y.twice
    out = []
    if fx == "L" and fy == "L":
        if m != n:
            out.append((_sym(alg, "L", tot), m - n))
        if tot == 0:
            c = (m**3 - m) / 12
            if c:
                out.append((_sym(alg, "C"), c))
        return out
    if fx == "L" and fy == "H":
        if n:
            out.append((_sym(alg, "H", tot), -n))
        return out
    if fx == "H" and fy == "H":
        if tot == 0 and m:
            out.append((_sym(alg, "C"), m / 3))
        return out
    if fx == "L" and fy in ("Gp", "Gm"):
        c = m / 2 - n
        if c:
            out.append((_sym(alg, fy, tot), c))
        return out
    if fx == "H" and fy in ("Gp", "Gm"):
        out.append((_sym(alg, fy, tot), Fraction(1 if fy == "Gp" else -1)))
        return out
    if fx == "Gm" and fy == "Gp":
        out.append((_sym(alg, "L", tot), Fraction(2)))
        if m != n:
            out.append((_sym(alg, "H", tot), -(m - n)))
        if tot == 0:
            c = (m * m - Fraction(1, 4)) / 3
            if c:
                out.append((_sym(alg, "C"), c))
        return out
    if fx == "Gp" and fy == "Gp" or fx == "Gm" and fy == "Gm":
        return out
    return None


def _topological_table(x, y):
    """Canonical brackets of the topological N=2 algebra."""
    alg = x.algebra
    fx, fy = x.family, y.family
    m, n = x.index, y.index
    tot = x.twice + y.twice
    out = []
    if fx == "L" and fy == "L":
        if m != n:
            out.append((_sym(alg, "L", tot), m - n))
        return out
    if fx == "L" and fy == "H":
        if n:
            out.append((_sym(alg, "H", tot), -n))
        if tot == 0:
            c = (m * m + m) / 6
            if c:
                out.append((_sym(alg, "C"), c))
        return out
    if fx == "H" and fy == "H":
        if tot == 0 and m:
            out.append((_sym(alg, "C"), m / 3))
        return out
    if fx == "L" and fy == "G":
        if m != n:
            out.append((_sym(alg, "G", tot), m - n))
        return out
    if fx == "L" and fy == "Q":
        if n:
            out.append((_sym(alg, "Q", tot), -n))
        return out
    if fx == "H" and fy == "G":
        out.append((_sym(alg, "G", tot), Fraction(1)))
        return out
    if fx == "H" and fy == "Q":
        out.append((_sym(alg, "Q", tot), Fraction(-1)))
        return out
    if fx == "G" and fy == "Q":
        out.append((_sym(alg, "L", tot), Fraction(2)))
        if n:
            out.append((_sym(alg, "H", tot), -2 * n))
        if tot == 0:
            c = (m * m + m) / 3
            if c:
                out.append((_sym(alg, "C"), c))
        return out
    if fx == fy and fx in ("G", "Q"):
        return out
    return None


def _n1_table(x, y):
    """Canonical brackets of the centerless N=1 algebras."""
    alg = x.algebra
    fx, fy = x.family, y.family
    m, n = x.index, y.index
    tot = x.twice + y.twice
    out = []
    if fx == "L" and fy == "L":
        if m != n:
            out.append((_sym(alg, "L", tot), m - n))
        return out
    if fx == "L" and fy == "G":
        c = m / 2 - n
        if c:
            out.append((_sym(alg, "G", tot), c))
        return out
    if fx == "G" and fy == "G":
        out.append((_sym(alg, "L", tot), Fraction(2)))
        return out
    return None


_TABLES = {
    "R": _n2_table,
    "NS": _n2_table,
    "T": _topological_table,
    "N1R": _n1_table,
    "N1NS": _n1_table,
}


@lru_cache(maxsize=None)
def _basis_bracket(x, y):
    """Bracket of two basis symbols as a tuple of (symbol, Fraction)."""
    if x.family == "C" or y.family == "C":
        return ()
    table = _TABLES[x.algebra]
    out = table(x, y)
    if out is None:
        # derive from super-antisymmetry: [x,y] = -(-1)^{|x||y|} [y,x]
        sign = -1 if (x.parity * y.parity) % 2 == 0 else 1
        out = [(sym, sign * c) for sym, c in table(y, x)]
    return tuple(out)


def bracket(x, y):
    """Super-bracket of two homogeneous elements of the same algebra."""
    if not isinstance(x, AlgebraElement) or not isinstance(y, AlgebraElement):
        raise TypeError("bracket expects AlgebraElement arguments")
    if x.algebra != y.algebra:
        raise AlgebraMismatch(f"bracket across {x.algebra} and {y.algebra}")
    x.parity()
    y.parity()
    acc = {}
    for sx, cx in x.terms.items():
        for sy, cy in y.terms.items():
            parts = _basis_bracket(sx, sy)
            if parts:
                c = cx * cy
                add_terms(acc, ((sym, c * f) for sym, f in parts))
    return AlgebraElement(x.algebra, acc)


def check_representation(report, syms, act, vectors, label):
    """Bracket compatibility of an action, recorded into ``report``.

    For every ordered pair (X, Y) of ``syms`` and every vector v:

        [X, Y] . v  ==  X.(Y.v) - (-1)^{|X||Y|} Y.(X.v)

    ``act(x, v)`` applies an algebra element to a vector.  Each violation's
    context is ``label`` followed by ``(X, Y) on v``.
    """
    elems = {s: AlgebraElement.basis(s) for s in syms}
    acted = {s: [act(elems[s], v) for v in vectors] for s in syms}
    for xs, ys in product(syms, repeat=2):
        br = bracket(elems[xs], elems[ys])
        odd_pair = bool(xs.parity and ys.parity)
        for k, v in enumerate(vectors):
            lhs = act(br, v)
            xy = act(elems[xs], acted[ys][k])
            yx = act(elems[ys], acted[xs][k])
            rhs = xy + yx if odd_pair else xy - yx
            if lhs != rhs:
                report.record(f"{label}({xs}, {ys}) on {v}", lhs.render(), rhs.render())
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
    The sweep works directly on the structure-constant table (coefficients in
    these triples are always rational), which keeps window-3 runs fast.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    report = VerificationReport(
        "algebra-jacobi", {"which": algebra, "window": window}
    )
    syms = basis_symbols(algebra, window)

    def nested(outer, inner_parts, negate, acc):
        for sym, f in inner_parts:
            for s2, f2 in _basis_bracket(outer, sym):
                c = f * f2
                acc[s2] = acc.get(s2, 0) + (-c if negate else c)

    for x, y, z in product(syms, repeat=3):
        acc = {}
        nested(x, _basis_bracket(y, z), bool(x.parity and z.parity), acc)
        nested(y, _basis_bracket(z, x), bool(y.parity and x.parity), acc)
        nested(z, _basis_bracket(x, y), bool(z.parity and y.parity), acc)
        if any(acc.values()):
            report.record(
                f"jacobi {algebra} ({x}, {y}, {z})", _render_fraction_combo(acc), "0"
            )
    return report


def check_antisymmetry(algebra, window):
    """[x,y] + (-1)^{|x||y|}[y,x] = 0 for all basis pairs in the window."""
    report = VerificationReport(
        "algebra-antisymmetry", {"which": algebra, "window": window}
    )
    syms = basis_symbols(algebra, window)
    for x, y in product(syms, repeat=2):
        acc = {}
        for sym, f in _basis_bracket(x, y):
            acc[sym] = acc.get(sym, 0) + f
        sign = -1 if (x.parity and y.parity) else 1
        for sym, f in _basis_bracket(y, x):
            acc[sym] = acc.get(sym, 0) + sign * f
        if any(acc.values()):
            report.record(
                f"antisymmetry {algebra} ({x}, {y})", _render_fraction_combo(acc), "0"
            )
    return report


def check_centrality(algebra, window):
    """[x, C] = 0 for every basis symbol (vacuous for the centerless tags)."""
    report = VerificationReport(
        "algebra-centrality", {"which": algebra, "window": window}
    )
    if "C" not in _ALGEBRA_FAMILIES[algebra]:
        report.notes.append(f"{algebra} is centerless; nothing to check")
        return report
    center = AlgebraElement.basis(BasisSymbol(algebra, "C"))
    for x in basis_symbols(algebra, window):
        out = bracket(AlgebraElement.basis(x), center)
        if not out.is_zero():
            report.record(f"centrality {algebra} ({x})", out.render(), "0")
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
    acc = AlgebraElement.zero(gmap.target)
    for sym, coeff in x.terms.items():
        image = gmap.rule(sym)
        if image.algebra != gmap.target:
            raise AlgebraMismatch(
                f"rule of {gmap.name} produced a {image.algebra} element"
            )
        if sym.parity != image.parity():
            raise MixedParity(f"map {gmap.name} does not preserve parity at {sym}")
        acc = acc + image * coeff
    if gmap.mod_center:
        acc = acc.drop_center()
    return acc


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
    """apply([x,y]) == [apply(x), apply(y)] for basis pairs in the window."""
    report = VerificationReport(
        "homomorphism", {"map": gmap.name, "window": window, "mod_center": gmap.mod_center}
    )
    syms = basis_symbols(gmap.source, window)
    elems = {s: AlgebraElement.basis(s) for s in syms}
    images = {s: apply_map(gmap, elems[s]) for s in syms}
    for x, y in product(syms, repeat=2):
        lhs = apply_map(gmap, bracket(elems[x], elems[y]))
        rhs = bracket(images[x], images[y])
        if gmap.mod_center:
            lhs = lhs.drop_center()
            rhs = rhs.drop_center()
        if lhs != rhs:
            report.record(f"hom {gmap.name} ({x}, {y})", lhs.render(), rhs.render())
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

def _el(algebra, *parts):
    acc = AlgebraElement.zero(algebra)
    for family, twice, coeff in parts:
        acc = acc + AlgebraElement.basis(BasisSymbol(algebra, family, twice), coeff)
    return acc


def spectral_flow():
    """The mode-shifting isomorphism from the NS sector onto the Ramond one."""

    def rule(sym):
        t = sym.twice
        if sym.family == "L":
            parts = [("L", t, 1), ("H", t, Fraction(1, 2))]
            if t == 0:
                parts.append(("C", 0, Fraction(1, 24)))
            return _el("R", *parts)
        if sym.family == "H":
            parts = [("H", t, 1)]
            if t == 0:
                parts.append(("C", 0, Fraction(1, 6)))
            return _el("R", *parts)
        if sym.family == "Gp":
            return _el("R", ("Gp", t + 1, 1))
        if sym.family == "Gm":
            return _el("R", ("Gm", t - 1, 1))
        return _el("R", ("C", 0, 1))

    return GeneratorMap("sigma", "NS", "R", rule)


def topological_twist():
    """The current-shifted map from the NS sector onto the topological algebra."""

    def rule(sym):
        t = sym.twice
        if sym.family == "L":
            m = t // 2
            return _el("T", ("L", t, 1), ("H", t, Fraction(-(m + 1), 2)))
        if sym.family == "H":
            return _el("T", ("H", t, 1))
        if sym.family == "Gp":
            return _el("T", ("G", t - 1, 1))
        if sym.family == "Gm":
            return _el("T", ("Q", t + 1, 1))
        return _el("T", ("C", 0, 1))

    return GeneratorMap("tau", "NS", "T", rule)


def topological_to_ramond():
    """The isomorphism from the topological algebra onto the Ramond one."""

    def rule(sym):
        t = sym.twice
        if sym.family == "L":
            m = t // 2
            parts = [("L", t, 1), ("H", t, Fraction(m, 2) + 1)]
            if t == 0:
                parts.append(("C", 0, Fraction(1, 8)))
            return _el("R", *parts)
        if sym.family == "H":
            parts = [("H", t, 1)]
            if t == 0:
                parts.append(("C", 0, Fraction(1, 6)))
            return _el("R", *parts)
        if sym.family == "G":
            return _el("R", ("Gp", t + 2, 1))
        if sym.family == "Q":
            return _el("R", ("Gm", t - 2, 1))
        return _el("R", ("C", 0, 1))

    return GeneratorMap("t2r", "T", "R", rule)


def embed_ns1_in_r1():
    """Mode-doubling embedding of the N=1 NS algebra into the N=1 Ramond one."""

    def rule(sym):
        if sym.family == "L":
            return _el("N1R", ("L", 2 * sym.twice, Fraction(1, 2)))
        return _el("N1R", ("G", 2 * sym.twice, INV_SQRT2))

    return GeneratorMap("upsilon1", "N1NS", "N1R", rule)


def embed_r1_in_r2():
    """Embedding of the N=1 Ramond algebra into the N=2 one, modulo center."""

    def rule(sym):
        if sym.family == "L":
            return _el("R", ("L", sym.twice, 1))
        return _el("R", ("Gp", sym.twice, INV_SQRT2), ("Gm", sym.twice, INV_SQRT2))

    return GeneratorMap("upsilon2", "N1R", "R", rule, mod_center=True)


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
