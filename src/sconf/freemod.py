"""The rank-2 module of the Ramond N=2 algebra on two polynomial planes.

The underlying space is C[x,y] (even part) plus C[s,t] (odd part), with
coefficients in the Scalar ring so that the module parameters ``lam`` and
``alp`` stay formal.  Acting by the basis generators (modes written m):

    L_m . f(x,y) = lam^m (x + m/2 y) f(x+m, y)
    L_m . g(s,t) = lam^m (s + m/2 t + m) g(s+m, t)
    H_m . f(x,y) = lam^m y f(x+m, y)
    H_m . g(s,t) = lam^m t g(s+m, t)
    Gp_m . f     = 0
    Gp_m . g(s,t) = lam^m (2/alp) (x + m y) g(x+m, y-1)   (lands in the even part)
    Gm_m . f(x,y) = lam^m alp f(s+m, t+1)                 (lands in the odd part)
    Gm_m . g     = 0
    C . anything  = 0

These formulas are written once, as the rows of ``_ACTION``.  One reader,
``_row_terms``, evaluates a row on a list of vectors: ``basis_rows`` with
the formal lam and alp, ``quotients.quotient_rows`` with the quotient's and
its frozen root.  The head of a row, its scale lam^m * number * alp^power
times the generator's coefficient and its prefactor rows, is formed in ints
(``_head``, from the parts of ``_parts``) once per parity in a call; the
body adds the binomial-shift image of each term of each vector into its
slices (``scalars.add_slice``), one per (output monomial, parameter
monomial), so no Scalar is multiplied or added on the way.

Restricted to the commuting pair (L_0, H_0) the module is free with the two
basis vectors 1_even and 1_odd: L_0 multiplies by x resp. s and H_0 by y
resp. t.  Both parities share one bivariate representation; the parity tag
decides whether the variables read (x, y) or (s, t), and the odd->even /
even->odd substitutions above are plain variable shifts plus a parity flip.

Every action is linear over the Scalars, and its currency is the rows:
the target parity and the slices ``{key: {ev: [p, q, d]}}`` of an image.
The three rows seams, ``basis_rows``, ``quotients.quotient_rows`` and
``n1.restricted_rows``, act by one generator on a list of rows and return
one rows per vector.  ``linear_rows`` is their list form for an element:
one seam call per generator of x, passed its coefficient (not ``SC_ONE``),
summed by the one kernel ``scalars.sum_rows``.  Every check acts on rows
and builds elements only for a failing case's text; ``act``, ``act_basis``
and their quotient and N=1 counterparts convert their vector once
(``to_rows``) and build the result (``from_rows``) for ``sconf act`` and
library callers.  ``_require_r`` refuses a generator outside R, with the
text each module names as its ``_OWNER``, and every caller reads a seam's
images through the one parity guard, ``algebras._checked``.  Nothing is
tabulated or cached.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb
from operator import add

from .algebras import BasisSymbol, _checked, _parity, basis_symbols, check_representation
from .errors import AlgebraMismatch, MixedParity
from .reports import VerificationReport
from .scalars import (
    _ZERO_EXP, SC_ONE, Scalar, add_slice, add_terms, as_scalar, build_slices,
    monomial_text, render_combination, same_rows, slices_of, sum_rows,
)
from .values import Value

EVEN, ODD = 0, 1
_VARS = {EVEN: ("x", "y"), ODD: ("s", "t")}


def binomial_shift(n, d):
    """``(k, C(n, k) d^(n-k))`` for every k: the expansion of ``(u + d)^n``."""
    if not d or not n:
        return ((n, 1),)
    return [(k, comb(n, k) * d ** (n - k)) for k in range(n + 1)]


class ParityElement(Value):
    """A parity-tagged sparse polynomial with Scalar coefficients.

    ``terms`` maps an exponent key to a nonzero Scalar; subclasses fix the
    key shape and the variable names.  The zero vector is shared by both
    parities: zeros of either parity compare equal, and adding a zero never
    raises MixedParity.
    """

    __slots__ = ("parity", "terms")
    _fields = __slots__

    def __init__(self, parity, terms=None):
        if parity not in (EVEN, ODD):
            raise ValueError("parity must be 0 (even) or 1 (odd)")
        _set_parity(self, parity)
        _set_terms(self, terms or {})

    @classmethod
    def _term(cls, parity, key, coeff):
        coeff = as_scalar(coeff)
        if coeff.is_zero():
            return cls(parity)
        return cls(parity, {key: coeff})

    @classmethod
    def from_rows(cls, rows):
        """The element that rows, a (target parity, slices) pair, stand for."""
        parity, slices = rows
        return cls(parity, build_slices(slices))

    def to_rows(self):
        """The rows, (parity, fresh slices), that ``from_rows`` builds back."""
        return self.parity, slices_of(self.terms.items())

    @classmethod
    def one(cls, parity):
        return cls._term(parity, cls._ONE_KEY, 1)

    @classmethod
    def zero(cls, parity):
        return cls(parity)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.parity != other.parity:
            raise MixedParity("cannot add elements of different parity")
        return type(self)(self.parity, add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.parity, {k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        scalar = as_scalar(scalar)
        if scalar.is_zero():
            return type(self)(self.parity)
        return type(self)(self.parity, {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if not self.terms and not other.terms:
            return True
        return self.parity == other.parity and self.terms == other.terms

    __hash__ = None

    def render(self):
        return render_combination(
            (self._monomial_text(k), self.terms[k]) for k in sorted(self.terms, reverse=True)
        )

    __str__ = render

    def __repr__(self):
        return f"<{type(self).__name__} {'even' if self.parity == EVEN else 'odd'} {self.render()}>"


_set_parity, _set_terms = ParityElement.parity.__set__, ParityElement.terms.__set__


class ModuleElement(ParityElement):
    """A parity-tagged polynomial: f(x,y) when even, g(s,t) when odd.

    Keys are exponent pairs (i, j).
    """

    __slots__ = ()
    _ONE_KEY = (0, 0)

    @classmethod
    def monomial(cls, parity, i, j, coeff=1):
        return cls._term(parity, (i, j), coeff)

    def _monomial_text(self, key):
        return monomial_text(_VARS[self.parity], key)

    def times_poly(self, poly_terms):
        """Multiply by a bivariate polynomial given as an exponent->Scalar map."""
        return ModuleElement(self.parity, add_terms({}, (
            ((i1 + i2, j1 + j2), c1 * c2)
            for (i1, j1), c1 in self.terms.items()
            for (i2, j2), c2 in poly_terms.items()
        )))


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------

# (family, parity acted on) -> (target parity, shift of the second variable,
# number, power of alp, prefactor rows (i, j, c, d)): the generator of mode m
# sends u^k v^l to lam^m number alp^power (sum (c + d m) u^i v^j) times
# (u + m)^k (v + shift)^l, in the target's variables.  L's prefactor is
# doubled and its number halved, to shift in integers.  A missing pair (C,
# or G on the parity it kills) acts as zero.
_ACTION = {
    ("L", EVEN): (EVEN, 0, Fraction(1, 2), 0, ((1, 0, 2, 0), (0, 1, 0, 1))),
    ("L", ODD): (ODD, 0, Fraction(1, 2), 0, ((1, 0, 2, 0), (0, 1, 0, 1), (0, 0, 0, 2))),
    ("H", EVEN): (EVEN, 0, 1, 0, ((0, 1, 1, 0),)),
    ("H", ODD): (ODD, 0, 1, 0, ((0, 1, 1, 0),)),
    ("Gp", ODD): (EVEN, -1, 2, -1, ((1, 0, 1, 0), (0, 1, 0, 1))),
    ("Gm", EVEN): (ODD, 1, 1, 1, ((0, 0, 1, 0),)),
}


def _parts(*values):
    """Each of the numbers or Scalars ``values`` as the (exponent vector, p,
    q, d) ints of its terms, the form the row reader scales by."""
    return tuple([(ev, c.p, c.q, c.d) for ev, c in as_scalar(x).terms.items()] for x in values)


_UNITS = _parts(*(Scalar.param(name, e) for name in ("lam", "alp") for e in (1, -1)))


def _head(sym, parity, units, roots, coeff):
    """The head of the ``_ACTION`` row of ``sym`` on a parity: the target
    parity, the mode m, the shift of the second variable and the (parts of
    a factor, its prefactor rows) pairs.  The row scale lam^m * number *
    alp^power is formed in ints from ``units``, the parts of lam, 1/lam,
    alp and 1/alp, times the parts of the Scalar ``coeff`` when one is
    given.  With ``roots``, the parts of the root v is frozen at on each
    target parity, a prefactor row with v^j folds the j-th power of the
    root into its factor and keeps only u^i.  A missing row has no pairs."""
    row = _ACTION.get((sym.family, parity))
    if row is None:
        return (parity + sym.parity) % 2, 0, 0, ()
    parity, dy, number, power, rows = row
    m = sym.twice // 2
    (p, d), ev, q = number.as_integer_ratio(), _ZERO_EXP, 0
    for k, n in ((m < 0, abs(m)), (2 + (power < 0), abs(power))):  # lam^m, alp^power
        (uev, u, v, e), = units[k]
        for _ in range(n):
            ev = uev if ev is _ZERO_EXP else tuple(map(add, ev, uev))
            p, q, d = p * u + 2 * q * v, p * v + q * u, d * e
    scale = [(ev, p, q, d)] if coeff is None else [
        (ev if cev is _ZERO_EXP else tuple(map(add, ev, cev)), p * x.p + 2 * q * x.q,
         p * x.q + q * x.p, d * x.d) for cev, x in coeff.terms.items()]
    # (parts of a factor, its prefactor rows): the scale, and the scale times the root
    uni, scaled, frozen = roots is not None, [], []
    for i, j, c, dm in rows:
        n = c + dm * m
        if n and uni and j:
            frozen.append((i, n))
        elif n:
            scaled.append((i if uni else (i, j), n))
    pre = [(scale, scaled)] if scaled else []
    if frozen:
        pre.append(([(sev if rev is _ZERO_EXP else tuple(map(add, sev, rev)), p * u + 2 * q * v,
                      p * v + q * u, d * e)
                     for sev, p, q, d in scale for rev, u, v, e in roots[parity]], frozen))
    return parity, m, dy, pre


def _row_terms(sym, vs, units, roots=None, coeff=None):
    """Read the ``_ACTION`` row of ``sym`` on each of the rows ``vs``, one
    rows per vector: the target parity and the image as slices ``{(i, j):
    {ev: [p, q, d]}}``, one per output monomial u^i v^j and parameter
    monomial ev, each summed in ints over the slices of the vector
    (``add_slice``).  The head (``_head``) is formed once per parity in
    the call; the body, the binomial shift times each factor's parts,
    reads each vector's slices.  With ``roots`` the slices are keyed by
    the power of u alone, in and out.  A shift by the shared zero vector
    ``_ZERO_EXP`` is skipped."""
    heads, uni, out = {}, roots is not None, []
    for parity, vslices in vs:
        head = heads.get(parity)
        if head is None:
            head = heads[parity] = _head(sym, parity, units, roots, coeff)
        target, m, dy, pre = head
        slices = {}
        for k, slot in vslices.items() if pre else ():
            if uni:
                xs = binomial_shift(k, m)
            else:
                xs, ys = binomial_shift(k[0], m), binomial_shift(k[1], dy)
            for fac, fpre in pre:
                parts = []  # loops, not comprehensions: no frame per term or slot
                for ev, (xp, xq, xd) in slot.items():
                    for sev, sp, sq, sd in fac:
                        parts.append((sev if ev is _ZERO_EXP else tuple(map(add, ev, sev)),
                                      xp * sp + 2 * xq * sq, xp * sq + xq * sp, xd * sd))
                nums = {}
                if uni:
                    for i, b in xs:
                        for di, n in fpre:
                            nums[i + di] = nums.get(i + di, 0) + b * n
                else:
                    for i, bx in xs:
                        for j, by in ys:
                            b = bx * by
                            for (di, dj), n in fpre:
                                key = (i + di, j + dj)
                                nums[key] = nums.get(key, 0) + b * n
                for key, n in nums.items():
                    if not n:
                        continue
                    oslot = slices.get(key)
                    if oslot is None:
                        oslot = slices[key] = {}
                        if len(fac) == 1:  # one factor part: distinct monomials
                            for ev, p, q, d in parts:
                                oslot[ev] = [n * p, n * q, d]
                            continue
                    for ev, p, q, d in parts:
                        add_slice(oslot, ev, n * p, n * q, d)
        out.append((target, slices))
    return out


_OWNER = "the rank-2 module is an R-module"


def _require_r(x, owner):
    """The one R-membership guard: refuse ``x``, an element or basis symbol,
    unless it belongs to R.  ``owner`` names the module that acts."""
    if x.algebra != "R":
        raise AlgebraMismatch(f"{owner}; got {x.algebra}")


def basis_rows(sym, vs, coeff=None):
    """Action of one basis generator of the Ramond algebra on each of the
    rows ``vs``, or on ``coeff`` times each when the Scalar ``coeff`` is
    given: one rows, target parity and slices, per vector."""
    _require_r(sym, _OWNER)
    return _row_terms(sym, vs, _UNITS, None, coeff)


def act_basis(sym, v):
    """The element ``basis_rows`` stands for."""
    return ModuleElement.from_rows(basis_rows(sym, [v.to_rows()])[0])


def linear_rows(x, vs, rows, owner, *args):
    """Act by ``x`` on each of the rows ``vs`` in ints: per vector, the sum
    (``sum_rows``) over the generators of x of ``rows(generator, vs,
    *args, coeff)``, one call per generator on the whole list, with coeff
    left out when it is ``SC_ONE``, each read through ``_checked``.  x is
    an R element or basis symbol, refused otherwise with ``owner`` naming
    the module, or the terms ``{R symbol: Scalar}`` of an R element."""
    if not isinstance(x, dict):
        _require_r(x, owner)
        if isinstance(x, BasisSymbol):
            return _checked(rows(x, vs, *args), x, vs)
        x = x.terms
    parity = _parity(x)
    images = [_checked(rows(sym, vs, *args) if c is SC_ONE else rows(sym, vs, *args, c), sym, vs)
              for sym, c in x.items()]
    return [sum_rows((vp + parity) % 2, [(1, image[t]) for image in images])
            for t, (vp, _) in enumerate(vs)]


def act(x, v):
    """Action of a homogeneous R-element (or one basis symbol) on a module
    element: the linear extension of ``basis_rows``."""
    return type(v).from_rows(linear_rows(x, [v.to_rows()], basis_rows, _OWNER)[0])


def monomials(degree_bound, parities=(EVEN, ODD)):
    """All monomials of total degree <= degree_bound in the given parities."""
    out = []
    for parity in parities:
        for i in range(degree_bound + 1):
            for j in range(degree_bound + 1 - i):
                out.append(ModuleElement.monomial(parity, i, j))
    return out


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------

def check_module_compatibility(index_window, degree_bound):
    """Bracket compatibility of the action on all generator pairs/monomials.

    For every pair (X, Y) of basis generators with |mode| <= index_window and
    every monomial v of total degree <= degree_bound in either parity:

        [X, Y] . v  ==  X.(Y.v) - (-1)^{|X||Y|} Y.(X.v)
    """
    if index_window < 1 or degree_bound < 1:
        raise ValueError("index_window and degree_bound must be >= 1")
    report = VerificationReport(
        "module-compatibility", {"window": index_window, "degree": degree_bound}
    )
    return check_representation(
        report, basis_symbols("R", index_window), basis_rows, monomials(degree_bound), "compat ",
    )


def _images(sym, vs):
    """The rows of ``sym`` on each of the rows ``vs``, read through ``_checked``."""
    return _checked(basis_rows(sym, vs), sym, vs)


def check_uh_freeness(degree_bound):
    """L_0 and H_0 act as multiplication by the two variables.

    Verifies the multiplication statement on every monomial up to the bound.
    The word statement, that L_0^i H_0^j . 1 is the monomial of bidegree
    (i, j) in each parity (so the two parity generators are free
    generators), follows from it: each step of such a word with i + j <= the
    bound applies L_0 or H_0 to a monomial of lower degree.
    """
    report = VerificationReport("uh-freeness", {"degree": degree_bound})
    vectors = monomials(degree_bound)
    vs = [v.to_rows() for v in vectors]
    sides = [(name, _images(BasisSymbol("R", family, 0), vs), di, dj)
             for name, family, di, dj in (("L0", "L", 1, 0), ("H0", "H", 0, 1))]
    for t, (v, (parity, slices)) in enumerate(zip(vectors, vs)):
        for name, images, di, dj in sides:
            expect = parity, {(i + di, j + dj): slot for (i, j), slot in slices.items()}
            if not same_rows(images[t], expect):
                report.record(f"{name} on {v}", *map(ModuleElement.from_rows, (images[t], expect)))
    return report


def _powers(sym, vs, n):
    """``[vs, sym.vs, ..., sym^n.vs]`` for the rows ``vs``, one seam call a power."""
    out = [vs]
    for _ in range(n):
        out.append(_images(sym, out[-1]))
    return out


def check_shift_identities(index_window, n_max, degree_bound):
    """Operator shift identities against the mode-0 pair.

    On every monomial up to the bound and for every generator X of mode m with
    |m| <= index_window and every n <= n_max:

        X . L0^n = (L0 + m)^n . X            (all four families)
        X . H0^n = (H0 - e)^n . X            (e = +1 for Gp, -1 for Gm, 0 else)

    Each power of Z acts once on the monomials and once per X on their
    images X.v; X acts once on the monomials and once on all the Z^n.v.
    """
    report = VerificationReport(
        "shift-identities",
        {"window": index_window, "n_max": n_max, "degree": degree_bound},
    )
    zs = (("L0", BasisSymbol("R", "L", 0)), ("H0", BasisSymbol("R", "H", 0)))
    eps = {"L": 0, "H": 0, "Gp": 1, "Gm": -1}
    vectors = monomials(degree_bound)
    vs = [v.to_rows() for v in vectors]
    z_powers = [_powers(Z, vs, n_max) for _, Z in zs]
    cases = list(product(range(1, n_max + 1), range(len(vs)), range(len(zs))))
    for X in (s for s in basis_symbols("R", index_window) if s.family != "C"):
        shifts = (X.twice // 2, -eps[X.family])
        xvs = _images(X, vs)
        xz = [_powers(Z, xvs, n_max) for _, Z in zs]
        lhs = _images(X, [z_powers[z][n][t] for n, t, z in cases])
        for (n, t, z), left in zip(cases, lhs):
            # X . Z^n v == (Z + d)^n . X v for (Z, d) = (L0, m), (H0, -e)
            right = sum_rows(xvs[t][0], [(c, xz[z][k][t])
                                         for k, c in binomial_shift(n, shifts[z])])
            if not same_rows(left, right):
                report.record(f"shift {zs[z][0]}^{n} under {X} on {vectors[t]}",
                              *map(ModuleElement.from_rows, (left, right)))
    return report


def check_odd_square_zero(index_window, degree_bound):
    """Gp_m Gp_n = 0 and Gm_m Gm_n = 0 as operators on monomials; each X
    acts once, on the images of every Y of its family."""
    report = VerificationReport(
        "odd-square-zero", {"window": index_window, "degree": degree_bound}
    )
    odd = [s for s in basis_symbols("R", index_window) if s.parity]
    vectors = monomials(degree_bound)
    vs = [v.to_rows() for v in vectors]
    once = {Y: _images(Y, vs) for Y in odd}
    for X in odd:
        ys = [Y for Y in odd if Y.family == X.family]
        outs = _images(X, [w for Y in ys for w in once[Y]])
        for (Y, v), out in zip(product(ys, vectors), outs):
            if not same_rows(out, (EVEN, {})):
                report.record(f"{X} {Y} on {v}", ModuleElement.from_rows(out), "0")
    return report


def check_central_triviality(degree_bound):
    """C, and the bracket combination that reconstructs it, act as zero.

    [H_1, H_-1] = C/3, so 3 H_1 H_-1 - 3 H_-1 H_1 must kill every element.
    C acts through the row lookup of every generator (``_row_terms``), so a
    C row in ``_ACTION`` fails the first half.
    """
    report = VerificationReport("central-triviality", {"degree": degree_bound})
    C, H1, Hm1 = (BasisSymbol("R", *f) for f in (("C",), ("H", 2), ("H", -2)))
    vectors = monomials(degree_bound)
    vs = [v.to_rows() for v in vectors]
    lefts, rights = _images(H1, _images(Hm1, vs)), _images(Hm1, _images(H1, vs))
    for v, cv, left, right in zip(vectors, _images(C, vs), lefts, rights):
        if not same_rows(cv, (EVEN, {})):
            report.record(f"C on {v}", ModuleElement.from_rows(cv), "0")
        combo = sum_rows(left[0], [(3, left), (-3, right)])
        if not same_rows(combo, (EVEN, {})):
            report.record(f"3[H1,H-1] combo on {v}", ModuleElement.from_rows(combo), "0")
    return report
