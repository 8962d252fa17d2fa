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
``_row_terms``, evaluates a row: ``act_basis`` with the formal lam and alp,
``quotients.quotient_act_basis`` with the quotient's.

Restricted to the commuting pair (L_0, H_0) the module is free with the two
basis vectors 1_even and 1_odd: L_0 multiplies by x resp. s and H_0 by y
resp. t.  Both parities share one bivariate representation; the parity tag
decides whether the variables read (x, y) or (s, t), and the odd->even /
even->odd substitutions above are plain variable shifts plus a parity flip.

Every action is linear.  ``extend_linearly`` acts by an element x as the
sum of coeff * (basis action of each generator of x), each generator read
once on the whole element through its row; ``act`` is that extension of
``act_basis``, and ``quotients.quotient_act`` that of ``quotient_act_basis``.
One guard, ``_require_r``, refuses an element or generator outside R for all
four, with the text that each module names once as its ``_OWNER``.
Nothing is tabulated or cached.  The bracket-compatibility sweep,
``algebras.check_representation``, takes the basis action itself
(``act_basis`` here) and keeps a table local to the call.  Both read each
basis image through the one parity guard, ``algebras._checked``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .algebras import BasisSymbol, _checked, basis_symbols, check_representation
from .errors import AlgebraMismatch, MixedParity
from .reports import VerificationReport
from .scalars import SC_ONE, Scalar, add_terms, as_scalar, monomial_text, render_combination

EVEN, ODD = 0, 1
_VARS = {EVEN: ("x", "y"), ODD: ("s", "t")}


def binomial_shift(n, d):
    """``(k, C(n, k) d^(n-k))`` for every k: the expansion of ``(u + d)^n``."""
    if not d or not n:
        return ((n, 1),)
    return [(k, comb(n, k) * d ** (n - k)) for k in range(n + 1)]


class ParityElement:
    """A parity-tagged sparse polynomial with Scalar coefficients.

    ``terms`` maps an exponent key to a nonzero Scalar; subclasses fix the
    key shape and the variable names.  The zero vector is shared by both
    parities: zeros of either parity compare equal, and adding a zero never
    raises MixedParity.
    """

    __slots__ = ("parity", "terms")

    def __init__(self, parity, terms=None):
        if parity not in (EVEN, ODD):
            raise ValueError("parity must be 0 (even) or 1 (odd)")
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "terms", terms or {})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self.parity, self.terms)

    @classmethod
    def _term(cls, parity, key, coeff):
        coeff = as_scalar(coeff)
        if coeff.is_zero():
            return cls(parity)
        return cls(parity, {key: coeff})

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
_LAM, _ALP = Scalar.param("lam"), Scalar.param("alp")


def _row_terms(sym, parity, terms, lam, alp):
    """Read the ``_ACTION`` row of ``sym`` on the ``((k, l), c)`` pairs
    ``terms`` of a parity, with ``lam`` and ``alp``: the target parity and,
    per pair, c times the row's scale with the integers ``{(i, j): n}`` of
    the image of u^k v^l, so that the image is the sum of c * n * u^i v^j."""
    row = _ACTION.get((sym.family, parity))
    if row is None:
        return (parity + sym.parity) % 2, ()
    parity, dy, number, power, rows = row
    m = sym.twice // 2
    pre = [((i, j), c + d * m) for i, j, c, d in rows if c + d * m]
    scale = lam ** m * number
    if power:
        scale = scale * alp ** power
    images = []
    for (k, l), c in terms:
        nums = {}
        for i, bx in binomial_shift(k, m):
            for j, by in binomial_shift(l, dy):
                for (p, q), n in pre:
                    key = (i + p, j + q)
                    nums[key] = nums.get(key, 0) + bx * by * n
        images.append((c * scale, nums))
    return parity, images


_OWNER = "the rank-2 module is an R-module"


def _require_r(x, owner):
    """The one R-membership guard: refuse ``x``, an element or basis symbol,
    unless it belongs to R.  ``owner`` names the module that acts."""
    if x.algebra != "R":
        raise AlgebraMismatch(f"{owner}; got {x.algebra}")


def act_basis(sym, v):
    """Action of one basis generator of the Ramond algebra."""
    _require_r(sym, _OWNER)
    parity, images = _row_terms(sym, v.parity, v.terms.items(), _LAM, _ALP)
    out = {}
    for c, nums in images:
        add_terms(out, ((key, c * n) for key, n in nums.items()))
    return ModuleElement(parity, out)


def extend_linearly(x, v, basis_act, owner):
    """Act by ``x``, an R element or basis symbol, on ``v``: the sum over the
    generators of x of coeff * ``basis_act(generator, v)``, each acting once
    on the whole of v.  ``owner`` names the module in the error for an
    element of another algebra."""
    _require_r(x, owner)
    if isinstance(x, BasisSymbol):
        return _checked(basis_act, x, v)
    out = type(v).zero((v.parity + x.parity()) % 2)
    for sym, c in x.terms.items():
        out = out + _checked(basis_act, sym, v) * c
    return out


def act(x, v):
    """Action of a homogeneous R-element (or one basis symbol) on a module element."""
    return extend_linearly(x, v, act_basis, _OWNER)


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
        report, basis_symbols("R", index_window), act_basis, monomials(degree_bound), "compat ",
    )


def check_uh_freeness(degree_bound):
    """L_0 and H_0 act as multiplication by the two variables.

    Verifies the multiplication statement on every monomial up to the bound.
    The word statement, that L_0^i H_0^j . 1 is the monomial of bidegree
    (i, j) in each parity (so the two parity generators are free
    generators), follows from it: each step of such a word with i + j <= the
    bound applies L_0 or H_0 to a monomial of lower degree.
    """
    report = VerificationReport("uh-freeness", {"degree": degree_bound})
    L0 = BasisSymbol("R", "L", 0)
    H0 = BasisSymbol("R", "H", 0)
    for v in monomials(degree_bound):
        for name, Z, var in (("L0", L0, (1, 0)), ("H0", H0, (0, 1))):
            got, expect = act(Z, v), v.times_poly({var: SC_ONE})
            if got != expect:
                report.record(f"{name} on {v}", got.render(), expect.render())
    return report


def _powers(sym, v, n):
    """``[v, sym.v, ..., sym^n.v]``."""
    out = [v]
    for _ in range(n):
        out.append(act(sym, out[-1]))
    return out


def check_shift_identities(index_window, n_max, degree_bound):
    """Operator shift identities against the mode-0 pair.

    On every monomial up to the bound and for every generator X of mode m with
    |m| <= index_window and every n <= n_max:

        X . L0^n = (L0 + m)^n . X            (all four families)
        X . H0^n = (H0 - e)^n . X            (e = +1 for Gp, -1 for Gm, 0 else)

    Z^k.v is formed once per (v, Z), and Z^k.(X v) once per (X, v, Z).
    """
    report = VerificationReport(
        "shift-identities",
        {"window": index_window, "n_max": n_max, "degree": degree_bound},
    )
    zs = (("L0", BasisSymbol("R", "L", 0)), ("H0", BasisSymbol("R", "H", 0)))
    eps = {"L": 0, "H": 0, "Gp": 1, "Gm": -1}
    vectors = monomials(degree_bound)
    z_powers = [[_powers(Z, v, n_max) for _, Z in zs] for v in vectors]
    for X in (s for s in basis_symbols("R", index_window) if s.family != "C"):
        shifts = (X.twice // 2, -eps[X.family])
        xv_powers = [[_powers(Z, xv, n_max) for _, Z in zs]
                     for xv in (act(X, v) for v in vectors)]
        for n in range(1, n_max + 1):
            for v, vz, xz in zip(vectors, z_powers, xv_powers):
                # X . Z^n v == (Z + d)^n . X v for (Z, d) = (L0, m), (H0, -e)
                for (name, _), d, zv, zxv in zip(zs, shifts, vz, xz):
                    lhs = act(X, zv[n])
                    rhs = ModuleElement.zero(zxv[0].parity)
                    for k, c in binomial_shift(n, d):
                        rhs = rhs + zxv[k] * Scalar.number(c)
                    if lhs != rhs:
                        report.record(
                            f"shift {name}^{n} under {X} on {v}", lhs.render(), rhs.render()
                        )
    return report


def check_odd_square_zero(index_window, degree_bound):
    """Gp_m Gp_n = 0 and Gm_m Gm_n = 0 as operators on monomials."""
    report = VerificationReport(
        "odd-square-zero", {"window": index_window, "degree": degree_bound}
    )
    odd = [s for s in basis_symbols("R", index_window) if s.parity]
    for X, Y in ((X, Y) for X in odd for Y in odd if X.family == Y.family):
        for v in monomials(degree_bound):
            out = act(X, act(Y, v))
            if not out.is_zero():
                report.record(f"{X} {Y} on {v}", out.render(), "0")
    return report


def check_central_triviality(degree_bound):
    """C, and the bracket combination that reconstructs it, act as zero.

    [H_1, H_-1] = C/3, so 3 H_1 H_-1 - 3 H_-1 H_1 must kill every element.
    """
    report = VerificationReport("central-triviality", {"degree": degree_bound})
    C = BasisSymbol("R", "C")
    H1 = BasisSymbol("R", "H", 2)
    Hm1 = BasisSymbol("R", "H", -2)
    three = Scalar.number(3)
    for v in monomials(degree_bound):
        cv = act(C, v)
        if not cv.is_zero():
            report.record(f"C on {v}", cv.render(), "0")
        combo = act(H1, act(Hm1, v)) * three - act(Hm1, act(H1, v)) * three
        if not combo.is_zero():
            report.record(f"3[H1,H-1] combo on {v}", combo.render(), "0")
    return report
