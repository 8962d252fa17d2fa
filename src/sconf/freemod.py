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
Nothing is tabulated or cached.  The bracket-compatibility sweep,
``algebras.check_representation``, takes the basis action itself
(``act_basis`` here) and keeps a table local to the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebras import AlgebraElement, BasisSymbol, basis_symbols, check_representation
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


def act_basis(sym, v):
    """Action of one basis generator of the Ramond algebra."""
    if sym.algebra != "R":
        raise AlgebraMismatch(f"the rank-2 module is an R-module; got {sym.algebra}")
    parity, images = _row_terms(sym, v.parity, v.terms.items(), _LAM, _ALP)
    out = {}
    for c, nums in images:
        add_terms(out, ((key, c * n) for key, n in nums.items()))
    return ModuleElement(parity, out)


def _checked(basis_act, sym, v):
    """``basis_act(sym, v)``, refused when it lands in the wrong parity."""
    image = basis_act(sym, v)
    if image.terms and image.parity != (v.parity + sym.parity) % 2:
        raise MixedParity(f"{sym} maps a monomial to the wrong parity")
    return image


def extend_linearly(x, v, basis_act, algebra, owner):
    """Act by ``x``, an element or a basis symbol of ``algebra``, on ``v``:
    the sum over the generators of x of coeff * ``basis_act(generator, v)``,
    each generator acting once on the whole of v.  ``owner`` names the module
    in the error for an element of another algebra."""
    if x.algebra != algebra:
        raise AlgebraMismatch(f"{owner}; got {x.algebra}")
    if isinstance(x, BasisSymbol):
        return _checked(basis_act, x, v)
    out = type(v).zero((v.parity + x.parity()) % 2)
    for sym, c in x.terms.items():
        out = out + _checked(basis_act, sym, v) * c
    return out


def act(x, v):
    """Action of a homogeneous R-element (or one basis symbol) on a module element."""
    return extend_linearly(x, v, act_basis, "R", "the rank-2 module is an R-module")


@dataclass(frozen=True)
class ActionWord:
    """An ordered product of algebra elements, applied right-to-left."""

    factors: tuple

    def __post_init__(self):
        for f in self.factors:
            if not isinstance(f, AlgebraElement) or f.algebra != "R":
                raise AlgebraMismatch("action words are products of R elements")

    def act(self, v):
        for f in reversed(self.factors):
            v = act(f, v)
        return v


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

    Verifies the multiplication statement on every monomial up to the bound
    and that the iterated images L_0^i H_0^j . 1 enumerate the monomial basis
    of each parity exactly (so the two parity generators are free generators).
    """
    report = VerificationReport("uh-freeness", {"degree": degree_bound})
    L0 = BasisSymbol("R", "L", 0)
    H0 = BasisSymbol("R", "H", 0)
    for v in monomials(degree_bound):
        expect_l = v.times_poly({(1, 0): SC_ONE})
        expect_h = v.times_poly({(0, 1): SC_ONE})
        got_l = act(L0, v)
        got_h = act(H0, v)
        if got_l != expect_l:
            report.record(f"L0 on {v}", got_l.render(), expect_l.render())
        if got_h != expect_h:
            report.record(f"H0 on {v}", got_h.render(), expect_h.render())
    for parity in (EVEN, ODD):
        for i in range(degree_bound + 1):
            for j in range(degree_bound + 1 - i):
                w = _iterate(H0, _iterate(L0, ModuleElement.one(parity), i), j)
                expect = ModuleElement.monomial(parity, i, j)
                if w != expect:
                    report.record(
                        f"L0^{i} H0^{j} 1_{'even' if parity == EVEN else 'odd'}",
                        w.render(),
                        expect.render(),
                    )
    return report


def _iterate(sym, v, n):
    for _ in range(n):
        v = act(sym, v)
    return v


def check_shift_identities(index_window, n_max, degree_bound):
    """Operator shift identities against the mode-0 pair.

    On every monomial up to the bound and for every generator X of mode m with
    |m| <= index_window and every n <= n_max:

        X . L0^n = (L0 + m)^n . X            (all four families)
        X . H0^n = (H0 - e)^n . X            (e = +1 for Gp, -1 for Gm, 0 else)
    """
    report = VerificationReport(
        "shift-identities",
        {"window": index_window, "n_max": n_max, "degree": degree_bound},
    )
    L0 = BasisSymbol("R", "L", 0)
    H0 = BasisSymbol("R", "H", 0)
    eps = {"L": 0, "H": 0, "Gp": 1, "Gm": -1}
    for fam in ("L", "H", "Gp", "Gm"):
        for m in range(-index_window, index_window + 1):
            X = BasisSymbol("R", fam, 2 * m)
            for n in range(1, n_max + 1):
                for v in monomials(degree_bound):
                    xv = act(X, v)
                    # X . Z^n v == (Z + d)^n . X v for (Z, d) = (L0, m), (H0, -e)
                    for name, Z, d in (("L0", L0, m), ("H0", H0, -eps[fam])):
                        lhs = act(X, _iterate(Z, v, n))
                        rhs = ModuleElement.zero(xv.parity)
                        for k, c in binomial_shift(n, d):
                            rhs = rhs + _iterate(Z, xv, k) * Scalar.number(c)
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
    for fam in ("Gp", "Gm"):
        for m in range(-index_window, index_window + 1):
            for n in range(-index_window, index_window + 1):
                X = BasisSymbol("R", fam, 2 * m)
                Y = BasisSymbol("R", fam, 2 * n)
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
