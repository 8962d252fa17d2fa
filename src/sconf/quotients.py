"""Simple quotients of the rank-2 module, their isomorphisms, and
composition series.

Factoring the rank-2 module by the maximal M-kind submodule with h = y + a
collapses the second variable: the quotient lives on C[x] (even) + C[s]
(odd), with y frozen at -a and t at -a-1.  The generator action becomes

    L_m . f(x) = lam^m (x - m a / 2) f(x+m)
    L_m . g(s) = lam^m (s - m a / 2 + m/2) g(s+m)
    H_m . f(x) = -a     lam^m f(x+m)
    H_m . g(s) = -(a+1) lam^m g(s+m)
    Gp_m . f   = 0
    Gp_m . g(s) = lam^m (2/alp) (x - m a) g(x+m)
    Gm_m . f(x) = lam^m alp f(s+m)
    Gm_m . g    = 0
    C  -> 0

The root parameter a is usually a concrete Q(sqrt2) number (projection and
kernel questions need to divide by y + a); passing ``a=None`` keeps it as the
formal Scalar parameter ``a``, which is enough for acting and for bracket
sweeps.  ``lam``/``alp`` default to the formal parameters but may be replaced
by any invertible monomial, e.g. concrete nonzero numbers for specializations
or ``mu``/``bet`` for a second family of modules.

The quotient is the module row read through the projection:
``quotient_rows`` hands the rows x^k of its vectors to the generator's
``freemod._ACTION`` row (``freemod._row_terms``) with the parts p builds,
of its lam, alp and their inverses (``units``) and of y = -a and t = -a-1
(``roots``), which enter through the row's prefactor.

Each map has one rows seam, rows in and rows out, in ints, and its element
function (``project``, ``iso_phi``, ``iso_xi``) wraps it.  ``project_rows``
divides by y + a (even) or t + a + 1 (odd), the int divisors p stores, in
the long division of ``submodules._remainders``.  ``phi_rows`` scales the
odd values by dst.alp/src.alp (``_phi_scale``, which checks lam and a), and
``xi_rows`` multiplies by the coefficients of h~(y) or h~(t+1).

The three intertwining sweeps are calls of one loop,
``algebras._check_images``: each maps its vectors' rows once, calls each
action seam once per generator on the whole list, and compares the two
sides of each case in ints, by ``scalars.same_rows`` or, for xi, by
membership of their difference in M_h (``submodules.contains_rows``).  The
sweeps read each seam as a module global, so a fault put on one shows in
every sweep that reads it.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from operator import add

from . import freemod
from .algebras import _check_images, _checked, basis_symbols, check_representation
from .errors import NotAUnit, ParamMismatch, UnsplitPolynomial
from .freemod import (
    EVEN, ODD, ModuleElement, ParityElement, _parts, _require_r, _row_terms, linear_rows,
    monomials,
)
from .reports import VerificationReport
from .scalars import QE_ONE, Scalar, _qe, add_slice, as_quadext, as_scalar, monomial_text
from .submodules import (
    SubmoduleSpec, UniPoly, _deflated, _linear, _remainders, check_containment, contains_rows,
)
from .values import Value

_VAR = {EVEN: ("x",), ODD: ("s",)}
_LAM, _ALP = Scalar.param("lam"), Scalar.param("alp")


class QuotientElement(ParityElement):
    """A parity-tagged univariate polynomial: f(x) when even, g(s) when odd.

    Keys are integer exponents.
    """

    __slots__ = ()
    _ONE_KEY = 0

    @classmethod
    def monomial(cls, parity, k, coeff=1):
        return cls._term(parity, k, coeff)

    def _monomial_text(self, key):
        return monomial_text(_VAR[self.parity], (key,))


class QuotientParams(Value):
    """Parameters of one simple quotient: the root a and the pair (lam, alp).

    ``a`` is a concrete Q(sqrt2) number, or None for the formal parameter.
    ``lam`` and ``alp`` must be invertible monomials (formal parameters,
    nonzero numbers, or products of those); they default to the formal
    ``lam`` and ``alp``.
    """

    __slots__ = ("a", "lam", "alp", "root", "units", "roots", "divisors")
    _fields = ("a", "lam", "alp")

    def __init__(self, a=None, lam=_LAM, alp=_ALP):
        if a is not None:
            a = as_quadext(a)
        lam = as_scalar(lam)
        alp = as_scalar(alp)
        inverses = []
        for name, value in (("lam", lam), ("alp", alp)):
            try:
                inverses.append(value.invert_monomial())
            except NotAUnit as exc:
                raise ValueError(f"{name} must be an invertible monomial: {exc}") from exc
        super().__init__(a, lam, alp)
        # the root the action freezes y at, formal when a is None, the ints
        # the action reads: lam, 1/lam, alp, 1/alp, and y = -a and t = -a-1,
        # and the int divisors of y + a and t + a + 1 that project reduces by
        root = Scalar.param("a") if a is None else a
        y, t = -root, -root - 1
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "units", _parts(lam, inverses[0], alp, inverses[1]))
        object.__setattr__(self, "roots", _parts(y, t))
        object.__setattr__(self, "divisors", None if a is None else (_linear(y), _linear(t)))

    def concrete_a(self):
        if self.a is None:
            raise ValueError("this operation needs a concrete value for a")
        return self.a

    def describe(self):
        a = "a" if self.a is None else str(self.a)
        return f"(lam={self.lam}, alp={self.alp}, a={a})"


_OWNER = "simple quotients are R-modules"


def quotient_rows(sym, vs, p, coeff=None):
    """Action of one Ramond basis generator on each of the quotient rows
    ``vs``, or on ``coeff`` times each when the Scalar ``coeff`` is given:
    one rows per vector, the module's row read at the frozen root."""
    _require_r(sym, _OWNER)
    return _row_terms(sym, vs, p.units, p.roots, coeff)


def quotient_act_basis(sym, v, p, coeff=None):
    """The element ``quotient_rows`` stands for."""
    return QuotientElement.from_rows(quotient_rows(sym, [v.to_rows()], p, coeff)[0])


def quotient_act(x, v, p):
    """Action of a homogeneous R-element (or one basis symbol) on a quotient
    element: the linear extension of ``quotient_rows``."""
    return type(v).from_rows(linear_rows(x, [v.to_rows()], quotient_rows, _OWNER, p)[0])


def project_rows(rows, p):
    """The canonical projection on rows, (parity, slices keyed (i, j)): the
    remainders by y + a (even) or t + a + 1 (odd), the int divisors p
    stores, which set y -> -a and t -> -a-1, keyed i."""
    p.concrete_a()
    parity, slices = rows
    return parity, {i: slot for (i, _), slot in _remainders(p.divisors[parity], slices).items()}


def project(v, p):
    """Canonical projection from the rank-2 module onto the quotient
    (``project_rows``)."""
    return QuotientElement.from_rows(project_rows(v.to_rows(), p))


def _phi_scale(src, dst):
    """The (exponent vector, p, q, d) ints of dst.alp/src.alp.  The
    isomorphism exists exactly when the lam data and the root data agree;
    everything else raises ParamMismatch."""
    if src.lam != dst.lam:
        raise ParamMismatch(f"lam differs: {src.describe()} vs {dst.describe()}")
    if src.a != dst.a:
        raise ParamMismatch(f"root parameter differs: {src.describe()} vs {dst.describe()}")
    (part,), = _parts(dst.alp * src.alp.invert_monomial())
    return part


def phi_rows(rows, scale):
    """``iso_phi`` on rows: the even part as it is, each odd value times the
    monomial ``scale`` (``_phi_scale``), in ints."""
    parity, slices = rows
    if parity == EVEN:
        return rows
    sev, sp, sq, sd = scale
    return parity, {key: {tuple(map(add, ev, sev)): [p * sp + 2 * q * sq, p * sq + q * sp, d * sd]
                          for ev, (p, q, d) in slot.items()} for key, slot in slices.items()}


def iso_phi(v, src, dst):
    """The quotient-to-quotient isomorphism: identity on the even part,
    rescaling by dst.alp/src.alp on the odd part (``phi_rows``)."""
    return QuotientElement.from_rows(phi_rows(v.to_rows(), _phi_scale(src, dst)))


def xi_rows(rows, lifts):
    """``iso_xi`` on rows keyed k: each value times each coefficient of the
    multiplier of its parity, ``lifts`` = (h~(y), h~(t+1)), in ints, keyed
    (k, j) by the power j."""
    parity, slices = rows
    by = [(j, c.p, c.q, c.d) for j, c in enumerate(lifts[parity].coeffs) if c]
    return parity, {(k, j): {ev: [p * cp + 2 * q * cq, p * cq + q * cp, d * cd]
                             for ev, (p, q, d) in slot.items()}
                    for k, slot in slices.items() for j, cp, cq, cd in by}


def iso_xi(v, h_tilde, p):
    """Embed a quotient element as a representative of the layer M_h~ / M_h
    with h = (y + a) h~: multiply by h~(y) (even) or h~(t+1) (odd)
    (``xi_rows``; the multiplier of the other parity is not formed)."""
    lifts = (h_tilde, None) if v.parity == EVEN else (None, h_tilde.shifted(1))
    return ModuleElement.from_rows(xi_rows(v.to_rows(), lifts))


# ---------------------------------------------------------------------------
# root finding and composition series
# ---------------------------------------------------------------------------

def _negated_remainder(a, b):
    """-(a mod b) times a positive integer, for ascending integer coefficient lists."""
    a, lead, sign = list(a), abs(b[-1]), 1 if b[-1] > 0 else -1
    while len(a) >= len(b):
        top, pad = sign * a[-1], len(a) - len(b)
        a = [lead * c - top * (b[i - pad] if i >= pad else 0) for i, c in enumerate(a)][:-1]
    while a and not a[-1]:
        a.pop()
    g = gcd(*a)
    return [-c // g for c in a]


def _sign_changes(chain, z):
    signs = []
    for f in chain:
        acc = 0
        for c in reversed(f):
            acc = acc * z + c
        if acc:
            signs.append(acc > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _candidates(h):
    """Every (P + Q sqrt2)/D that an ordered pair of real roots of the norm
    h * conj(h) rounds to, D the common denominator of the monic h.  Each root
    of h in Q(sqrt2) has that form, and it and its conjugate are real roots of
    the norm (of h itself, when h is rational)."""
    D = lcm(*(c.d for c in h.coeffs))  # in lowest terms, d is the lcm of p/d's and q/d's
    if any(c.q for c in h.coeffs):
        h = h * UniPoly(tuple(c.conjugate() for c in h.coeffs))
    # In z = 16 D y the norm is monic with integer coefficients (D times a root
    # of h is an algebraic integer) and has its roots inside (-bound, bound)
    # (Fujiwara).  It has none at odd z (rational roots sit at z = 16 P), where
    # its Sturm chain counts distinct roots as that of its square-free part would.
    n = h.degree
    p = [c.p * (16 * D) ** (n - i) // c.d for i, c in enumerate(h.coeffs)]
    bound = 4 << max((c.bit_length() // (n - i) for i, c in enumerate(p[:-1])), default=0) | 1
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1 and (r := _negated_remainder(chain[-2], chain[-1])):
        chain.append(r)
    counts = {}  # point -> its sign changes; an interval shares its ends with its parent

    def changes(z):
        if z not in counts:
            counts[z] = _sign_changes(chain, z)
        return counts[z]

    points, todo = [], [(-bound, bound)]
    while todo:
        lo, hi = todo.pop()
        if changes(lo) == changes(hi):
            continue
        if hi - lo == 2:
            points.append(hi // 2)
            continue
        mid = (lo + hi) // 2 | 1
        todo += [(lo, mid), (mid, hi)]
    # Each root x has a point a with |8 D x - a| < 1/2.  For x = (P + Q sqrt2)/D
    # and its conjugate, a + b = 16 P and |a - b - 16 sqrt2 Q| < 1.
    return {
        _qe((a + b) // 16, q if a >= b else -q, D)
        for a in points
        for b in points
        if (a + b) % 16 == 0
        for q in (isqrt((abs(a - b) + 1) ** 2 // 512),)
    }


def find_roots(h, root_hint=None):
    """All roots of a monic polynomial in Q(sqrt2), multiplicity included.

    Hints are consumed first (each one verified and deflated).  Then h is
    deflated by each exact search candidate (Sturm bisection of the norm, see
    ``_candidates``) while it vanishes there: rational roots first, then by
    |rational part|, positive first.  Each test and deflation is one division
    by y - r (``submodules._deflated``), the long division in ints that
    submodule membership uses too: r is a root exactly when its remainder is
    zero, and only then is the quotient built.  Raises UnsplitPolynomial,
    naming the factor left, when the polynomial does not split.
    """
    work, roots = h.monic(), []
    for cand in map(as_quadext, root_hint or ()):
        deflated = _deflated(work, cand)
        if deflated is None:
            raise UnsplitPolynomial(f"hinted value {cand} is not a root of {work.render()}")
        work = deflated
        roots.append(cand)
    candidates = _candidates(work)
    L = lcm(*(r.d for r in candidates))  # the parts by size and sign, over one denominator

    def key(r):
        return bool(r.q), abs(r.p) * (L // r.d), r.p < 0, abs(r.q) * (L // r.d), r.q < 0

    for r in sorted(candidates, key=key):
        while (deflated := _deflated(work, r)) is not None:
            work = deflated
            roots.append(r)
    if work.degree > 0:
        raise UnsplitPolynomial(f"cannot split {work.render()} over Q(sqrt2)")
    return roots


class CompositionSeries(Value):
    """A chain of M-kind submodules above M_h, with its factor list.

    The chain is maximal only when h(0) != 0: a root 0 gives a layer that
    is not simple, since an N-kind submodule lies strictly between its two
    ends (ROADMAP: a maximal composition series when h(0) = 0).

    ``chain[i]`` is the M-kind spec of (y - a_1)...(y - a_{i+1}); the factor
    below chain[i] is the simple quotient with root parameter ``factors[i]``
    = -a_{i+1}.
    """

    __slots__ = ("h", "chain", "factors")
    _fields = __slots__


def composition_series(h, root_hint=None):
    """Split h, build the chain of partial-product submodules, verify links."""
    h = h.monic()
    roots = find_roots(h, root_hint)
    chain = []
    acc = UniPoly.const(1)
    for r in roots:
        acc = acc * UniPoly((-r, QE_ONE))
        chain.append(SubmoduleSpec("M", acc))
    if chain and chain[-1].h != h:
        raise UnsplitPolynomial(
            f"roots {roots} do not multiply back to {h.render()}"
        )
    for inner, outer in zip(chain[1:], chain[:-1]):
        if not check_containment(inner, outer):
            raise AssertionError(
                f"chain link {inner} <= {outer} failed containment"
            )
    return CompositionSeries(h, tuple(chain), tuple(-r for r in roots))


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------

def quotient_monomials(degree_bound):
    return [
        QuotientElement.monomial(parity, k)
        for parity in (EVEN, ODD)
        for k in range(degree_bound + 1)
    ]


def check_quotient_compatibility(p, index_window, degree_bound):
    """Bracket compatibility of the quotient action (same shape as the
    rank-2 module sweep)."""
    report = VerificationReport(
        "quotient-compatibility",
        {"params": p.describe(), "window": index_window, "degree": degree_bound},
    )
    return check_representation(
        report,
        basis_symbols("R", index_window),
        lambda sym, vs: quotient_rows(sym, vs, p),
        quotient_monomials(degree_bound),
        f"quotient compat {p.describe()} ",
    )


def check_projection_intertwines(p, index_window, degree_bound):
    """project(X . v) == X . project(v) for generators and monomials."""
    report = VerificationReport(
        "projection-intertwines",
        {"params": p.describe(), "window": index_window, "degree": degree_bound},
    )
    vectors = monomials(degree_bound)
    images = [project_rows(v.to_rows(), p) for v in vectors]
    return _check_images(
        report,
        basis_symbols("R", index_window),
        vectors,
        lambda sym, vs: [project_rows(w, p)
                         for w in _checked(freemod.basis_rows(sym, vs), sym, vs)],
        lambda sym, _: _checked(quotient_rows(sym, images, p), sym, images),
        f"projection {p.describe()} ",
        QuotientElement,
    )


def check_phi_intertwines(src, dst, index_window, degree_bound):
    """iso_phi commutes with every generator action in the window; the lam
    and root data are checked, and dst.alp/src.alp formed, once."""
    report = VerificationReport(
        "phi-intertwines",
        {
            "src": src.describe(),
            "dst": dst.describe(),
            "window": index_window,
            "degree": degree_bound,
        },
    )
    vectors, scale = quotient_monomials(degree_bound), _phi_scale(src, dst)
    images = [phi_rows(v.to_rows(), scale) for v in vectors]
    return _check_images(
        report,
        basis_symbols("R", index_window),
        vectors,
        lambda sym, vs: [phi_rows(w, scale)
                         for w in _checked(quotient_rows(sym, vs, src), sym, vs)],
        lambda sym, _: _checked(quotient_rows(sym, images, dst), sym, images),
        f"phi {src.describe()}->{dst.describe()} ",
        QuotientElement,
    )


def _minus(left, right):
    """The rows left - right of one parity, in fresh slices (``add_slice``)."""
    out = {key: {ev: list(x) for ev, x in slot.items()} for key, slot in left[1].items()}
    for key, slot in right[1].items():
        have = out.setdefault(key, {})
        for ev, (p, q, d) in slot.items():
            add_slice(have, ev, -p, -q, d)
    return left[0], out


def check_xi_intertwines(h_tilde, p, index_window, degree_bound):
    """iso_xi commutes with every generator action, modulo the full kernel
    M_h with h = (y+a) h~: X . iso_xi(v) - iso_xi(X . v) lies in M_h.  The
    multiplier h~(t+1) is formed once."""
    full = SubmoduleSpec("M", UniPoly((p.concrete_a(), QE_ONE)) * h_tilde)
    report = VerificationReport(
        "xi-intertwines",
        {
            "h_tilde": h_tilde.render(),
            "params": p.describe(),
            "window": index_window,
            "degree": degree_bound,
        },
    )
    vectors, lifts = quotient_monomials(degree_bound), (h_tilde, h_tilde.shifted(1))
    images = [xi_rows(v.to_rows(), lifts) for v in vectors]
    return _check_images(
        report,
        basis_symbols("R", index_window),
        vectors,
        lambda sym, _: _checked(freemod.basis_rows(sym, images), sym, images),
        lambda sym, vs: [xi_rows(w, lifts) for w in _checked(quotient_rows(sym, vs, p), sym, vs)],
        f"xi h~={h_tilde.render()} {p.describe()} ",
        ModuleElement,
        same=lambda left, right: left[0] == right[0] and contains_rows(full, _minus(left, right)),
    )
