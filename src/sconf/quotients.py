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
``quotient_act_basis`` lifts x^k to x^k y^0, reads the generator's
``freemod._ACTION`` row with p's lam and alp, and freezes the second variable
with ``_freeze``, as ``project`` does.  ``quotient_act`` is its linear
extension (``freemod.extend_linearly``): one ``quotient_act_basis`` call per
generator of the acting element, on the whole quotient element.  The
compatibility sweep reads ``quotient_act_basis`` itself, and
``n1.restricted_act`` is ``quotient_act`` on the embedded image.  The
projection, phi and xi sweeps are three of the five callers of the one
generator sweep, ``algebras._check_images``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .algebras import _check_images, basis_symbols, check_representation
from .errors import NotAUnit, ParamMismatch, UnsplitPolynomial
from .freemod import (
    EVEN, ODD, ModuleElement, ParityElement, _require_r, _row_terms, act, extend_linearly,
    monomials,
)
from .reports import VerificationReport
from .scalars import QE_ONE, QuadExt, Scalar, add_terms, as_quadext, as_scalar, monomial_text
from .submodules import SubmoduleSpec, UniPoly, check_containment, contains
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

    __slots__ = ("a", "lam", "alp", "root")
    _fields = ("a", "lam", "alp")

    def __init__(self, a=None, lam=_LAM, alp=_ALP):
        if a is not None:
            a = as_quadext(a)
        lam = as_scalar(lam)
        alp = as_scalar(alp)
        for name, value in (("lam", lam), ("alp", alp)):
            try:
                value.invert_monomial()
            except NotAUnit as exc:
                raise ValueError(f"{name} must be an invertible monomial: {exc}") from exc
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "alp", alp)
        # the root the action freezes y at, formal when a is None
        object.__setattr__(self, "root", Scalar.param("a") if a is None else a)

    def concrete_a(self):
        if self.a is None:
            raise ValueError("this operation needs a concrete value for a")
        return self.a

    def describe(self):
        a = "a" if self.a is None else str(self.a)
        return f"(lam={self.lam}, alp={self.alp}, a={a})"


_OWNER = "simple quotients are R-modules"


def quotient_act_basis(sym, v, p):
    """Action of one Ramond basis generator on a quotient element: the
    module's row on v lifted to C[x,y] + C[s,t], then frozen."""
    _require_r(sym, _OWNER)
    lifted = (((k, 0), c) for k, c in v.terms.items())
    parity, images = _row_terms(sym, v.parity, lifted, p.lam, p.alp)
    out = {}
    for c, nums in images:
        add_terms(out, ((i, c * n) for i, n in _freeze(nums, parity, p.root).items()))
    return QuotientElement(parity, out)


def quotient_act(x, v, p):
    """Action of a homogeneous R-element (or one basis symbol) on a quotient
    element."""
    return extend_linearly(x, v, lambda sym, w: quotient_act_basis(sym, w, p), _OWNER)


def _freeze(terms, parity, a):
    """Terms in x^i y^j (s^i t^j) as terms in x^i (s^i): y -> -a on the
    even part, t -> -a-1 on the odd part."""
    sub = -a if parity == EVEN else -a - 1
    return add_terms({}, ((i, c * sub ** j if j else c) for (i, j), c in terms.items()))


def project(v, p):
    """Canonical projection from the rank-2 module onto the quotient.

    Freezes the second variable: y -> -a on the even part, t -> -a-1 on the
    odd part.  The kernel is exactly the M-kind submodule of h = y + a.
    """
    return QuotientElement(v.parity, _freeze(v.terms, v.parity, p.concrete_a()))


def kernel_spec(p):
    """The submodule that the projection kills: M-kind with h = y + a."""
    return SubmoduleSpec("M", UniPoly((p.concrete_a(), QE_ONE)))


def iso_phi(v, src, dst):
    """The quotient-to-quotient isomorphism: identity on the even part,
    rescaling by dst.alp/src.alp on the odd part.

    Exists exactly when the lam data and the root data agree; everything else
    raises ParamMismatch.
    """
    if src.lam != dst.lam:
        raise ParamMismatch(f"lam differs: {src.describe()} vs {dst.describe()}")
    if (src.a is None) != (dst.a is None) or src.a != dst.a:
        raise ParamMismatch(f"root parameter differs: {src.describe()} vs {dst.describe()}")
    if v.parity == EVEN:
        return QuotientElement(EVEN, dict(v.terms))
    ratio = dst.alp * src.alp.invert_monomial()
    return v * ratio


def iso_xi(v, h_tilde, p):
    """Embed a quotient element as a representative of the layer M_h~ / M_h
    with h = (y + a) h~: multiply by h~(y) (even) or h~(t+1) (odd)."""
    return _lift(v, h_tilde if v.parity == EVEN else h_tilde.shifted(1))


def _lift(v, by):
    """``iso_xi``'s product: the quotient element v times ``by`` in the
    second variable, as a module element."""
    return ModuleElement(v.parity, add_terms({}, (
        ((k, j), c * hc) for k, c in v.terms.items() for j, hc in enumerate(by.coeffs)
    )))


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
    D = lcm(*(f.denominator for c in h.coeffs for f in (c.rat, c.root2)))
    if any(c.root2 for c in h.coeffs):
        h = h * UniPoly(tuple(c.conjugate() for c in h.coeffs))
    # In z = 16 D y the norm is monic with integer coefficients (D times a root
    # of h is an algebraic integer) and has its roots inside (-bound, bound)
    # (Fujiwara).  It has none at odd z (rational roots sit at z = 16 P), where
    # its Sturm chain counts distinct roots as that of its square-free part would.
    n = h.degree
    p = [int(c.rat * (16 * D) ** (n - i)) for i, c in enumerate(h.coeffs)]
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
        QuadExt(Fraction((a + b) // 16, D), Fraction(q if a >= b else -q, D))
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
    |rational part|, positive first.  Each deflation is ``UniPoly.divmod_monic``
    by y - r, the long division that submodule membership uses too.  Raises
    UnsplitPolynomial, naming the factor left, when the polynomial does not
    split.
    """
    work, roots = h.monic(), []
    for cand in map(as_quadext, root_hint or ()):
        if work.degree < 1 or not work(cand).is_zero():
            raise UnsplitPolynomial(f"hinted value {cand} is not a root of {work.render()}")
        work, _ = work.divmod_monic(UniPoly((-cand, QE_ONE)))
        roots.append(cand)
    key = lambda r: (bool(r.root2), abs(r.rat), r.rat < 0, abs(r.root2), r.root2 < 0)  # noqa: E731
    for r in sorted(_candidates(work), key=key):
        while work(r).is_zero():
            work, _ = work.divmod_monic(UniPoly((-r, QE_ONE)))
            roots.append(r)
    if work.degree > 0:
        raise UnsplitPolynomial(f"cannot split {work.render()} over Q(sqrt2)")
    return roots


class CompositionSeries(Value):
    """A maximal chain of M-kind submodules above M_h, with its factor list.

    ``chain[i]`` is the M-kind spec of (y - a_1)...(y - a_{i+1}); the factor
    below chain[i] is the simple quotient with root parameter ``factors[i]``
    = -a_{i+1}.
    """

    __slots__ = ("h", "chain", "factors")
    _fields = __slots__

    def __init__(self, h, chain, factors):
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "factors", factors)

    def render(self):
        lines = [f"series of quotient by M[h={self.h.render()}]:"]
        for k, spec in enumerate(self.chain):
            lines.append(f"  layer {k + 1}: {spec.render()}  factor a={self.factors[k]}")
        return "\n".join(lines)


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
        lambda sym, w: quotient_act_basis(sym, w, p),
        quotient_monomials(degree_bound),
        f"quotient compat {p.describe()} ",
    )


def check_projection_intertwines(p, index_window, degree_bound):
    """project(X . v) == X . project(v) for generators and monomials."""
    report = VerificationReport(
        "projection-intertwines",
        {"params": p.describe(), "window": index_window, "degree": degree_bound},
    )
    return _check_images(
        report,
        basis_symbols("R", index_window),
        monomials(degree_bound),
        lambda sym, v: project(act(sym, v), p),
        lambda sym, v: quotient_act(sym, project(v, p), p),
        f"projection {p.describe()} ",
    )


def check_phi_intertwines(src, dst, index_window, degree_bound):
    """iso_phi commutes with every generator action in the window."""
    report = VerificationReport(
        "phi-intertwines",
        {
            "src": src.describe(),
            "dst": dst.describe(),
            "window": index_window,
            "degree": degree_bound,
        },
    )
    return _check_images(
        report,
        basis_symbols("R", index_window),
        quotient_monomials(degree_bound),
        lambda sym, v: iso_phi(quotient_act(sym, v, src), src, dst),
        lambda sym, v: quotient_act(sym, iso_phi(v, src, dst), dst),
        f"phi {src.describe()}->{dst.describe()} ",
    )


def check_xi_intertwines(h_tilde, p, index_window, degree_bound):
    """iso_xi commutes with every generator action, modulo the full kernel
    M_h with h = (y+a) h~ (membership-tested, not representative-equal).
    The sweep runs ``iso_xi``'s product with h~(t+1) formed once per call."""
    a = p.concrete_a()
    h = UniPoly((a, QE_ONE)) * h_tilde
    full = SubmoduleSpec("M", h)
    lifts = {EVEN: h_tilde, ODD: h_tilde.shifted(1)}  # parity -> multiplier

    def xi(v):
        return _lift(v, lifts[v.parity])

    report = VerificationReport(
        "xi-intertwines",
        {
            "h_tilde": h_tilde.render(),
            "params": p.describe(),
            "window": index_window,
            "degree": degree_bound,
        },
    )
    return _check_images(
        report,
        basis_symbols("R", index_window),
        quotient_monomials(degree_bound),
        lambda sym, v: act(sym, xi(v)),
        lambda sym, v: xi(quotient_act(sym, v, p)),
        f"xi h~={h_tilde.render()} {p.describe()} ",
        same=lambda left, right: contains(full, left - right),
    )
