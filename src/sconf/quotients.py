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
``quotient_act_basis`` hands the terms x^k of v to the generator's
``freemod._ACTION`` row (``freemod._row_terms``) with the ints p builds:
the parts of its lam, alp and their inverses (``units``) and of y = -a and
t = -a-1 (``roots``).  The root enters through the row's prefactor, so the
image is summed once into slices keyed i.  ``project`` freezes a module
element with ``_freeze``, adding each coefficient of x^i y^j in ints, times
the j-th power of the root, to the slices of x^i.  ``quotient_act`` is the
linear extension of ``quotient_act_basis`` (``freemod.extend_linearly``),
which ``n1.restricted_act`` extends over the embedded targets too.

The projection and phi intertwining sweeps compare, for each (generator,
monomial) case, the image of their map with the other side by element
equality: project(X . v) with X . project(v), and iso_phi(X . v) with
X . iso_phi(v).  Each vector's own projection or phi image is built once.
The xi sweep tests membership in M_h instead, so it decides each case in
ints: the module image of the ``iso_xi`` lift minus the quotient image
times the multiplier, read from the lift of 1, as rows for
``submodules._member``; only a failing case lifts the quotient image, for
its text.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm

from .algebras import basis_symbols, check_representation
from .errors import NotAUnit, ParamMismatch, UnsplitPolynomial
from .freemod import (
    EVEN, ODD, ModuleElement, ParityElement, _parts, _require_r, _row_terms, act,
    extend_linearly, monomials,
)
from .reports import VerificationReport
from .scalars import (
    QE_ONE, Scalar, _qe, add_slice, add_terms, as_quadext, as_scalar,
    build_slices, monomial_text,
)
from .submodules import (
    SubmoduleSpec, UniPoly, _deflated, _member, _rows, check_containment,
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

    __slots__ = ("a", "lam", "alp", "root", "units", "roots")
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
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "alp", alp)
        # the root the action freezes y at, formal when a is None, and the ints
        # the action reads: lam, 1/lam, alp, 1/alp, and y = -a and t = -a-1
        root = Scalar.param("a") if a is None else a
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "units", _parts(lam, inverses[0], alp, inverses[1]))
        object.__setattr__(self, "roots", _parts(-root, -root - 1))

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
    module's row read at the frozen root."""
    _require_r(sym, _OWNER)
    parity, slices = _row_terms(sym, v.parity, v.terms.items(), p.units, p.roots)
    return QuotientElement(parity, build_slices(slices))


def quotient_act(x, v, p):
    """Action of a homogeneous R-element (or one basis symbol) on a quotient
    element."""
    return extend_linearly(x, v, lambda sym, w: quotient_act_basis(sym, w, p), _OWNER)


def _freeze(terms, parts):
    """The terms ``{(i, j): Scalar}`` of a module element as slices ``{i:
    {ev: [p, q, d]}}`` of x^i (s^i), with the second variable at the
    concrete root whose parts are ``parts``: each power of the root is
    formed once by int multiplication, and each coefficient is added in
    ints, times it, to the slices of x^i."""
    powers, out = [[(1, 0, 1)]], {}
    for (i, j), c in terms.items():
        slot = out.get(i)
        if slot is None:
            slot = out[i] = {}
        while len(powers) <= j:
            powers.append([(p * u + 2 * q * v, p * v + q * u, d * e)
                           for p, q, d in powers[-1] for _, u, v, e in parts])
        for ev, x in c.terms.items():
            for u, w, e in powers[j]:
                add_slice(slot, ev, x.p * u + 2 * x.q * w, x.p * w + x.q * u, x.d * e)
    return out


def project(v, p):
    """Canonical projection from the rank-2 module onto the quotient.

    Freezes the second variable: y -> -a on the even part, t -> -a-1 on the
    odd part.  The kernel is exactly the M-kind submodule of h = y + a.
    """
    p.concrete_a()  # refuse a formal root: _freeze shifts no parameter monomial
    return QuotientElement(v.parity, build_slices(_freeze(v.terms, p.roots[v.parity])))


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
    by = h_tilde if v.parity == EVEN else h_tilde.shifted(1)
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
    ends (ROADMAP item 2).

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
    label = f"projection {p.describe()} "
    pairs = [(v, project(v, p)) for v in monomials(degree_bound)]  # projected once per vector
    for sym in basis_symbols("R", index_window):
        for v, pv in pairs:
            left, right = project(act(sym, v), p), quotient_act(sym, pv, p)
            if left != right:
                report.record(f"{label}{sym} on {v}", left, right)
    return report


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
    label = f"phi {src.describe()}->{dst.describe()} "
    pairs = [(v, iso_phi(v, src, dst)) for v in quotient_monomials(degree_bound)]
    for sym in basis_symbols("R", index_window):
        for v, mv in pairs:
            left = iso_phi(quotient_act(sym, v, src), src, dst)
            right = quotient_act(sym, mv, dst)
            if left != right:
                report.record(f"{label}{sym} on {v}", left, right)
    return report


def check_xi_intertwines(h_tilde, p, index_window, degree_bound):
    """iso_xi commutes with every generator action, modulo the full kernel
    M_h with h = (y+a) h~ (membership-tested, not representative-equal).
    Each vector is lifted by ``iso_xi`` once, and each parity's multiplier
    is read from the lift of its 1; the quotient image times it is
    subtracted in ints."""
    full = SubmoduleSpec("M", kernel_spec(p).h * h_tilde)
    report = VerificationReport(
        "xi-intertwines",
        {
            "h_tilde": h_tilde.render(),
            "params": p.describe(),
            "window": index_window,
            "degree": degree_bound,
        },
    )
    label = f"xi h~={h_tilde.render()} {p.describe()} "
    pairs = [(v, iso_xi(v, h_tilde, p)) for v in quotient_monomials(degree_bound)]
    parts = {  # parity -> the parts of its multiplier, read from the lift of its 1
        v.parity: [(j, c.p, c.q, c.d) for (_, j), s in lv.terms.items() for c in (s.constant(),)]
        for v, lv in pairs if 0 in v.terms}
    for sym in basis_symbols("R", index_window):
        for v, lv in pairs:
            left, image = act(sym, lv), quotient_act(sym, v, p)
            rows = _rows(left.terms)  # left - image * multiplier, as rows of ints
            for k, c in image.terms.items():
                for ev, x in c.terms.items():
                    row = rows.setdefault((k, ev), {})
                    for j, u, w, e in parts[image.parity]:
                        add_slice(row, j, -x.p * u - 2 * x.q * w, -x.p * w - x.q * u, x.d * e)
            if not _member(full, left.parity if left.terms else image.parity, rows):
                report.record(f"{label}{sym} on {v}", left, iso_xi(image, h_tilde, p))
    return report
