"""Restriction of the simple quotients to the N=1 algebras.

A simple quotient kills the center, so pushing generators through the
embeddings makes it a module over the centerless N=1 Ramond algebra (via the
direct embedding) and over the N=1 Neveu-Schwarz algebra (via the
mode-doubling embedding composed with it; the doubled modes are why ``lam``
effectively appears squared there).

Over the N=1 Ramond algebra the restriction is free of rank 1 over the
commuting pair (L_0, G_0): iterating L_0 on the even generator walks the even
monomials, and one application of G_0 reaches the odd part with the fixed
coefficient alp/sqrt2.  Simplicity of the restriction holds exactly for a
nonzero root parameter; at a = 0 the even span of x together with the whole
odd part closes under the restricted action and witnesses non-simplicity.

``restricted_rows`` acts by one N=1 generator (or element) on a list of
rows: it reads the embedding's image of each generator once
(``algebras.map_image``), merges the targets and sums their
``quotients.quotient_rows`` in ints (``freemod.linear_rows``), building no
embedded element.  Every check acts through it on all the vectors it needs
at once (the rank-1 words one step at a time) and builds an element only
for a failing case's text.

The simplicity witness is a certificate, not a search; its argument is in
``check_simplicity_witness``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, prod

from . import quotients
from .algebras import (
    BasisSymbol,
    _check_images,
    basis_symbols,
    check_representation,
    compose,
    embed_ns1_in_r1,
    embed_r1_in_r2,
    map_image,
)
from .errors import AlgebraMismatch
from .freemod import EVEN, ODD, linear_rows
from .quotients import QuotientElement, QuotientParams, quotient_monomials
from .reports import VerificationReport
from .scalars import INV_SQRT2, SC_ONE, Scalar, add_terms, as_quadext, same_rows, sum_rows
from .values import Value


class RestrictedAction(Value):
    """A quotient module seen through an N=1 embedding."""

    __slots__ = ("source", "embedding", "params")
    _fields = __slots__

    def __init__(self, source, embedding, params):
        if source not in ("N1R", "N1NS"):
            raise AlgebraMismatch(f"restriction source must be N1R or N1NS, got {source}")
        if embedding.source != source or embedding.target != "R":
            raise AlgebraMismatch("embedding must map the source algebra into R")
        if not embedding.mod_center:
            raise AlgebraMismatch("the embedding must be taken modulo the center")
        super().__init__(source, embedding, params)

    @classmethod
    def ramond(cls, params):
        return cls("N1R", embed_r1_in_r2(), params)

    @classmethod
    def neveu_schwarz(cls, params):
        return cls("N1NS", compose(embed_r1_in_r2(), embed_ns1_in_r1()), params)


def restricted_rows(x, vs, r):
    """Act on each of the quotient rows ``vs`` by the embedded image of an
    N=1 element (or one basis symbol), one rows per vector: the targets of
    each generator (``map_image``, read once per call), merged, their
    ``quotients.quotient_rows`` summed in ints (``freemod.linear_rows``)."""
    if x.algebra != r.source:
        raise AlgebraMismatch(f"expected a {r.source} element, got {x.algebra}")
    image = {}
    for sym, coeff in ({x: SC_ONE} if isinstance(x, BasisSymbol) else x.terms).items():
        add_terms(image, ((s, c * coeff) for s, c in map_image(r.embedding, sym)))
    return linear_rows(image, vs, quotients.quotient_rows, None, r.params)


def restricted_act(x, v, r):
    """The element ``restricted_rows`` stands for."""
    return QuotientElement.from_rows(restricted_rows(x, [v.to_rows()], r)[0])


def check_n1_relations(r, index_window, degree_bound):
    """Bracket compatibility of the restricted action on the N=1 generators."""
    report = VerificationReport(
        "n1-relations",
        {
            "source": r.source,
            "params": r.params.describe(),
            "window": index_window,
            "degree": degree_bound,
        },
    )
    return check_representation(
        report,
        basis_symbols(r.source, index_window),
        lambda sym, vs: restricted_rows(sym, vs, r),
        quotient_monomials(degree_bound),
        f"n1 {r.source} {r.params.describe()} ",
    )


def check_rank1_freeness(r, degree_bound):
    """The pair (L_0, G_0) generates the restriction freely from 1_even.

    L_0^k . 1_even must equal x^k and L_0^k G_0 . 1_even must equal
    (alp/sqrt2) s^k, so the iterated images enumerate a basis of the
    truncation bijectively.
    """
    if r.source != "N1R":
        raise AlgebraMismatch("rank-1 freeness is a statement about the N1R restriction")
    report = VerificationReport(
        "rank1-freeness", {"params": r.params.describe(), "degree": degree_bound}
    )
    L0, G0 = BasisSymbol("N1R", "L", 0), BasisSymbol("N1R", "G", 0)
    odd_coeff = r.params.alp * Scalar.number(INV_SQRT2)
    even_word = QuotientElement.one(EVEN).to_rows()
    (odd_word,) = restricted_rows(G0, [even_word], r)
    for k in range(degree_bound + 1):
        if k:  # one L0 step on both words
            even_word, odd_word = restricted_rows(L0, [even_word, odd_word], r)
        for name, word, want in (
                (f"L0^{k} . 1_even", even_word, QuotientElement.monomial(EVEN, k)),
                (f"L0^{k} G0 . 1_even", odd_word, QuotientElement.monomial(ODD, k, odd_coeff))):
            if not same_rows(word, want.to_rows()):
                report.record(name, QuotientElement.from_rows(word), want)
    return report


def _difference_modes(d):
    """The d + 2 modes of X_d, nearest 0 first: 0, -1, 1, -2, 2, ...  They are
    consecutive, and the first 2W + 1 fill the window |m| <= W."""
    return [(k + 1) // 2 * (-1) ** k for k in range(d + 2)]


def _difference(d, lam0):
    """X_d = sum_k w_k lam0^(-m_k) L[m_k] as (m_k, coefficient) pairs, with the
    Lagrange top-coefficient weights w_k = (d+1)! / prod_{j != k} (m_k - m_j):
    for p(m) of degree <= d + 1, sum_k w_k p(m_k) is (d+1)! times the
    coefficient of m^(d+1)."""
    modes = _difference_modes(d)
    return [(m, lam0 ** -m * Fraction(factorial(d + 1), prod(m - n for n in modes if n != m)))
            for m in modes]


def check_simplicity_witness(a_value, lam0, alp0, degree_bound, word_length=None,
                             index_window=3):
    """Exact simplicity certificate for the N=1 Ramond restriction, with lam
    and alp specialized to the nonzero numbers lam0 and alp0.  Nothing reads
    ``word_length``; it stays for positional callers.

    * a == 0: the span of x C[x] + C[s] must be closed under all generators
      in the window, certifying a proper nonzero invariant subspace.
    * a != 0: T_m = lam0^(-m) L_m acts as f(x) -> (x + m b) f(x + m) on the
      even part, b = -a/2, and as g(s) -> (s + m b') g(s + m) on the odd
      part, b' = (1 - a)/2.  On v of degree d in one parity, T_m v is a
      polynomial in m of degree d + 1 with top coefficient b lc(v) 1, so X_d
      (``_difference``) sends v to (d+1)! b lc(v) 1.  Checked exactly, each
      against its closed form: X_d on every monomial of degree <= d, for
      d <= top; L0 x^k = x^(k+1) and L0 s^k = s^(k+1) for k <= degree_bound;
      G0 x^k = (alp0/sqrt2) s^k and G0 s^k = (sqrt2/alp0) x^(k+1) for k = 0,
      and at a = 1 for k <= degree_bound; T1 - T0 = b on 1_even, b' on 1_odd.

      By linearity every nonzero v = v_even + v_odd with parts of degree
      <= degree_bound then generates 1_even and 1_odd.  For a != 1, X_d with
      d the larger degree gives c_e 1_even + c_o 1_odd != 0, and T1 - T0
      separates the two units (b' - b = 1/2).  At a = 1, b' = 0 and X_d kills
      the odd part, so a v led by its odd part goes through G0 first, which
      raises its degree by one: top = degree_bound + 1.  From 1_even, L0 and
      G0 reach every monomial; from 1_odd, G0 gives a multiple of x and X_1
      one of 1_even, so top >= 1.  A mismatch is a violation: the verdict is
      pass or fail, never inconclusive.

    X_d takes its modes from the window |m| <= index_window and leaves it only
    when d > 2 index_window - 1, with a note naming the modes outside: the
    certificate is a proof, not a sweep.  Each generator acts once, on all
    the monomials it is checked on, and X_d and T1 - T0 are formed from
    those images by linearity, in ints.
    """
    a_value = as_quadext(a_value)
    lam0 = as_quadext(lam0)
    alp0 = as_quadext(alp0)
    if lam0.is_zero() or alp0.is_zero():
        raise ValueError("lam0 and alp0 must be nonzero")
    params = QuotientParams(a=a_value, lam=Scalar.number(lam0), alp=Scalar.number(alp0))
    r = RestrictedAction.ramond(params)
    report = VerificationReport(
        "simplicity-witness",
        {
            "a": str(a_value),
            "lam0": str(lam0),
            "alp0": str(alp0),
            "degree": degree_bound,
            "window": index_window,
        },
    )

    mono = QuotientElement.monomial
    if a_value.is_zero():
        # closure certificate for the proper subspace x C[x] + C[s]
        spanning = [mono(EVEN, k + 1) for k in range(degree_bound + 1)]
        spanning += [mono(ODD, k) for k in range(degree_bound + 1)]
        _check_images(
            report, basis_symbols("N1R", index_window), spanning,
            lambda g, vs: restricted_rows(g, vs, r),
            lambda g, vs: ["member of xC[x]+C[s]"] * len(vs), "a=0 closure ", QuotientElement,
            same=lambda out, _: out[0] != EVEN or not any(
                p or q for p, q, d in out[1].get(0, {}).values()),
        )
        report.notes.append(
            "a=0: the subspace x*C[x] + C[s] is closed and omits 1_even, "
            "so the restriction is not simple"
        )
        return report

    b = {EVEN: -a_value / 2, ODD: (1 - a_value) / 2}
    top = degree_bound + 1 if a_value == 1 else max(degree_bound, 1)
    images = {}  # (family, mode, parity, exponent) -> the restricted rows of the monomial
    # L_m for the modes of X_top on degree <= top, G0 on degree 0 (a = 1: <= the bound)
    for family, m, n in [*(("L", m, top) for m in _difference_modes(top)),
                         ("G", 0, degree_bound if a_value == 1 else 0)]:
        keys = list(product((EVEN, ODD), range(n + 1)))
        images.update(zip([(family, m, *key) for key in keys], restricted_rows(
            BasisSymbol("N1R", family, 2 * m), [mono(*key).to_rows() for key in keys], r)))

    def combination(par, k, pairs):
        """The rows of the sum of c * L_m on the monomial over the (m, c) pairs, in ints."""
        return sum_rows(par, [(c, images["L", m, par, k]) for m, c in pairs])

    steps = []  # (operator, parity, exponent, rows of its image of the monomial, its closed form)
    for d in range(top + 1):
        x_d = _difference(d, lam0)
        steps += [(f"X_{d}", par, k, combination(par, k, x_d),
                   mono(par, 0, factorial(d + 1) * b[par] if k == d else 0))
                  for par, k in product((EVEN, ODD), range(d + 1))]
    steps += [("L0", par, k, images["L", 0, par, k], mono(par, k + 1))
              for par, k in product((EVEN, ODD), range(degree_bound + 1))]
    steps += [("G0", par, k, images["G", 0, par, k], (mono(ODD, k, alp0 * INV_SQRT2)
               if par == EVEN else mono(EVEN, k + 1, 2 * INV_SQRT2 / alp0)))
              for par, k in product((EVEN, ODD), range(degree_bound + 1 if a_value == 1 else 1))]
    steps += [("T1 - T0", par, 0, combination(par, 0, [(1, 1 / lam0), (0, -1)]),
               mono(par, 0, b[par])) for par in (EVEN, ODD)]
    for name, par, k, got, want in steps:
        if not same_rows(got, want.to_rows()):
            report.record(f"{name} on {mono(par, k)} ({('even', 'odd')[par]})",
                          QuotientElement.from_rows(got), want)

    report.notes.append(f"difference X_d over the d + 2 modes 0, -1, 1, ...: checked for "
                        f"d <= {top}, b = {b[EVEN]} (even), b' = {b[ODD]} (odd)")
    outside = [m for m in _difference_modes(top) if abs(m) > index_window]
    if outside:
        lo = 2 * index_window
        report.notes.append(
            f"modes {', '.join(map(str, outside))} outside the window |m| <= {index_window} "
            f"serve X_{lo}{'' if lo == top else f' to X_{top}'}"
        )
    if a_value == 1:
        report.notes.append("a=1: b' = 0, so an odd-led vector goes through G0 first")
    report.notes.append(
        f"{len(steps)} identities checked exactly; " + (
            f"{len(report.violations)} fail, so the certificate fails" if report.violations
            else f"every nonzero vector of degree <= {degree_bound} generates 1_even and "
            "1_odd, so the restriction is simple")
    )
    return report
