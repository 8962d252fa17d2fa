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

``restricted_act`` pushes an N=1 element through the embedding once and acts
on the quotient by the image (``quotients.quotient_act``), so every
restricted action reads the same ``freemod._ACTION`` rows.  The N=1 sweeps
act by one basis generator at a time, ``AlgebraElement.basis(sym)``, so a
fault put on ``restricted_act`` sees which generator acts.

The simplicity witness searches in coordinates over a table local to the
call: ``restricted_act`` of each generator on each monomial, filled lazily
once per (generator number, parity, exponent).  By linearity a vector's
image is the sum of its coordinates times those images.
"""

from __future__ import annotations

from . import quotients
from .algebras import (
    AlgebraElement,
    BasisSymbol,
    _check_images,
    apply_map,
    basis_symbols,
    check_representation,
    compose,
    embed_ns1_in_r1,
    embed_r1_in_r2,
)
from .errors import AlgebraMismatch
from .freemod import EVEN, ODD
from .linalg import RowSpan
from .quotients import QuotientElement, QuotientParams, quotient_monomials
from .reports import VerificationReport
from .scalars import INV_SQRT2, QE_ZERO, Scalar, as_quadext
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
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "embedding", embedding)
        object.__setattr__(self, "params", params)

    @classmethod
    def ramond(cls, params):
        return cls("N1R", embed_r1_in_r2(), params)

    @classmethod
    def neveu_schwarz(cls, params):
        return cls("N1NS", compose(embed_r1_in_r2(), embed_ns1_in_r1()), params)


def restricted_act(x, v, r):
    """Push an N=1 element (or one basis symbol) through the embedding and act
    on the quotient by its image."""
    if x.algebra != r.source:
        raise AlgebraMismatch(f"expected a {r.source} element, got {x.algebra}")
    return quotients.quotient_act(apply_map(r.embedding, x), v, r.params)


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
        lambda sym, w: restricted_act(AlgebraElement.basis(sym), w, r),
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
    L0 = AlgebraElement.basis(BasisSymbol("N1R", "L", 0))
    G0 = AlgebraElement.basis(BasisSymbol("N1R", "G", 0))
    odd_coeff = r.params.alp * Scalar.number(INV_SQRT2)
    even_word = QuotientElement.one(EVEN)
    odd_word = restricted_act(G0, QuotientElement.one(EVEN), r)
    for k in range(degree_bound + 1):
        expect_even = QuotientElement.monomial(EVEN, k)
        if even_word != expect_even:
            report.record(f"L0^{k} . 1_even", even_word.render(), expect_even.render())
        expect_odd = QuotientElement.monomial(ODD, k, odd_coeff)
        if odd_word != expect_odd:
            report.record(f"L0^{k} G0 . 1_even", odd_word.render(), expect_odd.render())
        even_word = restricted_act(L0, even_word, r)
        odd_word = restricted_act(L0, odd_word, r)
    return report


def _coordinates(v, max_degree):
    """The nonzero coordinates of a numeric quotient element in the truncated
    basis (even monomials first, then odd) as (index, QuadExt) pairs."""
    shift = max_degree + 1 if v.parity == ODD else 0
    for k, c in v.terms.items():
        if k > max_degree:
            raise ValueError(f"degree {k} exceeds the truncation bound {max_degree}")
        yield k + shift, c.constant()


def _as_vector(v, max_degree):
    """Coordinates of a numeric quotient element in the truncated basis."""
    out = [QE_ZERO] * (2 * (max_degree + 1))
    for i, c in _coordinates(v, max_degree):
        out[i] = c
    return out


def check_simplicity_witness(a_value, lam0, alp0, degree_bound, word_length,
                             index_window=3, starts=None):
    """Bounded simplicity certificate for the N=1 Ramond restriction.

    Everything is specialized to numbers (lam0, alp0 nonzero) so spans are
    exact linear algebra over Q(sqrt2).

    * a != 0: generator words of length <= word_length (modes |m| <=
      index_window) are applied to the starting monomials (by default every
      monomial of degree <= degree_bound in either parity); the pooled span
      of all word images must contain every monomial up to degree_bound in
      both parities.  Falling short is reported as inconclusive, never as
      failure -- the bounds may simply be too small.  Per-start coverage goes
      to the notes: a single application never lowers the degree, so low
      starts cannot reach the top odd monomials on their own within short
      words.
    * a == 0: the span of x C[x] + C[s] must be closed under all generators
      in the window, certifying a proper nonzero invariant subspace.

    The a != 0 search keeps its vectors as coordinate lists (even monomials
    first, then odd, up to degree_bound + word_length).  A table local to
    the call maps (generator number, parity, exponent) to
    ``restricted_act(generator, monomial)``, filled the first time the search
    needs it; a vector's image is the sum of its coordinates times the images
    of their monomials.  Only vectors of degree below degree_bound +
    word_length are acted on, so from starts of degree <= degree_bound one
    call acts at most |generators| * 2 * (degree_bound + word_length) times.
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
            "words": word_length,
            "window": index_window,
        },
    )
    gens = [AlgebraElement.basis(s) for s in basis_symbols("N1R", index_window)]

    if a_value.is_zero():
        # closure certificate for the proper subspace x C[x] + C[s]
        spanning = [QuotientElement.monomial(EVEN, k + 1) for k in range(degree_bound + 1)]
        spanning += [QuotientElement.monomial(ODD, k) for k in range(degree_bound + 1)]
        _check_images(
            report, gens, spanning, lambda g, v: restricted_act(g, v, r),
            lambda g, v: "member of xC[x]+C[s]", "a=0 closure ",
            lambda out, _: out.parity != EVEN or 0 not in out.terms,
        )
        report.notes.append(
            "a=0: the subspace x*C[x] + C[s] is closed and omits 1_even, "
            "so the restriction is not simple"
        )
        return report

    # words can raise the degree by one per letter
    max_degree = degree_bound + word_length
    width = max_degree + 1
    dim = 2 * width
    images = {}  # (generator number, parity, exponent) -> restricted image of the monomial

    def act(g, coords):
        """Coordinates of generator number g applied to the vector whose
        nonzero coordinates are ``coords``: the sum of c times the image of
        each monomial, by linearity."""
        out = [QE_ZERO] * dim
        for i, c in coords:
            parity, k = divmod(i, width)
            image = images.get((g, parity, k))
            if image is None:
                image = images[g, parity, k] = restricted_act(
                    gens[g], QuotientElement.monomial(parity, k), r
                )
            for j, e in _coordinates(image, max_degree):
                out[j] = out[j] + c * e
        return out

    target_monos = quotient_monomials(degree_bound)
    targets = [_as_vector(t, max_degree) for t in target_monos]
    if starts is None:
        starts = target_monos
    pooled = RowSpan(dim)
    for start in starts:
        # per-start orbit span (pruning against it is sound: a vector inside
        # the span of already-expanded vectors contributes nothing new, by
        # linearity of the action)
        span = RowSpan(dim)
        frontier = [_as_vector(start, max_degree)]
        span.add(frontier[0])
        for _ in range(word_length):
            new_frontier = []
            for vec in frontier:
                coords = [(i, c) for i, c in enumerate(vec) if c]
                for g in range(len(gens)):
                    w = act(g, coords)
                    if span.add(w):
                        new_frontier.append(w)
            frontier = new_frontier
            if not frontier:
                break
        missed = sum(1 for t in targets if not span.contains(t))
        tag = "even" if start.parity == EVEN else "odd"
        if missed:
            report.notes.append(
                f"start {start} ({tag}): span misses {missed} of {len(targets)} monomials"
            )
        else:
            report.notes.append(f"start {start} ({tag}): full span reached")
        for _, row in span.rows:
            pooled.add(row)
    missing = [m for m, t in zip(target_monos, targets) if not pooled.contains(t)]
    if missing:
        report.inconclusive = True
        report.notes.append(
            "pooled span misses "
            + ", ".join(str(m) for m in missing)
            + f" (bounds degree={degree_bound}, words={word_length} too small to conclude)"
        )
    return report
