"""The simplicity witness's coordinate search against the element-wise search.

``n1.check_simplicity_witness`` acts on coordinate vectors through a table of
generator images local to the call.  The oracle below is the search it
replaced: it acts with ``restricted_act`` on every whole frontier element and
reduces dense rows, every entry of every row.  Both must give the same
report, note for note.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
import random

import pytest

from sconf import n1
from sconf.algebras import AlgebraElement, basis_symbols
from sconf.freemod import EVEN, ODD
from sconf.linalg import RowSpan
from sconf.n1 import RestrictedAction, _as_vector, check_simplicity_witness, restricted_act
from sconf.parsing import parse_quotient_element
from sconf.quotients import QuotientElement, QuotientParams, quotient_monomials
from sconf.reports import VerificationReport
from sconf.scalars import QE_ONE, QuadExt, Scalar, as_quadext

LAM0, ALP0 = Fraction(3, 2), 2
NONZERO_A = [1, -1, 2, Fraction(5, 2), QuadExt(1, 1)]


class DenseRowSpan:
    """Reduced echelon rows, every entry of every row touched on each pass."""

    def __init__(self, dim):
        self.dim = dim
        self.rows = []

    def _reduce(self, vec):
        vec = [as_quadext(v) for v in vec]
        for pivot, row in self.rows:
            c = vec[pivot]
            if not c.is_zero():
                vec = [v - c * r for v, r in zip(vec, row)]
        return vec

    def add(self, vec):
        vec = self._reduce(vec)
        pivot = next((k for k, v in enumerate(vec) if not v.is_zero()), None)
        if pivot is None:
            return False
        inv = vec[pivot].inverse()
        row = [v * inv for v in vec]
        row[pivot] = QE_ONE
        for k, (p, r) in enumerate(self.rows):
            c = r[pivot]
            if not c.is_zero():
                self.rows[k] = (p, [a - c * b for a, b in zip(r, row)])
        self.rows.append((pivot, row))
        self.rows.sort(key=lambda pr: pr[0])
        return True

    def contains(self, vec):
        return all(v.is_zero() for v in self._reduce(vec))


def elementwise_witness(a_value, degree_bound, word_length, index_window, starts=None):
    """The a != 0 search acting on whole elements, one restricted_act per
    (frontier element, generator)."""
    a_value = as_quadext(a_value)
    params = QuotientParams(a=a_value, lam=Scalar.number(LAM0), alp=Scalar.number(ALP0))
    r = RestrictedAction.ramond(params)
    report = VerificationReport("simplicity-witness", {
        "a": str(a_value), "lam0": str(as_quadext(LAM0)), "alp0": str(as_quadext(ALP0)),
        "degree": degree_bound, "words": word_length, "window": index_window,
    })
    gens = [AlgebraElement.basis(s) for s in basis_symbols("N1R", index_window)]
    max_degree = degree_bound + word_length
    dim = 2 * (max_degree + 1)
    target_monos = quotient_monomials(degree_bound)
    targets = [_as_vector(t, max_degree) for t in target_monos]
    if starts is None:
        starts = target_monos
    pooled = DenseRowSpan(dim)
    for start in starts:
        span = DenseRowSpan(dim)
        span.add(_as_vector(start, max_degree))
        frontier = [start]
        for _ in range(word_length):
            new_frontier = []
            for v in frontier:
                for sym in gens:
                    w = restricted_act(sym, v, r)
                    if w.is_zero():
                        continue
                    if span.add(_as_vector(w, max_degree)):
                        new_frontier.append(w)
            frontier = new_frontier
            if not frontier:
                break
        missed = sum(1 for t in targets if not span.contains(t))
        tag = "even" if start.parity == EVEN else "odd"
        if missed:
            report.notes.append(
                f"start {start} ({tag}): span misses {missed} of {len(targets)} monomials")
        else:
            report.notes.append(f"start {start} ({tag}): full span reached")
        for _, row in span.rows:
            pooled.add(row)
    missing = [m for m, t in zip(target_monos, targets) if not pooled.contains(t)]
    if missing:
        report.inconclusive = True
        report.notes.append(
            "pooled span misses " + ", ".join(str(m) for m in missing)
            + f" (bounds degree={degree_bound}, words={word_length} too small to conclude)")
    return report


def _facts(report):
    return (report.status, report.notes, report.params,
            [(v.context, v.got, v.expected) for v in report.violations])


def _assert_same(degree, words, window, a, starts=None):
    got = check_simplicity_witness(a, LAM0, ALP0, degree, words, index_window=window,
                                   starts=starts)
    want = elementwise_witness(a, degree, words, window, starts)
    assert _facts(got) == _facts(want), (a, degree, words, window)


@pytest.mark.parametrize("a", NONZERO_A, ids=str)
def test_coordinate_search_matches_elementwise_search(a):
    for degree, words, window in product((1, 2, 3), (0, 1, 2, 3), (1, 2)):
        _assert_same(degree, words, window, a)


STARTS = {
    "odd one": [QuotientElement.one(ODD)],
    "even top": [QuotientElement.monomial(EVEN, 3)],
    "sums": [parse_quotient_element("x^2 - 3*x + sqrt2"),
             parse_quotient_element("(1/2)*s^3 + sqrt2*s")],
}


@pytest.mark.parametrize("name", STARTS)
@pytest.mark.parametrize("a", [1, Fraction(5, 2), QuadExt(1, 1)], ids=str)
def test_coordinate_search_matches_on_custom_starts(name, a):
    for words, window in product((1, 2), (1, 2)):
        _assert_same(3, words, window, a, STARTS[name])


def test_truncation_error_is_the_same():
    # a start of degree degree + words leaves the truncation after one letter
    start = [QuotientElement.monomial(ODD, 4)]
    with pytest.raises(ValueError) as got:
        check_simplicity_witness(1, LAM0, ALP0, 2, 2, index_window=1, starts=start)
    with pytest.raises(ValueError) as want:
        elementwise_witness(1, 2, 2, 1, start)
    assert str(got.value) == str(want.value) == "degree 5 exceeds the truncation bound 4"


@pytest.mark.parametrize("a", [0, 1, QuadExt(1, 1)], ids=str)
@pytest.mark.parametrize("degree, words, window", [(1, 2, 1), (3, 3, 3), (2, 0, 2)])
def test_one_action_per_generator_parity_and_exponent(monkeypatch, a, degree, words, window):
    seen = Counter()
    good = n1.restricted_act

    def counting(x, v, r):
        (k, c), = v.terms.items()  # one monomial with coefficient 1
        assert c == 1
        seen[tuple(x.terms), v.parity, k] += 1
        return good(x, v, r)

    monkeypatch.setattr(n1, "restricted_act", counting)
    report = check_simplicity_witness(a, LAM0, ALP0, degree, words, index_window=window)
    assert report.passed
    assert max(seen.values(), default=1) == 1
    gens = len(basis_symbols("N1R", window))
    if a:
        assert sum(seen.values()) <= gens * 2 * (degree + words)
    assert bool(seen) == bool(words or not a)


def test_rowspan_matches_dense_reduction():
    rng = random.Random(7)
    values = [QuadExt(0), QuadExt(0), QuadExt(0), QuadExt(1), QuadExt(-2),
              QuadExt(Fraction(1, 3)), QuadExt(0, 1), QuadExt(Fraction(-1, 2), 3)]
    for dim in (1, 4, 9):
        sparse, dense = RowSpan(dim), DenseRowSpan(dim)
        for _ in range(3 * dim):
            vec = [rng.choice(values) for _ in range(dim)]
            probe = [rng.choice(values) for _ in range(dim)]
            assert sparse.contains(probe) == dense.contains(probe)
            assert sparse.add(vec) == dense.add(vec)
            assert sparse.rows == dense.rows
        assert sparse.rank == len(dense.rows)
        # ints and Fractions are coerced as before
        vec = [rng.choice((0, 1, -3, Fraction(2, 5))) for _ in range(dim)]
        assert sparse.add(vec) == dense.add(vec)
        assert sparse.rows == dense.rows


@pytest.mark.parametrize("a", [1, 2, Fraction(5, 2)], ids=str)
def test_starts_above_the_degree_bound_search_to_the_same_end(a):
    # a start above degree_bound may leave the truncation later in its
    # search, so it must not stop early, whatever its span holds
    for degree, words in product((1, 2), (1, 2, 3)):
        for k, parity in product(range(degree + 1, degree + words + 1), (EVEN, ODD)):
            start = [QuotientElement.monomial(parity, k)]
            try:
                got = _facts(check_simplicity_witness(a, LAM0, ALP0, degree, words,
                                                      index_window=1, starts=start))
            except ValueError as err:
                got = str(err)
            try:
                want = _facts(elementwise_witness(a, degree, words, 1, start))
            except ValueError as err:
                want = str(err)
            assert got == want, (a, degree, words, start)


@pytest.mark.parametrize("a", [1, -1, 2], ids=str)
def test_no_span_grows_after_it_holds_every_target(monkeypatch, a):
    degree, words, window = 3, 3, 3
    targets = [_as_vector(t, degree + words) for t in quotient_monomials(degree)]
    spans = []

    class CountingRowSpan(RowSpan):
        def __init__(self, dim):
            super().__init__(dim)
            self.late_adds = 0
            spans.append(self)

        def full(self):
            return all(self.contains(t) for t in targets)

        def add(self, vec):
            self.late_adds += self.full()
            return super().add(vec)

    monkeypatch.setattr(n1, "RowSpan", CountingRowSpan)
    report = check_simplicity_witness(a, LAM0, ALP0, degree, words, index_window=window)
    assert report.status == "pass"
    # the pooled span, made first, and one span per default start
    assert len(spans) == 1 + len(targets)
    assert [s.late_adds for s in spans] == [0] * len(spans)
    assert spans[0].full() and sum(s.full() for s in spans[1:]) >= 1
