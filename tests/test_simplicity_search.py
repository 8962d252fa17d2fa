"""The simplicity certificate against the element-wise span search.

At a != 0 ``n1.check_simplicity_witness`` decides simplicity by a Virasoro
difference certificate, every identity checked exactly.  The oracle below is
the bounded search the certificate replaced: it acts with ``restricted_act``
on every whole frontier element and reduces dense rows, every entry of every
row.  Where the certificate passes, the search from each monomial must reach
the full span once it is given enough words.  A wrong row of the action must
make the certificate fail; the search could only have found it inconclusive.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
import random

import pytest

from sconf import freemod, linalg, n1
from sconf.algebras import AlgebraElement, BasisSymbol, basis_symbols
from sconf.freemod import EVEN, ODD
from sconf.linalg import RowSpan
from sconf.n1 import RestrictedAction, check_simplicity_witness, restricted_act
from sconf.parsing import parse_quotient_element
from sconf.quotients import QuotientElement, QuotientParams, quotient_monomials
from sconf.reports import VerificationReport
from sconf.scalars import QE_ONE, QE_ZERO, QuadExt, Scalar, as_quadext

LAM0, ALP0 = Fraction(3, 2), 2
NONZERO_A = [1, -1, 2, Fraction(5, 2), QuadExt(1, 1)]
BOUNDS = [(1, 1), (2, 1), (3, 2)]  # (degree, window)


def _as_vector(v, max_degree):
    """Coordinates of a numeric quotient element in the truncated basis (even
    monomials first, then odd)."""
    out = [QE_ZERO] * (2 * (max_degree + 1))
    for k, c in v.terms.items():
        if k > max_degree:
            raise ValueError(f"degree {k} exceeds the truncation bound {max_degree}")
        out[k + (max_degree + 1 if v.parity == ODD else 0)] = c.constant()
    return out


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


def _certificate(a, degree, window):
    return check_simplicity_witness(a, LAM0, ALP0, degree, None, index_window=window)


@pytest.mark.parametrize("a", NONZERO_A, ids=str)
def test_certificate_passes_where_the_search_reaches_the_full_span(a):
    for degree, window in BOUNDS:
        report = _certificate(a, degree, window)
        assert report.status == "pass" and not report.violations, report.render_text()
        assert report.notes[-1].endswith("so the restriction is simple")
        # degree + 1 words take the search from every monomial to every monomial
        search = elementwise_witness(a, degree, degree + 1, window)
        assert search.status == "pass"
        starts = [note for note in search.notes if note.startswith("start ")]
        assert len(starts) == 2 * (degree + 1)
        assert all(note.endswith("full span reached") for note in starts), search.notes


STARTS = {
    "odd one": [QuotientElement.one(ODD)],
    "even top": [QuotientElement.monomial(EVEN, 3)],
    "sums": [parse_quotient_element("x^2 - 3*x + sqrt2"),
             parse_quotient_element("(1/2)*s^3 + sqrt2*s")],
}


@pytest.mark.parametrize("name", STARTS)
@pytest.mark.parametrize("a", [1, Fraction(5, 2), QuadExt(1, 1)], ids=str)
def test_search_from_custom_starts_reaches_the_full_span(name, a):
    # the certificate speaks of every nonzero vector, not only of monomials
    for window in (1, 2):
        assert _certificate(a, 3, window).passed
        search = elementwise_witness(a, 3, 3, window, STARTS[name])
        assert [note.rsplit(": ", 1)[1] for note in search.notes] == (
            ["full span reached"] * len(STARTS[name])), search.notes


@pytest.mark.parametrize("a", [1, 2, Fraction(5, 2)], ids=str)
def test_starts_above_the_degree_bound_search_to_the_same_end(a):
    # the certificate at degree_bound says nothing of a start above it; the
    # certificate at the start's own degree covers it, and the search from
    # that start must end where that certificate says, at the full span
    for degree, words in product((1, 2), (1, 2, 3)):
        assert _certificate(a, degree, 1).passed
        for k, parity in product(range(degree + 1, degree + words + 1), (EVEN, ODD)):
            start = [QuotientElement.monomial(parity, k)]
            assert _certificate(a, k, 1).passed
            search = elementwise_witness(a, k, words + 1, 1, start)
            assert search.status == "pass", (a, degree, words, start)
            assert search.notes[0].endswith("full span reached"), search.notes


@pytest.mark.parametrize("a", [1, -1, 2], ids=str)
def test_no_span_grows_after_it_holds_every_target(monkeypatch, a):
    # the certificate proves the full span from every start without building
    # a row space: no RowSpan is made or grown, so none grows past its targets
    grown = []
    add = linalg.RowSpan.add
    init = linalg.RowSpan.__init__

    def counting_init(self, dim):
        grown.append(("new", dim))
        init(self, dim)

    def counting_add(self, vec):
        grown.append(("add", len(vec)))
        return add(self, vec)

    monkeypatch.setattr(linalg.RowSpan, "__init__", counting_init)
    monkeypatch.setattr(linalg.RowSpan, "add", counting_add)
    report = check_simplicity_witness(a, LAM0, ALP0, 3, 3, index_window=3)
    assert report.status == "pass" and not report.violations
    assert grown == []
    # the patch is live: a RowSpan made and grown here is counted
    RowSpan(2).add([QE_ONE, QE_ZERO])
    assert grown == [("new", 2), ("add", 2)]


# one number of an L row of freemod._ACTION, each changed as (row, old entry, new entry)
L_ROW_MUTANTS = {
    "even y term": (("L", EVEN), (0, 1, 0, 1), (0, 1, 0, 2)),
    "odd shift": (("L", ODD), (0, 0, 0, 2), (0, 0, 0, 3)),
}


@pytest.mark.parametrize("mutant", L_ROW_MUTANTS)
@pytest.mark.parametrize("a", NONZERO_A, ids=str)
def test_a_wrong_l_row_fails_the_certificate(monkeypatch, a, mutant):
    key, old, new = L_ROW_MUTANTS[mutant]
    parity, dy, number, power, rows = freemod._ACTION[key]
    assert old in rows
    rows = tuple(new if row == old else row for row in rows)
    monkeypatch.setitem(freemod._ACTION, key, (parity, dy, number, power, rows))
    report = _certificate(a, 1, 1)
    assert report.status == "fail" and report.violations
    # L_0 is untouched, since both entries are multiples of the mode: only a
    # difference over several modes sees the change
    assert {v.context.split()[0] for v in report.violations} <= {"X_0", "X_1", "X_2", "T1"}
    assert report.notes[-1].endswith("so the certificate fails")


@pytest.mark.parametrize("a", NONZERO_A, ids=str)
def test_degree_3_at_window_1_names_the_modes_outside_the_window(a):
    report = _certificate(a, 3, 1)
    assert report.status == "pass", report.render_text()
    # X_d needs d + 2 modes, and window 1 holds three: X_2 adds -2, X_3 adds
    # 2, and X_4, which a = 1 needs for its G0 detour, adds -3
    modes = "-2, 2, -3" if a == 1 else "-2, 2"
    top = 4 if a == 1 else 3
    assert f"modes {modes} outside the window |m| <= 1 serve X_2 to X_{top}" in report.notes


@pytest.mark.parametrize("a", [0, 1, QuadExt(1, 1)], ids=str)
@pytest.mark.parametrize("degree, words, window", [(1, 2, 1), (3, 3, 3), (2, 0, 2)])
def test_one_action_per_generator_parity_and_exponent(monkeypatch, a, degree, words, window):
    seen, batches = Counter(), Counter()
    good = n1.restricted_rows

    def counting(x, vs, r):
        assert isinstance(x, BasisSymbol)  # one generator
        batches[x] += 1
        for parity, slices in vs:
            (k, _), = slices.items()  # on one monomial with coefficient 1
            unit = QuotientElement.monomial(parity, k)
            assert QuotientElement.from_rows((parity, slices)) == unit
            seen[x, parity, k] += 1
        return good(x, vs, r)

    # the rows seam, which the certificate and the a = 0 closure both read
    monkeypatch.setattr(n1, "restricted_rows", counting)
    report = check_simplicity_witness(a, LAM0, ALP0, degree, words, index_window=window)
    assert report.passed
    assert seen and max(seen.values()) == 1
    assert max(batches.values()) == 1  # each generator acts on all its monomials at once
    # nothing reads the word length
    monkeypatch.setattr(n1, "restricted_rows", good)
    assert report == _certificate(a, degree, window)


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
