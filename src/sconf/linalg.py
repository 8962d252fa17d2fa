"""Exact linear algebra over Q(sqrt2): incremental row spaces.

Nothing in the package calls ``RowSpan`` since the simplicity witness became
a certificate; the benchmark's traced replay (``perfbench/sweeps.py``) still
imports it.  Vectors are plain lists of QuadExt.  Reduced rows are mostly
zero, so reduction skips the arithmetic wherever a row entry is zero; the
results are the same.
"""

from __future__ import annotations

from .scalars import QE_ONE, QuadExt, as_quadext


class RowSpan:
    """An incrementally built row space over Q(sqrt2).

    Rows are kept in reduced echelon form (pivot 1, pivot column cleared), so
    both ``add`` and ``contains`` are a single reduction pass.
    """

    def __init__(self, dim):
        self.dim = dim
        self.rows = []  # (pivot_index, row) sorted by pivot

    def _reduce(self, vec):
        vec = [v if type(v) is QuadExt else as_quadext(v) for v in vec]
        if len(vec) != self.dim:
            raise ValueError(f"expected vector of length {self.dim}, got {len(vec)}")
        for pivot, row in self.rows:
            c = vec[pivot]
            if c:
                vec = [v - c * r if r else v for v, r in zip(vec, row)]
        return vec

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        vec = self._reduce(vec)
        pivot = next((k for k, v in enumerate(vec) if v), None)
        if pivot is None:
            return False
        inv = vec[pivot].inverse()
        row = [v * inv if v else v for v in vec]
        row[pivot] = QE_ONE
        # clear the new pivot column in the existing rows
        for k, (p, r) in enumerate(self.rows):
            c = r[pivot]
            if c:
                self.rows[k] = (p, [a - c * b if b else a for a, b in zip(r, row)])
        self.rows.append((pivot, row))
        self.rows.sort(key=lambda pr: pr[0])
        return True

    def contains(self, vec):
        return not any(self._reduce(vec))

    @property
    def rank(self):
        return len(self.rows)
