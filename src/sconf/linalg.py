"""Exact linear algebra over Q(sqrt2): incremental row spaces.

Only what the span witnesses and dimension counts need; vectors are plain
lists of QuadExt.
"""

from __future__ import annotations

from .scalars import QE_ONE, as_quadext


class RowSpan:
    """An incrementally built row space over Q(sqrt2).

    Rows are kept in reduced echelon form (pivot 1, pivot column cleared), so
    both ``add`` and ``contains`` are a single reduction pass.
    """

    def __init__(self, dim):
        self.dim = dim
        self.rows = []  # (pivot_index, row) sorted by pivot

    def _reduce(self, vec):
        vec = [as_quadext(v) for v in vec]
        if len(vec) != self.dim:
            raise ValueError(f"expected vector of length {self.dim}, got {len(vec)}")
        for pivot, row in self.rows:
            c = vec[pivot]
            if c.is_zero():
                continue
            vec = [v - c * r for v, r in zip(vec, row)]
        return vec

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        vec = self._reduce(vec)
        pivot = next((k for k, v in enumerate(vec) if not v.is_zero()), None)
        if pivot is None:
            return False
        inv = vec[pivot].inverse()
        row = [v * inv for v in vec]
        row[pivot] = QE_ONE
        # clear the new pivot column in the existing rows
        for k, (p, r) in enumerate(self.rows):
            c = r[pivot]
            if not c.is_zero():
                self.rows[k] = (p, [a - c * b for a, b in zip(r, row)])
        self.rows.append((pivot, row))
        self.rows.sort(key=lambda pr: pr[0])
        return True

    def contains(self, vec):
        return all(v.is_zero() for v in self._reduce(vec))

    @property
    def rank(self):
        return len(self.rows)
