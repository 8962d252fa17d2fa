"""The complete submodule lattice of the rank-2 module.

Every submodule is cut out by a monic polynomial h(y) with coefficients in
Q(sqrt2) and a two-way kind tag:

    M-kind:  h(y) C[x,y]                    (even)  +  h(t+1) C[s,t]  (odd)
    N-kind:  h(y) (x C[x,y] + y C[x,y])     (even)  +  h(t+1) C[s,t]  (odd)

Membership reduces to exact division by a monic polynomial in the second
variable (with an extra no-constant-term condition on the quotient for the
N kind), so it is decidable term by term.  Coefficients of h are restricted
to Q(sqrt2) -- formal parameters inside h would make divisibility
undecidable, and the action formulas never need them.

One long division, ``_divmod_monic``, divides in machine ints, by the
integer form of a monic divisor that ``_int_divisor`` computes (a spec
computes those of h(y) and h(t+1) when it is built).  Membership,
``contains_rows``, reads an element's slices, the action's currency, into
rows of [p, q, d] ints, one per power of the first variable and parameter
monomial (``_rows``), divides each, and the first nonzero remainder (or,
for the N kind, quotient constant term) decides; ``_remainders`` returns
the remainders as slices, which ``quotients.project_rows`` reads.  So the
closure sweep builds no element on a passing case, and ``contains`` reads
an element through its rows (``to_rows``).
"""

from __future__ import annotations

from itertools import product
from math import lcm

from . import freemod
from .algebras import _check_images, _checked, basis_symbols
from .freemod import EVEN, ODD, ModuleElement, monomials
from .reports import VerificationReport
from .scalars import (
    PARAMS, QE_ONE, QE_ZERO, Scalar, _qe, as_quadext, join_signed, monomial_text,
)
from .values import Value

_A, _B = PARAMS.index("a"), PARAMS.index("b")


class UniPoly(Value):
    """A univariate polynomial with QuadExt coefficients (ascending order)."""

    __slots__ = ("coeffs",)
    _fields = __slots__

    def __init__(self, coeffs=()):
        cs = [as_quadext(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        _set_coeffs(self, tuple(cs))

    @classmethod
    def const(cls, v):
        return cls((v,))

    @classmethod
    def from_roots(cls, roots):
        out = cls.const(1)
        for r in roots:
            out = out * cls((-as_quadext(r), 1))
        return out

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1] if self.coeffs else QE_ZERO

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == QE_ONE

    def monic(self):
        if self.is_zero():
            raise ValueError("the zero polynomial cannot be made monic")
        if self.is_monic():
            return self
        inv = self.leading().inverse()
        return UniPoly(tuple(c * inv for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.const(as_quadext(other))
        out = [QE_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(tuple(out))

    __rmul__ = __mul__

    def shifted(self, c):
        """The composition p(y + c): its coefficients are the remainders of
        repeated division by y - c, since p(y) = sum b_k (y - c)^k, each
        division taken in ints on the quotient the one before left."""
        c = as_quadext(c)
        n = self.degree
        if n < 1 or not c:
            return self
        divisor = _, E, _ = _linear(c)
        P, Q, D = _scaled(_coeff_row(self.coeffs), E)
        for lo in range(n):
            _divmod_monic(P, Q, divisor, lo)
        return UniPoly(_unscaled(P, Q, D, E, 0, n + 1))

    def __call__(self, v):
        v = as_quadext(v)
        acc = QE_ZERO
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def divmod_monic(self, d):
        """Quotient and remainder by a monic divisor."""
        if not d.is_monic():
            raise ValueError("divisor must be monic")
        if not self.coeffs:
            return self, self
        divisor = n, E, _ = _int_divisor(d)
        P, Q, D = _scaled(_coeff_row(self.coeffs), E)
        _divmod_monic(P, Q, divisor)
        top = len(P)
        return (UniPoly(_unscaled(P, Q, D, E, n, top)),
                UniPoly(_unscaled(P, Q, D, E, 0, min(n, top))))

    def divides(self, other):
        """Whether self divides other: the remainder is read in ints (as in
        ``_deflated``) and no quotient is built."""
        divisor = n, E, _ = _int_divisor(self.monic())
        if not other.coeffs:
            return True
        P, Q, _ = _scaled(_coeff_row(other.coeffs), E)
        _divmod_monic(P, Q, divisor)
        return not any(P[:n]) and not any(Q[:n])

    def render(self, var="y"):
        return join_signed(
            part
            for k in range(self.degree, -1, -1)
            for part in self.coeffs[k].signed_terms(after=monomial_text((var,), (k,)))
        )

    __str__ = render

    def __repr__(self):
        return f"<UniPoly {self.render()}>"


_set_coeffs = UniPoly.coeffs.__set__


class SubmoduleSpec(Value):
    """A submodule of the rank-2 module: kind tag plus monic h(y)."""

    __slots__ = ("kind", "h", "odd_divisor", "_int_divisors")
    _fields = ("kind", "h")

    def __init__(self, kind, h):
        if kind not in ("M", "N"):
            raise ValueError("kind must be 'M' or 'N'")
        if h.is_zero():
            raise ValueError("h must be nonzero")
        if not h.is_monic():
            h = h.monic()
        super().__init__(kind, h)
        # the odd divisor h(t+1), read by every membership test on the odd part
        object.__setattr__(self, "odd_divisor", h.shifted(1))
        # ``_int_divisor`` of h (even) and of h(t+1) (odd), by parity
        object.__setattr__(self, "_int_divisors",
                           (_int_divisor(h), _int_divisor(self.odd_divisor)))

    def render(self):
        return f"{self.kind}[h={self.h.render()}]"

    __str__ = render

    def generators(self):
        """Module generators: enough to decide containment in any other spec."""
        gens = []
        h_even = _poly_in_second_var(self.h, EVEN)
        if self.kind == "M":
            gens.append(h_even)
        else:
            gens.append(h_even.times_poly({(1, 0): Scalar.number(1)}))
            gens.append(h_even.times_poly({(0, 1): Scalar.number(1)}))
        gens.append(_poly_in_second_var(self.odd_divisor, ODD))
        return gens

    def spanning_elements(self, degree_bound):
        """Generators times all monomials up to the degree bound."""
        monos = monomials(degree_bound, (EVEN,))
        return [g.times_poly(m.terms) for g in self.generators() for m in monos]


def _poly_in_second_var(p, parity):
    """Lift h to a module element h(y) (even) or h(t) (odd)."""
    return ModuleElement(
        parity, {(0, k): Scalar.number(c) for k, c in enumerate(p.coeffs) if not c.is_zero()}
    )


def _int_divisor(d):
    """The monic UniPoly d of degree n as d(y) = g(E y) / E^n, E the lcm of
    its denominators, so that g is monic over Z[sqrt2]: (n, E, -g below its
    leading term as (l, p, q) triples, p + q sqrt2 the coefficient of z^l)."""
    n, E = d.degree, lcm(*[c.d for c in d.coeffs])
    minus_g = []
    for l, c in enumerate(d.coeffs[:n]):
        if c:
            s = E // c.d * E ** (n - 1 - l)
            minus_g.append((l, -c.p * s, -c.q * s))
    return n, E, tuple(minus_g)


def _linear(r):
    """``_int_divisor`` of y - r, for the QuadExt r: E = r.d and g = z - E r."""
    return 1, r.d, ((0, r.p, r.q),)


def _coeff_row(coeffs):
    """QuadExt coefficients as a row {j: [p, q, d]}."""
    return {j: [c.p, c.q, c.d] for j, c in enumerate(coeffs)}


def _scaled(row, E):
    """A row {j: [p, q, d]} of f = sum (p + q sqrt2)/d y^j, top its highest
    j, as the ints of D E^top f(z/E), D the lcm of the row's denominators:
    ascending lists P, Q of the parts, and D.  Entry j stands for
    (P[j] + Q[j] sqrt2) / (D E^(top - j))."""
    top = max(row)
    D = lcm(*[d for _, _, d in row.values()])
    P, Q = [0] * (top + 1), [0] * (top + 1)
    for j, (p, q, d) in row.items():
        s = D // d * E ** (top - j)
        P[j] = p * s
        Q[j] = q * s
    return P, Q, D


def _divmod_monic(P, Q, divisor, lo=0):
    """Long division, in place and in ints, of the polynomial on entries
    lo.. of the lists P, Q (``_scaled``) by the monic g of ``divisor``
    (``_int_divisor``), of degree n.  Afterwards the entries from lo below
    lo + n hold the remainder and those from lo + n up the quotient, shifted
    up by n; each still stands for its ints over D E^(top - j)."""
    n, _, minus_g = divisor
    for k in range(len(P) - 1, lo + n - 1, -1):
        cp, cq = P[k], Q[k]
        if cp or cq:
            # add c * z^(k-n) * (-g) below the leading term, which cancels
            k -= n
            for l, gp, gq in minus_g:
                P[k + l] += cp * gp + 2 * cq * gq
                Q[k + l] += cp * gq + cq * gp


def _unscaled(P, Q, D, E, lo, hi):
    """The QuadExts that entries lo..hi-1 of a division stand for."""
    top = len(P) - 1
    return [_qe(P[j], Q[j], D * E ** (top - j)) for j in range(lo, hi)]


def _deflated(p, r):
    """p / (y - r) when r is a root of the UniPoly p, else None: the remainder
    is read in ints before the quotient is built."""
    divisor = _, E, _ = _linear(r)
    P, Q, D = _scaled(_coeff_row(p.coeffs), E)
    _divmod_monic(P, Q, divisor)
    if P[0] or Q[0]:
        return None
    return UniPoly(_unscaled(P, Q, D, E, 1, len(P)))


def _rows(slices):
    """The slices ``{(i, j): {ev: [p, q, d]}}`` of a module element as rows:
    (power of the first variable, parameter monomial) -> {power of the
    second variable: [p, q, d]}, a value whose ints are 0 left out."""
    rows = {}
    for (i, j), slot in slices.items():
        for ev, x in slot.items():
            if x[0] or x[1]:
                rows.setdefault((i, ev), {})[j] = x
    return rows


def contains_rows(spec, rows):
    """Exact membership in the submodule of the element that rows, (parity,
    slices), stand for, row by row (``_rows``), in ints.

    The element must not involve the formal parameters a, b (membership is a
    question about the h-ideal, not a parametric one).
    """
    parity, slices = rows
    by_row = _rows(slices)
    if any(ev[_A] or ev[_B] for _, ev in by_row):
        raise ValueError("membership is defined for elements free of the parameters a, b")
    divisor = n, E, _ = spec._int_divisors[parity]
    constant = parity == EVEN and spec.kind == "N"  # the quotient may have no constant term
    for (i, _), row in by_row.items():
        P, Q, _ = _scaled(row, E)
        _divmod_monic(P, Q, divisor)
        if any(P[:n]) or any(Q[:n]):
            return False
        if constant and not i and len(P) > n and (P[n] or Q[n]):
            return False
    return True


def contains(spec, v):
    """Exact membership of a module element in the submodule
    (``contains_rows``)."""
    return contains_rows(spec, v.to_rows())


def _remainders(divisor, slices):
    """The remainders of the slices of a module element by the
    ``_int_divisor`` ``divisor`` in its second variable, one division in
    ints per row (``_rows``), as slices ``{(i, j): {ev: [p, q, d]}}``, j
    below the divisor's degree, each value over its row's denominator and
    none of them 0."""
    n, E, _ = divisor
    rem = {}
    for (i, ev), row in _rows(slices).items():
        P, Q, D = _scaled(row, E)
        _divmod_monic(P, Q, divisor)
        top = len(P) - 1
        for j in range(min(n, top + 1)):
            if P[j] or Q[j]:
                rem.setdefault((i, j), {})[ev] = [P[j], Q[j], D * E ** (top - j)]
    return rem


def check_closure(spec, index_window, degree_bound):
    """Every generator maps every spanning element back into the submodule:
    the rows of each image (``freemod.basis_rows``) are divided in ints
    (``contains_rows``), and only a failing case builds its image."""
    report = VerificationReport(
        "submodule-closure",
        {"spec": spec.render(), "window": index_window, "degree": degree_bound},
    )
    return _check_images(
        report, basis_symbols("R", index_window), spec.spanning_elements(degree_bound),
        lambda sym, vs: _checked(freemod.basis_rows(sym, vs), sym, vs),
        lambda sym, vs: ["member"] * len(vs), f"closure {spec} under ", ModuleElement,
        same=lambda out, _: contains_rows(spec, out),
    )


def check_containment(inner, outer):
    """Whether the inner submodule sits inside the outer one."""
    return all(contains(outer, g) for g in inner.generators())


def check_lattice_order(specs):
    """Containment facts across a battery of specs.

    For every spec: the N-kind sits inside the M-kind with the same h; and
    M_g contains M_h whenever g divides h.
    """
    report = VerificationReport("submodule-lattice", {"specs": [str(s) for s in specs]})
    by_h = {}
    for spec in specs:
        by_h.setdefault(spec.h, {})[spec.kind] = spec
    for h, kinds in by_h.items():
        if "M" in kinds and "N" in kinds:
            if not check_containment(kinds["N"], kinds["M"]):
                report.record(f"N<=M for h={h.render()}", "not contained", "contained")
    ms = [s for s in specs if s.kind == "M"]
    for s1, s2 in product(ms, repeat=2):
        if s2.h.divides(s1.h):
            if not check_containment(s1, s2):
                report.record(
                    f"M[{s1.h.render()}] <= M[{s2.h.render()}]",
                    "not contained",
                    "contained",
                )
    return report
