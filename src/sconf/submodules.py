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

One long division, ``_divmod_monic``, divides a dense ascending coefficient
list by a monic UniPoly over any coefficient ring.  It runs on QuadExt
coefficients everywhere: ``UniPoly.divmod_monic`` (and so ``divides`` and
the root deflation of ``quotients.find_roots``) on a UniPoly's, membership
(``contains``, ``reduce_mod``) once per power of the first variable and
parameter monomial, on that slice of the element's coefficients.  No Scalar
is built until the remainder and the quotient are returned.
"""

from __future__ import annotations

from itertools import product

from .algebras import _check_images, basis_symbols
from .freemod import EVEN, ODD, ModuleElement, act, binomial_shift, monomials
from .reports import VerificationReport
from .scalars import QE_ONE, QE_ZERO, Scalar, as_quadext, join_signed, monomial_text
from .values import Value


class UniPoly:
    """A univariate polynomial with QuadExt coefficients (ascending order)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_quadext(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self):
        return UniPoly, (self.coeffs,)

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
        """The composition p(y + c)."""
        c = as_quadext(c)
        n = self.degree
        if n < 0 or c.is_zero():
            return self
        out = [QE_ZERO] * (n + 1)
        for k, ck in enumerate(self.coeffs):
            if ck:
                for l, b in binomial_shift(k, c):
                    out[l] = out[l] + ck * b
        return UniPoly(tuple(out))

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
        quo, rem = _divmod_monic(list(self.coeffs), d)
        return UniPoly(quo), UniPoly(rem)

    def divides(self, other):
        _, rem = other.divmod_monic(self.monic())
        return rem.is_zero()

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def render(self, var="y"):
        return join_signed(
            part
            for k in range(self.degree, -1, -1)
            for part in self.coeffs[k].signed_terms(after=monomial_text((var,), (k,)))
        )

    __str__ = render

    def __repr__(self):
        return f"<UniPoly {self.render()}>"


class SubmoduleSpec(Value):
    """A submodule of the rank-2 module: kind tag plus monic h(y)."""

    __slots__ = ("kind", "h", "odd_divisor")
    _fields = ("kind", "h")

    def __init__(self, kind, h):
        if kind not in ("M", "N"):
            raise ValueError("kind must be 'M' or 'N'")
        if h.is_zero():
            raise ValueError("h must be nonzero")
        if not h.is_monic():
            h = h.monic()
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "h", h)
        # the odd divisor h(t+1), read by every membership test on the odd part
        object.__setattr__(self, "odd_divisor", h.shifted(1))

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


def _check_param_free(v):
    if any(c.involves("a", "b") for c in v.terms.values()):
        raise ValueError("membership is defined for elements free of the parameters a, b")


def _divmod_monic(rem, d):
    """Long division of an ascending coefficient list by the monic UniPoly d.

    Works over any coefficient ring (QuadExt, Scalar) because d is monic.
    ``rem`` is reduced in place; returns the quotient's and the remainder's
    coefficient lists, both ascending.
    """
    dd = d.degree
    minus_d = [(l, -b) for l, b in enumerate(d.coeffs[:dd]) if b]
    quo = [None] * (len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        c = quo[k - dd] = rem[k]
        if c:
            # subtract c * y^(k-dd) * d below the leading term, which cancels
            for l, b in minus_d:
                rem[k - dd + l] = rem[k - dd + l] + c * b
    return quo, rem[:dd]


def _divide_in_second_var(terms, divisor):
    """Exact long division of a bivariate polynomial by monic h(second var).

    Returns (remainder, quotient) as zero-free exponent->Scalar maps: one
    ``_divmod_monic`` on the dense QuadExt coefficient list of each power of
    the first variable and parameter monomial, each Scalar of the results
    built once.
    """
    rows = {}
    for (i, j), c in terms.items():
        for ev, x in c.terms.items():
            rows.setdefault((i, ev), {})[j] = x
    rem, quo = {}, {}
    for (i, ev), row in rows.items():
        q, r = _divmod_monic([row.get(j, QE_ZERO) for j in range(max(row) + 1)], divisor)
        for out, coeffs in ((quo, q), (rem, r)):
            for j, x in enumerate(coeffs):
                if x:
                    out.setdefault((i, j), {})[ev] = x
    return {k: Scalar(t) for k, t in rem.items()}, {k: Scalar(t) for k, t in quo.items()}


def contains(spec, v):
    """Exact membership of a module element in the submodule.

    The element must not involve the formal parameters a, b (membership is a
    question about the h-ideal, not a parametric one).
    """
    if v.is_zero():
        return True
    _check_param_free(v)
    if v.parity == EVEN:
        rem, quo = _divide_in_second_var(v.terms, spec.h)
        if rem:
            return False
        if spec.kind == "N":
            return (0, 0) not in quo
        return True
    rem, _ = _divide_in_second_var(v.terms, spec.odd_divisor)
    return not rem


def reduce_mod(spec, v):
    """Canonical representative of v modulo the M-kind submodule of spec.h."""
    divisor = spec.h if v.parity == EVEN else spec.odd_divisor
    rem, _ = _divide_in_second_var(v.terms, divisor)
    return ModuleElement(v.parity, rem)


def check_closure(spec, index_window, degree_bound):
    """Every generator maps every spanning element back into the submodule."""
    report = VerificationReport(
        "submodule-closure",
        {"spec": spec.render(), "window": index_window, "degree": degree_bound},
    )
    return _check_images(
        report, basis_symbols("R", index_window), spec.spanning_elements(degree_bound), act,
        lambda sym, v: "member", f"closure {spec} under ", lambda out, _: contains(spec, out),
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
