"""Exact coefficient arithmetic: rationals, the field Q(sqrt2), and sparse
Laurent polynomials in the formal module parameters.

The coefficient tower used everywhere in this package is

    Fraction  <  QuadExt  <  Scalar

* ``Fraction`` -- stdlib exact rationals (gcd-reduced, positive denominator).
* ``QuadExt``  -- numbers ``p + q*sqrt(2)`` with rational p, q.  This is a
  field (sqrt(2) is irrational, so the norm ``p^2 - 2 q^2`` vanishes only at
  zero).  sqrt(2) is forced on us by the embeddings of the N=1 algebras.
* ``Scalar``   -- sparse polynomials over QuadExt in the six formal parameters
  ``lam, alp, mu, bet, a, b``.  The first four are Laurent parameters (they
  stand for nonzero complex numbers, so negative powers are legal); ``a`` and
  ``b`` stand for arbitrary complex numbers and only carry exponents >= 0.

A nonzero Scalar is a nonzero function of generic parameter values, so "is
zero in the formal ring" is the right reading of every "equals zero" check in
the verification sweeps.

All three types are immutable after construction and safe to share between
threads.

Both parts of a QuadExt are always ``Fraction`` instances.  The public
``QuadExt(rat, root2)`` takes ints or Fractions (anything else is a
TypeError); arithmetic results come from the one trusted constructor ``_qe``,
which stores the Fractions it is given without re-wrapping them.  Almost
every coefficient the sweeps meet is rational, so the kernel passes a zero
sqrt2 part through untouched: ``+``, ``-`` and unary ``-`` skip its sum or
negation, and ``*`` takes one Fraction product when both operands are
rational, two when exactly one is, and the four-product formula only when
both carry sqrt2.  An int or Fraction operand scales both parts directly.
``Scalar * s`` returns the Scalar itself when ``s`` is one (the int 1, a
QuadExt or Fraction equal to 1, or ``SC_ONE``, which ``Scalar.number(1)``
returns), and scales each coefficient when ``s`` is an int, Fraction or
QuadExt.

Every sparse polynomial in the package (Scalar terms, module and quotient
elements, algebra elements, the parser's accumulators) is a dict from a
hashable key to a nonzero coefficient, and all of them are summed by one
kernel, ``add_terms(out, pairs)``: it adds each ``(key, coeff)`` pair into the
dict ``out`` in place and returns it.  A coefficient that is zero, or a sum
that cancels to zero, leaves no entry, so ``out`` stays free of zeros.  The
coefficients only need ``+`` and truth-testing (falsy exactly when zero);
QuadExt, Scalar and Fraction all qualify.  ``join_signed`` is the one
renderer of signed sums: every ``a - b + c`` text in the package comes out of
it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import NotAUnit

PARAMS = ("lam", "alp", "mu", "bet", "a", "b")
LAURENT_PARAMS = frozenset(("lam", "alp", "mu", "bet"))
_PARAM_INDEX = {name: k for k, name in enumerate(PARAMS)}
_NPARAMS = len(PARAMS)
_ZERO_EXP = (0,) * _NPARAMS


def add_terms(out, pairs):
    """Add the ``(key, coeff)`` pairs into the dict ``out``, dropping zeros."""
    for key, c in pairs:
        s = out.get(key)
        if s is None:
            if c:
                out[key] = c
        else:
            s = s + c
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _power(base, n, one):
    """``base**n`` for an int ``n >= 0`` by repeated squaring."""
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def join_signed(parts):
    """Join ``(sign, body)`` pairs into ``a - b + c``; ``0`` when empty."""
    text = "".join((" - " if sign < 0 else " + ") + body for sign, body in parts)
    if not text:
        return "0"
    return ("-" if text[1] == "-" else "") + text[3:]


def monomial_text(names, exps):
    """``x^2*y`` from names and exponents; the empty string for exponent 0."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def render_combination(pairs):
    """Render ``sum coeff*mono`` from ``(mono, Scalar)`` pairs.

    A coefficient that renders as one signed piece merges into its monomial
    (``-2*x``, ``x``); a longer one is parenthesized (``(lam + alp)*x``).
    """
    parts = []
    for mono, coeff in pairs:
        pieces = coeff.render_terms()
        if len(pieces) == 1:
            sign, body = pieces[0]
            if mono:
                body = mono if body == "1" else f"{body}*{mono}"
        else:
            sign, body = 1, f"({join_signed(pieces)})"
            if mono:
                body = f"{body}*{mono}"
        parts.append((sign, body))
    return join_signed(parts)


class QuadExt:
    """An element ``rat + root2*sqrt(2)`` of the field Q(sqrt2); both parts
    are Fractions (see the module docstring for the arithmetic's paths)."""

    __slots__ = ("rat", "root2")

    def __init__(self, rat=0, root2=0):
        for part in (rat, root2):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"QuadExt parts must be int or Fraction, not {part!r}")
        object.__setattr__(self, "rat", Fraction(rat))
        object.__setattr__(self, "root2", Fraction(root2))

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.rat and not self.root2

    def __bool__(self):
        return bool(self.rat or self.root2)

    # -- field structure ----------------------------------------------------

    def __add__(self, other):
        other = _as_quadext(other)
        if other is None:
            return NotImplemented
        q = other.root2
        return _qe(self.rat + other.rat, self.root2 + q if q else self.root2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_quadext(other)
        if other is None:
            return NotImplemented
        q = other.root2
        return _qe(self.rat - other.rat, self.root2 - q if q else self.root2)

    def __rsub__(self, other):
        other = _as_quadext(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        q = self.root2
        return _qe(-self.rat, -q if q else q)

    def __mul__(self, other):
        p, q = self.rat, self.root2
        if isinstance(other, QuadExt):
            u, v = other.rat, other.root2
            if not v:
                return _qe(p * u, q * u if q else q)
            if not q:
                return _qe(p * u, p * v)
            # (p + q*sqrt2)(u + v*sqrt2) = (pu + 2qv) + (pv + qu)*sqrt2
            return _qe(p * u + 2 * q * v, p * v + q * u)
        if isinstance(other, (int, Fraction)):
            return _qe(p * other, q * other if q else q)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self):
        return _qe(self.rat, -self.root2)

    def norm(self):
        """Field norm ``p^2 - 2 q^2``; multiplicative, zero only at zero."""
        return self.rat * self.rat - 2 * self.root2 * self.root2

    def inverse(self):
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        return _qe(self.rat / n, -self.root2 / n)

    def __truediv__(self, other):
        other = _as_quadext(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_quadext(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return _power(self if n >= 0 else self.inverse(), abs(n), QE_ONE)

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        other = _as_quadext(other)
        if other is None:
            return NotImplemented
        return self.rat == other.rat and self.root2 == other.root2

    def __hash__(self):
        if not self.root2:
            return hash(self.rat)
        return hash((self.rat, self.root2))

    def __repr__(self):
        return f"QuadExt({self.rat!r}, {self.root2!r})"

    def signed_terms(self, before="", after=""):
        """``(sign, body)`` pairs rendering ``self * before * after``.

        The rational part comes first, then the sqrt2 part, so every body
        carries one rational magnitude (left out when it is 1 and other
        factors remain) and at most one ``sqrt2`` factor.
        """
        out = []
        for c, root in ((self.rat, ""), (self.root2, "sqrt2")):
            if c:
                factors = [f for f in (before, root, after) if f]
                mag = abs(c)
                if mag != 1 or not factors:
                    factors.insert(0, str(mag))
                out.append((1 if c > 0 else -1, "*".join(factors)))
        return out

    def __str__(self):
        return join_signed(self.signed_terms())


_F0 = Fraction(0)
_new_quadext = object.__new__
_set_rat = QuadExt.rat.__set__
_set_root2 = QuadExt.root2.__set__


def _qe(rat, root2):
    """The trusted constructor: ``rat`` and ``root2`` must be Fractions."""
    q = _new_quadext(QuadExt)
    _set_rat(q, rat)
    _set_root2(q, root2)
    return q


def _as_quadext(v):
    if isinstance(v, QuadExt):
        return v
    if isinstance(v, (int, Fraction)):
        return _qe(Fraction(v), _F0)
    return None


QE_ZERO = QuadExt(0)
QE_ONE = QuadExt(1)
SQRT2 = QuadExt(0, 1)
INV_SQRT2 = QuadExt(0, Fraction(1, 2))


class Scalar:
    """Sparse Laurent polynomial over Q(sqrt2) in the six formal parameters.

    Terms map an exponent vector (one integer slot per entry of ``PARAMS``)
    to a nonzero QuadExt coefficient.  ``lam, alp, mu, bet`` may carry
    negative exponents; ``a, b`` may not.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms is trusted to be normalized (no zero coefficients, valid
        # exponents); use the classmethod constructors from outside.
        object.__setattr__(self, "terms", terms or {})

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def number(cls, v):
        """Constant scalar from an int, Fraction, or QuadExt."""
        q = _as_quadext(v)
        if q is None:
            raise TypeError(f"cannot build a Scalar from {v!r}")
        if q.is_zero():
            return SC_ZERO
        if q == QE_ONE:
            return SC_ONE
        return cls({_ZERO_EXP: q})

    @classmethod
    def param(cls, name, exp=1):
        """The monomial ``name**exp``; negative exp only for Laurent names."""
        return cls.monomial(QE_ONE, {name: exp})

    @classmethod
    def monomial(cls, coeff, exps=None, **named):
        """Single term ``coeff * prod(name**exp)``."""
        q = _as_quadext(coeff)
        if q is None or q.is_zero():
            return SC_ZERO
        merged = dict(exps or {})
        merged.update(named)
        ev = [0] * _NPARAMS
        for name, exp in merged.items():
            if name not in _PARAM_INDEX:
                raise ValueError(f"unknown parameter {name!r}")
            if exp < 0 and name not in LAURENT_PARAMS:
                raise ValueError(f"parameter {name!r} is not invertible")
            ev[_PARAM_INDEX[name]] += exp
        return cls({tuple(ev): q})

    # -- predicates -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def involves(self, *names):
        """Whether some term carries a nonzero power of a named parameter."""
        slots = [_PARAM_INDEX[name] for name in names]
        return any(ev[k] for ev in self.terms for k in slots)

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and _ZERO_EXP in self.terms)

    def constant(self):
        """The value of a constant scalar as a QuadExt."""
        if not self.terms:
            return QE_ZERO
        if self.is_constant():
            return self.terms[_ZERO_EXP]
        raise ValueError(f"scalar {self} is not constant")

    # -- ring structure -------------------------------------------------------

    def __add__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        return Scalar(add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Scalar({ev: -c for ev, c in self.terms.items()})

    def __mul__(self, other):
        # One returns the other operand; a number scales each coefficient
        # (an int or Fraction without becoming a QuadExt).
        if isinstance(other, Scalar):
            if other is SC_ONE:
                return self
            if self is SC_ONE:
                return other
        elif isinstance(other, (int, Fraction, QuadExt)):
            if other == 1:
                return self
            if not other:
                return SC_ZERO
            return Scalar({ev: c * other for ev, c in self.terms.items()})
        else:
            return NotImplemented
        if not self.terms or not other.terms:
            return SC_ZERO
        return Scalar(add_terms({}, (
            (tuple(map(add, ev1, ev2)), c1 * c2)
            for ev1, c1 in self.terms.items()
            for ev2, c2 in other.terms.items()
        )))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return _power(self if n >= 0 else self.invert_monomial(), abs(n), SC_ONE)

    def invert_monomial(self):
        """Inverse of a one-term scalar whose a/b exponents vanish.

        Raises NotAUnit for anything else: multi-term scalars are not units of
        this ring, and positive powers of a or b cannot be inverted.
        """
        if len(self.terms) != 1:
            raise NotAUnit(f"{self} is not a monomial")
        (ev, c), = self.terms.items()
        for name in ("a", "b"):
            if ev[_PARAM_INDEX[name]]:
                raise NotAUnit(f"{self} involves the non-invertible parameter {name}")
        return Scalar({tuple(-e for e in ev): c.inverse()})

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, values):
        """Specialize every parameter that occurs and return a QuadExt.

        ``values`` maps parameter names to int/Fraction/QuadExt.  A parameter
        occurring with a negative exponent must be assigned a nonzero value.
        """
        assigned = {}
        for name, v in values.items():
            if name not in _PARAM_INDEX:
                raise ValueError(f"unknown parameter {name!r}")
            q = _as_quadext(v)
            if q is None:
                raise TypeError(f"bad value for {name!r}: {v!r}")
            assigned[_PARAM_INDEX[name]] = q
        total = QE_ZERO
        for ev, c in self.terms.items():
            term = c
            for k, e in enumerate(ev):
                if not e:
                    continue
                if k not in assigned:
                    raise ValueError(f"no value supplied for parameter {PARAMS[k]!r}")
                v = assigned[k]
                if e < 0 and v.is_zero():
                    raise ValueError(f"parameter {PARAMS[k]!r} must be nonzero")
                term = term * v ** e
            total = total + term
        return total

    # -- comparison / rendering -----------------------------------------------

    def __eq__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def render_terms(self):
        """The canonical term list as (sign, body) pairs, used by renderers.

        A QuadExt coefficient ``p + q*sqrt2`` contributes up to two entries,
        the rational part first, so that every rendered term carries a single
        rational magnitude and at most one ``sqrt2`` factor.
        """
        return [
            part
            for ev in sorted(self.terms, reverse=True)
            for part in self.terms[ev].signed_terms(before=monomial_text(PARAMS, ev))
        ]

    def render(self):
        return join_signed(self.render_terms())

    __str__ = render

    def __repr__(self):
        return f"<Scalar {self.render()}>"


def _as_scalar(v):
    if isinstance(v, Scalar):
        return v
    q = _as_quadext(v)
    if q is None:
        return None
    return Scalar.number(q)


SC_ZERO = Scalar({})
SC_ONE = Scalar({_ZERO_EXP: QE_ONE})


def as_scalar(v):
    """Coerce an int, Fraction, QuadExt, or Scalar to a Scalar."""
    s = _as_scalar(v)
    if s is None:
        raise TypeError(f"cannot coerce {v!r} to Scalar")
    return s


def as_quadext(v):
    """Coerce an int, Fraction, or QuadExt to a QuadExt."""
    q = _as_quadext(v)
    if q is None:
        raise TypeError(f"cannot coerce {v!r} to QuadExt")
    return q
