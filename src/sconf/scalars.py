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

A QuadExt is three ints ``(p, q, d)`` standing for ``(p + q*sqrt2)/d``, kept
in lowest terms: ``d > 0`` and ``gcd(p, q, d) == 1``, so zero is ``(0, 0, 1)``
and two QuadExts are equal exactly when their triples are.  The public
``QuadExt(rat, root2)`` takes ints or Fractions (anything else is a
TypeError), and ``.rat`` and ``.root2`` give the two parts back as Fractions.
Arithmetic results come from the one trusted constructor ``_qe``, which
divides a triple by a single ``gcd(p, q, d)`` and skips it when ``d == 1``,
so every result is canonical.  Each operation coerces its operand (an int or
Fraction to a QuadExt, a number to a Scalar) and then applies one formula:
``+`` and ``-`` cross-multiply over ``d*e``; ``*`` takes the four products
``(pu + 2qv) + (pv + qu)*sqrt2`` over ``d*e``; ``==`` compares triples;
``x ** n`` squares repeatedly, inverting first when n < 0; and a Scalar
product sums every pair of terms with ``add_terms``.  A rational QuadExt
hashes like the equal Fraction or int.

One shortcut stays, as a contract: ``s * SC_ONE`` and ``SC_ONE * s`` return
``s`` itself, and a number equal to 1 coerces to ``SC_ONE`` (the object
``Scalar.number(1)`` returns).  The generator maps, ``apply_map`` and
``AlgebraElement.basis`` keep a unit coefficient as that object, so
``freemod.extend_linearly`` acts on ``v`` itself, not a scaled copy, when a
coefficient is ``SC_ONE``.

Every sparse polynomial in the package (Scalar terms, module and quotient
elements, algebra elements, the parser's accumulators) is a dict from a
hashable key to a nonzero coefficient, and all of them are summed by one
kernel, ``add_terms(out, pairs)``: it adds each ``(key, coeff)`` pair into the
dict ``out`` in place and returns it.  A coefficient that is zero, or a sum
that cancels to zero, leaves no entry, so ``out`` stays free of zeros.  The
coefficients only need ``+`` and truth-testing (falsy exactly when zero);
QuadExt, Scalar and Fraction all qualify.  Three kinds of code sum by hand
instead:

* the machine-int loops of the sweeps;
* the one long division, ``submodules._divmod_monic``, which divides in
  Z[sqrt2] ints, each row over its own common denominator (for a module
  element, one row per power of x and parameter monomial);
* the action: ``freemod._row_terms``, the one row reader, and
  ``quotients.project`` (through ``_freeze``) sum an image in ints, one
  slice per (monomial, parameter monomial), with ``add_slice``, scaling by
  (exponent vector, p, q, d) ints, not QuadExts.  A slice is a plain list
  ``[p, q, d]``: ``add_slice`` sums its ints in place over one denominator,
  the lcm of those added there, and ``build_slices`` builds each nonzero
  one once with ``_qe``, so no QuadExt changes after ``_qe`` or
  ``QuadExt.__init__`` returns.  No slice outlives the call that builds it.

``join_signed`` is the one renderer of signed sums: every ``a - b + c`` text
in the package comes out of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
        n >>= 1
        if n:  # no square past the top bit
            base = base * base
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
    """An element ``(p + q*sqrt(2))/d`` of the field Q(sqrt2), stored as three
    ints in lowest terms (see the module docstring for the invariant)."""

    __slots__ = ("p", "q", "d")

    def __init__(self, rat=0, root2=0):
        for part in (rat, root2):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"QuadExt parts must be int or Fraction, not {part!r}")
        u, v = Fraction(rat), Fraction(root2)
        d = lcm(u.denominator, v.denominator)  # lowest terms already
        _set_p(self, u.numerator * (d // u.denominator))
        _set_q(self, v.numerator * (d // v.denominator))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def __reduce__(self):
        # pickle and copy through the trusted constructor: the default slot
        # restore would go through the refusing __setattr__
        return _qe, (self.p, self.q, self.d)

    @property
    def rat(self):
        """The rational part as a Fraction."""
        return Fraction(self.p, self.d)

    @property
    def root2(self):
        """The coefficient of sqrt2 as a Fraction."""
        return Fraction(self.q, self.d)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.p and not self.q

    def __bool__(self):
        return bool(self.p or self.q)

    # -- field structure ----------------------------------------------------

    def __add__(self, other):
        other = _as_quadext(other)
        if other is None:
            return NotImplemented
        d, e = self.d, other.d
        return _qe(self.p * e + other.p * d, self.q * e + other.q * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_quadext(other)
        if other is None:
            return NotImplemented
        d, e = self.d, other.d
        return _qe(self.p * e - other.p * d, self.q * e - other.q * d, d * e)

    def __rsub__(self, other):
        other = _as_quadext(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _qe(-self.p, -self.q, self.d)

    def __mul__(self, other):
        other = _as_quadext(other)
        if other is None:
            return NotImplemented
        p, q, u, v = self.p, self.q, other.p, other.q
        # (p + q*sqrt2)(u + v*sqrt2) = (pu + 2qv) + (pv + qu)*sqrt2
        return _qe(p * u + 2 * q * v, p * v + q * u, self.d * other.d)

    __rmul__ = __mul__

    def conjugate(self):
        return _qe(self.p, -self.q, self.d)

    def norm(self):
        """Field norm ``(p^2 - 2 q^2)/d^2``; multiplicative, zero only at zero."""
        p, q = self.p, self.q
        return Fraction(p * p - 2 * q * q, self.d * self.d)

    def inverse(self):
        # d/(p + q*sqrt2) = d*(p - q*sqrt2)/(p^2 - 2q^2), sign moved up
        p, q, d = self.p, self.q, self.d
        n = p * p - 2 * q * q
        if not n:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        if n < 0:
            return _qe(-d * p, d * q, -n)
        return _qe(d * p, -d * q, n)

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
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self):
        # a rational value hashes like the equal int or Fraction
        if not self.q:
            return hash(self.p) if self.d == 1 else hash(Fraction(self.p, self.d))
        return hash((self.p, self.q, self.d))

    def __repr__(self):
        return f"QuadExt({self.rat!r}, {self.root2!r})"

    def signed_terms(self, before="", after=""):
        """``(sign, body)`` pairs rendering ``self * before * after``.

        The rational part comes first, then the sqrt2 part, so every body
        carries one rational magnitude (left out when it is 1 and other
        factors remain) and at most one ``sqrt2`` factor.  A magnitude is
        written as ``str`` writes a Fraction, reduced here by one int gcd.
        """
        out = []
        d = self.d
        for c, root in ((self.p, ""), (self.q, "sqrt2")):
            if c:
                factors = [f for f in (before, root, after) if f]
                g = gcd(c, d)
                num, den = abs(c) // g, d // g
                if num != 1 or den != 1 or not factors:
                    factors.insert(0, str(num) if den == 1 else f"{num}/{den}")
                out.append((1 if c > 0 else -1, "*".join(factors)))
        return out

    def __str__(self):
        return join_signed(self.signed_terms())


_new_quadext = object.__new__
_set_p = QuadExt.p.__set__
_set_q = QuadExt.q.__set__
_set_d = QuadExt.d.__set__


def _qe(p, q, d):
    """The trusted constructor: ``(p + q*sqrt2)/d`` for ints with ``d > 0``,
    reduced by one gcd (none when ``d == 1``)."""
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            p //= g
            q //= g
            d //= g
    x = _new_quadext(QuadExt)
    _set_p(x, p)
    _set_q(x, q)
    _set_d(x, d)
    return x


def add_slice(slot, ev, p, q, d):
    """Add ``(p + q*sqrt2)/d`` (ints, d > 0) into the slice ``slot[ev]``, a
    list ``[p, q, d]`` whose ints are summed in place over one denominator,
    the lcm of the denominators added there."""
    x = slot.get(ev)
    if x is None:
        slot[ev] = [p, q, d]
        return
    e = x[2]
    if e == d:
        x[0] += p
        x[1] += q
    else:
        g = gcd(e, d)
        u, v = d // g, e // g
        x[0] = x[0] * u + p * v
        x[1] = x[1] * u + q * v
        x[2] = e * u


def build_slices(slices):
    """``{key: Scalar}`` from slices ``{key: {ev: [p, q, d]}}``: each value
    is built once by ``_qe``; a value that sums to zero is left out, and so
    is a key with none left."""
    out = {}
    for key, slot in slices.items():
        terms = {}  # a loop, not a comprehension: no frame per slot
        for ev, (p, q, d) in slot.items():
            if p or q:
                terms[ev] = _qe(p, q, d)
        if terms:
            out[key] = Scalar(terms)
    return out


def _as_quadext(v):
    if isinstance(v, QuadExt):
        return v
    if isinstance(v, int):
        return _qe(v, 0, 1)
    if isinstance(v, Fraction):
        return _qe(v.numerator, 0, v.denominator)
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
        _set_terms(self, terms or {})

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return Scalar, (self.terms,)

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
        return cls.monomial(QE_ONE, **{name: exp})

    @classmethod
    def monomial(cls, coeff, **named):
        """Single term ``coeff * prod(name**exp)``."""
        q = _as_quadext(coeff)
        if q is None or q.is_zero():
            return SC_ZERO
        ev = [0] * _NPARAMS
        for name, exp in named.items():
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
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        # the SC_ONE identity is a contract, not a speed-up: see the module
        # docstring (extend_linearly acts on v itself through it)
        if other is SC_ONE:
            return self
        if self is SC_ONE:
            return other
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


_set_terms = Scalar.terms.__set__
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
