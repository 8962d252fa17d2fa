"""Independent references for the tests' comparisons.

Each routine below is written from a formula, the closed forms of the
``freemod`` and ``quotients`` module docstrings or a definition, with the
public element arithmetic of ``sconf`` alone.  None reads an action row
(``freemod._ACTION``) or one of the int kernels that the checked routines
run on (``algebras._flat``, ``_packing``, ``_split``,
``submodules._divmod_monic``), so one wrong row or kernel cannot fool both
sides of a comparison.  ``test_reference_is_independent`` fails once this
file imports a ``_``-prefixed name from ``sconf`` or reads one off an
``sconf`` module.

- ``module_action`` and ``quotient_action``: a generator on an element, the
  closed form on each of its terms, summed;
- ``projection``: y -> -a on the even part, t -> -a-1 on the odd part;
- ``linear``: the per-generator linear extension of a basis action;
- ``pair_violations``: the bracket-compatibility sweep, one ordered pair and
  one vector at a time, through a whole-element action;
- ``divmod_monic`` and ``divide_in_second_var``: long division of
  coefficient lists by a monic polynomial.
"""

from fractions import Fraction
from itertools import product

from sconf.algebras import AlgebraElement, bracket
from sconf.freemod import EVEN, ODD, ModuleElement
from sconf.quotients import QuotientElement
from sconf.scalars import SC_ONE, SC_ZERO, Scalar

LAM, ALP = Scalar.param("lam"), Scalar.param("alp")


def _num(c):
    return Scalar.number(c)


# -- the rank-2 module ------------------------------------------------------------

def _times(v, poly):
    """v times a bivariate polynomial {(i, j): number}."""
    return v.times_poly({key: _num(c) for key, c in poly.items()})


def _module_monomial(sym, parity, i, j):
    """The docstring formula for ``sym`` on u^i v^j of the given parity."""
    target = (parity + sym.parity) % 2
    zero = ModuleElement.zero(target)
    if sym.family == "C":
        return zero
    m = sym.twice // 2
    dv = {("Gp", ODD): -1, ("Gm", EVEN): 1}.get((sym.family, parity), 0)
    out = ModuleElement.one(target)
    for _ in range(i):
        out = _times(out, {(1, 0): 1, (0, 0): m})  # u + m
    for _ in range(j):
        out = _times(out, {(0, 1): 1, (0, 0): dv})  # v + shift
    if sym.family == "L":
        pre = {(1, 0): 1, (0, 1): Fraction(m, 2), (0, 0): m * parity}
        return _times(out, pre) * LAM ** m
    if sym.family == "H":
        return _times(out, {(0, 1): 1}) * LAM ** m
    if (sym.family, parity) == ("Gp", ODD):
        return _times(out, {(1, 0): 1, (0, 1): m}) * LAM ** m * ALP.invert_monomial() * _num(2)
    if (sym.family, parity) == ("Gm", EVEN):
        return out * LAM ** m * ALP
    return zero


def module_action(sym, v):
    """The Ramond basis symbol ``sym`` on the module element v."""
    out = ModuleElement.zero((v.parity + sym.parity) % 2)
    for (i, j), c in v.terms.items():
        out = out + _module_monomial(sym, v.parity, i, j) * c
    return out


# -- the simple quotients ---------------------------------------------------------

def _qtimes(v, poly):
    """v times a univariate polynomial {k: Scalar}."""
    out = QuotientElement.zero(v.parity)
    for k1, c1 in v.terms.items():
        for k2, c2 in poly.items():
            out = out + QuotientElement.monomial(v.parity, k1 + k2, c1 * c2)
    return out


def _quotient_monomial(sym, parity, k, p):
    """The quotient docstring formula for ``sym`` on x^k or s^k."""
    target = (parity + sym.parity) % 2
    zero = QuotientElement.zero(target)
    if sym.family == "C":
        return zero
    m = sym.twice // 2
    a = Scalar.param("a") if p.a is None else _num(p.a)
    out = QuotientElement.one(target)
    for _ in range(k):
        out = _qtimes(out, {1: SC_ONE, 0: _num(m)})  # x + m
    lam_m = p.lam ** m
    if sym.family == "L":
        constant = a * _num(Fraction(-m, 2)) + _num(Fraction(m, 2) * parity)
        return _qtimes(out, {1: SC_ONE, 0: constant}) * lam_m
    if sym.family == "H":
        return out * (-a - _num(parity)) * lam_m
    if (sym.family, parity) == ("Gp", ODD):
        pre = {1: SC_ONE, 0: a * _num(-m)}
        return _qtimes(out, pre) * lam_m * p.alp.invert_monomial() * _num(2)
    if (sym.family, parity) == ("Gm", EVEN):
        return out * lam_m * p.alp
    return zero


def quotient_action(sym, v, p):
    """The Ramond basis symbol ``sym`` on the element v of the quotient with
    params ``p``."""
    out = QuotientElement.zero((v.parity + sym.parity) % 2)
    for k, c in v.terms.items():
        out = out + _quotient_monomial(sym, v.parity, k, p) * c
    return out


def projection(v, a):
    """The module element v in the quotient at the root ``a``: y -> -a on the
    even part, t -> -a-1 on the odd part."""
    root = _num(-a if v.parity == EVEN else -a - 1)
    out = QuotientElement.zero(v.parity)
    for (i, j), c in v.terms.items():
        out = out + QuotientElement.monomial(v.parity, i, c * root ** j)
    return out


# -- linear extension and bracket compatibility -------------------------------------

def linear(basis_act, x, v):
    """The algebra element x on v: the sum over the generators of x of
    coeff * ``basis_act(generator, v)``."""
    acc = type(v).zero((v.parity + x.parity()) % 2)
    for sym, coeff in x.terms.items():
        acc = acc + basis_act(sym, v) * coeff
    return acc


def pair_violations(syms, act, vectors, label):
    """(context, lhs, rhs) of every ordered pair (X, Y) of ``syms`` (outer
    loops) and every v of ``vectors`` (inner loop) where

        [X, Y].v  !=  X.(Y.v) - (-1)^{|X||Y|} Y.(X.v),

    each side through the whole-element action ``act(x, v)``.  X.v is formed
    once per (X, v)."""
    elements = [AlgebraElement.basis(s) for s in syms]
    once = {(s, k): act(x, v) for s, x in zip(syms, elements) for k, v in enumerate(vectors)}
    out = []
    for (xs, x), (ys, y) in product(zip(syms, elements), repeat=2):
        for k, v in enumerate(vectors):
            lhs = act(bracket(x, y), v)
            xy, yx = act(x, once[ys, k]), act(y, once[xs, k])
            rhs = xy + yx if xs.parity and ys.parity else xy - yx
            if lhs != rhs:
                out.append((f"{label}({xs}, {ys}) on {v}", lhs.render(), rhs.render()))
    return out


# -- division by a monic polynomial -----------------------------------------------

def divmod_monic(rem, d):
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


def divide_in_second_var(terms, divisor):
    """The remainder and the quotient, as nonzero terms {(i, j): Scalar}, of
    the terms of a module element divided by the monic ``divisor`` in the
    second variable: one ``divmod_monic`` on the dense coefficient list of
    each power of the first variable."""
    rows = {}
    for (i, j), c in terms.items():
        rows.setdefault(i, {})[j] = c
    rem, quo = {}, {}
    for i, row in rows.items():
        q, r = divmod_monic([row.get(j, SC_ZERO) for j in range(max(row) + 1)], divisor)
        quo.update(((i, j), c) for j, c in enumerate(q) if c)
        rem.update(((i, j), c) for j, c in enumerate(r) if c)
    return rem, quo
