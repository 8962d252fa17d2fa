"""The bracket-compatibility sweeps act through the basis action they are
given, one generator at a time, never through ``act`` or ``quotient_act`` on
whole algebra elements.  The sweep that sums each unordered generator pair
once gives the reports of the ordered-pair sweep it replaced, kept here
verbatim as ``reference_check_representation``."""

from itertools import chain, product
from math import lcm

import pytest

from sconf import algebras, freemod, n1, quotients
from sconf.algebras import (BasisSymbol, _basis_bracket, _checked, _flat, _packing,
                            _split, basis_symbols)
from sconf.errors import MixedParity
from sconf.freemod import EVEN, ODD, ModuleElement
from sconf.n1 import RestrictedAction, check_n1_relations
from sconf.quotients import QuotientParams, check_quotient_compatibility
from sconf.reports import VerificationReport
from sconf.scalars import SC_ONE, QuadExt, Scalar

P = QuotientParams(a=1)
WIDE = QuotientParams(a=QuadExt(10**30, 7), lam=Scalar.number(12345678901234567891),
                      alp=Scalar.number(98765432109876543211))
ROOT2 = QuotientParams(a=QuadExt(1, 1))


def test_sweeps_build_no_linear_action(monkeypatch):
    def refuse(*args):
        raise AssertionError("a compatibility sweep acted by a whole element")

    good = n1.restricted_act

    def one_generator(x, w, r):
        assert len(x.terms) == 1, f"an N=1 sweep acted by {x}"
        return good(x, w, r)

    monkeypatch.setattr(freemod, "act", refuse)
    monkeypatch.setattr(quotients, "quotient_act", refuse)
    monkeypatch.setattr(n1, "restricted_act", one_generator)
    reports = [
        freemod.check_module_compatibility(1, 1),
        check_quotient_compatibility(P, 1, 1),
        check_n1_relations(RestrictedAction.ramond(P), 1, 1),
        check_n1_relations(RestrictedAction.neveu_schwarz(P), 1, 1),
    ]
    assert all(r.passed for r in reports), [r.render_text() for r in reports]


@pytest.mark.parametrize("module, name, sweep", [
    (freemod, "act_basis", lambda: freemod.check_module_compatibility(1, 1)),
    (quotients, "quotient_act_basis", lambda: check_quotient_compatibility(P, 1, 1)),
    (n1, "restricted_act", lambda: check_n1_relations(RestrictedAction.ramond(P), 1, 1)),
])
def test_an_image_of_the_wrong_parity_is_an_error(monkeypatch, module, name, sweep):
    # returning its argument, an odd generator keeps the monomial's parity
    monkeypatch.setattr(module, name, lambda x, w, *rest: w)
    with pytest.raises(MixedParity, match="maps a monomial to the wrong parity"):
        sweep()


# ---------------------------------------------------------------------------
# the ordered-pair sweep, as it was before each unordered pair was summed once
# ---------------------------------------------------------------------------

def reference_check_representation(report, syms, basis_act, vectors, label):
    """Bracket compatibility of an action, recorded into ``report``.

    For every ordered pair (X, Y) of ``syms`` and every vector v:

        [X, Y] . v  ==  X.(Y.v) - (-1)^{|X||Y|} Y.(X.v)

    ``basis_act(sym, w)`` applies one basis symbol to a vector.  Each
    violation's context is ``label`` followed by ``(X, Y) on v``.

    The sweep runs in machine ints over a table local to the call.  The table
    holds ``basis_act(symbol, monomial)`` once per (symbol, parity, monomial
    key) the sweep needs: every symbol of ``syms`` and of their brackets on
    the monomials of each v, and every symbol of ``syms`` on the monomials of
    each Y.v, each read through ``_checked``.  A
    coefficient (p + q sqrt2)/d of a parameter monomial becomes the ints
    p D/d and q D/d, D the common denominator of the table and the vectors,
    keyed by one int that packs the monomial, the exponent vector and the
    power r of sqrt2; a product whose r reaches 2 doubles its int.  The
    bracket rows are scaled by B, the lcm of their denominators.  Both sides
    of a case are then D**3 B times the exact ones, so they are equal exactly
    when those are.  Per v, X.(Y.v) is formed once for every pair and serves
    both (X, Y) and (Y, X).  Only a failing case is rebuilt, for its text,
    from ``basis_act`` and the ``_basis_bracket`` rows.
    """
    n = len(syms)
    number = {s: k for k, s in enumerate(syms)}  # symbol -> table row
    brackets = [[_basis_bracket(x, y) for y in syms] for x in syms]
    for row in chain.from_iterable(brackets):
        for s, _ in row:
            number.setdefault(s, len(number))
    symbols = list(number)
    images = {}  # (symbol number, parity, key) -> basis_act(symbol, monomial)

    def fill(count, parity, keys, cls):
        for k in range(count):
            sym = symbols[k]
            for key in keys:
                if (k, parity, key) not in images:
                    images[k, parity, key] = _checked(basis_act, sym, cls(parity, {key: SC_ONE}))

    for v in vectors:
        fill(len(symbols), v.parity, v.terms, type(v))
    for (y, _, _), img in list(images.items()):
        if y < n:
            fill(n, img.parity, img.terms, type(img))

    elements = [*images.values(), *vectors]
    coeffs = [c for e in elements for c in e.terms.values()]
    den = lcm(*(q.d for c in coeffs for q in c.terms.values()))
    # exponent vectors pack into one int in base ``base``: a sum of three
    # of them keeps every entry below base / 2 in size, so packing is injective
    base = 6 * max((abs(e) for c in coeffs for ev in c.terms for e in ev), default=0) + 1
    packing = _packing({ev for c in coeffs for ev in c.terms}, base)
    keys, nk = {}, 0  # parity -> {monomial key: number}
    for e in elements:
        numbers = keys.setdefault(e.parity, {})
        for key in e.terms:
            if key not in numbers:
                numbers[key], nk = nk, nk + 1
    # rows[symbol][monomial] = (image, sqrt2 times image) as (int key, int)
    # pairs, each ``den`` times the exact one, keyed by ``_flat``
    rows = [[None] * nk for _ in symbols]
    for (k, parity, key), img in images.items():
        plain = list(_flat(img.terms, keys[img.parity], den, packing, nk).items())
        root2 = [(c - nk, 2 * m) if c // nk & 1 else (c + nk, m) for c, m in plain]
        rows[k][keys[parity][key]] = (plain, root2)

    def apply(k, parts):
        table, acc = rows[k], {}
        for at, r, off, m in parts:
            for c, f in table[at][r]:
                c += off
                acc[c] = acc.get(c, 0) + m * f
        return acc

    lcm_b = lcm(*(f.denominator for row in chain.from_iterable(brackets) for _, f in row))
    scaled = [[tuple((number[s], den * f.numerator * (lcm_b // f.denominator)) for s, f in row)
               for row in row_list] for row_list in brackets]
    odd = [s.parity for s in syms]
    fails = []
    for t, v in enumerate(vectors):
        parts = _split(_flat(v.terms, keys[v.parity], den, packing, nk), nk)
        zv = [apply(k, parts) for k in range(len(symbols))]
        yv = [_split(zv[y], nk, lcm_b) for y in range(n)]
        xyv = [[apply(x, yv[y]) for y in range(n)] for x in range(n)]
        for x, y in product(range(n), repeat=2):
            diff = dict(xyv[x][y])
            sign = 1 if odd[x] and odd[y] else -1
            for c, m in xyv[y][x].items():
                diff[c] = diff.get(c, 0) + sign * m
            for z, f in scaled[x][y]:
                for c, m in zv[z].items():
                    diff[c] = diff.get(c, 0) - f * m
            if any(diff.values()):
                fails.append((x, y, t))
    for x, y, t in sorted(fails):
        xs, ys, v = syms[x], syms[y], vectors[t]
        lhs = type(v).zero(v.parity)
        for z, f in brackets[x][y]:
            lhs = lhs + basis_act(z, v) * f
        xy, yx = basis_act(xs, basis_act(ys, v)), basis_act(ys, basis_act(xs, v))
        rhs = xy + yx if xs.parity and ys.parity else xy - yx
        report.record(f"{label}({xs}, {ys}) on {v}", lhs.render(), rhs.render())
    return report


# (module holding the sweep's caller, the basis action there, the sweep, the
# algebra of its generators)
SWEEPS = {
    "module": (freemod, "act_basis", lambda: freemod.check_module_compatibility(1, 1), "R"),
    "quotient": (quotients, "quotient_act_basis",
                 lambda: check_quotient_compatibility(P, 1, 1), "R"),
    "N1R": (n1, "restricted_act",
            lambda: check_n1_relations(RestrictedAction.ramond(P), 1, 1), "N1R"),
    "N1NS": (n1, "restricted_act",
             lambda: check_n1_relations(RestrictedAction.neveu_schwarz(P), 1, 1), "N1NS"),
    # wide digits: a = 10**30 + 7 sqrt2, lam and alp of 20 digits
    "quotient-wide": (quotients, "quotient_act_basis",
                      lambda: check_quotient_compatibility(WIDE, 1, 2), "R"),
    # images with sqrt2 coefficients reach the sqrt2 rows
    "N1NS-sqrt2": (n1, "restricted_act",
                   lambda: check_n1_relations(RestrictedAction.neveu_schwarz(ROOT2), 2, 2), "N1NS"),
}


def _double_family(monkeypatch, module, name, families):
    """Replace ``module.name`` by an action that doubles the given families;
    an N=1 action is given an element, the others a basis symbol."""
    good = getattr(module, name)

    def wrong(x, *rest):
        out = good(x, *rest)
        syms = x.terms if module is n1 else (x,)
        return out * 2 if any(s.family in families for s in syms) else out

    monkeypatch.setattr(module, name, wrong)


def _twist_brackets(monkeypatch, algebra):
    """Patch ``_bracket_ints``, which every bracket row is read through, so
    that [X, L0] gains the term X for two generators X, an even and an odd
    one: for the even X, [L0, X] keeps its true row, so the two rows are not
    sign-related; for the odd X, [L0, X] gains -X in front of its true row,
    so the rows are sign-related in a different term order."""
    good = algebras._bracket_ints
    zero = BasisSymbol(algebra, "L", 0)
    syms = basis_symbols(algebra, 1)
    lone = next(s for s in syms if s.family == "L" and s != zero)
    paired = next(s for s in syms if s.parity)
    twists = {(lone.family, lone.twice), (paired.family, paired.twice)}

    def twisted(alg, den, f1, t1, f2, t2):
        row = good(alg, den, f1, t1, f2, t2)
        if alg == algebra and (f2, t2) == ("L", 0) and (f1, t1) in twists:
            return row + [(f1, den)]
        if alg == algebra and (f1, t1) == ("L", 0) and (f2, t2) == (paired.family, paired.twice):
            return [(f2, -den)] + row
        return row

    # the sweep reads the rows through ``_numbered_brackets``, the reference
    # and the failure texts through ``_basis_bracket``: both call this
    monkeypatch.setattr(algebras, "_bracket_ints", twisted)
    return zero, lone, paired


def _facts(report):
    """The report's status, params and violations, these in their order."""
    return report.to_dict(), [(v.context, v.lhs, v.rhs) for v in report.violations]


@pytest.mark.parametrize("case", ["right", "doubled", "twisted"])
@pytest.mark.parametrize("name", list(SWEEPS))
def test_pair_sweep_reports_as_the_ordered_pair_sweep(monkeypatch, name, case):
    module, act_name, sweep, algebra = SWEEPS[name]
    if case == "doubled":
        _double_family(monkeypatch, module, act_name, ("G", "L"))
    elif case == "twisted":
        _twist_brackets(monkeypatch, algebra)
    got = sweep()
    with monkeypatch.context() as m:
        m.setattr(module, "check_representation", reference_check_representation)
        want = sweep()
    assert _facts(got) == _facts(want)
    assert got.passed == (case == "right")


def test_a_twisted_pair_fails_in_the_orders_its_rows_allow(monkeypatch):
    zero, lone, paired = _twist_brackets(monkeypatch, "R")
    report = freemod.check_module_compatibility(1, 1)
    pairs = {v.context.split(" on ")[0] for v in report.violations}
    assert pairs == {f"compat ({x}, {y})" for x, y in [(lone, zero), (paired, zero), (zero, paired)]}


# ---------------------------------------------------------------------------
# every vector is one signed digit of a packed int
# ---------------------------------------------------------------------------

def _as_reference(syms, basis_act, vectors):
    """The sweep's report on ``vectors``, checked against the reference's."""
    got, want = (sweep(VerificationReport("compat", {}), syms, basis_act, vectors, "")
                 for sweep in (algebras.check_representation, reference_check_representation))
    assert _facts(got) == _facts(want)
    return got


def _failing_vectors(report):
    return {v.context.split(" on ", 1)[1] for v in report.violations}


# the even R generators keep each parity, so a fault on the odd part reaches
# the odd vectors only
EVEN_R = [s for s in basis_symbols("R", 1) if not s.parity]


def _odd_l_doubled(sym, w):
    out = freemod.act_basis(sym, w)
    return out * 2 if w.parity == ODD and sym.family == "L" else out


@pytest.mark.parametrize("where", ["first", "last"])
def test_a_fault_in_the_end_digit_fails_that_vector_only(where):
    even, odd = freemod.monomials(2, (EVEN,)), freemod.monomials(1, (ODD,))[-1:]
    vectors = odd + even if where == "first" else even + odd
    report = _as_reference(EVEN_R, _odd_l_doubled, vectors)
    assert _failing_vectors(report) == {str(odd[0])}


def test_digits_of_opposite_signs_side_by_side_each_fail():
    v = ModuleElement.monomial(ODD, 1, 1)
    report = _as_reference(EVEN_R, _odd_l_doubled, [v, -v, v])
    contexts = [x.context for x in report.violations]
    assert _failing_vectors(report) == {str(v), str(-v)}
    assert len(contexts) == 3 * len({c.split(" on ")[0] for c in contexts})


@pytest.mark.parametrize("degree", [1, 2])
def test_a_passing_sweep_splits_once_per_generator_at_any_vector_count(monkeypatch, degree):
    calls, good = [], algebras._split
    monkeypatch.setattr(algebras, "_split", lambda *args: calls.append(args) or good(*args))
    assert freemod.check_module_compatibility(1, degree).passed
    assert len(calls) == len(basis_symbols("R", 1)) + 1
