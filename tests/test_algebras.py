"""Bracket tables, sweeps, and the standard homomorphisms."""

import pickle
from fractions import Fraction
from itertools import product

import pytest

from sconf import algebras
from sconf.algebras import (
    ALGEBRAS,
    STANDARD_MAPS,
    AlgebraElement,
    BasisSymbol,
    GeneratorMap,
    apply_map,
    basis_symbols,
    bracket,
    check_antisymmetry,
    check_homomorphism,
    check_super_jacobi,
    check_twist_composition,
    compose,
    embed_ns1_in_r1,
    embed_r1_in_r2,
    spectral_flow,
    topological_to_ramond,
    _basis_bracket,
)
from sconf.errors import AlgebraMismatch, MixedParity
from sconf.parsing import parse_algebra_element
from sconf.scalars import INV_SQRT2, SQRT2, Scalar


def el(algebra, text):
    return parse_algebra_element(text, algebra)


def test_subtraction_and_negation_match_the_forward_operators():
    for algebra, text, other in (("R", "2*L[1] + lam*H[-2] + C", "L[1] - sqrt2*H[-2]"),
                                 ("N1NS", "(1/2)*G[1/2] + alp*G[-3/2]", "G[1/2]")):
        x, y = el(algebra, text), el(algebra, other)
        assert -x == x * -1 == (-1) * x
        assert -(-x) == x
        assert x - y == x + y * -1 == x + (-y)
        assert (x - y) + y == x
        assert (x - x).terms == {}
        with pytest.raises(AlgebraMismatch):
            x - el("N1R" if algebra == "R" else "R", "L[0]")
    zero = AlgebraElement("R")
    assert -zero == zero and zero - zero == zero


# -- pinned bracket values ----------------------------------------------------

def test_bracket_LL_central():
    out = bracket(el("R", "L[2]"), el("R", "L[-2]"))
    assert out == el("R", "4*L[0] + 1/2*C")


def test_bracket_GmGp_central():
    out = bracket(el("R", "Gm[1]"), el("R", "Gp[-1]"))
    assert out == el("R", "2*L[0] - 2*H[0] + 1/4*C")


def test_bracket_GpGp_zero():
    assert bracket(el("R", "Gp[3]"), el("R", "Gp[5]")).is_zero()


def test_bracket_topological_GQ():
    out = bracket(el("T", "G[1]"), el("T", "Q[1]"))
    assert out == el("T", "2*L[2] - 2*H[2]")


def test_bracket_ns_halfmodes():
    out = bracket(el("NS", "Gm[1/2]"), el("NS", "Gp[-1/2]"))
    assert out == el("NS", "2*L[0] - H[0]")  # (1/3)(1/4 - 1/4) C = 0


def test_bracket_n1():
    out = bracket(el("N1R", "G[1]"), el("N1R", "G[-1]"))
    assert out == el("N1R", "2*L[0]")
    # [L_1, G_{1/2}] has coefficient 1/2 - 1/2 = 0
    assert bracket(el("N1NS", "L[1]"), el("N1NS", "G[1/2]")).is_zero()
    out = bracket(el("N1NS", "L[1]"), el("N1NS", "G[-1/2]"))
    assert out == el("N1NS", "G[1/2]")


def test_bracket_bilinear():
    x = el("R", "2*L[1] + H[0]")
    y = el("R", "L[-1]")
    out = bracket(x, y)
    expect = bracket(el("R", "L[1]"), y) * Scalar.number(2) + bracket(el("R", "H[0]"), y)
    assert out == expect


def test_bracket_errors():
    with pytest.raises(AlgebraMismatch):
        bracket(el("R", "L[0]"), el("NS", "L[0]"))
    mixed = el("R", "L[0]") + el("R", "Gp[0]")
    with pytest.raises(MixedParity):
        bracket(mixed, el("R", "L[0]"))


def test_center_rides_along_with_either_parity():
    # C is even but may accompany odd symbols in a stored element
    x = el("R", "Gp[0] + C")
    assert x.parity() == 1
    assert bracket(x, el("R", "Gm[0]")) == bracket(el("R", "Gp[0]"), el("R", "Gm[0]"))


# -- sweeps ---------------------------------------------------------------------

@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_super_jacobi_window3(algebra):
    report = check_super_jacobi(algebra, 3)
    assert report.passed, report.render_text()


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_antisymmetry_window3(algebra):
    assert check_antisymmetry(algebra, 3).passed


def test_antisymmetry_reports_a_symmetric_row(monkeypatch):
    center, = [row for row in algebras._N2[("L", "L")] if row[0] == "C"]
    # m + n at m = t/2, n = u/2
    monkeypatch.setitem(algebras._N2, ("L", "L"), (("L", ((1, 1, 0), (1, 0, 1)), 2), center))
    report = check_antisymmetry("R", 1)
    assert [(v.context, v.lhs, v.rhs) for v in report.violations] == [
        ("antisymmetry R (L[-1], L[-1])", "-4*L[-2]", "0"),
        ("antisymmetry R (L[-1], L[0])", "-2*L[-1]", "0"),
        ("antisymmetry R (L[0], L[-1])", "-2*L[-1]", "0"),
        ("antisymmetry R (L[0], L[1])", "2*L[1]", "0"),
        ("antisymmetry R (L[1], L[0])", "2*L[1]", "0"),
        ("antisymmetry R (L[1], L[1])", "4*L[2]", "0"),
    ]


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_parity_additive_under_bracket(algebra):
    for x, y in product(basis_symbols(algebra, 2), repeat=2):
        want = (x.parity + y.parity) % 2
        for sym, _ in _basis_bracket(x, y):
            if sym.family != "C":
                assert sym.parity == want, (x, y, sym)


# -- the evaluator's contract ------------------------------------------------------

@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_basis_bracket_contract(algebra):
    families = {s.family for s in basis_symbols(algebra, 1)}
    for x, y in product(basis_symbols(algebra, 4), repeat=2):
        for sym, c in _basis_bracket(x, y):
            assert type(c) is Fraction and c != 0, (x, y, sym, c)
            assert sym.algebra == algebra and sym.family in families, (x, y, sym)
            if sym.family == "C":
                assert x.twice + y.twice == 0, (x, y)
            else:
                assert sym.twice == x.twice + y.twice, (x, y, sym)


def test_pair_missing_from_a_table_is_an_error(monkeypatch):
    table = {pair: rows for pair, rows in algebras._N1.items() if pair != ("L", "G")}
    monkeypatch.setitem(algebras._TABLES, "N1R", table)
    L0, G1 = (algebras.BasisSymbol("N1R", f, 2) for f in ("L", "G"))
    for pair in ((L0, G1), (G1, L0)):
        with pytest.raises(LookupError):
            _basis_bracket(*pair)


def _jacobi_oracle(algebra, window):
    """The violations of the graded Jacobi sweep, summed in Fractions term by
    term over ``_bracket_oracle``: (context, lhs, rhs) in sweep order."""
    memo = {}

    def br(x, y):
        if (x, y) not in memo:
            memo[x, y] = _bracket_oracle(x, y)
        return memo[x, y]

    out = []
    for x, y, z in product(basis_symbols(algebra, window), repeat=3):
        acc = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            sign = -1 if a.parity and c.parity else 1
            for sym, f in br(b, c):
                for s2, f2 in br(a, sym):
                    acc[s2] = acc.get(s2, 0) + sign * f * f2
        if any(acc.values()):
            out.append((f"jacobi {algebra} ({x}, {y}, {z})",
                        algebras._render_fraction_combo(acc), "0"))
    return out


# one corrupted row per table, with denominators the true tables lack; the
# N=2 row carries the central term, so NS reaches it at half-integer modes.
# As lambdas on m = t/2 and n = u/2: (m*m - 1/4)/5, m/7 - n and m/3 - n.
_CORRUPTED_ROWS = {
    "_N2": (("Gm", "Gp"), (
        ("L", ((2, 0, 0),), 1),
        ("H", ((-1, 1, 0), (1, 0, 1)), 2),
        ("C", ((1, 2, 0), (-1, 0, 0)), 20),
    ), ("R", "NS")),
    "_TOPOLOGICAL": (("L", "Q"), (("Q", ((1, 1, 0), (-7, 0, 1)), 14),), ("T",)),
    "_N1": (("L", "G"), (("G", ((1, 1, 0), (-3, 0, 1)), 6),), ("N1R", "N1NS")),
}


@pytest.mark.parametrize("table", sorted(_CORRUPTED_ROWS))
def test_jacobi_violations_match_a_fraction_oracle(monkeypatch, table):
    pair, rows, tags = _CORRUPTED_ROWS[table]
    monkeypatch.setitem(getattr(algebras, table), pair, rows)
    for algebra in tags:
        want = _jacobi_oracle(algebra, 2)
        got = [(v.context, v.lhs, v.rhs) for v in check_super_jacobi(algebra, 2).violations]
        assert want and got == want, algebra


def _list_accumulator_sweep(algebra, window):
    """The graded Jacobi sweep as it was before each orbit's sum became one
    packed int, kept verbatim: one list indexed by family per orbit."""
    _bracket_ints = algebras._bracket_ints
    if window < 1:
        raise ValueError("window must be >= 1")
    report = algebras.VerificationReport(
        "algebra-jacobi", {"which": algebra, "window": window}
    )
    syms = basis_symbols(algebra, window)
    n = len(syms)
    keys = [(s.family, s.twice) for s in syms]
    index = {key: k for k, key in enumerate(keys)}  # (family, twice) -> number
    den = algebras._denominator(algebras._TABLES[algebra])
    # the inner rows: every two window symbols, each term as (number, int)
    inner = [[[(index.setdefault((family, t1 + t2), len(index)), c)
               for family, c in _bracket_ints(algebra, den, f1, t1, f2, t2)]
              for f2, t2 in keys] for f1, t1 in keys]
    # the outer rows: each window symbol bracketed with every numbered symbol,
    # each term keyed by its family alone
    order = algebras._FAMILY_ORDER
    outer = [[[(order[family], c) for family, c in _bracket_ints(algebra, den, f1, t1, f2, t2)]
              for f2, t2 in index] for f1, t1 in keys]
    parity = [s.parity for s in syms]
    fails = []
    for i in range(n):
        for j in range(i, n):
            for k in range(i if j == i else i + 1, n):
                acc = [0] * len(order)
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    rows = outer[a]
                    sign = -1 if parity[a] & parity[c] else 1
                    for s, f in inner[b][c]:
                        f *= sign
                        for g, f2 in rows[s]:
                            acc[g] += f * f2
                if any(acc):
                    fails.extend((t, acc) for t in {(i, j, k), (j, k, i), (k, i, j)})
    families = sorted(order, key=order.get)
    for (i, j, k), acc in sorted(fails, key=lambda fail: fail[0]):
        tot = syms[i].twice + syms[j].twice + syms[k].twice
        lhs = {BasisSymbol(algebra, families[g], tot): Fraction(v, den * den)
               for g, v in enumerate(acc) if v}
        report.record(f"jacobi {algebra} ({syms[i]}, {syms[j]}, {syms[k]})",
                      algebras._render_fraction_combo(lhs), "0")
    return report


def _assert_sweeps_agree(algebra, window):
    want = _list_accumulator_sweep(algebra, window)
    got = check_super_jacobi(algebra, window)
    assert [(v.context, v.lhs, v.rhs) for v in got.violations] == \
        [(v.context, v.lhs, v.rhs) for v in want.violations], algebra
    return len(want.violations)


_TABLE_ALGEBRAS = {"_N2": ("R", "NS"), "_TOPOLOGICAL": ("T",), "_N1": ("N1R", "N1NS")}


@pytest.mark.parametrize("table", sorted(_TABLE_ALGEBRAS))
def test_packed_jacobi_sweep_matches_the_list_accumulator_sweep(monkeypatch, table):
    """Every row of every table, negated and doubled in turn: the packed
    sweep records the violations the list accumulator does, in its order."""
    rows_of = getattr(algebras, table)
    failing = 0
    for pair, rows in list(rows_of.items()):
        for r, (family, terms, d) in enumerate(rows):
            for scale in (-1, 2):
                row = (family, tuple((scale * c, i, j) for c, i, j in terms), d)
                monkeypatch.setitem(rows_of, pair, rows[:r] + (row,) + rows[r + 1:])
                for algebra in _TABLE_ALGEBRAS[table]:
                    failing += bool(_assert_sweeps_agree(algebra, 2))
        monkeypatch.setitem(rows_of, pair, rows)
    assert failing


def test_packed_jacobi_digits_widen_for_a_huge_coefficient(monkeypatch):
    """A central row scaled by 10**40 breaks Jacobi: the digit width grows
    with it, and the failures unpack to the list accumulator's sums."""
    monkeypatch.setitem(algebras._N2, ("H", "H"), (("C", ((10**40, 1, 0),), 6),))
    for algebra in ("R", "NS"):
        assert _assert_sweeps_agree(algebra, 2)
    lhs = {v.lhs.lstrip("-") for v in check_super_jacobi("R", 1).violations}
    assert "3" * 40 + "*C" in lhs


@pytest.mark.parametrize("k", [1, 10**40])
def test_packed_jacobi_digits_reach_their_bound(monkeypatch, k):
    """[L_m, L_n] = k (m + n) L_{m+n}: at (L[w], L[w], L[w]) the orbit sum,
    2 k^2 (3w)^2 L[3w], equals the digit-width bound 3 * (2 w k) * (3 w k)."""
    monkeypatch.setitem(algebras._N1, ("L", "L"), (("L", ((k, 1, 0), (k, 0, 1)), 2),))
    for algebra in ("N1R", "N1NS"):
        assert _assert_sweeps_agree(algebra, 2)
    contexts = {v.context: v.lhs for v in check_super_jacobi("N1R", 2).violations}
    assert contexts["jacobi N1R (L[2], L[2], L[2])"] == f"{72 * k * k}*L[6]"


def _int_row(row, m, n):
    """An int row (family, terms, d) read at the Fraction modes m and n."""
    _, terms, d = row
    return Fraction(sum(c * (2 * m) ** i * (2 * n) ** j for c, i, j in terms), d)


def _lambda_row(row, m, n):
    """A row (family, coefficient(m, n)) of ``_LAMBDA_TABLES``."""
    return Fraction(row[1](m, n))


def _bracket_oracle(x, y, tables=None, value=_int_row):
    """``_basis_bracket`` as first written: each row's ``value`` over
    ``Fraction(twice, 2)`` modes, each result a validated symbol.  The rows
    are those of ``algebras._TABLES`` unless ``tables`` is given."""
    if x.family == "C" or y.family == "C":
        return ()
    table = (algebras._TABLES if tables is None else tables)[x.algebra]
    m, n = Fraction(x.twice, 2), Fraction(y.twice, 2)
    rows, sign = table.get((x.family, y.family)), 1
    if rows is None:
        rows, m, n = table[(y.family, x.family)], n, m
        sign = 1 if x.parity and y.parity else -1
    tot = x.twice + y.twice
    out = []
    for row in rows:
        c = sign * value(row, m, n)
        if c and (tot == 0 or row[0] != "C"):
            out.append((BasisSymbol(x.algebra, row[0], tot), c))
    return tuple(out)


# The bracket tables as they were written before their rows became int data:
# (result family, coefficient(m, n)), m and n the pair's modes as Fractions.
_LAMBDA_N2 = {
    ("L", "L"): (("L", lambda m, n: m - n), ("C", lambda m, n: (m**3 - m) / 12)),
    ("L", "H"): (("H", lambda m, n: -n),),
    ("H", "H"): (("C", lambda m, n: m / 3),),
    ("L", "Gp"): (("Gp", lambda m, n: m / 2 - n),),
    ("L", "Gm"): (("Gm", lambda m, n: m / 2 - n),),
    ("H", "Gp"): (("Gp", lambda m, n: 1),),
    ("H", "Gm"): (("Gm", lambda m, n: -1),),
    ("Gm", "Gp"): (
        ("L", lambda m, n: 2),
        ("H", lambda m, n: n - m),
        ("C", lambda m, n: (m * m - Fraction(1, 4)) / 3),
    ),
    ("Gp", "Gp"): (),
    ("Gm", "Gm"): (),
}

_LAMBDA_TOPOLOGICAL = {
    ("L", "L"): (("L", lambda m, n: m - n),),
    ("L", "H"): (("H", lambda m, n: -n), ("C", lambda m, n: (m * m + m) / 6)),
    ("H", "H"): (("C", lambda m, n: m / 3),),
    ("L", "G"): (("G", lambda m, n: m - n),),
    ("L", "Q"): (("Q", lambda m, n: -n),),
    ("H", "G"): (("G", lambda m, n: 1),),
    ("H", "Q"): (("Q", lambda m, n: -1),),
    ("G", "Q"): (
        ("L", lambda m, n: 2),
        ("H", lambda m, n: -2 * n),
        ("C", lambda m, n: (m * m + m) / 3),
    ),
    ("G", "G"): (),
    ("Q", "Q"): (),
}

_LAMBDA_N1 = {  # centerless
    ("L", "L"): (("L", lambda m, n: m - n),),
    ("L", "G"): (("G", lambda m, n: m / 2 - n),),
    ("G", "G"): (("L", lambda m, n: 2),),
}

_LAMBDA_TABLES = {"R": _LAMBDA_N2, "NS": _LAMBDA_N2, "T": _LAMBDA_TOPOLOGICAL,
                  "N1R": _LAMBDA_N1, "N1NS": _LAMBDA_N1}


def test_int_rows_transcribe_the_lambda_tables():
    for algebra in ALGEBRAS:
        for x, y in product(basis_symbols(algebra, 4), repeat=2):
            want = _bracket_oracle(x, y, _LAMBDA_TABLES, _lambda_row)
            assert _basis_bracket(x, y) == want, (x, y)


def test_every_table_row_is_int_data():
    for algebra, table in algebras._TABLES.items():
        for pair, rows in table.items():
            assert type(rows) is tuple, (algebra, pair)
            for row in rows:
                assert type(row) is tuple and len(row) == 3, (algebra, pair, row)
                family, terms, d = row
                assert family in algebras._FAMILY_PARITY, (algebra, pair, row)
                assert type(terms) is tuple and terms, (algebra, pair, row)
                for term in terms:
                    assert type(term) is tuple and len(term) == 3, (algebra, pair, term)
                    assert all(type(k) is int for k in term), (algebra, pair, term)
                    assert term[0] and min(term[1:]) >= 0, (algebra, pair, term)
                assert type(d) is int and d > 0, (algebra, pair, row)


@pytest.mark.parametrize("table", [None, *sorted(_CORRUPTED_ROWS)])
def test_basis_bracket_matches_the_fraction_oracle(monkeypatch, table):
    if table is not None:
        pair, rows, _ = _CORRUPTED_ROWS[table]
        monkeypatch.setitem(getattr(algebras, table), pair, rows)
    for algebra in ALGEBRAS:
        for x, y in product(basis_symbols(algebra, 4), repeat=2):
            got, want = _basis_bracket(x, y), _bracket_oracle(x, y)
            assert got == want, (x, y)
            assert all(type(c) is Fraction for _, c in got), (x, y)


# -- symbol identity ---------------------------------------------------------------

def test_symbols_from_every_source_are_one_symbol():
    for algebra in ALGEBRAS:
        syms = basis_symbols(algebra, 2)
        for s in syms:
            twin = BasisSymbol(s.algebra, s.family, s.twice)
            (parsed,) = el(algebra, s.render()).terms
            assert twin is not s and s == twin == parsed, s
            assert hash(s) == hash(twin) == hash(parsed), s
            assert type(s.index) is Fraction and s.index == Fraction(s.twice, 2), s
            for other in syms:
                assert (s == other) == (s is other), (s, other)
        for x, y in product(syms, repeat=2):
            for z, _ in _basis_bracket(x, y):
                twin = BasisSymbol(z.algebra, z.family, z.twice)
                assert z == twin and hash(z) == hash(twin), (x, y, z)
        # sorted by algebra tag, then family (L, H, Gp, Gm, G, Q, C), then mode
        keys = [(s.algebra, algebras._FAMILY_ORDER[s.family], s.twice) for s in syms]
        assert [s.sort_index for s in sorted(reversed(syms))] == sorted(keys)


def test_symbol_order_repr_and_replace():
    R, NS = (lambda f, t=0: BasisSymbol("R", f, t)), (lambda f, t=0: BasisSymbol("NS", f, t))
    mixed = [R("C"), NS("Gp", -1), R("Gp", 0), R("L", 2), R("H", -2), NS("L", 0), R("L", -2)]
    assert sorted(mixed) == [NS("L", 0), NS("Gp", -1), R("L", -2), R("L", 2), R("H", -2),
                             R("Gp", 0), R("C")]
    assert R("L", 0) != NS("L", 0) and R("L", 0) != R("H", 0) and R("L", 0) < R("H", 0)
    assert R("L", 0) != "L[0]" and R("L", 0).__eq__(("R", 0, 0)) is NotImplemented
    assert repr(NS("Gp", -1)) == "BasisSymbol(algebra='NS', family='Gp', twice=-1)"
    assert repr(R("C")) == "BasisSymbol(algebra='R', family='C', twice=0)"
    s = R("L", 2)
    moved = BasisSymbol(s.algebra, s.family, -6)
    assert moved.index == -3 and moved == R("L", -6) and hash(moved) == hash(R("L", -6))
    assert moved != R("L", 2)


def test_pickled_symbols_are_rebuilt_not_copied():
    s = BasisSymbol("NS", "Gm", 3)
    data = pickle.dumps(s)
    assert b"_hash" not in data and b"sort_index" not in data
    back = pickle.loads(data)
    assert back == s and hash(back) == hash(s) and back.index == Fraction(3, 2)


@pytest.mark.parametrize("args, message", [
    (("X", "L", 0), "unknown algebra 'X'"),
    (("R", "G", 0), "family 'G' does not exist in R"),
    (("R", "C", 2), "C carries no mode index"),
    (("NS", "H", 1), "H modes are integers"),
    (("NS", "Gm", 2), "Gm modes in NS are half-integers"),
    (("N1R", "G", -1), "G modes in N1R are integers"),
])
def test_invalid_symbols_are_refused(args, message):
    with pytest.raises(ValueError) as info:
        BasisSymbol(*args)
    assert str(info.value) == message


def test_symbols_compare_in_sort_index_order():
    syms = basis_symbols("R", 1) + basis_symbols("NS", 1) + basis_symbols("T", 1)
    for x, y in product(syms, repeat=2):
        u, v = x.sort_index, y.sort_index
        assert (x < y, x <= y, x > y, x >= y) == (u < v, u <= v, u > v, u >= v), (x, y)
    for compare in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(syms[0], compare)(0) is NotImplemented
    with pytest.raises(TypeError):
        syms[0] <= 0


def test_a_passing_jacobi_sweep_reads_no_basis_bracket(monkeypatch):
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return _basis_bracket(x, y)

    monkeypatch.setattr(algebras, "_basis_bracket", counting)
    assert check_super_jacobi("R", 2).passed
    assert calls == []


def test_jacobi_sweep_reports_a_missing_pair(monkeypatch):
    monkeypatch.delitem(algebras._TOPOLOGICAL, ("H", "Q"))
    with pytest.raises(LookupError):
        check_super_jacobi("T", 1)


@pytest.mark.parametrize("name", sorted(STANDARD_MAPS))
def test_map_images_keep_parity_and_center_at_mode_zero(name):
    gmap = STANDARD_MAPS[name]()
    for s in basis_symbols(gmap.source, 4):
        image = gmap.rule(s)
        assert not image.is_zero() and image.parity() == s.parity, (s, image)
        assert all(sym.family != "C" or s.twice == 0 for sym in image.terms), (s, image)


def test_jacobi_trivial_triple():
    L0 = el("R", "L[0]")
    assert bracket(L0, bracket(L0, L0)).is_zero()


# -- homomorphisms ----------------------------------------------------------------

def test_sigma_images():
    sigma = spectral_flow()
    assert apply_map(sigma, el("NS", "L[0]")) == el("R", "L[0] + 1/2*H[0] + 1/24*C")
    assert apply_map(sigma, el("NS", "H[0]")) == el("R", "H[0] + 1/6*C")
    assert apply_map(sigma, el("NS", "Gp[1/2]")) == el("R", "Gp[1]")
    assert apply_map(sigma, el("NS", "Gm[1/2]")) == el("R", "Gm[0]")


def test_t2r_images():
    t2r = topological_to_ramond()
    assert apply_map(t2r, el("T", "L[1]")) == el("R", "L[1] + 3/2*H[1]")
    assert apply_map(t2r, el("T", "G[0]")) == el("R", "Gp[1]")
    assert apply_map(t2r, el("T", "Q[0]")) == el("R", "Gm[-1]")


def test_upsilon_images():
    u1 = embed_ns1_in_r1()
    assert apply_map(u1, el("N1NS", "L[1]")) == el("N1R", "1/2*L[2]")
    assert apply_map(u1, el("N1NS", "G[1/2]")) == el("N1R", "G[1]") * Scalar.number(INV_SQRT2)
    u2 = embed_r1_in_r2()
    got = apply_map(u2, el("N1R", "G[2]"))
    expect = (el("R", "Gp[2]") + el("R", "Gm[2]")) * Scalar.number(INV_SQRT2)
    assert got == expect


@pytest.mark.parametrize("name", sorted(STANDARD_MAPS))
def test_homomorphism_window4(name):
    report = check_homomorphism(STANDARD_MAPS[name](), 4)
    assert report.passed, report.render_text()


def test_upsilon2_needs_mod_center():
    u2 = embed_r1_in_r2()
    raw = GeneratorMap("upsilon2-raw", u2.source, u2.target, u2.rule, mod_center=False)
    report = check_homomorphism(raw, 2)
    assert not report.passed
    assert any("G[1]" in v.context and "G[-1]" in v.context for v in report.violations)


def test_a_passing_homomorphism_check_builds_nothing_beyond_its_images(monkeypatch):
    built, depth = [], [0]  # elements and scalars built outside apply_map
    apply, inits = algebras.apply_map, {cls: cls.__init__ for cls in (AlgebraElement, Scalar)}

    def nested(gmap, x):
        depth[0] += 1
        try:
            return apply(gmap, x)
        finally:
            depth[0] -= 1

    def counting(cls):
        def init(self, *args):
            if not depth[0]:
                built.append(cls.__name__)
            inits[cls](self, *args)
        return init

    monkeypatch.setattr(algebras, "apply_map", nested)
    for cls in inits:
        monkeypatch.setattr(cls, "__init__", counting(cls))
    assert check_homomorphism(spectral_flow(), 2).passed
    assert built == []


def _homomorphism_oracle(gmap, window):
    """The violations of the homomorphism check, element by element: each
    side built with ``bracket`` and ``apply_map``, (context, lhs, rhs) in
    sweep order."""
    syms = basis_symbols(gmap.source, window)
    elems = {s: AlgebraElement.basis(s) for s in syms}
    images = {s: apply_map(gmap, elems[s]) for s in syms}
    out = []
    for x, y in product(syms, repeat=2):
        lhs = apply_map(gmap, bracket(elems[x], elems[y]))
        rhs = bracket(images[x], images[y])
        rhs = rhs.drop_center() if gmap.mod_center else rhs
        if lhs != rhs:
            out.append((f"hom {gmap.name} ({x}, {y})", lhs.render(), rhs.render()))
    return out


def _corrupted_maps():
    u2 = embed_r1_in_r2()
    return {
        # L's H coefficient 1/2 -> 1/3
        "sigma": algebras._generator_map("sigma", "NS", "R", {
            "L": (("L", 1, 0, 1), ("H", 1, 0, Fraction(1, 3)), ("C", 0, 0, Fraction(1, 24))),
            "H": (("H", 1, 0, 1), ("C", 0, 0, Fraction(1, 6))),
            "Gp": (("Gp", 1, 1, 1),),
            "Gm": (("Gm", 1, -1, 1),),
            "C": (("C", 0, 0, 1),),
        }),
        # G's coefficient 1/sqrt2 -> sqrt2
        "upsilon1": algebras._generator_map("upsilon1", "N1NS", "N1R", {
            "L": (("L", 2, 0, Fraction(1, 2)),),
            "G": (("G", 2, 0, SQRT2),),
        }),
        "upsilon2-raw": GeneratorMap("upsilon2-raw", u2.source, u2.target, u2.rule),
        # mod center: Gm's coefficient 1/sqrt2 -> sqrt2
        "upsilon2": algebras._generator_map("upsilon2", "N1R", "R", {
            "L": (("L", 1, 0, 1),),
            "G": (("Gp", 1, 0, INV_SQRT2), ("Gm", 1, 0, SQRT2)),
        }, mod_center=True),
    }


@pytest.mark.parametrize("name", sorted(_corrupted_maps()))
def test_homomorphism_violations_match_an_element_oracle(name):
    gmap = _corrupted_maps()[name]
    want = _homomorphism_oracle(gmap, 2)
    got = [(v.context, v.lhs, v.rhs) for v in check_homomorphism(gmap, 2).violations]
    assert want and got == want


def test_twist_composition_equals_spectral_flow():
    assert check_twist_composition(4).passed


def test_apply_map_mismatch():
    with pytest.raises(AlgebraMismatch):
        apply_map(spectral_flow(), el("R", "L[0]"))


def test_compose_mismatch():
    with pytest.raises(AlgebraMismatch):
        compose(embed_ns1_in_r1(), embed_r1_in_r2())
