"""Failure paths that no passing run reaches: the text a failing report
prints, usage errors of ``restrict``, the refusals of ``map_image``,
``maps_agree`` and ``parse_algebra_element``, the window refusals of the
sweeps, the violations that the sweeps and the submodule witness record
under a fault, and the raises of ``composition_series`` under a faulty root
finder or containment check."""

import re

import pytest

from sconf import cli, freemod, n1, quotients, submodules
from sconf.algebras import (
    AlgebraElement, BasisSymbol, GeneratorMap, apply_map, check_super_jacobi, embed_r1_in_r2,
    maps_agree, spectral_flow, topological_twist,
)
from sconf.errors import AlgebraMismatch, MixedParity, ParseError, UnsplitPolynomial
from sconf.freemod import EVEN, ModuleElement, check_module_compatibility
from sconf.parsing import parse_algebra_element, parse_submodule_spec
from sconf.quotients import QuotientElement, QuotientParams, composition_series
from sconf.scalars import SQRT2
from sconf.submodules import UniPoly

from test_algebras import _corrupted_maps
from test_compat_failures import on_rows, scale_family
from test_table_seams import _h_adds_one

VIOLATION = re.compile(r"  VIOLATION (.+?): lhs = .+ ; rhs = .+")


def test_a_failing_verify_prints_each_violation_in_context_order(capsys, monkeypatch):
    on_rows(monkeypatch, freemod, "basis_rows",
            lambda good, sym, v: good(sym, v) * 2 if sym.family == "H" else good(sym, v))
    assert cli.main(["verify", "module", "--window", "1", "--degree", "1"]) == 1
    first, *lines = capsys.readouterr().out.splitlines()
    assert first == "suite=module window=1 degree=1 status=fail violations=186"
    assert len(lines) == 186
    assert lines[0] == "  VIOLATION H0 on 1: lhs = 2*y ; rhs = y"
    contexts = [VIOLATION.fullmatch(line).group(1) for line in lines]
    assert contexts == sorted(contexts)


@pytest.mark.parametrize("flag", ["--window", "--degree"])
def test_restrict_refuses_a_zero_size(capsys, flag):
    assert cli.main(["restrict", "--check", "relations", flag, "0"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "usage error: --window and --degree must be >= 1\n")


L1 = BasisSymbol("N1R", "L", 2)


def test_map_image_refuses_an_image_in_another_algebra():
    bad = GeneratorMap("bad", "N1R", "R",
                       lambda s: AlgebraElement.basis(BasisSymbol("NS", "L", s.twice)))
    with pytest.raises(AlgebraMismatch, match=r"^rule of bad produced a NS element$"):
        apply_map(bad, L1)


def test_map_image_refuses_an_image_of_another_parity():
    flip = GeneratorMap("flip", "N1R", "R",
                        lambda s: AlgebraElement.basis(BasisSymbol("R", "Gp", s.twice)),
                        mod_center=True)
    message = r"^map flip does not preserve parity at L\[1\]$"
    with pytest.raises(MixedParity, match=message):
        apply_map(flip, L1)
    r = n1.RestrictedAction("N1R", flip, QuotientParams(a=1))
    with pytest.raises(MixedParity, match=message):
        n1.restricted_act(AlgebraElement.basis(L1), QuotientElement.one(EVEN), r)


def test_central_triviality_records_the_bracket_combination(monkeypatch):
    on_rows(monkeypatch, freemod, "basis_rows", _h_adds_one)
    report = freemod.check_central_triviality(1)
    even, odd = "(3*lam - 3*lam^-1)*y", "(3*lam - 3*lam^-1)*t"
    assert [(v.context, v.lhs, v.rhs) for v in report.violations] == [
        ("3[H1,H-1] combo on 1", even, "0"),
        ("3[H1,H-1] combo on y", even, "0"),
        ("3[H1,H-1] combo on x", even, "0"),
        ("3[H1,H-1] combo on 1", odd, "0"),
        ("3[H1,H-1] combo on t", odd, "0"),
        ("3[H1,H-1] combo on s", odd, "0"),
    ]


def test_lattice_order_records_each_failed_containment(monkeypatch):
    monkeypatch.setattr(submodules, "check_containment", lambda inner, outer: False)
    specs = [parse_submodule_spec(s) for s in ("M[h=y]", "N[h=y]", "M[h=y^2-y]")]
    report = submodules.check_lattice_order(specs)
    assert report.status == "fail"
    assert [(v.context, v.lhs, v.rhs) for v in report.violations] == [
        (context, "not contained", "contained")
        for context in ("N<=M for h=y", "M[y] <= M[y]", "M[y^2 - y] <= M[y]",
                        "M[y^2 - y] <= M[y^2 - y]")
    ]


@pytest.mark.parametrize("other", [topological_twist, embed_r1_in_r2], ids=["target", "source"])
def test_maps_agree_refuses_maps_between_other_algebras(other):
    with pytest.raises(AlgebraMismatch,
                       match="^maps with different source or target cannot agree$"):
        maps_agree(spectral_flow(), other(), 1)


def test_maps_agree_records_each_generator_where_the_maps_differ():
    report = maps_agree(spectral_flow(), _corrupted_maps()["sigma"], 1)
    assert report.render_text().splitlines() == [
        "suite=map-agreement maps=sigma vs sigma window=1 status=fail violations=3",
        "  VIOLATION agreement sigma vs sigma (L[-1]): lhs = L[-1] + 1/2*H[-1] ; "
        "rhs = L[-1] + 1/3*H[-1]",
        "  VIOLATION agreement sigma vs sigma (L[0]): lhs = L[0] + 1/2*H[0] + 1/24*C ; "
        "rhs = L[0] + 1/3*H[0] + 1/24*C",
        "  VIOLATION agreement sigma vs sigma (L[1]): lhs = L[1] + 1/2*H[1] ; "
        "rhs = L[1] + 1/3*H[1]",
    ]


def test_rank1_freeness_records_the_even_and_the_odd_words(monkeypatch):
    scale_family(monkeypatch, n1, "restricted_rows", ("L",))
    report = n1.check_rank1_freeness(n1.RestrictedAction.ramond(QuotientParams(a=1)), 2)
    assert [(v.context, v.lhs, v.rhs) for v in report.violations] == [
        ("L0^1 . 1_even", "2*x", "x"),
        ("L0^1 G0 . 1_even", "alp*sqrt2*s", "1/2*alp*sqrt2*s"),
        ("L0^2 . 1_even", "4*x^2", "x^2"),
        ("L0^2 G0 . 1_even", "2*alp*sqrt2*s^2", "1/2*alp*sqrt2*s^2"),
    ]


def test_an_unknown_algebra_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse_algebra_element("L[0]", "X")
    assert str(info.value) == "unknown algebra 'X' (token 'X' at position 0)"
    assert (info.value.pos, info.value.token) == (0, "X")


def test_verify_submodule_records_a_witness_that_is_a_member(capsys, monkeypatch):
    real, one = submodules.contains_rows, ModuleElement.one(EVEN)
    monkeypatch.setattr(submodules, "contains_rows",
                        lambda s, rows: ModuleElement.from_rows(rows) == one or real(s, rows))
    assert cli.main(["verify", "submodule", "--window", "1", "--degree", "1"]) == 1
    first, *lines = capsys.readouterr().out.splitlines()
    assert first.startswith("suite=submodule specs=M[h=1],N[h=1],M[h=y],")
    assert first.endswith(" window=1 degree=1 status=fail violations=1")
    assert lines == [
        "  VIOLATION proper submodule witness 1_even not in M[h=y]: lhs = member ; "
        "rhs = not member"]


def test_the_sweeps_refuse_an_empty_window():
    with pytest.raises(ValueError, match=r"^window must be >= 1$"):
        check_super_jacobi("R", 0)
    for window, degree in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match=r"^index_window and degree_bound must be >= 1$"):
            check_module_compatibility(window, degree)


H12 = UniPoly.from_roots([1, 2])  # y^2 - 3*y + 2


def test_composition_series_refuses_roots_that_do_not_multiply_back(monkeypatch):
    good = quotients.find_roots
    monkeypatch.setattr(quotients, "find_roots", lambda h, hint=None: good(h, hint)[:-1])
    with pytest.raises(UnsplitPolynomial, match=r"^roots \[QuadExt\(Fraction\(1, 1\), "
                                                r"Fraction\(0, 1\)\)\] do not multiply back "
                                                r"to y\^2 - 3\*y \+ 2$"):
        composition_series(H12)


def test_composition_series_raises_on_a_failed_containment(monkeypatch):
    monkeypatch.setattr(quotients, "check_containment", lambda inner, outer: False)
    with pytest.raises(AssertionError, match=r"^chain link M\[h=y\^2 - 3\*y \+ 2\] <= "
                                             r"M\[h=y - 1\] failed containment$"):
        composition_series(H12)


def test_a_unipoly_times_a_number_scales_each_coefficient():
    p = UniPoly((1, SQRT2))
    assert p * 2 == 2 * p == UniPoly((2, 2 * SQRT2))
    assert p * SQRT2 == SQRT2 * p == UniPoly((SQRT2, 2))
    assert (p * 0).is_zero() and (0 * p).is_zero()
