"""Failure paths that no passing run reaches: the text a failing report
prints, usage errors of ``restrict``, the refusals of ``map_image`` and the
violations that two sweeps record under a fault."""

import re

import pytest

from sconf import cli, freemod, n1, submodules
from sconf.algebras import AlgebraElement, BasisSymbol, GeneratorMap, apply_map
from sconf.errors import AlgebraMismatch, MixedParity
from sconf.freemod import EVEN
from sconf.parsing import parse_submodule_spec
from sconf.quotients import QuotientElement, QuotientParams
from test_table_seams import _h_adds_one, _wrap

VIOLATION = re.compile(r"  VIOLATION (.+?): lhs = .+ ; rhs = .+")


def test_a_failing_verify_prints_each_violation_in_context_order(capsys, monkeypatch):
    good = freemod.act_basis
    monkeypatch.setattr(freemod, "act_basis",
                        lambda sym, v: good(sym, v) * 2 if sym.family == "H" else good(sym, v))
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
    _wrap(monkeypatch, freemod, "act_basis", _h_adds_one)
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
