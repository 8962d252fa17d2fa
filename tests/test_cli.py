"""CLI contract: exit codes, JSON schema, output round trips."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from sconf import algebras, cli, freemod, n1, quotients, submodules
from sconf.algebras import AlgebraElement, BasisSymbol, GeneratorMap
from sconf.cli import ACT_MAX_DIGITS, ACT_MAX_MODE, ACT_MAX_WORK, MAX_SIZE, main
from sconf.parsing import MAX_DIGITS, MAX_EXPONENT, MAX_NESTING
from sconf.reports import VerificationReport

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "suite": {"type": "string"},
        "params": {"type": "object"},
        "status": {"enum": ["pass", "fail", "inconclusive"]},
        "violations": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "context": {"type": "string"},
                    "lhs": {"type": "string"},
                    "rhs": {"type": "string"},
                },
                "required": ["context", "lhs", "rhs"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["suite", "params", "status", "violations"],
    "additionalProperties": False,
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    return code, doc


def test_verify_algebra_pass(capsys):
    code, doc = run_json(capsys, "verify", "algebra", "--which", "R", "--window", "2")
    assert code == 0 and doc["status"] == "pass" and doc["violations"] == []


def test_verify_homomorphism_named(capsys):
    code, doc = run_json(capsys, "verify", "homomorphism", "--map", "sigma", "--window", "4")
    assert code == 0 and doc["status"] == "pass"


def test_verify_submodule_spec(capsys):
    code, doc = run_json(
        capsys, "verify", "submodule", "--spec", "M[h=y^2-1]", "--window", "2", "--degree", "2"
    )
    assert code == 0 and doc["status"] == "pass"


def test_verify_quotient_single_a(capsys):
    code, doc = run_json(
        capsys, "verify", "quotient", "--a", "1", "--window", "2", "--degree", "2"
    )
    assert code == 0 and doc["status"] == "pass"


def test_verify_restriction_rank1(capsys):
    code, doc = run_json(
        capsys, "verify", "restriction", "--algebra", "N1R", "--a", "1",
        "--check", "rank1", "--degree", "4",
    )
    assert code == 0 and doc["status"] == "pass"


def test_restrict_simplicity(capsys):
    code, doc = run_json(
        capsys, "restrict", "--algebra", "N1R", "--a", "1", "--check", "simplicity",
        "--degree", "3",
    )
    assert code == 0 and doc["status"] == "pass"


@pytest.mark.parametrize("argv", [
    ("--a", "1", "--window", "1", "--degree", "6"),
    ("--a", "1+sqrt2", "--window", "6", "--degree", "6"),
])
def test_simplicity_at_the_caps_passes_by_certificate(capsys, argv):
    code, out, err = run(capsys, "restrict", "--check", "simplicity", *argv)
    assert code == 0 and err == ""
    assert out.splitlines()[-1].endswith("so the restriction is simple")
    # window 1 holds the modes of X_d only up to d = 1
    assert ("outside the window" in out) == (argv[3] == "1")


@pytest.mark.parametrize("check", ("relations", "rank1", "simplicity"))
def test_restrict_is_verify_restriction(capsys, check):
    # both commands read their defaults from one place, so the same flags
    # must check the same thing; only the suite name differs
    flags = ("--check", check, "--a", "1", "--window", "1", "--degree", "1")
    _, restrict = run_json(capsys, "restrict", *flags)
    _, verify = run_json(capsys, "verify", "restriction", *flags)
    assert restrict.pop("suite") != verify.pop("suite") == "restriction"
    assert restrict == verify


def test_act_examples(capsys):
    code, out, _ = run(capsys, "act", "L[1]", "1", "--module", "omega", "--parity", "even")
    assert code == 0 and out.strip() == "lam*x + 1/2*lam*y"
    code, out, _ = run(capsys, "act", "Gp[2]", "1", "--module", "omega", "--parity", "odd")
    assert code == 0 and out.strip() == "2*lam^2*alp^-1*x + 4*lam^2*alp^-1*y"
    code, out, _ = run(capsys, "act", "C", "x^5*y")
    assert code == 0 and out.strip() == "0"


def test_act_quotient_with_specialization(capsys):
    code, out, _ = run(
        capsys, "act", "L[1]", "x", "--module", "quotient", "--a", "1",
        "--lam0", "2", "--alp0", "3",
    )
    assert code == 0 and out.strip() == "2*x^2 + x - 1"


def test_act_word_composition(capsys):
    code, out, _ = run(capsys, "act", "Gp[0]; Gm[0]", "1", "--parity", "even")
    assert code == 0 and out.strip() == "2*x"
    code, out, _ = run(capsys, "act", "Gm[0]; Gp[0]", "1", "--parity", "even")
    assert code == 0 and out.strip() == "0"  # the right-hand factor acts first


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    def refuse():
        raise AssertionError("cli.main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    first, second = (run(capsys, "act", "L[1]; Gp[2]", "s^2*t - 3")
                     for _ in range(2))
    assert first == second and first[0] == 0 and first[1].strip() != "0"


def test_decompose_pass(capsys):
    code, doc = run_json(capsys, "decompose", "--h", "y^2-1")
    assert code == 0 and doc["status"] == "pass"
    assert doc["params"]["factors"] == ["-1", "1"]
    assert doc["params"]["chain"] == ["M[h=y - 1]", "M[h=y^2 - 1]"]
    # two conjugate pairs: (y^2 - 2)(y^2 - 8)
    code, doc = run_json(capsys, "decompose", "--h", "y^4-10*y^2+16")
    assert code == 0 and doc["status"] == "pass" and len(doc["params"]["factors"]) == 4


def test_decompose_with_hints(capsys):
    code, doc = run_json(capsys, "decompose", "--h", "y^2-2", "--roots", "sqrt2,-sqrt2")
    assert code == 0 and doc["status"] == "pass"


def test_decompose_inconclusive_exit2(capsys):
    code, doc = run_json(capsys, "decompose", "--h", "y^2-3")
    assert code == 2 and doc["status"] == "inconclusive"


def test_usage_error_exit3(capsys):
    assert run(capsys, "verify", "nosuchsuite")[0] == 3
    assert run(capsys, "act", "L[1", "1", "--parity", "even")[0] == 3
    assert run(capsys, "act", "L[1]", "x + s")[0] == 3
    assert run(capsys, "verify", "module", "--window", "0")[0] == 3
    assert run(capsys, "decompose", "--h", "1")[0] == 3


def test_failing_suite_exit1(capsys, monkeypatch):
    # a deliberately broken map (mode shift without the compensating H term)
    # demonstrates the failure exit path end to end
    def broken():
        good = algebras.spectral_flow()

        def rule(s):
            if s.family == "L":
                return AlgebraElement.basis(BasisSymbol("R", "L", s.twice))
            return good.rule(s)

        return GeneratorMap("sigma", "NS", "R", rule)

    monkeypatch.setitem(algebras.STANDARD_MAPS, "sigma", broken)
    code, doc = run_json(capsys, "verify", "homomorphism", "--map", "sigma", "--window", "1")
    assert code == 1 and doc["status"] == "fail" and doc["violations"]


def test_violations_sorted_in_json():
    report = VerificationReport("demo", {"k": 1})
    report.record("b-context", "1", "2")
    report.record("a-context", "3", "4")
    doc = report.to_dict()
    assert [v["context"] for v in doc["violations"]] == ["a-context", "b-context"]
    assert report.exit_code == 1


def test_simplicity_needs_n1r(capsys):
    # the simplicity certificate is a statement about the N1R restriction;
    # asking for it with --algebra N1NS must not silently run the N1R one
    for command in (("verify", "restriction"), ("restrict",)):
        code, out, err = run(
            capsys, *command, "--algebra", "N1NS", "--a", "1", "--check", "simplicity",
            "--degree", "1",
        )
        assert code == 3 and out == "" and "N1R" in err


def test_flags_the_command_ignores_are_usage_errors(capsys):
    # --spec only selects the submodule spec; other suites must not drop it
    code, out, err = run(
        capsys, "verify", "algebra", "--which", "N1R", "--window", "1", "--spec", "M[h=y]"
    )
    assert code == 3 and out == "" and "--spec" in err
    # the quotient parameters mean nothing on the rank-2 module
    for flag, value in (("--a", "1"), ("--lam0", "2"), ("--alp0", "3")):
        code, out, err = run(capsys, "act", "L[1]", "x", "--module", "omega", flag, value)
        assert code == 3 and out == "" and flag in err
        code, out, err = run(capsys, "act", "L[1]", "x", flag, value)
        assert code == 3 and out == "" and flag in err
    # each verify suite takes only the optional flags it reads
    for suite, flag, value in (
        ("module", "--a", "1"),
        ("algebra", "--map", "sigma"),
        ("algebra", "--check", "rank1"),
        ("quotient", "--words", "5"),
        ("homomorphism", "--which", "R"),
        ("submodule", "--algebra", "N1R"),
        ("quotient", "--lam0", "2"),
        ("module", "--alp0", "3"),
    ):
        code, out, err = run(
            capsys, "verify", suite, flag, value, "--window", "1", "--degree", "1"
        )
        assert code == 3 and out == "" and flag in err, (suite, flag)


def test_degree_where_no_suite_reads_it_is_a_usage_error(capsys, monkeypatch):
    for argv in (("algebra", "--which", "N1R"), ("homomorphism", "--map", "sigma")):
        code, out, err = run(capsys, "verify", *argv, "--window", "1", "--degree", "5")
        assert code == 3 and out == "", argv
        assert err == ("usage error: --degree applies only to the module, submodule, "
                       "quotient and restriction suites\n"), argv
    # the suites that read it default it to 3
    calls = _record_sweeps(monkeypatch)
    assert run(capsys, "verify", "module", "--window", "1")[0] == 0
    assert run(capsys, "verify", "restriction", "--check", "rank1", "--a", "1")[0] == 0
    assert calls[0][1] == (1, 3) and calls[-1][1][1:] == (3,)


# the entry point of every sweep a capped size could start
_SWEEPS = (
    (algebras, "check_super_jacobi"), (algebras, "check_homomorphism"),
    (freemod, "check_module_compatibility"), (freemod, "check_uh_freeness"),
    (submodules, "check_closure"), (quotients, "check_quotient_compatibility"),
    (n1, "check_n1_relations"), (n1, "check_rank1_freeness"),
    (n1, "check_simplicity_witness"),
)


def _record_sweeps(monkeypatch):
    """Replace every sweep by a stub that records its arguments."""
    calls = []
    for module, name in _SWEEPS:
        def stub(*args, _name=name, **kwargs):
            calls.append((_name, args, kwargs))
            return VerificationReport(_name, {})
        monkeypatch.setattr(module, name, stub)
    return calls


@pytest.mark.parametrize("argv", [
    ("verify", "algebra", "--window", "7"),
    ("verify", "homomorphism", "--map", "sigma", "--window", "7"),
    ("verify", "module", "--window", "7"),
    ("verify", "module", "--degree", "7"),
    ("verify", "submodule", "--degree", "7"),
    ("verify", "quotient", "--window", "7"),
    ("verify", "restriction", "--check", "simplicity", "--a", "1", "--degree", "7"),
    ("restrict", "--check", "simplicity", "--a", "1", "--window", "7"),
    ("restrict", "--check", "rank1", "--degree", "7"),
    ("restrict", "--check", "relations", "--window", "7"),
])
def test_sizes_above_the_caps_are_usage_errors(capsys, monkeypatch, argv):
    calls = _record_sweeps(monkeypatch)
    code, out, err = run(capsys, *argv)
    flag = argv[-2]
    assert code == 3 and out == "" and not calls
    assert err == f"usage error: {flag} must be <= {MAX_SIZE[flag[2:]]}\n"


@pytest.mark.parametrize("argv", [
    ("verify", "restriction", "--check", "simplicity", "--a", "1", "--words", "-2"),
    ("restrict", "--check", "simplicity", "--a", "1", "--words", "-1"),
])
def test_negative_words_is_a_usage_error(capsys, monkeypatch, argv):
    # no command reads --words, so any value of it is an unknown argument
    calls = _record_sweeps(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and not calls
    assert err == f"usage error: unrecognized arguments: {' '.join(argv[-2:])}\n"


@pytest.mark.parametrize("argv", [
    ("act", "L[\u0661]", "x^2"),  # ARABIC-INDIC DIGIT ONE
    ("act", "L[1]", "x^\uff12"),  # FULLWIDTH DIGIT TWO
    ("act", "L[1]", "x^2\u00a0+ 1"),  # NO-BREAK SPACE
    ("verify", "module", "--window", "\uff16", "--degree", "1"),
    ("verify", "quotient", "--window", "1", "--degree", "\u0661"),
    ("restrict", "--check", "simplicity", "--a", "1", "--window", "\uff12"),
])
def test_non_ascii_digits_are_usage_errors(capsys, monkeypatch, argv):
    calls = _record_sweeps(monkeypatch)
    code, out, _ = run(capsys, *argv)
    assert code == 3 and out == "" and not calls


def test_sizes_at_the_caps_run(capsys, monkeypatch):
    calls = _record_sweeps(monkeypatch)
    assert run(capsys, "verify", "module", "--window", "6", "--degree", "6")[0] == 0
    assert calls[0][1] == (6, 6)
    assert run(capsys, "restrict", "--check", "simplicity", "--a", "1", "--window", "6",
               "--degree", "6")[0] == 0
    assert calls[-1][1][3:] == (6,) and calls[-1][2] == {"index_window": 6}


def test_variable_exponents_are_capped(capsys):
    code, out, _ = run(capsys, "act", "L[1]", f"x^{MAX_EXPONENT}")
    assert code == 0 and f"x^{MAX_EXPONENT}" in out
    for argv in (
        ("act", "L[1]", "x^6000"),
        ("act", "L[1]", "x^32*x^33"),
        ("act", "L[1]", "lam*t^65", "--module", "omega"),
        ("act", "L[1]", "s^65", "--module", "quotient"),
        ("decompose", "--h", "y^65 - 1"),
        ("verify", "submodule", "--spec", "M[h=y^65]", "--window", "1", "--degree", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert f"variable exponents must be <= {MAX_EXPONENT}" in err, argv


def _record_acts(monkeypatch):
    """Replace both actions by stubs that record the factor and return v."""
    calls = []

    def stub(op, v, p=None):
        calls.append(op)
        return v

    monkeypatch.setattr(freemod, "act", stub)
    monkeypatch.setattr(quotients, "quotient_act", stub)
    return calls


def _sum(template, count):
    return " + ".join(template.format(k) for k in range(count))


@pytest.mark.parametrize("argv", [
    # one factor: 25 generator terms x 64^2 shift terms
    ("act", _sum("L[{}]", 25), "x^63*y^63"),
    # one factor: 25 generator terms x 62 coefficient terms x 65 shift terms
    ("act", _sum("L[{}]", 25), f"({_sum('lam^{}', 62)})*x^64", "--module", "quotient"),
    # one factor: 2 generator terms x 60 coefficient terms x 21^2 shift terms
    # is 52920, times 2 for the two 64-bit words of the 20-digit 3^40
    ("act", "L[1] + H[1]", f"{3**40}*({_sum('lam^{}', 60)})*x^20*y^20"),
])
def test_act_over_the_work_bound_runs_no_factor(capsys, monkeypatch, argv):
    calls = _record_acts(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and not calls
    assert err == f"usage error: act exceeds its work bound {ACT_MAX_WORK}\n"


def test_act_work_is_summed_over_the_factors(capsys, monkeypatch):
    # each factor costs 2 * 65^2 = 8450 on the unchanged stub output, so the
    # twelfth one would bring the sum over 100000
    calls = _record_acts(monkeypatch)
    assert 11 * 8450 <= ACT_MAX_WORK < 12 * 8450
    code, out, _ = run(capsys, "act", "; ".join(["L[1] + H[1]"] * 11), "x^64*y^64")
    assert code == 0 and len(calls) == 11
    calls.clear()
    code, out, err = run(capsys, "act", "; ".join(["L[1] + H[1]"] * 12), "x^64*y^64")
    assert code == 3 and out == "" and len(calls) == 11 and "work bound" in err


def test_act_modes_are_capped(capsys, monkeypatch):
    calls = _record_acts(monkeypatch)
    for mode in (ACT_MAX_MODE, -ACT_MAX_MODE):
        assert run(capsys, "act", f"L[{mode}] + H[{mode}]", "x")[0] == 0
    for mode in (ACT_MAX_MODE + 1, -ACT_MAX_MODE - 1):
        code, out, err = run(capsys, "act", f"L[1]; Gm[{mode}]", "x")
        assert code == 3 and out == ""
        assert err == f"usage error: act takes generator modes |m| <= {ACT_MAX_MODE}\n"
    assert len(calls) == 2


def test_long_act_composition_is_rejected_fast(capsys):
    # six alternating factors on x^64*y^64 ran for about a minute unbounded
    op = "; ".join(["L[5] + H[3]", "Gp[2] + Gm[-4]"] * 3)
    start = time.perf_counter()
    code, out, err = run(capsys, "act", op, "x^64*y^64")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == "" and "work bound" in err


def test_help_states_the_caps(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"at most {MAX_EXPONENT}" in text
    assert f"modes |m| at most {ACT_MAX_MODE}" in text and f"most {ACT_MAX_WORK} units" in text
    for argv in (["verify", "--help"], ["restrict", "--help"]):
        with pytest.raises(SystemExit):
            main(argv)
        text = " ".join(capsys.readouterr().out.split())
        for name, cap in MAX_SIZE.items():
            assert re.search(rf"--{name} {name.upper()} [^-]*at most {cap}", text), (argv, name)


@pytest.mark.parametrize("argv", [
    ("act", "L[64]", "x", "--module", "quotient", "--a", "1", "--lam0", "1" + "0" * 100,
     "--alp0", "3"),
    ("act", "L[1]", f"{'7' * 4000}*x"),
    ("act", "L[1]", "x", "--module", "quotient", "--a", f"1/{'3' * 21}"),
    ("decompose", "--h", f"y^2 - {'1' * 4000}"),
    ("decompose", "--h", "y^2 - 1", "--roots", f"{'1' * 21}"),
    ("verify", "quotient", "--a", f"{'10' * 11}*sqrt2", "--window", "1", "--degree", "1"),
    ("restrict", "--check", "simplicity", "--a", "1", "--alp0", "2" * 21, "--degree", "1"),
])
def test_constants_over_the_digit_cap_are_usage_errors(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert f"numbers must have at most {MAX_DIGITS} digits" in err and "limit" not in err


def test_act_stops_at_a_result_over_the_digit_cap(capsys):
    # 9^(64 k) passes 4000 digits at the 66th factor, under the work bound
    ops = "; ".join(["H[64]"] * 75)
    code, out, err = run(capsys, "act", ops, "1", "--parity", "even", "--module", "quotient",
                         "--a", "1", "--lam0", "9", "--alp0", "1")
    assert code == 3 and out == ""
    assert err == f"usage error: act's result has a number of more than {ACT_MAX_DIGITS} digits\n"
    code, out, _ = run(capsys, "act", "; ".join(["H[64]"] * 65), "1", "--parity", "even",
                       "--module", "quotient", "--a", "1", "--lam0", "9", "--alp0", "1")
    assert code == 0 and len(out) > 3900


def test_help_states_the_number_caps(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"a number at most {MAX_DIGITS} digits" in text
    assert f"more than {ACT_MAX_DIGITS} digits" in text
    with pytest.raises(SystemExit):
        main(["act", "--help"])
    assert f"result numbers <= {ACT_MAX_DIGITS} digits" in " ".join(capsys.readouterr().out.split())


_DEEP = "(" * 250 + "1" + ")" * 250


def test_help_states_the_nesting_cap(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert f"parentheses at most {MAX_NESTING} deep" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("argv", [
    ("act", "L[1]", f"{_DEEP}*x"),
    ("act", "(" * 1000 + "L[1]" + ")" * 1000, "x"),
    ("decompose", "--h", f"y - {_DEEP}"),
    ("verify", "quotient", "--a", _DEEP, "--window", "1", "--degree", "1"),
])
def test_deep_parentheses_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert f"parentheses must nest at most {MAX_NESTING} deep" in err


@pytest.mark.parametrize("argv, token", [
    (("act", "L[1]", "(x)"), "x"),
    (("decompose", "--h", "(y-1)^2"), "y"),
])
def test_variables_in_parentheses_are_named_as_such(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == ("error: parentheses hold scalars only: numbers, sqrt2 and parameters "
                   f"(token '{token}' at position 1)\n")


@pytest.mark.parametrize("argv", [
    ("verify", "quotient", "--a", "", "--window", "1", "--degree", "1"),
    ("verify", "submodule", "--spec", "", "--window", "1", "--degree", "1"),
    ("verify", "restriction", "--lam0", "", "--window", "1", "--degree", "1"),
    ("restrict", "--check", "simplicity", "--a", "", "--degree", "1", "--window", "1"),
    ("restrict", "--check", "simplicity", "--alp0", "", "--degree", "1", "--window", "1"),
    ("act", "L[1]", "x", "--module", "quotient", "--a", "1", "--lam0", ""),
    ("decompose", "--h", "y^2-1", "--roots", ""),
    ("decompose", "--h", "y^2-1", "--roots", "1,"),
])
def test_empty_values_are_usage_errors(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 3 and out == ""


@pytest.mark.parametrize("argv", [
    ("verify", "algebra", "--window", "1", "--h", "y"),
    ("verify", "module", "--win", "1"),
    ("restrict", "--check", "rank1", "--deg", "1"),
])
def test_abbreviated_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("usage error: unrecognized arguments")


def test_more_roots_than_the_degree_are_refused_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", "--h", "y^2-2", "--roots", ",".join(["sqrt2"] * 2000))
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == "usage error: --roots lists 2000 roots; h has degree 2\n"


@pytest.mark.parametrize("argv, code", [
    (["decompose", "--h=y^3-y"], 0), (["act", "L[1]", "x"], 0), (["decompose", "--h=y^2-3"], 2),
])
def test_a_closed_stdout_keeps_the_verdict(argv, code):
    """A reader that closed stdout (``sconf decompose ... | head -n 3`` can)
    leaves no traceback and the verdict's own exit code."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run([sys.executable, "-m", "sconf.cli", *argv], stdout=write,
                             stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (code, b"")
