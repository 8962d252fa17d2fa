"""CLI contract: exit codes, JSON schema, output round trips."""

import json
import re

import jsonschema
import pytest

from sconf import algebras, freemod, n1, quotients, submodules
from sconf.algebras import AlgebraElement, BasisSymbol, GeneratorMap
from sconf.cli import MAX_SIZE, main
from sconf.parsing import MAX_EXPONENT
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
        "--degree", "3", "--words", "3",
    )
    assert code == 0 and doc["status"] == "pass"


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
            "--degree", "1", "--words", "1",
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
    ("verify", "restriction", "--check", "simplicity", "--a", "1", "--words", "7"),
    ("restrict", "--check", "simplicity", "--a", "1", "--words", "7"),
    ("restrict", "--check", "rank1", "--degree", "7"),
    ("restrict", "--check", "relations", "--window", "7"),
])
def test_sizes_above_the_caps_are_usage_errors(capsys, monkeypatch, argv):
    calls = _record_sweeps(monkeypatch)
    code, out, err = run(capsys, *argv)
    flag = argv[-2]
    assert code == 3 and out == "" and not calls
    assert err == f"usage error: {flag} must be <= {MAX_SIZE[flag[2:]]}\n"


def test_sizes_at_the_caps_run(capsys, monkeypatch):
    calls = _record_sweeps(monkeypatch)
    assert run(capsys, "verify", "module", "--window", "6", "--degree", "6")[0] == 0
    assert calls[0][1] == (6, 6)
    assert run(capsys, "restrict", "--check", "simplicity", "--a", "1", "--window", "6",
               "--degree", "6", "--words", "6")[0] == 0
    assert calls[-1][1][3:] == (6, 6)


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


def test_help_states_the_caps(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert f"at most {MAX_EXPONENT}" in capsys.readouterr().out
    for argv in (["verify", "--help"], ["restrict", "--help"]):
        with pytest.raises(SystemExit):
            main(argv)
        text = " ".join(capsys.readouterr().out.split())
        for name, cap in MAX_SIZE.items():
            assert re.search(rf"--{name} {name.upper()} [^-]*at most {cap}", text), (argv, name)
