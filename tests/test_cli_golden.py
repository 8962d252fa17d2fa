"""Golden CLI transcripts: stdout, stderr and exit code of ``sconf`` for a fixed
list of argv lists, compared byte for byte with ``tests/cli_golden.json``.

After an intended change of the CLI output, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review its diff: every changed entry is a changed byte a user would see.
"""

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

from sconf.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

CASES = [
    # the README commands, with the window-3 sweeps run at window 1-2
    ["verify", "algebra", "--which", "R", "--window", "2"],
    ["verify", "algebra", "--which", "T", "--window", "1", "--json"],
    ["verify", "algebra", "--window", "1"],
    ["verify", "module", "--window", "1", "--degree", "2"],
    ["verify", "homomorphism", "--map", "sigma", "--window", "2"],
    ["verify", "homomorphism", "--map", "upsilon2", "--window", "2", "--json"],
    ["verify", "homomorphism", "--window", "1"],
    ["verify", "submodule", "--spec", "M[h=y^2-1]", "--window", "1", "--degree", "2"],
    ["verify", "submodule", "--window", "1", "--degree", "1", "--json"],
    ["verify", "quotient", "--a", "1", "--window", "1", "--degree", "2"],
    ["verify", "quotient", "--a", "sqrt2", "--window", "1", "--degree", "1", "--json"],
    ["verify", "restriction", "--algebra", "N1R", "--a", "1", "--check", "relations",
     "--window", "1", "--degree", "1"],
    ["verify", "restriction", "--algebra", "N1NS", "--a", "1", "--check", "relations",
     "--window", "1", "--degree", "1", "--json"],
    ["verify", "restriction", "--algebra", "N1R", "--a", "1", "--check", "rank1",
     "--degree", "2", "--json"],
    ["verify", "restriction", "--a", "0", "--check", "simplicity", "--window", "1",
     "--degree", "1"],
    ["act", "L[1]", "1", "--module", "omega", "--parity", "even"],
    ["act", "Gp[2]", "1", "--module", "omega", "--parity", "odd"],
    ["act", "Gp[0]; Gm[0]", "1", "--parity", "even"],
    ["act", "L[1]", "x", "--module", "quotient", "--a", "1", "--lam0", "2", "--alp0", "3"],
    ["decompose", "--h", "y^2-1"],
    ["decompose", "--h", "y^4-10*y^2+16"],
    ["decompose", "--h", "y^2-2", "--roots=-sqrt2"],
    ["decompose", "--h", "y^2-3"],
    ["restrict", "--algebra", "N1R", "--a", "1", "--check", "rank1", "--degree", "2"],
    ["restrict", "--algebra", "N1R", "--a", "1", "--check", "simplicity", "--window", "1",
     "--degree", "1"],
    ["restrict", "--algebra", "N1NS", "--a", "1", "--check", "relations", "--window", "1",
     "--degree", "1"],
    # --json variants and sqrt2 roots, repeated roots and an unsplit h
    ["decompose", "--h", "y^2-1", "--json"],
    ["decompose", "--h", "y^2-2", "--roots=-sqrt2", "--json"],
    ["decompose", "--h", "y^2-2*sqrt2*y+2", "--json"],
    ["decompose", "--h", "y^3-3*y^2-2*y+6", "--roots", "3", "--json"],
    ["decompose", "--h", "y^4-5*y^2+6", "--json"],
    ["restrict", "--algebra", "N1R", "--a", "-1", "--check", "relations", "--window", "1",
     "--degree", "1", "--json"],
    ["restrict", "--check", "rank1", "--degree", "1", "--lam0", "sqrt2", "--alp0=-1/3",
     "--json"],
    # simplicity certificates: the G0 detour at a = 1, modes outside the window,
    # JSON and a sqrt2 root
    ["restrict", "--check", "simplicity", "--a", "1", "--window", "2", "--degree", "2"],
    ["restrict", "--check", "simplicity", "--a", "-1", "--window", "1", "--degree", "3",
     "--json"],
    ["restrict", "--check", "simplicity", "--a", "2", "--window", "1", "--degree", "1"],
    ["restrict", "--check", "simplicity", "--a", "1+sqrt2", "--window", "2", "--degree", "2"],
    # act on omega and on a quotient, with odd and sqrt2 outputs
    ["act", "sqrt2*Gm[-1] + lam*Gp[3]", "x^2*y - 3*y^3", "--parity", "even"],
    ["act", "L[-2] + (1/2)*H[1]; Gp[1]", "s*t^2 + alp^-1*t", "--parity", "odd"],
    ["act", "Gm[2]", "(1 + sqrt2)*x^3 - x", "--module", "quotient", "--a", "sqrt2"],
    ["act", "H[-1]; Gp[0]", "s^2", "--module", "quotient", "--a", "3/2", "--lam0", "sqrt2",
     "--alp0", "1 + sqrt2"],
    ["act", "C + L[0]", "x^5*y"],
    # act requests over its bounds
    ["act", "; ".join(["L[5] + H[3]", "Gp[2] + Gm[-4]"] * 3), "x^64*y^64"],
    ["act", "; ".join(["L[1]"] * 40), "x^64"],
    ["act", "L[1] + Gp[65]", "1", "--parity", "odd"],
    ["act", "; ".join(["H[64]"] * 75), "1", "--parity", "even", "--module", "quotient",
     "--a", "1", "--lam0", "9", "--alp0", "1"],
    # numbers over 20 digits, in the text or after parsing
    ["act", "L[64]", "x", "--module", "quotient", "--a", "1", "--lam0", "1" + "0" * 100,
     "--alp0", "3"],
    ["decompose", "--h", "y^2-" + "1" * 21],
    ["decompose", "--h", "y^2-10000000000*10000000000"],
    # usage errors
    ["verify", "nosuchsuite"],
    ["act", "L[1", "1", "--parity", "even"],
    ["act", "L[1]", "x + s"],
    ["act", "L[1]", "x", "--a", "1"],
    ["act", "L[1]", "x^65"],
    ["verify", "module", "--window", "0"],
    ["verify", "module", "--degree", "7"],
    ["verify", "algebra", "--which", "N1R", "--window", "1", "--spec", "M[h=y]"],
    ["verify", "quotient", "--words", "5", "--window", "1", "--degree", "1"],
    ["decompose", "--h", "1"],
    ["decompose", "--h", "y^2-2", "--roots", "-sqrt2"],
    ["decompose", "--h", "y-1", "--roots", "2"],
    ["decompose", "--h", "y^2-2", "--roots", "sqrt2,sqrt2"],
    ["restrict", "--check", "simplicity", "--a", "1", "--words", "-1"],
    ["restrict", "--algebra", "N1NS", "--a", "1", "--check", "simplicity", "--degree", "1"],
]


def transcript(argv):
    """Run ``sconf argv`` in-process; return its stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "stdout": out.getvalue(), "stderr": err.getvalue(),
            "exit": code}


@functools.cache
def _golden():
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_file_holds_exactly_the_cases():
    assert sorted(_golden()) == sorted(tuple(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_transcript_matches_golden(argv):
    assert transcript(argv) == _golden()[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([transcript(argv) for argv in CASES], indent=1) + "\n")
    print(f"wrote {len(CASES)} transcripts to {GOLDEN}", file=sys.stderr)
