"""Seeded fuzzing of ``cli.main`` with hostile variants of the golden requests.

Every argv list of ``tests/cli_golden.json`` is mutated a few times: a value
the CLI parses as an expression is nested in parentheses, summed with itself,
replaced by exponents and numbers at and past the caps, emptied, or given a
non-ASCII or control character; sizes past their caps and flags of other commands or
suites are appended.  Every request runs in-process under a deadline, as
perfbench's cli-mix does.  It must return an exit code (0, 1, 2 or 3) and
raise nothing; a mutation that makes the request malformed must return 3.
"""

import contextlib
import io
import json
import random
import signal
from pathlib import Path

import pytest

from sconf.cli import MAX_SIZE, main
from sconf.parsing import MAX_DIGITS, MAX_EXPONENT, MAX_NESTING

GOLDEN = Path(__file__).with_name("cli_golden.json")
SEED = 20201
MUTATIONS_PER_REQUEST = 5
DEADLINE_S = 5.0

# options whose value the CLI parses as an expression
EXPRESSION_OPTIONS = ("--a", "--lam0", "--alp0", "--h", "--spec", "--roots")
# (flag and value, the commands or verify suites that read it)
FLAGS = [
    (["--which", "R"], {"verify algebra"}),
    (["--map", "sigma"], {"verify homomorphism"}),
    (["--spec", "M[h=y]"], {"verify submodule"}),
    (["--a", "1"], {"verify quotient", "verify restriction", "restrict", "act"}),
    (["--lam0", "2"], {"verify restriction", "restrict", "act"}),
    (["--check", "rank1"], {"verify restriction", "restrict"}),
    (["--words", "1"], set()),
    (["--degree", "1"], {"verify module", "verify submodule", "verify quotient",
                         "verify restriction", "restrict"}),
    (["--window", "1"], {"verify algebra", "verify module", "verify homomorphism",
                         "verify submodule", "verify quotient", "verify restriction",
                         "restrict"}),
    (["--h", "y"], {"decompose"}),
    (["--roots", "1"], {"decompose"}),
    (["--parity", "odd"], {"act"}),
    (["--module", "quotient"], {"act"}),
    (["--json"], {"verify algebra", "verify module", "verify homomorphism",
                  "verify submodule", "verify quotient", "verify restriction", "decompose",
                  "restrict"}),
]
PAST_THE_CAPS = [*([f"--{name}", str(cap + 1)] for name, cap in MAX_SIZE.items()),
                 ["--window", "0"], ["--degree", "-1"], ["--words", "-1"],
                 ["--window", "1" * 30], ["--degree", "1.5"], ["--window", "\uff16"],
                 ["--degree", "\u0661"], ["--words", "\uff12"]]
# non-ASCII digits (ARABIC-INDIC ONE, FULLWIDTH TWO) and space (NO-BREAK) included
STRAY_CHARACTERS = ["λ", "é", "²", "−", "一", "\U0001f600", "\x00", "\u0661", "\uff12",
                    "\u00a0"]


class _PastDeadline(Exception):
    pass


def _expire(signum, frame):
    raise _PastDeadline


def _run(argv):
    """``main(argv)`` in-process with its output captured, under the deadline."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(list(argv))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _slots(argv):
    """The positions of argv holding an expression, as (index, prefix) pairs:
    the prefix is "--opt=" for a value written in the same token."""
    out = [(1, ""), (2, "")] if argv[0] == "act" else []
    for k, token in enumerate(argv):
        if token in EXPRESSION_OPTIONS and k + 1 < len(argv):
            out.append((k + 1, ""))
        elif token.split("=", 1)[0] in EXPRESSION_OPTIONS and "=" in token:
            out.append((k, token.split("=", 1)[0] + "="))
    return out


def _reader(argv):
    """The command, or 'verify <suite>', that the request runs."""
    return " ".join(argv[:2]) if argv[0] == "verify" else argv[0]


def _mutate(rng, argv):
    """One hostile variant of argv, and whether it is malformed for sure."""
    slots = _slots(argv)
    kind = rng.choice(["flag", "size"] + ["value"] * 3 if slots else ["flag", "size"])
    if kind == "flag":
        foreign = [flag for flag, readers in FLAGS if _reader(argv) not in readers]
        return argv + rng.choice(foreign), True
    if kind == "size":
        return argv + rng.choice(PAST_THE_CAPS), True
    k, prefix = rng.choice(slots)
    value = argv[k][len(prefix):]
    form = rng.choice(["nest past", "nest at", "sum", "exponent", "digits", "empty",
                       "stray"])
    if form == "nest past":
        n = rng.choice((MAX_NESTING + 1, 250, 1000))
        new, malformed = "(" * n + value + ")" * n, True
    elif form == "nest at":
        new, malformed = "(" * MAX_NESTING + value + ")" * MAX_NESTING, False
    elif form == "sum":
        new, malformed = " + ".join([value] * rng.choice((50, 500, 2000))), False
    elif form == "exponent":
        top = MAX_EXPONENT
        new, malformed = rng.choice([(f"x^{top}", False), (f"y^{top}", False),
                                     (f"x^{top + 1}", True), (f"y^{top + 1}", True),
                                     ("s^" + "9" * 25, True)])
    elif form == "digits":
        new, malformed = rng.choice([("9" * MAX_DIGITS, False), ("1" * (MAX_DIGITS + 1), True),
                                     ("7" * 5000, True), ("1/" + "3" * (MAX_DIGITS + 1), True)])
    elif form == "empty":
        new, malformed = rng.choice(["", " ", "\t"]), True
    else:
        at = rng.randrange(len(value) + 1)
        new, malformed = value[:at] + rng.choice(STRAY_CHARACTERS) + value[at:], True
    return argv[:k] + [prefix + new] + argv[k + 1:], malformed


def _requests():
    rng = random.Random(SEED)
    for entry in json.loads(GOLDEN.read_text()):
        for _ in range(MUTATIONS_PER_REQUEST):
            yield _mutate(rng, entry["argv"])


def test_hostile_requests_end_in_an_exit_code():
    requests = list(_requests())
    assert len(requests) >= 250
    assert sum(malformed for _, malformed in requests) >= 150
    for argv, malformed in requests:
        try:
            code = _run(argv)
        except _PastDeadline:
            pytest.fail(f"{argv!r} ran past {DEADLINE_S} s")
        except BaseException as exc:  # SystemExit included: main must return its code
            pytest.fail(f"{argv!r} raised {exc!r}")
        assert code in (0, 1, 2, 3), argv
        if malformed:
            assert code == 3, argv
