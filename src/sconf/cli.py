"""Command-line front end.

Subcommands:

* ``verify``    -- run a verification suite (algebra | module | homomorphism |
                   submodule | quotient | restriction)
* ``act``       -- apply an algebra expression to a module/quotient element
* ``decompose`` -- split a quotient by an M-kind submodule into simple factors
* ``restrict``  -- checks for the N=1 restriction of a simple quotient

Exit codes: 0 pass, 1 fail, 2 inconclusive (bounded search could not decide),
3 usage error (bad flags or unparsable expressions).  ``--json`` renders the
report as a single JSON object with the fixed keys suite, params, status,
violations[].  An optional ``verify`` flag that the chosen suite does not
read is a usage error: --degree, for one, applies only to the module,
submodule, quotient and restriction suites (default 3).  Flags are written
in full, and a value given to a flag, even an empty one, is always read.

Sizes are bounded, and one out of range is a usage error: --window and
--degree from 1 to 6, an exponent of a variable (x, y, s, t) at most 64,
parentheses at most 32 deep, no more --roots than the degree of --h, and a
number at most 20 digits (each integer in the text, and each of p, q, d of
a parsed number (p + q*sqrt2)/d).  ``act`` takes generator modes |m| at
most 64 and at most 100000 units of work, summed over its ';' factors
before each one runs: a factor costs its generator terms times the
coefficient terms of the element it acts on, each term weighted by its
binomial shift ((i+1)(j+1) for x^i*y^j, k+1 for x^k) and by its size in
64-bit words.  A factor whose result holds a number of more than 4000
digits stops ``act`` with a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import partial
from math import prod

from . import algebras, freemod, n1, quotients, submodules
from .errors import SconfError, UnsplitPolynomial
from .parsing import (
    parse_algebra_element,
    parse_module_element,
    parse_quadext,
    parse_quotient_element,
    parse_submodule_spec,
    parse_unipoly,
)
from .quotients import QuotientParams
from .reports import VerificationReport
from .scalars import Scalar

USAGE_ERROR = 3
# Fixed upper bounds on the sweep sizes, so every request ends in bounded time.
MAX_SIZE = {"window": 6, "degree": 6}
# act's bounds on the generator modes and on the work (see the docstring above)
ACT_MAX_MODE = 64
ACT_MAX_WORK = 100_000
ACT_MAX_DIGITS = 4000  # below the interpreter's 4300-digit limit on str(int)
_ACT_NUMBER_BOUND = 10 ** ACT_MAX_DIGITS

_BATTERY_A = (0, 1, -1, Fraction(3, 2))
# --check simplicity's defaults; --a's holds for the other restriction checks too
SIMPLICITY_DEFAULTS = {"lam0": "3/2", "alp0": "2", "a_value": "0"}
_BATTERY_H = ("1", "y", "y+1", "y-2", "y^2-1")
_DEGREE_SUITES = ("module", "submodule", "quotient", "restriction")
DEFAULT_DEGREE = 3
_VERIFY_FLAGS = {  # verify's optional flags: option -> (argparse dest, the suites that read it)
    "--which": ("which", ("algebra",)), "--map": ("map_name", ("homomorphism",)),
    "--spec": ("spec", ("submodule",)), "--a": ("a_value", ("quotient", "restriction")),
    **{f"--{d}": (d, ("restriction",)) for d in ("algebra", "check", "lam0", "alp0")},
    "--degree": ("degree", _DEGREE_SUITES),
}


def _suite_names(suites):
    """The suites as text: 'a', 'a and b', 'a, b and c'."""
    *rest, last = suites
    return f"{', '.join(rest)} and {last}" if rest else last


class _UsageError(Exception):
    pass


def _ascii_int(text):
    """``int(text)`` for an optional sign and ASCII digits only: ``int`` also
    reads the digits of other scripts, so a fullwidth 6 would run window 6."""
    if not re.fullmatch(r"[-+]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    # no abbreviated flags: "--h" must not read as "--help" where there is no --h
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def build_parser():
    parser = _Parser(prog="sconf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    def restriction_options(p, **check):
        # no argparse defaults: _verify_restriction and _restriction_params apply them
        p.add_argument("--check", choices=("relations", "rank1", "simplicity"), **check)
        p.add_argument("--algebra", choices=("N1R", "N1NS"),
                       help="restriction source algebra (default N1R)")
        for name in ("lam", "alp"):
            p.add_argument(f"--{name}0", help=f"numeric {name} (default "
                           f"{SIMPLICITY_DEFAULTS[name + '0']} for the simplicity check, "
                           f"the formal {name} for the others)")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=(
        "algebra", "module", "homomorphism", "submodule", "quotient", "restriction"))
    v.add_argument("--which", choices=algebras.ALGEBRAS, help="algebra to sweep")
    v.add_argument("--map", dest="map_name", choices=sorted(algebras.STANDARD_MAPS),
                   help="homomorphism to check (default: all, plus the twist composition)")
    v.add_argument("--window", type=_ascii_int, default=3,
                   help=f"mode window |m| <= N (at most {MAX_SIZE['window']})")
    v.add_argument("--degree", type=_ascii_int,
                   help=f"monomial degree bound for the {_suite_names(_DEGREE_SUITES)} suites "
                   f"(default {DEFAULT_DEGREE}, at most {MAX_SIZE['degree']})")
    v.add_argument("--spec", help="submodule spec, e.g. M[h=y^2-1]")
    v.add_argument("--a", dest="a_value", help="root parameter a (default: the battery "
                   f"0, 1, -1, 3/2 for quotient, {SIMPLICITY_DEFAULTS['a_value']} for "
                   "restriction)")
    restriction_options(v, help="restriction check to run (default relations)")
    common(v)

    a = sub.add_parser("act", help="apply an algebra expression to an element")
    a.add_argument("operator", help="algebra expression, e.g. 'L[1]'; use ';' to compose "
                   f"(modes |m| <= {ACT_MAX_MODE}, work <= {ACT_MAX_WORK}, result numbers <= "
                   f"{ACT_MAX_DIGITS} digits; see sconf --help)")
    a.add_argument("element", help="polynomial element, e.g. 'x^2*y - 3'")
    a.add_argument("--module", choices=("omega", "quotient"), default="omega",
                   help="act on the rank-2 module or on a simple quotient")
    a.add_argument("--parity", choices=("even", "odd"),
                   help="parity for constant polynomials")
    a.add_argument("--a", dest="a_value", help="root parameter for the quotient")
    a.add_argument("--lam0", help="numeric specialization of lam (quotient only)")
    a.add_argument("--alp0", help="numeric specialization of alp (quotient only)")

    d = sub.add_parser("decompose", help="composition series of a quotient")
    d.add_argument("--h", required=True, help="monic polynomial in y, e.g. 'y^2-1'")
    d.add_argument("--roots", help="roots to put first in the chain, comma-separated, e.g. '1,-1'")
    common(d)

    r = sub.add_parser("restrict", help="N=1 restriction checks")
    r.add_argument("--window", type=_ascii_int, default=3,
                   help=f"at most {MAX_SIZE['window']}")
    r.add_argument("--degree", type=_ascii_int, default=DEFAULT_DEGREE,
                   help=f"at most {MAX_SIZE['degree']}")
    r.add_argument("--a", dest="a_value",
                   help=f"root parameter a (default {SIMPLICITY_DEFAULTS['a_value']})")
    restriction_options(r, required=True)
    common(r)

    return parser


# one parser per process, shared by every ``main`` call: parse_args keeps no state on it
_PARSER = build_parser()


# ---------------------------------------------------------------------------
# suite drivers
# ---------------------------------------------------------------------------

def _merge(suite, params, reports):
    merged = VerificationReport(suite, params)
    for rep in reports:
        merged.merge(rep)
    return merged


def _verify_algebra(args):
    which = [args.which] if args.which else list(algebras.ALGEBRAS)
    return _merge(
        "algebra",
        {"which": ",".join(which), "window": args.window},
        [algebras.check_super_jacobi(alg, args.window) for alg in which],
    )


def _verify_module(args):
    return _merge(
        "module",
        {"window": args.window, "degree": args.degree},
        [
            freemod.check_module_compatibility(args.window, args.degree),
            freemod.check_uh_freeness(args.degree),
        ],
    )


def _verify_homomorphism(args):
    if args.map_name:
        reports = [algebras.check_homomorphism(
            algebras.STANDARD_MAPS[args.map_name](), args.window)]
        params = {"map": args.map_name, "window": args.window}
    else:
        reports = [
            algebras.check_homomorphism(factory(), args.window)
            for factory in algebras.STANDARD_MAPS.values()
        ]
        reports.append(algebras.check_twist_composition(args.window))
        params = {"map": "all", "window": args.window}
    return _merge("homomorphism", params, reports)


def _verify_submodule(args):
    if args.spec is not None:
        spec = parse_submodule_spec(args.spec)
        return _merge(
            "submodule",
            {"spec": spec.render(), "window": args.window, "degree": args.degree},
            [submodules.check_closure(spec, args.window, args.degree)],
        )
    specs = [
        submodules.SubmoduleSpec(kind, parse_unipoly(h))
        for h in _BATTERY_H
        for kind in ("M", "N")
    ]
    reports = [submodules.check_closure(s, args.window, args.degree) for s in specs]
    reports.append(submodules.check_lattice_order(specs))
    merged = _merge(
        "submodule",
        {"specs": ",".join(s.render() for s in specs),
         "window": args.window, "degree": args.degree},
        reports,
    )
    witness = submodules.SubmoduleSpec("M", parse_unipoly("y"))
    if submodules.contains(witness, freemod.ModuleElement.one(freemod.EVEN)):
        merged.record("proper submodule witness 1_even not in M[h=y]", "member", "not member")
    return merged


def _verify_quotient(args):
    a_values = list(_BATTERY_A) if args.a_value is None else [parse_quadext(args.a_value)]
    reports = []
    for a in a_values:
        p = QuotientParams(a=a)
        reports.append(quotients.check_quotient_compatibility(p, args.window, args.degree))
        reports.append(quotients.check_projection_intertwines(p, args.window, args.degree))
    return _merge(
        "quotient",
        {"a": ",".join(str(a) for a in a_values),
         "window": args.window, "degree": args.degree},
        reports,
    )


def _restriction_params(args):
    lam = Scalar.param("lam") if args.lam0 is None else Scalar.number(parse_quadext(args.lam0))
    alp = Scalar.param("alp") if args.alp0 is None else Scalar.number(parse_quadext(args.alp0))
    a = args.a_value if args.a_value is not None else SIMPLICITY_DEFAULTS["a_value"]
    return QuotientParams(a=parse_quadext(a), lam=lam, alp=alp)


def _verify_restriction(args):
    if args.check == "simplicity":
        if args.algebra == "N1NS":
            raise _UsageError("--check simplicity applies only to --algebra N1R")
        lam0, alp0, a = (
            parse_quadext(SIMPLICITY_DEFAULTS[name] if value is None else value)
            for name, value in (("lam0", args.lam0), ("alp0", args.alp0), ("a_value", args.a_value))
        )
        return n1.check_simplicity_witness(a, lam0, alp0, args.degree, index_window=args.window)
    params = _restriction_params(args)
    if args.algebra == "N1NS":
        r = n1.RestrictedAction.neveu_schwarz(params)
    else:
        r = n1.RestrictedAction.ramond(params)
    if args.check == "rank1":
        return n1.check_rank1_freeness(r, args.degree)
    return n1.check_n1_relations(r, args.window, args.degree)


def _check_sizes(args):
    for name, cap in MAX_SIZE.items():
        value = getattr(args, name)
        if value is not None and value > cap:
            raise _UsageError(f"--{name} must be <= {cap}")


def _cmd_verify(args):
    if args.window < 1 or (args.degree is not None and args.degree < 1):
        raise _UsageError("--window and --degree must be >= 1")
    for flag, (dest, suites) in _VERIFY_FLAGS.items():
        if getattr(args, dest) is not None and args.suite not in suites:
            raise _UsageError(f"{flag} applies only to the {_suite_names(suites)} suite"
                              + "s" * (len(suites) > 1))
    _check_sizes(args)
    if args.suite in _DEGREE_SUITES and args.degree is None:
        args.degree = DEFAULT_DEGREE
    driver = {
        "algebra": _verify_algebra,
        "module": _verify_module,
        "homomorphism": _verify_homomorphism,
        "submodule": _verify_submodule,
        "quotient": _verify_quotient,
        "restriction": _verify_restriction,
    }[args.suite]
    report = driver(args)
    report.suite = args.suite
    return report


def _act_work(op, v):
    """The work of acting by ``op`` on ``v``, as the module docstring counts it."""
    return len(op.terms) * sum(
        (prod(e + 1 for e in key) if isinstance(key, tuple) else key + 1)
        * sum(1 + (q.p.bit_length() + q.q.bit_length() + q.d.bit_length()) // 64
              for q in c.terms.values())
        for key, c in v.terms.items()
    )


def _cmd_act(args):
    if args.module == "omega" and (args.a_value, args.lam0, args.alp0) != (None, None, None):
        raise _UsageError("--a, --lam0 and --alp0 apply only to --module quotient")
    parity = {"even": freemod.EVEN, "odd": freemod.ODD, None: None}[args.parity]
    words = [w for w in args.operator.split(";") if w.strip()]
    if not words:
        raise _UsageError("empty operator expression")
    ops = [parse_algebra_element(w, "R") for w in words]
    if any(abs(sym.twice) > 2 * ACT_MAX_MODE for op in ops for sym in op.terms):
        raise _UsageError(f"act takes generator modes |m| <= {ACT_MAX_MODE}")
    if args.module == "omega":
        v = parse_module_element(args.element, parity)
        act = freemod.act
    else:
        v = parse_quotient_element(args.element, parity)
        act = partial(quotients.quotient_act, p=_restriction_params(args))
    work = 0
    for op in reversed(ops):
        work += _act_work(op, v)
        if work > ACT_MAX_WORK:
            raise _UsageError(f"act exceeds its work bound {ACT_MAX_WORK}")
        v = act(op, v)
        if any(max(abs(q.p), abs(q.q), q.d) >= _ACT_NUMBER_BOUND
               for c in v.terms.values() for q in c.terms.values()):
            raise _UsageError(f"act's result has a number of more than {ACT_MAX_DIGITS} digits")
    return v.render()


def _cmd_decompose(args):
    h = parse_unipoly(args.h)
    if h.is_zero() or h.degree < 1:
        raise _UsageError("--h must have degree >= 1")
    h = h.monic()
    hints = None
    if args.roots is not None:
        hints = [parse_quadext(r) for r in args.roots.split(",")]
        if len(hints) > h.degree:  # too many to divide h; refused before their product is formed
            raise _UsageError(f"--roots lists {len(hints)} roots; h has degree {h.degree}")
        hinted = submodules.UniPoly.from_roots(hints)
        if not hinted.divides(h):
            raise _UsageError(f"--roots {', '.join(map(str, hints))}: {hinted.render()} "
                              f"does not divide {h.render()}")
    report = VerificationReport("decompose", {"h": h.render()})
    try:
        series = quotients.composition_series(h, hints)
    except UnsplitPolynomial as exc:
        report.inconclusive = True
        report.notes.append(str(exc))
        return report
    chain = report.params["chain"] = [spec.render() for spec in series.chain]
    factors = report.params["factors"] = [str(f) for f in series.factors]
    report.params["links_verified"] = max(len(chain) - 1, 0)
    report.notes.append("\n".join([f"series of quotient by M[h={report.params['h']}]:", *(
        f"  layer {k}: {spec}  factor a={f}" for k, (spec, f) in enumerate(zip(chain, factors), 1)
    )]))
    report.notes += (f"link {k}: {inner} <= {outer} verified"
                     for k, (inner, outer) in enumerate(zip(chain[1:], chain), 1))
    return report


def _cmd_restrict(args):
    if args.window < 1 or args.degree < 1:
        raise _UsageError("--window and --degree must be >= 1")
    _check_sizes(args)
    return _verify_restriction(args)


def _write(text):
    """Print ``text``.  When the reader has closed stdout (``sconf ... | head``
    can), stdout is pointed at devnull, so that the interpreter's last flush
    does not raise again, and the verdict's exit code stands."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(report, as_json):
    _write(json.dumps(report.to_dict(), indent=2, sort_keys=True) if as_json
           else report.render_text())
    return report.exit_code


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.command == "verify":
            return _emit(_cmd_verify(args), args.json)
        if args.command == "act":
            _write(_cmd_act(args))
            return 0
        if args.command == "decompose":
            return _emit(_cmd_decompose(args), args.json)
        if args.command == "restrict":
            return _emit(_cmd_restrict(args), args.json)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SconfError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
