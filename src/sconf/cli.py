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
violations[].

Sizes are bounded, and a larger one is a usage error: --window, --degree and
--words at most 6, and an exponent of a variable (x, y, s, t) at most 64.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

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
MAX_SIZE = {"window": 6, "degree": 6, "words": 6}

_BATTERY_A = (0, 1, -1, Fraction(3, 2))
_BATTERY_H = ("1", "y", "y+1", "y-2", "y^2-1")
_VERIFY_FLAGS = {  # verify's optional flags: option -> (argparse dest, the suites that read it)
    "--which": ("which", ("algebra",)), "--map": ("map_name", ("homomorphism",)),
    "--spec": ("spec", ("submodule",)), "--a": ("a_value", ("quotient", "restriction")),
    **{f"--{d}": (d, ("restriction",)) for d in ("algebra", "check", "lam0", "alp0", "words")},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser():
    parser = _Parser(prog="sconf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=(
        "algebra", "module", "homomorphism", "submodule", "quotient", "restriction"))
    v.add_argument("--which", choices=algebras.ALGEBRAS, help="algebra to sweep")
    v.add_argument("--map", dest="map_name", choices=sorted(algebras.STANDARD_MAPS),
                   help="homomorphism to check (default: all, plus the twist composition)")
    v.add_argument("--window", type=int, default=3,
                   help=f"mode window |m| <= N (at most {MAX_SIZE['window']})")
    v.add_argument("--degree", type=int, default=3,
                   help=f"monomial degree bound (at most {MAX_SIZE['degree']})")
    v.add_argument("--spec", help="submodule spec, e.g. M[h=y^2-1]")
    v.add_argument("--a", dest="a_value", help="root parameter a (constant expression)")
    v.add_argument("--algebra", choices=("N1R", "N1NS"),
                   help="restriction source algebra (default N1R)")
    v.add_argument("--check", choices=("relations", "rank1", "simplicity"),
                   help="restriction check to run (default relations)")
    v.add_argument("--lam0", help="numeric specialization of lam")
    v.add_argument("--alp0", help="numeric specialization of alp")
    v.add_argument("--words", type=int,
                   help=f"word length for span searches (default 3, at most {MAX_SIZE['words']})")
    common(v)

    a = sub.add_parser("act", help="apply an algebra expression to an element")
    a.add_argument("operator", help="algebra expression, e.g. 'L[1]'; use ';' to compose")
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
    r.add_argument("--algebra", choices=("N1R", "N1NS"), default="N1R")
    r.add_argument("--a", dest="a_value", default="0", help="root parameter a")
    r.add_argument("--check", choices=("relations", "rank1", "simplicity"),
                   required=True)
    r.add_argument("--window", type=int, default=3, help=f"at most {MAX_SIZE['window']}")
    r.add_argument("--degree", type=int, default=3, help=f"at most {MAX_SIZE['degree']}")
    r.add_argument("--words", type=int, default=3, help=f"at most {MAX_SIZE['words']}")
    r.add_argument("--lam0", default="3/2", help="numeric lam for simplicity spans")
    r.add_argument("--alp0", default="2", help="numeric alp for simplicity spans")
    common(r)

    return parser


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
    if args.spec:
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
    a_values = [parse_quadext(args.a_value)] if args.a_value else list(_BATTERY_A)
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
    lam = Scalar.number(parse_quadext(args.lam0)) if args.lam0 else Scalar.param("lam")
    alp = Scalar.number(parse_quadext(args.alp0)) if args.alp0 else Scalar.param("alp")
    a = parse_quadext(args.a_value) if args.a_value is not None else 0
    return QuotientParams(a=a, lam=lam, alp=alp)


def _verify_restriction(args):
    if args.check == "simplicity":
        if args.algebra == "N1NS":
            raise _UsageError("--check simplicity applies only to --algebra N1R")
        lam0 = parse_quadext(args.lam0 or "3/2")
        alp0 = parse_quadext(args.alp0 or "2")
        a = parse_quadext(args.a_value or "0")
        words = 3 if args.words is None else args.words
        return n1.check_simplicity_witness(
            a, lam0, alp0, args.degree, words, index_window=args.window
        )
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
    if args.window < 1 or args.degree < 1:
        raise _UsageError("--window and --degree must be >= 1")
    for flag, (dest, suites) in _VERIFY_FLAGS.items():
        if getattr(args, dest) is not None and args.suite not in suites:
            raise _UsageError(f"{flag} applies only to the {' and '.join(suites)} suite"
                              + "s" * (len(suites) > 1))
    _check_sizes(args)
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


def _cmd_act(args):
    if args.module == "omega" and (args.a_value, args.lam0, args.alp0) != (None, None, None):
        raise _UsageError("--a, --lam0 and --alp0 apply only to --module quotient")
    parity = {"even": freemod.EVEN, "odd": freemod.ODD, None: None}[args.parity]
    words = [w for w in args.operator.split(";") if w.strip()]
    if not words:
        raise _UsageError("empty operator expression")
    ops = [parse_algebra_element(w, "R") for w in words]
    if args.module == "omega":
        v = parse_module_element(args.element, parity)
        for op in reversed(ops):
            v = freemod.act(op, v)
    else:
        p = _restriction_params(args)
        v = parse_quotient_element(args.element, parity)
        for op in reversed(ops):
            v = quotients.quotient_act(op, v, p)
    return v.render()


def _cmd_decompose(args):
    h = parse_unipoly(args.h)
    if h.is_zero() or h.degree < 1:
        raise _UsageError("--h must have degree >= 1")
    h = h.monic()
    hints = None
    if args.roots:
        hints = [parse_quadext(r) for r in args.roots.split(",") if r.strip()]
    report = VerificationReport("decompose", {"h": h.render()})
    try:
        series = quotients.composition_series(h, hints)
    except UnsplitPolynomial as exc:
        report.inconclusive = True
        report.notes.append(str(exc))
        return report
    report.params["chain"] = [spec.render() for spec in series.chain]
    report.params["factors"] = [str(f) for f in series.factors]
    report.params["links_verified"] = max(len(series.chain) - 1, 0)
    report.notes.append(series.render())
    for k, (inner, outer) in enumerate(zip(series.chain[1:], series.chain[:-1])):
        report.notes.append(
            f"link {k + 1}: {inner.render()} <= {outer.render()} verified"
        )
    return report


def _cmd_restrict(args):
    if args.window < 1 or args.degree < 1:
        raise _UsageError("--window and --degree must be >= 1")
    _check_sizes(args)
    return _verify_restriction(args)


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return report.exit_code


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.command == "verify":
            return _emit(_cmd_verify(args), args.json)
        if args.command == "act":
            print(_cmd_act(args))
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
