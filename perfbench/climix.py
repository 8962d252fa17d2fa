"""cli-mix: one closed-loop client sending seeded requests through
``sconf.cli.main`` in-process, with stdout captured.

Requests come in decks: a deck holds a fixed number of each request form in
a seeded order, with fresh seeded parameters, so inputs are rarely reused and
every deck does comparable work.  Independently, a fixed number of
large-height ``decompose`` requests go out per run; the trial-division root
search of ``quotients.find_roots`` needs minutes for them, so they end at the
deadline.  Fixing that count keeps the tail percentile (at least ten samples
beyond it) on real latencies whatever the program's speed.

Each request runs under a deadline enforced with a timer signal.  A request
past it is failed and counts the deadline as its latency.  Outcomes:

* failed: past the deadline, or ``inconclusive`` (exit 2) for an h that
  splits over Q(sqrt2) -- an honest non-answer that misses the request's aim;
* incorrect: any other deviation from the oracle (wrong roots, a split claim
  for an unsplittable h, an ``act`` output that does not parse back to the
  element ``freemod.act``/``quotients.quotient_act`` return directly, a
  failing verification, an unexpected exit code).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from sconf import algebras, cli, freemod, quotients, submodules
from sconf.algebras import AlgebraElement, basis_symbols, bracket
from sconf.errors import UnsplitPolynomial
from sconf.freemod import EVEN, ODD
from sconf.parsing import (parse_algebra_element, parse_module_element, parse_quadext,
                           parse_quotient_element, parse_submodule_spec, parse_unipoly)
from sconf.quotients import QuotientParams
from sconf.reports import VerificationReport
from sconf.scalars import QuadExt, Scalar

from sweeps import module_action, quotient_action, warm_brackets

DEADLINE_S = 1.0
HEAVY_PER_RUN = 4
# The mix is an assumption, not recorded traffic.  Verify: one request per
# algebra and per map, the most a deck holds without repeating a verify
# input.  Decompose: 15 for each of the four h shapes (rational roots,
# conjugate pairs, other sqrt2 roots, unsplittable), the sqrt2 slot shared
# with products of two conjugate pairs; both are shapes the root finder
# answers inconclusive.  Act: the rest, enough that the median request is an
# act, so request_p50_ms stands for act latency.
DECK = (
    ("act-omega", 75),
    ("act-quotient", 50),
    ("decompose-rational", 15),
    ("decompose-conjugate", 15),
    ("decompose-sqrt2", 10),  # non-conjugate or repeated sqrt2 roots
    ("decompose-biquadratic", 5),  # two conjugate pairs
    ("decompose-unsplit", 15),
    ("verify-algebra", 5),  # each algebra once
    ("verify-homomorphism", 5),  # each map once
    ("verify-submodule", 5),
)
VERIFY_WINDOW = 2
SUBMODULE_WINDOW, SUBMODULE_DEGREE = 1, 1
_FAMILIES = {0: ("L", "H", "C"), 1: ("Gp", "Gm")}
_UNSPLIT_K = (3, 5, 6, 7, 10, 11, 12, 13, 14, 15)  # neither k nor k/2 a square


class Deadline(Exception):
    pass


@dataclass
class Request:
    kind: str  # act | decompose | verify: the class latencies are reported by
    form: str  # the deck slot that made it
    argv: list
    roots: tuple = None  # decompose: the roots multiplied, None if unsplittable


@dataclass
class Outcome:
    code: int
    stdout: str
    seconds: float
    timed_out: bool


# -- Q(sqrt2) numbers and polynomials, kept apart from the program under test --

def _qmul(a, b):
    return (a[0] * b[0] + 2 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _qtext(p, q):
    """A parenthesised constant in the CLI grammar, e.g. ``(3/2 - 2*sqrt2)``."""
    parts = []
    if p:
        parts.append(str(p))
    if q:
        mag = f"{abs(q)}*sqrt2"
        parts.append(("-" if q < 0 else "") + mag if not parts else ("- " if q < 0 else "+ ") + mag)
    return "(" + (" ".join(parts) or "0") + ")"


def _poly_from_roots(roots):
    coeffs = [(Fraction(1), Fraction(0))]  # ascending
    for r in roots:
        neg = (-r[0], -r[1])
        out = [(Fraction(0), Fraction(0))] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            out[k + 1] = (out[k + 1][0] + c[0], out[k + 1][1] + c[1])
            t = _qmul(c, neg)
            out[k] = (out[k][0] + t[0], out[k][1] + t[1])
        coeffs = out
    return coeffs


def _poly_text(coeffs, var="y"):
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        p, q = coeffs[k]
        if not p and not q:
            continue
        mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        if k == len(coeffs) - 1 and (p, q) == (1, 0):
            terms.append(mono)
        else:
            terms.append(_qtext(p, q) + (f"*{mono}" if mono else ""))
    return " + ".join(terms)


# -- request generation -------------------------------------------------------

class _Generator:
    def __init__(self, rng):
        self.rng = rng
        self.algebras = list(algebras.ALGEBRAS)
        self.maps = sorted(algebras.STANDARD_MAPS)

    def _frac(self, top=9, dens=(1, 1, 2, 3)):
        return Fraction(self.rng.randint(-top, top), self.rng.choice(dens))

    def _sqrt2_number(self):
        """p + q*sqrt2 with q != 0 and small heights."""
        return (self._frac(), Fraction(self.rng.choice((-3, -2, -1, 1, 2, 3)),
                                       self.rng.choice((1, 1, 2))))

    def _coeff_text(self):
        rng = self.rng
        p, q = self._frac(5), (self._frac(3) if rng.random() < 0.5 else Fraction(0))
        if not p and not q:
            p = Fraction(1)
        text = _qtext(p, q)
        for name in ("lam", "alp"):
            e = rng.randint(-2, 2)
            if e:
                text += f"*{name}^{e}"
        return text

    def _operator(self):
        rng = self.rng
        factors = []
        for _ in range(rng.randint(1, 3)):
            parity = rng.randint(0, 1)
            gens = []
            for fam in rng.sample(_FAMILIES[parity], rng.choice((1, 1, 2))):
                sym = "C" if fam == "C" else f"{fam}[{rng.randint(-5, 5)}]"
                coeff = rng.choice(("", "", "2*", "(1/2)*", "sqrt2*", "lam*", "(-3)*alp^-1*"))
                gens.append(coeff + sym)
            factors.append(" + ".join(gens))
        return "; ".join(factors)

    def _element(self, variables, max_terms=3):
        rng = self.rng
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * len(variables)
            for _ in range(rng.randint(0, 6)):
                exps[rng.randrange(len(variables))] += 1
            terms[tuple(exps)] = self._coeff_text()
        out = []
        for exps, coeff in terms.items():
            monos = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e]
            out.append("*".join([coeff] + monos))
        return " + ".join(out)

    def act_omega(self):
        parity = self.rng.randint(0, 1)
        element = self._element(("x", "y") if parity == EVEN else ("s", "t"))
        argv = ["act", self._operator(), element, f"--parity={('even', 'odd')[parity]}"]
        return Request("act", "act-omega", argv)

    def act_quotient(self):
        rng = self.rng
        parity = rng.randint(0, 1)
        element = self._element(("x",) if parity == EVEN else ("s",))
        a = rng.choice(("0", "1", "-1", "3/2", "sqrt2", "1 - sqrt2", "-1/2*sqrt2"))
        argv = ["act", self._operator(), element, "--module=quotient", f"--a={a}",
                f"--parity={('even', 'odd')[parity]}"]
        if rng.random() < 0.5:
            argv += [f"--lam0={rng.choice(('3/2', '-2', 'sqrt2'))}",
                     f"--alp0={rng.choice(('2', '-1/3', '1 + sqrt2'))}"]
        return Request("act", "act-quotient", argv)

    def _decompose(self, form, roots, split=True):
        coeffs = _poly_from_roots(roots) if split else roots
        return Request("decompose", form, ["decompose", f"--h={_poly_text(coeffs)}", "--json"],
                       tuple(roots) if split else None)

    def decompose_rational(self):
        roots = [(self._frac(), Fraction(0)) for _ in range(self.rng.randint(2, 3))]
        return self._decompose("decompose-rational", roots)

    def decompose_conjugate(self):
        p, q = self._sqrt2_number()
        roots = [(p, q), (p, -q)]
        if self.rng.random() < 0.5:
            roots.append((self._frac(), Fraction(0)))
        return self._decompose("decompose-conjugate", roots)

    def decompose_sqrt2(self):
        r = self._sqrt2_number()
        shape = self.rng.randrange(3)
        if shape == 0:
            roots = [r, r]  # repeated
        elif shape == 1:
            roots = [r, (self._frac(), Fraction(0))]
        else:
            s = self._sqrt2_number()
            roots = [r, s if s != (r[0], -r[1]) else (s[0] + 1, s[1])]
        return self._decompose("decompose-sqrt2", roots)

    def decompose_biquadratic(self):
        a, b = self.rng.sample(range(1, 6), 2)
        roots = [(Fraction(0), Fraction(a)), (Fraction(0), Fraction(-a)),
                 (Fraction(0), Fraction(b)), (Fraction(0), Fraction(-b))]
        return self._decompose("decompose-biquadratic", roots)

    def decompose_unsplit(self):
        rng = self.rng
        k = rng.choice(_UNSPLIT_K)
        zero = (Fraction(0), Fraction(0))
        one = (Fraction(1), Fraction(0))
        shape = rng.randrange(4)
        if shape == 0:
            coeffs = [(Fraction(-k), Fraction(0)), zero, one]  # y^2 - k
        elif shape == 1:
            coeffs = [(Fraction(k), Fraction(0)), zero, one]  # y^2 + k
        elif shape == 2:
            coeffs = [(Fraction(-rng.choice((2, 3, 5))), Fraction(0)), zero, zero, one]  # y^3 - c
        else:  # (y - r)(y^2 - k)
            r = self._frac()
            coeffs = [(r * k, Fraction(0)), (Fraction(-k), Fraction(0)), (-r, Fraction(0)), one]
        return self._decompose("decompose-unsplit", coeffs, split=False)

    def verify_algebra(self):
        which = self.algebras.pop()
        return Request("verify", "verify-algebra",
                       ["verify", "algebra", f"--which={which}", f"--window={VERIFY_WINDOW}", "--json"])

    def verify_homomorphism(self):
        name = self.maps.pop()
        return Request("verify", "verify-homomorphism",
                       ["verify", "homomorphism", f"--map={name}", f"--window={VERIFY_WINDOW}",
                        "--json"])

    def verify_submodule(self):
        rng = self.rng
        coeffs = [(self._frac(3), Fraction(rng.randint(-1, 1))) for _ in range(rng.randint(1, 2))]
        h = _poly_text(coeffs + [(Fraction(1), Fraction(0))])
        return Request("verify", "verify-submodule",
                       ["verify", "submodule", f"--spec={rng.choice('MN')}[h={h}]",
                        f"--window={SUBMODULE_WINDOW}", f"--degree={SUBMODULE_DEGREE}", "--json"])

    def heavy(self):
        """A split h whose roots have large height (numerators 10^5 to 10^6)."""
        rng = self.rng
        big = lambda: Fraction(rng.choice((-1, 1)) * rng.randint(10 ** 5, 10 ** 6))  # noqa: E731
        if rng.random() < 0.5:
            roots = [(big(), Fraction(0)) for _ in range(2)]
        else:
            p, q = big(), Fraction(rng.randint(10 ** 5, 10 ** 6))
            roots = [(p, q), (p, -q)]
        return self._decompose("decompose-heavy", roots)


# -- the workload -------------------------------------------------------------

def _on_alarm(signum, frame):
    raise Deadline()


class CliMix:
    """One deck for one interpreter: a run spreads its decks over a sequence
    of fresh interpreters, so that no one process's memory layout sets a
    whole run's figures.  A deck covers every algebra and every map once, so
    decks cost about the same.  Deck i always holds the same requests for a
    given seed; interpreter k < HEAVY_PER_RUN also sends heavy request k
    after its deck."""

    def __init__(self, seed, unit=0):
        self.deck = self._build_deck(seed, unit)
        self.heavy = []
        if unit < HEAVY_PER_RUN:
            self.heavy.append(_Generator(random.Random(f"cli-mix/{seed}/heavy/{unit}")).heavy())
        cli.build_parser()
        for alg in algebras.ALGEBRAS:
            warm_brackets(alg, VERIFY_WINDOW)

    @staticmethod
    def _build_deck(seed, index):
        gen = _Generator(random.Random(f"cli-mix/{seed}/deck/{index}"))
        deck = [getattr(gen, form.replace("-", "_"))() for form, n in DECK for _ in range(n)]
        gen.rng.shuffle(deck)
        return deck

    def schedule(self):
        """The requests in sending order: the deck, then the heavy ones."""
        return self.deck + self.heavy

    # -- running ----------------------------------------------------------------

    def run(self, req):
        """Send one request through ``cli.main`` under the deadline."""
        out = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        t0 = perf_counter()
        try:
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
                    try:
                        code = cli.main(req.argv)
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
            except Deadline:
                return Outcome(None, "", DEADLINE_S, True)
            return Outcome(code, out.getvalue(), perf_counter() - t0, False)
        finally:
            signal.signal(signal.SIGALRM, previous)

    def replay(self, req, tr):
        """The CLI's steps for one request, driven from here with spans;
        returns what ``cli.main`` would print, or None past the deadline."""
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        root = tr.open("cli." + req.kind)
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                parser = tr.call("cli.build_parser", cli.build_parser)
                args = tr.call("cli.parse_args", parser.parse_args, req.argv)
                return getattr(self, "_replay_" + args.command)(args, tr) + "\n"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            return None
        finally:
            tr.close(root)
            signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def _quotient_params(args, tr):
        parse = lambda text: tr.call("parsing.parse", parse_quadext, text)  # noqa: E731
        lam = Scalar.number(parse(args.lam0)) if args.lam0 else Scalar.param("lam")
        alp = Scalar.number(parse(args.alp0)) if args.alp0 else Scalar.param("alp")
        a = parse(args.a_value) if args.a_value is not None else 0
        return QuotientParams(a=a, lam=lam, alp=alp)

    def _replay_act(self, args, tr):
        parity = {"even": EVEN, "odd": ODD, None: None}[args.parity]
        words = [w for w in args.operator.split(";") if w.strip()]
        ops = [tr.call("parsing.parse", parse_algebra_element, w, "R") for w in words]
        if args.module == "omega":
            action = module_action()
            v = tr.call("parsing.parse", parse_module_element, args.element, parity)
        else:
            action = quotient_action(self._quotient_params(args, tr))
            v = tr.call("parsing.parse", parse_quotient_element, args.element, parity)
        for op in reversed(ops):
            v = action.act(tr, op, v)
        return tr.call(action.module + ".render", v.render)

    def _replay_decompose(self, args, tr):
        h = tr.call("parsing.parse", parse_unipoly, args.h).monic()
        report = VerificationReport("decompose", {"h": h.render()})
        try:
            roots = tr.call("quotients.find_roots", quotients.find_roots, h)
            series = tr.call("quotients.composition_series", quotients.composition_series, h, roots)
        except UnsplitPolynomial:
            report.inconclusive = True
        else:
            report.params["chain"] = [spec.render() for spec in series.chain]
            report.params["factors"] = [str(f) for f in series.factors]
            report.params["links_verified"] = max(len(series.chain) - 1, 0)
        return _render_json(tr, report)

    def _replay_verify(self, args, tr):
        if args.suite == "algebra":
            report = VerificationReport("algebra", {"which": args.which, "window": args.window})
            report.merge(tr.call("algebras.check_super_jacobi", algebras.check_super_jacobi,
                                 args.which, args.window))
        elif args.suite == "homomorphism":
            report = VerificationReport("homomorphism", {"map": args.map_name,
                                                         "window": args.window})
            self._replay_homomorphism(tr, report, algebras.STANDARD_MAPS[args.map_name](),
                                      args.window)
        else:
            spec = tr.call("parsing.parse", parse_submodule_spec, args.spec)
            report = VerificationReport("submodule", {"spec": spec.render(), "window": args.window,
                                                      "degree": args.degree})
            span = tr.open("submodules.check_closure")
            try:
                self._replay_closure(tr, report, spec, args.window, args.degree)
            finally:
                tr.close(span)
        return _render_json(tr, report)

    @staticmethod
    def _replay_homomorphism(tr, report, gmap, window):
        syms = tr.call("algebras.basis_symbols", basis_symbols, gmap.source, window)
        elems = {s: AlgebraElement.basis(s) for s in syms}
        images = {s: tr.call("algebras.apply_map", algebras.apply_map, gmap, elems[s])
                  for s in syms}
        for x in syms:
            for y in syms:
                br = tr.call("algebras.bracket", bracket, elems[x], elems[y])
                lhs = tr.call("algebras.apply_map", algebras.apply_map, gmap, br)
                rhs = tr.call("algebras.bracket", bracket, images[x], images[y])
                if gmap.mod_center:
                    lhs, rhs = lhs.drop_center(), rhs.drop_center()
                if lhs != rhs:
                    report.record(f"hom {gmap.name} ({x}, {y})", lhs.render(), rhs.render())

    @staticmethod
    def _replay_closure(tr, report, spec, window, degree):
        action = module_action()
        elements = spec.spanning_elements(degree)
        for sym in tr.call("algebras.basis_symbols", basis_symbols, "R", window):
            for v in elements:
                out = action.basis(tr, sym, v)
                if not tr.call("submodules.contains", submodules.contains, spec, out):
                    report.record(f"closure {spec} under {sym} on {v}", out.render(), "member")

    # -- the oracle -------------------------------------------------------------

    def check(self, req, outcome):
        """Returns (failed, incorrect reason or None)."""
        if outcome.timed_out:
            return True, None
        if req.kind == "act":
            if outcome.code != 0:
                return False, f"exit {outcome.code}"
            return False, self._check_act(req, outcome.stdout.strip())
        if outcome.code not in (0, 2):
            return False, f"exit {outcome.code}"
        status = json.loads(outcome.stdout)["status"] if outcome.stdout else None
        if req.kind == "verify":
            return False, None if outcome.code == 0 and status == "pass" else f"status {status}"
        if req.roots is None:
            return False, None if outcome.code == 2 else "split claimed for an unsplittable h"
        if outcome.code == 2:
            return True, None
        got = Counter(parse_quadext(f) for f in json.loads(outcome.stdout)["params"]["factors"])
        want = Counter(QuadExt(-p, -q) for p, q in req.roots)
        return False, None if got == want else f"factors {dict(got)} != {dict(want)}"

    @staticmethod
    def _check_act(req, text):
        _, operator, element, *flags = req.argv
        opts = dict(f[2:].split("=", 1) for f in flags)
        parity = {"even": EVEN, "odd": ODD}[opts["parity"]]
        ops = [parse_algebra_element(w, "R") for w in operator.split(";")]
        if opts.get("module") == "quotient":
            p = QuotientParams(
                a=parse_quadext(opts["a"]),
                lam=Scalar.number(parse_quadext(opts["lam0"])) if "lam0" in opts else Scalar.param("lam"),
                alp=Scalar.number(parse_quadext(opts["alp0"])) if "alp0" in opts else Scalar.param("alp"))
            v = parse_quotient_element(element, parity)
            for op in reversed(ops):
                v = quotients.quotient_act(op, v, p)
            got = parse_quotient_element(text, v.parity)
        else:
            v = parse_module_element(element, parity)
            for op in reversed(ops):
                v = freemod.act(op, v)
            got = parse_module_element(text, v.parity)
        return None if got == v else "act output does not parse back to the direct result"


def _render_json(tr, report):
    return tr.call("reports.render",
                   lambda: json.dumps(report.to_dict(), indent=2, sort_keys=True))

