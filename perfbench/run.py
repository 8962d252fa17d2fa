"""sconf benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py                        # every workload, tracing off
    python3 perfbench/run.py --workload cli-mix --seed 3 --seconds 20 --trace 1

Run it from the repository root; the program under test is imported from
``src/`` there and nowhere else.  With ``--workload all`` (the default) each
workload runs in a fresh interpreter of its own, one after the other.  The
last line of standard output is one JSON object; see README.md in this
directory for what every metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("module-sweep", "quotient-n1", "cli-mix")
# fewest interpreters per run, so that the medians have enough samples
# within the time budget; cli-mix needs one per heavy request
MIN_UNITS = {"module-sweep": 21, "quotient-n1": 15, "cli-mix": 4}
MIN_SETUPS = 11  # set-up samples per run; set-up-only interpreters make up the rest
# Times are reported at a reference speed: the calibration work below takes
# this long there.
CALIBRATION_REF_S = 0.005
TRACE_DIR = os.path.join(ROOT, ".perfbench")

END_TO_END = (
    ("verdict_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# (metric, unit, span name, statistic); statistics are per traced pass, per
# call, or per request span
SPAN_METRICS = (
    ("freemod.act_basis.calls", "count", "freemod.act_basis", "calls"),
    ("freemod.act_basis.s", "s", "freemod.act_basis", "seconds"),
    ("freemod.act.calls", "count", "freemod.act", "calls"),
    ("freemod.act.s", "s", "freemod.act", "seconds"),
    ("freemod.eq.s", "s", "freemod.eq", "seconds"),
    ("quotients.quotient_act_basis.calls", "count", "quotients.quotient_act_basis", "calls"),
    ("quotients.quotient_act_basis.s", "s", "quotients.quotient_act_basis", "seconds"),
    ("quotients.project.s", "s", "quotients.project", "seconds"),
    ("quotients.iso_xi.s", "s", "quotients.iso_xi", "seconds"),
    ("n1.restricted_act.calls", "count", "n1.restricted_act", "calls"),
    ("n1.restricted_act.s", "s", "n1.restricted_act", "seconds"),
    ("n1.check_simplicity_witness.s", "s", "n1.check_simplicity_witness", "seconds"),
    ("linalg.rowspan_add.calls", "count", "linalg.rowspan_add", "calls"),
    ("linalg.rowspan_add.s", "s", "linalg.rowspan_add", "seconds"),
    ("quotients.find_roots.calls", "count", "quotients.find_roots", "calls"),
    ("quotients.find_roots.s", "s", "quotients.find_roots", "seconds"),
    ("algebras.bracket.calls", "count", "algebras.bracket", "calls"),
    ("algebras.bracket.s", "s", "algebras.bracket", "seconds"),
    ("algebras.check_super_jacobi.s", "s", "algebras.check_super_jacobi", "seconds"),
    ("algebras.apply_map.s", "s", "algebras.apply_map", "seconds"),
    ("submodules.contains.calls", "count", "submodules.contains", "calls"),
    ("submodules.contains.s", "s", "submodules.contains", "seconds"),
    ("submodules.check_closure.s", "s", "submodules.check_closure", "seconds"),
    ("parsing.parse.s", "s", "parsing.parse", "seconds"),
    ("cli.build_parser.ms", "ms", "cli.build_parser", "ms_per_call"),
    ("cli.act.p50_ms", "ms", "cli.act", "p50_ms"),
    ("cli.decompose.p50_ms", "ms", "cli.decompose", "p50_ms"),
    ("cli.verify.p50_ms", "ms", "cli.verify", "p50_ms"),
    ("reports.render.ms", "ms", "reports.render", "ms_per_call"),
)
REPEATS = ("freemod.act_basis", "quotients.quotient_act_basis")


class UsageError(Exception):
    pass


def _import_program():
    """Import sconf from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "sconf")):
        raise UsageError(f"no sconf package under {src}; run from a checkout of the repository")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import sconf

    if os.path.dirname(os.path.dirname(os.path.abspath(sconf.__file__))) != src:
        raise UsageError(f"sconf was imported from {sconf.__file__}, not from {src}")


def _make(name, seed, unit=0):
    if name == "cli-mix":
        from climix import CliMix

        return CliMix(seed, unit)
    from sweeps import ModuleSweep, QuotientN1

    return ModuleSweep() if name == "module-sweep" else QuotientN1()


def tail(values):
    """The highest percentile with at least ten samples beyond it, and never
    below the median: with fewer than 21 samples that percentile would be."""
    ordered = sorted(values)
    return max(ordered[max(len(ordered) - 11, 0)], statistics.median(ordered))


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- speed calibration -------------------------------------------------------------

_CALIBRATION_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*/^()\[\]=,]))")
_CALIBRATION_TEXT = "(3/2 + 2*sqrt2)*lam^-1*alp^2*x^6*y^2 + (1)*x^3*y^3 + (-1/2*sqrt2)*y^6"


def _calibration_work():
    """Fixed stdlib work in the proportions the workloads use: argparse,
    regex tokenising, JSON rendering, Fraction arithmetic and tuple-keyed
    dict updates.  It never calls sconf."""
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command")
    for name in ("verify", "act", "decompose", "restrict"):
        cmd = sub.add_parser(name)
        for opt in ("--window", "--degree", "--which", "--spec", "--json"):
            cmd.add_argument(opt)
    parser.parse_args(["verify", "--window=2", "--which=R"])
    for _ in range(8):
        pos = 0
        while pos < len(_CALIBRATION_TEXT):
            m = _CALIBRATION_TOKEN.match(_CALIBRATION_TEXT, pos)
            if m is None or m.end() == m.start():
                break
            pos = m.end()
    json.dumps({"k": [str(Fraction(i, 7)) for i in range(50)]}, indent=2, sort_keys=True)
    acc = {}
    for i in range(375):
        q = Fraction(i % 11 + 1, i % 7 + 2)
        r = q * q - q / 3
        key = (i % 8, i % 5)
        acc[key] = acc.get(key, 0) + r.numerator % 5
    return acc


def snippet_s():
    """One timing of the calibration work, with the cyclic collector off so
    that a collection of the program's garbage cannot fall inside it, slow
    the calibration and so scale the program's time down."""
    gc.disable()
    t0 = perf_counter()
    _calibration_work()
    seconds = perf_counter() - t0
    gc.enable()
    return seconds


def calibration_s():
    """Median of five timings of the calibration work.  It tracks this
    machine's current speed, which drifts by tens of percent, from one
    second to the next, on a shared host."""
    return statistics.median(snippet_s() for _ in range(5))


def to_reference(seconds, calibration):
    """Scale a time measured next to ``calibration`` to the reference speed."""
    return seconds * CALIBRATION_REF_S / calibration


# -- fresh interpreters ------------------------------------------------------------

def _spawn(name, seed, role, unit=0):
    """Start a fresh interpreter that sets unit ``unit`` of the workload up
    and prints ``ready``; with role ``pass`` it then runs the unit and prints
    the result as JSON.  Returns (seconds from start to ready, result)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--child", role, "--unit", str(unit)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest, err = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"{role} interpreter failed ({proc.returncode}): {err.strip()}")
    return setup, json.loads(rest)


def run_child(args):
    work = _make(args.workload, args.seed, args.unit)
    print("ready", flush=True)
    out = {"calibration": calibration_s()}
    if args.child == "pass":
        run = run_deck if args.workload == "cli-mix" else run_pass
        out.update(run(work, out["calibration"]))
        out["rss_mb"] = _rss_mb()
    print(json.dumps(out))
    return 0


def run_pass(work, before):
    """One sweep pass, scaled by the calibrations taken before and after it."""
    gc.collect()
    t0, c0 = perf_counter(), process_time()
    verdicts = work.run_pass()
    seconds, cpu = perf_counter() - t0, process_time() - c0
    cal = (before + calibration_s()) / 2
    bad = [v for v in verdicts if v[1] != "pass" or v[2]]
    return {"verdict_times": [to_reference(seconds, cal)], "raw_s": seconds, "cpu_s": cpu,
            "attempted": len(verdicts), "failed": len(bad),
            "incorrect": [f"{suite} {status} with {n} violations" for suite, status, n in bad],
            "requests": [["pass", to_reference(seconds, cal)]]}


def run_deck(work, before):
    """This interpreter's deck.  A calibration snippet follows every request,
    and each latency is scaled by the median of the seven snippets around it:
    the machine's speed moves too fast for one calibration per deck to
    follow.  A request past the deadline counts the deadline itself."""
    from climix import DEADLINE_S

    sent, snippets, incorrect = [], [], []
    raw = cpu = 0.0
    failed = 0
    for req in work.schedule():
        c0 = process_time()
        out = work.run(req)
        cpu += process_time() - c0
        raw += out.seconds
        snippets.append(snippet_s())
        bad, reason = work.check(req, out)
        failed += bad
        if reason:
            incorrect.append(f"{req.form} {req.argv}: {reason}")
        sent.append((req, out))
    requests, deck_time = [], 0.0
    for i, (req, out) in enumerate(sent):
        cal = statistics.median(snippets[max(i - 3, 0):i + 4])
        latency = DEADLINE_S if out.timed_out else to_reference(out.seconds, cal)
        requests.append([req.form, latency])
        if req.form != "decompose-heavy":
            deck_time += latency
    return {"verdict_times": [deck_time], "raw_s": raw, "cpu_s": cpu,
            "attempted": len(sent), "failed": failed, "incorrect": incorrect,
            "requests": requests}


# -- untraced measurement --------------------------------------------------------

def measure(name, seed, seconds):
    """Units of work in a sequence of fresh interpreters until ``seconds``
    have passed and at least MIN_UNITS[name] units ran, or twice ``seconds``
    have passed: a sweep pass per interpreter, as one ``sconf verify``
    invocation runs it, or a cli-mix deck."""
    _spawn(name, seed, "setup")  # warm-up: the first interpreter may compile bytecode
    units = []
    t_end = perf_counter() + seconds
    t_cap = t_end + seconds  # on a slow host MIN_UNITS may double a run, no more
    while perf_counter() < t_end or (len(units) < MIN_UNITS[name] and perf_counter() < t_cap):
        setup, result = _spawn(name, seed, "pass", len(units))
        result["setup"] = to_reference(setup, result["calibration"])
        units.append(result)
    setups = [u["setup"] for u in units]
    while len(setups) < MIN_SETUPS:
        setup, result = _spawn(name, seed, "setup", len(setups))
        setups.append(to_reference(setup, result["calibration"]))
    latencies, by_form = [], {}
    for u in units:
        for form, latency in u["requests"]:
            latencies.append(latency)
            by_form.setdefault(form, []).append(latency)
    return {
        "samples": {"verdict": [t for u in units for t in u["verdict_times"]],
                    "request": latencies},
        "setup": (statistics.median(setups), len(setups)),
        "rss_mb": (statistics.median(u["rss_mb"] for u in units), len(units)),
        "raw": {"interpreters": len(units), "wall_s": sum(u["raw_s"] for u in units),
                "cpu_s": sum(u["cpu_s"] for u in units),
                "calibration_ms": statistics.median(u["calibration"] for u in units) * 1e3},
        "attempted": sum(u["attempted"] for u in units),
        "failed": sum(u["failed"] for u in units),
        "incorrect": [r for u in units for r in u["incorrect"]],
        "by_form": by_form,
    }


def end_to_end(result):
    verdicts, requests = result["samples"]["verdict"], result["samples"]["request"]
    return {
        "verdict_s": (statistics.median(verdicts), len(verdicts)),
        "request_p50_ms": (statistics.median(requests) * 1e3, len(requests)),
        "request_tail_ms": (tail(requests) * 1e3, len(requests)),
        "requests_per_s": (len(requests) / sum(requests), len(requests)),
        "setup_s": result["setup"],
        "peak_rss_mb": result["rss_mb"],
    }


# -- traced replay ---------------------------------------------------------------

def trace_sweep(name, seed, seconds, tr):
    work = _make(name, seed)
    untraced, traced, incorrect, attempted, failed = [], [], [], 0, 0
    t_end = perf_counter() + seconds
    while perf_counter() < t_end or len(traced) < 2:
        tr.request = len(traced)
        gc.collect()
        t0 = perf_counter()
        want = work.run_pass()
        untraced.append(perf_counter() - t0)
        gc.collect()
        t0 = perf_counter()
        got = work.replay_pass(tr)
        traced.append(perf_counter() - t0)
        tr.end_unit()  # a pass is one interpreter's worth of reuse
        attempted += len(want)
        bad = [f"{s} {st} with {n} violations" for s, st, n in want if st != "pass" or n]
        failed += len(bad)
        incorrect += bad
        if got != want:
            incorrect.append(f"replayed verdicts {got} != checker verdicts {want}")
    return {"untraced": untraced, "traced": traced, "attempted": attempted, "failed": failed,
            "incorrect": incorrect, "units": ("pass", len(traced))}


def trace_cli_mix(name, seed, seconds, tr):
    """Each request goes through cli.main, then through the traced replay;
    the units of a run share this one interpreter."""
    untraced, traced, incorrect, failed = [], [], [], 0
    t_end = perf_counter() + seconds
    unit = 0
    while perf_counter() < t_end or unit == 0:
        work = _make(name, seed, unit)
        for req in work.schedule():
            gc.collect()
            out = work.run(req)
            bad, reason = work.check(req, out)
            failed += bad
            if reason:
                incorrect.append(f"{req.form} {req.argv}: {reason}")
            tr.request += 1
            gc.collect()
            t0 = perf_counter()
            text = work.replay(req, tr)
            traced.append(perf_counter() - t0 if text is not None else out.seconds)
            untraced.append(out.seconds)
            if (text is None) != out.timed_out or (text is not None and text != out.stdout):
                incorrect.append(f"replay of {req.argv} differs from cli.main")
        unit += 1
        tr.end_unit()  # one deck per interpreter in an untraced run
    return {"untraced": untraced, "traced": traced, "attempted": len(untraced),
            "failed": failed, "incorrect": incorrect, "units": ("deck", unit)}


def per_layer(tr, units, untraced, traced):
    from sconf.scalars import QuadExt
    from tracer import kernel_replay

    summary = tr.summary()
    metrics = {name: (value, "ns") for name, value in kernel_replay(tr.coeffs, QuadExt, 0).items()}
    metrics["scalars.rational_share"] = (tr.coeffs.rational_share(), "ratio")
    metrics["scalars.terms_per_coeff"] = (tr.coeffs.terms_per_coeff(), "count")
    for name, unit, span, stat in SPAN_METRICS:
        row = summary.get(span)
        if row is None:
            value = 0.0
        elif stat == "calls":
            value = row["calls"] / units
        elif stat == "seconds":
            value = row["incl_ns"] / 1e9 / units
        elif stat == "ms_per_call":
            value = row["incl_ns"] / 1e6 / row["calls"]
        else:
            value = statistics.median(row["durations"]) / 1e6
        metrics[name] = (value, unit)
    for family in REPEATS:
        metrics[family + ".repeat_share"] = (tr.repeat_share(family)[0], "ratio")
    metrics["trace.overhead"] = (sum(traced) / sum(untraced) - 1.0, "ratio")
    return metrics, summary


# -- one workload in this process ------------------------------------------------

def run_one(args):
    load_before = os.getloadavg()
    wall0, cpu0 = perf_counter(), process_time()
    _import_program()
    if args.child:
        return run_child(args)
    name = args.workload
    print(f"# workload {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        metrics, counts, result = run_traced(args)
    else:
        result = measure(name, args.seed, args.seconds)
        e2e = end_to_end(result)
        metrics = {k: (e2e[k][0], unit) for k, unit in END_TO_END}
        counts = {k: e2e[k][1] for k, _ in END_TO_END}
        for form, xs in sorted(result["by_form"].items()):
            print(f"# {form:24s} n={len(xs):4d} p50_ms={statistics.median(xs) * 1e3:9.3f}"
                  f" max_ms={max(xs) * 1e3:9.3f}")
        print("# raw " + json.dumps(result["raw"]) + f" (reference calibration "
              f"{CALIBRATION_REF_S * 1e3:.0f} ms)")
    attempted, failed, incorrect = result["attempted"], result["failed"], result["incorrect"]
    print(f"# failed_frac = {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")
    for reason in incorrect[:20]:
        print(f"# INCORRECT {reason}")
    for key, (value, unit_name) in metrics.items():
        print(f"metric {key} = {value!r} {unit_name} (n={counts[key]})")
    env = {
        "python": platform.python_version(), "nproc": os.cpu_count(), "seed": args.seed,
        "load_before": load_before, "load_after": os.getloadavg(),
        "wall_s": perf_counter() - wall0, "cpu_s": process_time() - cpu0,
    }
    print("# env " + json.dumps(env))
    print(json.dumps({
        "correct": not incorrect,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_traced(args):
    """Untraced runs and traced replays alternate in this one interpreter."""
    from tracer import Tracer

    name = args.workload
    tr = Tracer(args.seed)
    trace = trace_cli_mix if name == "cli-mix" else trace_sweep
    result = trace(name, args.seed, args.seconds, tr)
    unit, units = result["units"]
    metrics, summary = per_layer(tr, units, result["untraced"], result["traced"])
    print(f"# traced {units} {unit}(s); {len(tr.spans)} spans; .calls and .s are per {unit}")
    print(f"# {'span':40s} {'calls':>9s} {'incl_s':>10s} {'self_s':>10s}  (per {unit})")
    for span, row in sorted(summary.items()):
        print(f"# {span:40s} {row['calls'] / units:9.1f} {row['incl_ns'] / 1e9 / units:10.5f}"
              f" {row['self_ns'] / 1e9 / units:10.5f}")
    for family in REPEATS:
        share, base = tr.repeat_share(family)
        print(f"# {family}.repeat_share over {base} (generator, element) inputs")
    print(f"# tracing overhead {metrics['trace.overhead'][0]:+.4f} (traced "
          f"{sum(result['traced']):.3f} s vs untraced {sum(result['untraced']):.3f} s)")
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{name}-seed{args.seed}.json.gz")
    tr.write(path, {"workload": name, "seed": args.seed, "unit": unit, "units": units})
    print(f"# spans written to {os.path.relpath(path, ROOT)}")
    return metrics, {k: units for k in metrics}, result


def run_all(args):
    """Each workload in a fresh interpreter; echo its report, then a summary."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    parser.add_argument("--unit", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
