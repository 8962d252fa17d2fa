"""Spans and counters recorded from the benchmark's own call sites.

A span is one call from a replayed loop into a public function of an sconf
module: name, start and end (perf_counter_ns), the index of the enclosing
span (-1 at top level) and the request id (a pass number for the sweeps, a
request number for cli-mix).  Spans stay in memory and are written out once,
when the run ends.  Self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import gzip
import json
import random
import statistics
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self, sample_seed):
        self.spans = []  # [name, start_ns, end_ns, parent, request]
        self._stack = []
        self.request = 0
        self.inputs = {}  # family -> Counter of memo keys since the last end_unit
        self._folded = {}  # family -> [distinct, total] over finished units
        self.coeffs = CoefficientStats(sample_seed)

    def call(self, name, fn, *args):
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()

    def open(self, name):
        """Start a container span; close it with ``close``."""
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        return span

    def close(self, span):
        span[2] = perf_counter_ns()
        self._stack.pop()

    def saw_input(self, family, key):
        """Count one (generator, element) input handed to ``family``."""
        self.inputs.setdefault(family, Counter())[key] += 1

    def end_unit(self):
        """Close a unit of reuse: inputs after this repeat nothing before it."""
        for family, seen in self.inputs.items():
            acc = self._folded.setdefault(family, [0, 0])
            acc[0] += len(seen)
            acc[1] += sum(seen.values())
        self.inputs = {}

    def summary(self):
        """Per span name: calls, inclusive ns, self ns, and inclusive samples."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0, "durations": []})
            row["calls"] += 1
            row["incl_ns"] += end - start
            row["self_ns"] += end - start - child_ns[k]
            row["durations"].append(end - start)
        return out

    def repeat_share(self, family):
        """Share of inputs that repeat an earlier one in their unit, and the
        input count."""
        self.end_unit()
        distinct, total = self._folded.get(family, (0, 0))
        return (1.0 - distinct / total if total else 0.0), total

    def write(self, path, meta):
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        doc = dict(meta, names=names, fields=["name", "start_ns", "end_ns", "parent", "request"],
                   spans=[[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans])
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- memo keys ---------------------------------------------------------------

def scalar_key(s):
    return tuple(sorted((ev, q.rat, q.root2) for ev, q in s.terms.items()))


def element_key(v):
    """Canonical, hashable form of a ModuleElement or QuotientElement."""
    if not v.terms:
        return ()
    return (v.parity,) + tuple(sorted((k, scalar_key(c)) for k, c in v.terms.items()))


# -- coefficient mix and the scalars kernel replay ------------------------------

class CoefficientStats:
    """Arithmetic mix of action outputs, plus a reservoir of their coefficients."""

    RESERVOIR = 400

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.coeffs = 0
        self.terms = 0
        self.rational = 0
        self.seen = 0
        self.sample = []

    def add_output(self, v):
        for c in v.terms.values():
            self.coeffs += 1
            self.terms += len(c.terms)
            self.rational += sum(1 for q in c.terms.values() if not q.root2)
            self.seen += 1
            if len(self.sample) < self.RESERVOIR:
                self.sample.append(c)
            else:
                k = self.rng.randrange(self.seen)
                if k < self.RESERVOIR:
                    self.sample[k] = c

    def rational_share(self):
        return self.rational / self.terms if self.terms else 0.0

    def terms_per_coeff(self):
        return self.terms / self.coeffs if self.coeffs else 0.0


def _ns_per_op(op, pairs, repeats=7):
    """Median over repeats of the mean time of ``op`` over the operand pairs."""
    per_op = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        for a, b in pairs:
            op(a, b)
        per_op.append((perf_counter_ns() - t0) / len(pairs))
    return statistics.median(per_op)


def kernel_replay(stats, quadext_cls, seed):
    """Replay Scalar and QuadExt operations on operand pairs sampled from the
    workload's own outputs.  Returns ns per operation by kind.

    Irrational QuadExt operands come from the sampled coefficients when the
    workload produced any; a workload whose outputs are all rational gets
    them by pairing two sampled rational parts as p + q*sqrt2.
    """
    rng = random.Random(seed)
    scalars = stats.sample
    if len(scalars) < 2:
        raise RuntimeError("the traced replay produced no coefficients to sample")
    pairs = [(rng.choice(scalars), rng.choice(scalars)) for _ in range(300)]
    eq_pairs = pairs[:150] + [(a, a) for a, _ in pairs[150:]]
    quads = [q for s in scalars for q in s.terms.values()]
    rational = [q for q in quads if not q.root2]
    irrational = [q for q in quads if q.root2]
    if not irrational:
        rats = [q.rat for q in rational]
        irrational = [quadext_cls(rng.choice(rats), rng.choice(rats)) for _ in range(64)]
    if not rational:
        rational = [quadext_cls(q.rat) for q in irrational]
    rat_pairs = [(rng.choice(rational), rng.choice(rational)) for _ in range(300)]
    irr_pairs = [(rng.choice(irrational), rng.choice(quads)) for _ in range(300)]
    return {
        "scalars.mul_ns": _ns_per_op(lambda a, b: a * b, pairs),
        "scalars.add_ns": _ns_per_op(lambda a, b: a + b, pairs),
        "scalars.eq_ns": _ns_per_op(lambda a, b: a == b, eq_pairs),
        "scalars.quadext_mul_ns.rational": _ns_per_op(lambda a, b: a * b, rat_pairs),
        "scalars.quadext_mul_ns.irrational": _ns_per_op(lambda a, b: a * b, irr_pairs),
    }
