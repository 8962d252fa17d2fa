"""The benchmark's own code still runs against this tree.

``perfbench/`` calls library functions by name, patches none of them and
checks its own verdicts; a change to ``src/`` that breaks a name, a
signature or a verdict it relies on fails here first.  Each sweep's pass
must pass, as ``perfbench/run.py`` counts it, and its traced replay must
reach the same verdicts.  A prefix of one cli-mix deck must pass the
workload's oracle and replay to the bytes that ``sconf.cli.main`` prints.
The whole file takes about 2.5 s on a 2-core host.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import climix  # noqa: E402
import sweeps  # noqa: E402
import tracer  # noqa: E402

DECK_PREFIX = 40


@pytest.mark.parametrize("workload", [sweeps.ModuleSweep, sweeps.QuotientN1],
                         ids=lambda cls: cls.__name__)
def test_sweep_replay_reaches_the_pass_verdicts(workload):
    sweep = workload()
    verdicts = sweep.run_pass()
    assert verdicts
    assert all(status == "pass" and not n for _, status, n in verdicts), verdicts
    assert sweep.replay_pass(tracer.Tracer(0)) == verdicts


def test_cli_mix_deck_prefix_passes_its_oracle_and_replays():
    mix = climix.CliMix(1)
    requests = mix.deck[:DECK_PREFIX]
    assert {req.kind for req in requests} == {"act", "decompose", "verify"}
    for req in requests:
        outcome = mix.run(req)
        assert mix.check(req, outcome) == (False, None), req.argv
        assert mix.replay(req, tracer.Tracer(0)) == outcome.stdout, req.argv
