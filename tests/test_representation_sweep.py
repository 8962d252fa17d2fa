"""The bracket-compatibility sweeps act through the basis action they are
given, never through a linear action built for whole elements."""

import pytest

from sconf import freemod, n1, quotients
from sconf.errors import MixedParity
from sconf.n1 import RestrictedAction, check_n1_relations
from sconf.quotients import QuotientParams, check_quotient_compatibility

P = QuotientParams(a=1)


def test_sweeps_build_no_linear_action(monkeypatch):
    def refuse(*args):
        raise AssertionError("a compatibility sweep built a linear action")

    for module, name in ((freemod, "module_action"), (quotients, "quotient_action"),
                         (n1, "restricted_action")):
        monkeypatch.setattr(module, name, refuse)
    reports = [
        freemod.check_module_compatibility(1, 1),
        check_quotient_compatibility(P, 1, 1),
        check_n1_relations(RestrictedAction.ramond(P), 1, 1),
        check_n1_relations(RestrictedAction.neveu_schwarz(P), 1, 1),
    ]
    assert all(r.passed for r in reports), [r.render_text() for r in reports]


@pytest.mark.parametrize("module, name, sweep", [
    (freemod, "act_basis", lambda: freemod.check_module_compatibility(1, 1)),
    (quotients, "quotient_act_basis", lambda: check_quotient_compatibility(P, 1, 1)),
    (n1, "restricted_act", lambda: check_n1_relations(RestrictedAction.ramond(P), 1, 1)),
])
def test_an_image_of_the_wrong_parity_is_an_error(monkeypatch, module, name, sweep):
    # returning its argument, an odd generator keeps the monomial's parity
    monkeypatch.setattr(module, name, lambda x, w, *rest: w)
    with pytest.raises(MixedParity, match="maps a monomial to the wrong parity"):
        sweep()
