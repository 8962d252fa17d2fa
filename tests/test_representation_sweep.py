"""The bracket-compatibility sweeps act through the basis action they are
given, one generator at a time, never through ``act`` or ``quotient_act`` on
whole algebra elements."""

import pytest

from sconf import freemod, n1, quotients
from sconf.errors import MixedParity
from sconf.n1 import RestrictedAction, check_n1_relations
from sconf.quotients import QuotientParams, check_quotient_compatibility

P = QuotientParams(a=1)


def test_sweeps_build_no_linear_action(monkeypatch):
    def refuse(*args):
        raise AssertionError("a compatibility sweep acted by a whole element")

    good = n1.restricted_act

    def one_generator(x, w, r):
        assert len(x.terms) == 1, f"an N=1 sweep acted by {x}"
        return good(x, w, r)

    monkeypatch.setattr(freemod, "act", refuse)
    monkeypatch.setattr(n1, "restricted_act", one_generator)
    with monkeypatch.context() as m:
        # the N=1 basis action is quotient_act on the embedded generator
        m.setattr(quotients, "quotient_act", refuse)
        reports = [
            freemod.check_module_compatibility(1, 1),
            check_quotient_compatibility(P, 1, 1),
        ]
    reports += [
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
