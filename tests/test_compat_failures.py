"""The three bracket-compatibility sweeps report a wrong action as a failure."""

from sconf import freemod, n1, quotients
from sconf.n1 import RestrictedAction, check_n1_relations
from sconf.quotients import QuotientParams, check_quotient_compatibility


def _only_violations(report, prefix):
    assert report.status == "fail"
    assert report.violations
    assert all(v.context.startswith(prefix) for v in report.violations)


def test_module_sweep_catches_a_wrong_family(monkeypatch):
    good = freemod.act_basis

    def wrong_h(sym, v):
        out = good(sym, v)
        return out * 2 if sym.family == "H" else out

    monkeypatch.setattr(freemod, "act_basis", wrong_h)
    _only_violations(freemod.check_module_compatibility(1, 1), "compat (")


def test_quotient_sweep_catches_a_wrong_family(monkeypatch):
    good = quotients.quotient_act_basis

    def wrong_l(sym, v, p):
        out = good(sym, v, p)
        return out * 2 if sym.family == "L" else out

    monkeypatch.setattr(quotients, "quotient_act_basis", wrong_l)
    p = QuotientParams(a=1)
    _only_violations(
        check_quotient_compatibility(p, 1, 1), f"quotient compat {p.describe()} ("
    )


def test_n1_sweep_catches_a_wrong_family(monkeypatch):
    good = n1.restricted_act

    def wrong_g(x, v, r):
        out = good(x, v, r)
        return out * 2 if any(s.family == "G" for s in x.terms) else out

    monkeypatch.setattr(n1, "restricted_act", wrong_g)
    r = RestrictedAction.neveu_schwarz(QuotientParams(a=1))
    _only_violations(
        check_n1_relations(r, 1, 1), f"n1 N1NS {r.params.describe()} ("
    )
