"""A wrong basis action shows in every sweep that acts through it.

Each sweep looks up ``freemod.act_basis`` or ``n1.restricted_act`` when it
acts, so a fault put there before the sweep runs must show in its report.
"""

from sconf import freemod, n1, submodules
from sconf.freemod import EVEN, ModuleElement
from sconf.n1 import RestrictedAction, check_rank1_freeness, check_simplicity_witness
from sconf.parsing import parse_submodule_spec
from sconf.quotients import QuotientElement, QuotientParams


def _only_violations(report, prefix):
    assert report.status == "fail"
    assert report.violations
    assert all(v.context.startswith(prefix) for v in report.violations), report.violations


def _wrap(monkeypatch, module, name, fault):
    """Replace ``module.name`` by ``fault(good, *args)``."""
    good = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: fault(good, *args))


def test_rank1_sweep_catches_a_wrong_family(monkeypatch):
    def double_g(good, x, v, r):
        out = good(x, v, r)
        return out * 2 if any(s.family == "G" for s in x.terms) else out

    _wrap(monkeypatch, n1, "restricted_act", double_g)
    report = check_rank1_freeness(RestrictedAction.ramond(QuotientParams(a=1)), 2)
    _only_violations(report, "L0^")
    assert {v.context for v in report.violations} == {f"L0^{k} G0 . 1_even" for k in range(3)}


def test_a0_closure_certificate_catches_a_leak_into_the_constants(monkeypatch):
    def leak(good, x, v, r):
        out = good(x, v, r)
        if out.parity == EVEN and any(s.family == "L" for s in x.terms):
            return out + QuotientElement.one(EVEN)
        return out

    _wrap(monkeypatch, n1, "restricted_act", leak)
    report = check_simplicity_witness(0, 3, 2, 1, 1, index_window=1)
    _only_violations(report, "a=0 closure L[")


def test_closure_sweep_catches_a_wrong_family(monkeypatch):
    def add_one(good, sym, v):
        out = good(sym, v)
        return out + ModuleElement.one(out.parity) if sym.family == "H" else out

    _wrap(monkeypatch, freemod, "act_basis", add_one)
    report = submodules.check_closure(parse_submodule_spec("M[h=y^2-1]"), 1, 1)
    _only_violations(report, "closure M[h=y^2 - 1] under H[")


def test_odd_square_sweep_catches_a_wrong_family(monkeypatch):
    def gp_keeps_even(good, sym, v):
        if sym.family == "Gp" and v.parity == EVEN:
            return ModuleElement(1 - v.parity, dict(v.terms))
        return good(sym, v)

    _wrap(monkeypatch, freemod, "act_basis", gp_keeps_even)
    report = freemod.check_odd_square_zero(1, 1)
    _only_violations(report, "Gp[")


def test_central_sweep_catches_a_wrong_family(monkeypatch):
    def c_is_identity(good, sym, v):
        return v if sym.family == "C" else good(sym, v)

    _wrap(monkeypatch, freemod, "act_basis", c_is_identity)
    _only_violations(freemod.check_central_triviality(1), "C on ")
