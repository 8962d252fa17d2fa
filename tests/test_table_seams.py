"""A wrong basis action shows in every sweep that acts through it.

Each sweep, and each built image, looks up the rows seam
``freemod.basis_rows`` or ``n1.restricted_rows`` when it acts, so a fault
put there (``on_rows``) before the sweep runs must show in its report.
"""

from sconf import freemod, n1, submodules
from sconf.freemod import EVEN, ModuleElement
from sconf.n1 import RestrictedAction, check_rank1_freeness, check_simplicity_witness
from sconf.parsing import parse_submodule_spec
from sconf.quotients import QuotientElement, QuotientParams

from test_compat_failures import _only_violations, families_of, on_rows, scale_family


def test_rank1_sweep_catches_a_wrong_family(monkeypatch):
    scale_family(monkeypatch, n1, "restricted_rows", ("G",))
    report = check_rank1_freeness(RestrictedAction.ramond(QuotientParams(a=1)), 2)
    _only_violations(report, "L0^")
    assert {v.context for v in report.violations} == {f"L0^{k} G0 . 1_even" for k in range(3)}


def _leak(good, x, v, r):
    """The restricted action, plus 1_even on an even image of an L element."""
    out = good(x, v, r)
    if out.parity == EVEN and "L" in families_of(x):
        return out + QuotientElement.one(EVEN)
    return out


def _h_adds_one(good, sym, v):
    """The module action, plus 1 of the image's parity for an H generator."""
    out = good(sym, v)
    return out + ModuleElement.one(out.parity) if sym.family == "H" else out


def test_a0_closure_certificate_catches_a_leak_into_the_constants(monkeypatch):
    on_rows(monkeypatch, n1, "restricted_rows", _leak)
    report = check_simplicity_witness(0, 3, 2, 1, 1, index_window=1)
    _only_violations(report, "a=0 closure L[")


def test_closure_sweep_catches_a_wrong_family(monkeypatch):
    on_rows(monkeypatch, freemod, "basis_rows", _h_adds_one)
    report = submodules.check_closure(parse_submodule_spec("M[h=y^2-1]"), 1, 1)
    _only_violations(report, "closure M[h=y^2 - 1] under H[")


def test_odd_square_sweep_catches_a_wrong_family(monkeypatch):
    def gp_keeps_even(good, sym, v):
        if sym.family == "Gp" and v.parity == EVEN:
            return ModuleElement(1 - v.parity, dict(v.terms))
        return good(sym, v)

    on_rows(monkeypatch, freemod, "basis_rows", gp_keeps_even)
    report = freemod.check_odd_square_zero(1, 1)
    _only_violations(report, "Gp[")


def test_central_sweep_catches_a_wrong_family(monkeypatch):
    def c_is_identity(good, sym, v):
        return v if sym.family == "C" else good(sym, v)

    on_rows(monkeypatch, freemod, "basis_rows", c_is_identity)
    _only_violations(freemod.check_central_triviality(1), "C on ")


_CLOSURE_H_ADDS_ONE = [
    ("closure M[h=y^2 - 1] under H[-1] on y^2 - 1", "lam^-1*y^3 - lam^-1*y + 1", "member"),
    ("closure M[h=y^2 - 1] under H[-1] on y^3 - y", "lam^-1*y^4 - lam^-1*y^2 + 1", "member"),
    ("closure M[h=y^2 - 1] under H[-1] on x*y^2 - x",
     "lam^-1*x*y^3 - lam^-1*x*y - lam^-1*y^3 + lam^-1*y + 1", "member"),
    ("closure M[h=y^2 - 1] under H[-1] on t^2 + 2*t", "lam^-1*t^3 + 2*lam^-1*t^2 + 1", "member"),
    ("closure M[h=y^2 - 1] under H[-1] on t^3 + 2*t^2", "lam^-1*t^4 + 2*lam^-1*t^3 + 1", "member"),
    ("closure M[h=y^2 - 1] under H[-1] on s*t^2 + 2*s*t",
     "lam^-1*s*t^3 + 2*lam^-1*s*t^2 - lam^-1*t^3 - 2*lam^-1*t^2 + 1", "member"),
    ("closure M[h=y^2 - 1] under H[0] on y^2 - 1", "y^3 - y + 1", "member"),
    ("closure M[h=y^2 - 1] under H[0] on y^3 - y", "y^4 - y^2 + 1", "member"),
    ("closure M[h=y^2 - 1] under H[0] on x*y^2 - x", "x*y^3 - x*y + 1", "member"),
    ("closure M[h=y^2 - 1] under H[0] on t^2 + 2*t", "t^3 + 2*t^2 + 1", "member"),
    ("closure M[h=y^2 - 1] under H[0] on t^3 + 2*t^2", "t^4 + 2*t^3 + 1", "member"),
    ("closure M[h=y^2 - 1] under H[0] on s*t^2 + 2*s*t", "s*t^3 + 2*s*t^2 + 1", "member"),
    ("closure M[h=y^2 - 1] under H[1] on y^2 - 1", "lam*y^3 - lam*y + 1", "member"),
    ("closure M[h=y^2 - 1] under H[1] on y^3 - y", "lam*y^4 - lam*y^2 + 1", "member"),
    ("closure M[h=y^2 - 1] under H[1] on x*y^2 - x",
     "lam*x*y^3 - lam*x*y + lam*y^3 - lam*y + 1", "member"),
    ("closure M[h=y^2 - 1] under H[1] on t^2 + 2*t", "lam*t^3 + 2*lam*t^2 + 1", "member"),
    ("closure M[h=y^2 - 1] under H[1] on t^3 + 2*t^2", "lam*t^4 + 2*lam*t^3 + 1", "member"),
    ("closure M[h=y^2 - 1] under H[1] on s*t^2 + 2*s*t",
     "lam*s*t^3 + 2*lam*s*t^2 + lam*t^3 + 2*lam*t^2 + 1", "member"),
]

_A0_LEAK = [
    ("a=0 closure L[-1] on x", "1/3*x^2 - 1/3*x + 1", "member of xC[x]+C[s]"),
    ("a=0 closure L[-1] on x^2", "1/3*x^3 - 2/3*x^2 + 1/3*x + 1", "member of xC[x]+C[s]"),
    ("a=0 closure L[0] on x", "x^2 + 1", "member of xC[x]+C[s]"),
    ("a=0 closure L[0] on x^2", "x^3 + 1", "member of xC[x]+C[s]"),
    ("a=0 closure L[1] on x", "3*x^2 + 3*x + 1", "member of xC[x]+C[s]"),
    ("a=0 closure L[1] on x^2", "3*x^3 + 6*x^2 + 3*x + 1", "member of xC[x]+C[s]"),
]


def test_closure_and_a0_certificate_record_every_violation_in_sweep_order(monkeypatch):
    # generator outer, spanning vector inner; each side as its full text
    on_rows(monkeypatch, freemod, "basis_rows", _h_adds_one)
    report = submodules.check_closure(parse_submodule_spec("M[h=y^2-1]"), 1, 1)
    assert [(v.context, v.lhs, v.rhs) for v in report.violations] == _CLOSURE_H_ADDS_ONE
    monkeypatch.undo()
    on_rows(monkeypatch, n1, "restricted_rows", _leak)
    report = check_simplicity_witness(0, 3, 2, 1, 1, index_window=1)
    assert [(v.context, v.lhs, v.rhs) for v in report.violations] == _A0_LEAK
