"""The two sweep workloads: one pass each, untraced and as a traced replay.

A pass runs the library checkers the way the CLI's ``verify`` suites do and
renders the merged report.  The replay re-runs the same loops from this file,
with a span around every call into an sconf module, and must reach the same
verdicts.  Sizes are fixed (no seeded inputs): a sweep's inputs are the
CLI's own enumeration of generators and monomials at the stated bounds.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from sconf import freemod, n1, quotients, submodules
from sconf.algebras import AlgebraElement, BasisSymbol, basis_symbols, bracket
from sconf.freemod import EVEN, ODD, ModuleElement, act, act_basis
from sconf.linalg import RowSpan
from sconf.parsing import parse_unipoly
from sconf.quotients import QuotientElement, QuotientParams, quotient_act, quotient_act_basis
from sconf.reports import VerificationReport
from sconf.scalars import SC_ONE, QuadExt, Scalar

from tracer import element_key


def verdict(report):
    return (report.suite, report.status, len(report.violations))


def _render(tr, suite, params, reports):
    merged = VerificationReport(suite, params)
    for rep in reports:
        merged.merge(rep)
    if tr is None:
        return merged.render_text()
    return tr.call("reports.render", merged.render_text)


def warm_brackets(algebra, window):
    syms = basis_symbols(algebra, window)
    for x in syms:
        for y in syms:
            bracket(AlgebraElement.basis(x), AlgebraElement.basis(y))


def _traced_out(tr, name, fn, *args):
    out = tr.call(name, fn, *args)
    tr.coeffs.add_output(out)
    return out


class _Action:
    """One action under replay: span names, the two action functions as
    closures over their parameters, and the memo-key suffix (the parameters
    the action depends on besides generator and element)."""

    def __init__(self, module, basis_name, basis_fn, act_name, act_fn, key=()):
        self.module = module
        self.basis_name, self.basis_fn = basis_name, basis_fn
        self.act_name, self.act_fn = act_name, act_fn
        self.key = key

    def basis(self, tr, sym, v):
        tr.saw_input(self.module + "." + self.basis_name, (sym, element_key(v)) + self.key)
        return _traced_out(tr, self.module + "." + self.basis_name, self.basis_fn, sym, v)

    def act(self, tr, x, v):
        """Each basis generator of x counts as one memo input of act_basis."""
        key = element_key(v)
        for sym in x.terms:
            tr.saw_input(self.module + "." + self.basis_name, (sym, key) + self.key)
        return _traced_out(tr, self.module + "." + self.act_name, self.act_fn, x, v)


def module_action():
    return _Action("freemod", "act_basis", act_basis, "act", act)


def quotient_action(p):
    return _Action("quotients", "quotient_act_basis", lambda s, v: quotient_act_basis(s, v, p),
                   "quotient_act", lambda x, v: quotient_act(x, v, p), (p.describe(),))


def _restricted_action(r):
    act_fn = lambda x, v: n1.restricted_act(x, v, r)  # noqa: E731
    return _Action("n1", "restricted_act", act_fn, "restricted_act", act_fn,
                   (r.source, r.params.describe()))


def _replay_compat(tr, report, syms, vs, action):
    """The bracket-compatibility loop shared by the module, quotient and N=1
    checkers: [X, Y].v == X.(Y.v) -+ Y.(X.v) on every pair and vector."""
    elems = {s: AlgebraElement.basis(s) for s in syms}
    if action.basis_fn is action.act_fn:
        acted = {s: [action.act(tr, elems[s], v) for v in vs] for s in syms}
    else:
        acted = {s: [action.basis(tr, s, v) for v in vs] for s in syms}
    add, eq = action.module + ".add", action.module + ".eq"
    for xs in syms:
        for ys in syms:
            br = tr.call("algebras.bracket", bracket, elems[xs], elems[ys])
            join = operator.add if xs.parity and ys.parity else operator.sub
            for k, v in enumerate(vs):
                lhs = action.act(tr, br, v)
                xy = action.act(tr, elems[xs], acted[ys][k])
                yx = action.act(tr, elems[ys], acted[xs][k])
                rhs = tr.call(add, join, xy, yx)
                if not tr.call(eq, operator.eq, lhs, rhs):
                    report.record(f"({xs}, {ys}) on {v}", lhs.render(), rhs.render())
    return report


class ModuleSweep:
    """``sconf verify module --window 1 --degree 2``."""

    WINDOW, DEGREE = 1, 2

    def __init__(self):
        warm_brackets("R", self.WINDOW)

    def _params(self):
        return {"window": self.WINDOW, "degree": self.DEGREE}

    def run_pass(self):
        reports = [
            freemod.check_module_compatibility(self.WINDOW, self.DEGREE),
            freemod.check_uh_freeness(self.DEGREE),
        ]
        _render(None, "module", self._params(), reports)
        return [verdict(r) for r in reports]

    def replay_pass(self, tr):
        syms = tr.call("algebras.basis_symbols", basis_symbols, "R", self.WINDOW)
        vs = tr.call("freemod.monomials", freemod.monomials, self.DEGREE)
        reports = [
            _replay_compat(tr, VerificationReport("module-compatibility", self._params()),
                           syms, vs, module_action()),
            self._replay_uh(tr),
        ]
        _render(tr, "module", self._params(), reports)
        return [verdict(r) for r in reports]

    def _replay_uh(self, tr):
        report = VerificationReport("uh-freeness", {"degree": self.DEGREE})
        action = module_action()
        L0, H0 = BasisSymbol("R", "L", 0), BasisSymbol("R", "H", 0)
        for v in tr.call("freemod.monomials", freemod.monomials, self.DEGREE):
            for sym, poly in ((L0, {(1, 0): SC_ONE}), (H0, {(0, 1): SC_ONE})):
                got = action.basis(tr, sym, v)
                want = v.times_poly(poly)
                if not tr.call("freemod.eq", operator.eq, got, want):
                    report.record(f"{sym} on {v}", got.render(), want.render())
        for parity in (EVEN, ODD):
            for i in range(self.DEGREE + 1):
                for j in range(self.DEGREE + 1 - i):
                    w = ModuleElement.one(parity)
                    for sym in (L0,) * i + (H0,) * j:
                        w = action.basis(tr, sym, w)
                    want = ModuleElement.monomial(parity, i, j)
                    if not tr.call("freemod.eq", operator.eq, w, want):
                        report.record(f"L0^{i} H0^{j} parity {parity}", w.render(), want.render())
        return report


class QuotientN1:
    """The ``sconf verify quotient`` battery, the phi/xi intertwining checks
    and ``sconf verify restriction``, at window 1 and degree 1."""

    WINDOW, DEGREE = 1, 1
    BATTERY_A = (0, 1, -1, Fraction(3, 2))
    XI_LAYERS = ((1, "y - 1"), (0, "y + 1"), (-1, "y^2 + y - 2"))
    SIMPLICITY_A = (1, -1, 2, 0)
    LAM0, ALP0, WORDS, RANK1_DEGREE = Fraction(3, 2), 2, 2, 3

    def __init__(self):
        self.battery = [QuotientParams(a=a) for a in self.BATTERY_A]
        self.phi = (QuotientParams(a=1), QuotientParams(a=1, alp=Scalar.param("bet")))
        self.xi = [(parse_unipoly(ht), QuotientParams(a=a)) for a, ht in self.XI_LAYERS]
        p1 = QuotientParams(a=1)
        self.restrictions = [n1.RestrictedAction.ramond(p1), n1.RestrictedAction.neveu_schwarz(p1)]
        for alg in ("R", "N1R", "N1NS"):
            warm_brackets(alg, self.WINDOW)

    def _params(self, **extra):
        return dict(extra, window=self.WINDOW, degree=self.DEGREE)

    def run_pass(self):
        W, D = self.WINDOW, self.DEGREE
        battery = []
        for p in self.battery:
            battery.append(quotients.check_quotient_compatibility(p, W, D))
            battery.append(quotients.check_projection_intertwines(p, W, D))
        _render(None, "quotient", self._params(), battery)
        iso = [quotients.check_phi_intertwines(*self.phi, W, D)]
        iso += [quotients.check_xi_intertwines(ht, p, W, D) for ht, p in self.xi]
        restriction = [n1.check_n1_relations(r, W, D) for r in self.restrictions]
        restriction.append(n1.check_rank1_freeness(self.restrictions[0], self.RANK1_DEGREE))
        restriction += [
            n1.check_simplicity_witness(a, self.LAM0, self.ALP0, D, self.WORDS, index_window=W)
            for a in self.SIMPLICITY_A
        ]
        for rep in restriction:
            _render(None, "restriction", {}, [rep])
        return [verdict(r) for r in battery + iso + restriction]

    def replay_pass(self, tr):
        W, D = self.WINDOW, self.DEGREE
        R = tr.call("algebras.basis_symbols", basis_symbols, "R", W)
        qvs = tr.call("quotients.quotient_monomials", quotients.quotient_monomials, D)
        mvs = tr.call("freemod.monomials", freemod.monomials, D)
        battery = []
        for p in self.battery:
            report = VerificationReport("quotient-compatibility", self._params(params=p.describe()))
            battery.append(_replay_compat(tr, report, R, qvs, quotient_action(p)))
            battery.append(self._replay_projection(tr, R, mvs, p))
        _render(tr, "quotient", self._params(), battery)
        iso = [self._replay_phi(tr, R, qvs, *self.phi)]
        iso += [self._replay_xi(tr, R, qvs, ht, p) for ht, p in self.xi]
        restriction = []
        for r in self.restrictions:
            syms = tr.call("algebras.basis_symbols", basis_symbols, r.source, W)
            report = VerificationReport("n1-relations", self._params(source=r.source))
            restriction.append(_replay_compat(tr, report, syms, qvs, _restricted_action(r)))
        restriction.append(self._replay_rank1(tr, self.restrictions[0]))
        restriction += [self._replay_simplicity(tr, a) for a in self.SIMPLICITY_A]
        for rep in restriction:
            _render(tr, "restriction", {}, [rep])
        return [verdict(r) for r in battery + iso + restriction]

    def _replay_projection(self, tr, syms, vs, p):
        report = VerificationReport("projection-intertwines", self._params(params=p.describe()))
        module, quotient = module_action(), quotient_action(p)
        for sym in syms:
            for v in vs:
                lhs = tr.call("quotients.project", quotients.project, module.basis(tr, sym, v), p)
                pv = tr.call("quotients.project", quotients.project, v, p)
                rhs = quotient.basis(tr, sym, pv)
                if not tr.call("quotients.eq", operator.eq, lhs, rhs):
                    report.record(f"{sym} on {v}", lhs.render(), rhs.render())
        return report

    def _replay_phi(self, tr, syms, vs, src, dst):
        report = VerificationReport("phi-intertwines", self._params(src=src.describe()))
        at_src, at_dst = quotient_action(src), quotient_action(dst)
        for sym in syms:
            for v in vs:
                lhs = tr.call("quotients.iso_phi", quotients.iso_phi, at_src.basis(tr, sym, v),
                              src, dst)
                pv = tr.call("quotients.iso_phi", quotients.iso_phi, v, src, dst)
                rhs = at_dst.basis(tr, sym, pv)
                if not tr.call("quotients.eq", operator.eq, lhs, rhs):
                    report.record(f"{sym} on {v}", lhs.render(), rhs.render())
        return report

    def _replay_xi(self, tr, syms, vs, h_tilde, p):
        report = VerificationReport("xi-intertwines", self._params(h_tilde=h_tilde.render()))
        full = submodules.SubmoduleSpec(
            "M", submodules.UniPoly((p.concrete_a(), QuadExt(1))) * h_tilde)
        module, quotient = module_action(), quotient_action(p)
        for sym in syms:
            for v in vs:
                lift = tr.call("quotients.iso_xi", quotients.iso_xi, v, h_tilde, p)
                lhs = module.basis(tr, sym, lift)
                rhs = tr.call("quotients.iso_xi", quotients.iso_xi, quotient.basis(tr, sym, v),
                              h_tilde, p)
                diff = tr.call("freemod.add", operator.sub, lhs, rhs)
                if not tr.call("submodules.contains", submodules.contains, full, diff):
                    report.record(f"{sym} on {v}", lhs.render(), rhs.render())
        return report

    def _replay_rank1(self, tr, r):
        report = VerificationReport("rank1-freeness", {"degree": self.RANK1_DEGREE})
        action = _restricted_action(r)
        L0 = AlgebraElement.basis(BasisSymbol("N1R", "L", 0))
        G0 = AlgebraElement.basis(BasisSymbol("N1R", "G", 0))
        odd_coeff = r.params.alp * Scalar.number(QuadExt(0, Fraction(1, 2)))
        even = QuotientElement.one(EVEN)
        odd = action.act(tr, G0, QuotientElement.one(EVEN))
        for k in range(self.RANK1_DEGREE + 1):
            for got, want in ((even, QuotientElement.monomial(EVEN, k)),
                              (odd, QuotientElement.monomial(ODD, k, odd_coeff))):
                if not tr.call("quotients.eq", operator.eq, got, want):
                    report.record(f"L0^{k} word", got.render(), want.render())
            even = action.act(tr, L0, even)
            odd = action.act(tr, L0, odd)
        return report

    def _replay_simplicity(self, tr, a):
        """check_simplicity_witness's search, with its row spaces driven from
        here so that the linear algebra gets spans of its own."""
        outer = tr.open("n1.check_simplicity_witness")
        try:
            return self._simplicity_search(tr, QuadExt(a))
        finally:
            tr.close(outer)

    def _simplicity_search(self, tr, a):
        W, D, words = self.WINDOW, self.DEGREE, self.WORDS
        report = VerificationReport("simplicity-witness", {"a": str(a)})
        params = QuotientParams(a=a, lam=Scalar.number(QuadExt(self.LAM0)),
                                alp=Scalar.number(QuadExt(self.ALP0)))
        action = _restricted_action(n1.RestrictedAction.ramond(params))
        gens = [AlgebraElement.basis(BasisSymbol("N1R", fam, 2 * m))
                for fam in ("L", "G") for m in range(-W, W + 1)]
        if a.is_zero():
            spanning = [QuotientElement.monomial(EVEN, k + 1) for k in range(D + 1)]
            spanning += [QuotientElement.monomial(ODD, k) for k in range(D + 1)]
            for g in gens:
                for v in spanning:
                    out = action.act(tr, g, v)
                    if out.parity == EVEN and 0 in out.terms:
                        report.record(f"a=0 closure on {v}", out.render(), "member")
            return report
        top = D + words
        dim = 2 * (top + 1)
        monos = [QuotientElement.monomial(par, k) for par in (EVEN, ODD) for k in range(D + 1)]
        pooled = RowSpan(dim)
        for start in monos:
            span = RowSpan(dim)
            tr.call("linalg.rowspan_add", span.add, _as_vector(start, top))
            frontier = [start]
            for _ in range(words):
                grown = []
                for v in frontier:
                    for g in gens:
                        w = action.act(tr, g, v)
                        if not w.is_zero() and tr.call("linalg.rowspan_add", span.add,
                                                       _as_vector(w, top)):
                            grown.append(w)
                frontier = grown
                if not frontier:
                    break
            for _, row in span.rows:
                tr.call("linalg.rowspan_add", pooled.add, row)
        report.inconclusive = not all(
            tr.call("linalg.rowspan_contains", pooled.contains, _as_vector(t, top)) for t in monos)
        return report


def _as_vector(v, top):
    """Coordinates of a numeric quotient element (even monomials, then odd)."""
    dim = top + 1
    out = [QuadExt(0)] * (2 * dim)
    for k, c in v.terms.items():
        out[k + (dim if v.parity == ODD else 0)] = c.constant()
    return out
