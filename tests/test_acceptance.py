"""Acceptance suite: one test per criterion, at the stated bounds.

Every check is exact (coefficient-wise equality in the formal ring); the only
tolerances in play are the runtime budgets of the first three criteria.  Each
test prints one [PASS]/[FAIL] line (run pytest with -s to see them on
success).
"""

import json
import time
from collections import Counter
from fractions import Fraction

import jsonschema

from sconf.algebras import (
    ALGEBRAS,
    AlgebraElement,
    BasisSymbol,
    STANDARD_MAPS,
    bracket,
    check_homomorphism,
    check_super_jacobi,
    check_twist_composition,
)
from sconf.cli import main
from sconf.errors import ParamMismatch
from sconf.freemod import (
    EVEN,
    ODD,
    ModuleElement,
    check_central_triviality,
    check_module_compatibility,
    check_shift_identities,
)
from sconf.n1 import (
    RestrictedAction,
    check_n1_relations,
    check_rank1_freeness,
    check_simplicity_witness,
    restricted_act,
)
from sconf.parsing import (
    parse_algebra_element,
    parse_module_element,
    parse_quotient_element,
    parse_scalar,
    parse_submodule_spec,
    parse_unipoly,
)
from sconf.quotients import (
    QuotientElement,
    QuotientParams,
    check_phi_intertwines,
    check_projection_intertwines,
    check_quotient_compatibility,
    check_xi_intertwines,
    composition_series,
    iso_phi,
)
from sconf.scalars import QuadExt, Scalar
from sconf.submodules import (
    SubmoduleSpec,
    check_closure,
    check_containment,
    contains,
)
from test_cli import REPORT_SCHEMA


def report_line(number, description, ok):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_super_jacobi():
    t0 = time.monotonic()
    reports = [check_super_jacobi(algebra, 3) for algebra in ALGEBRAS]
    elapsed = time.monotonic() - t0
    ok = all(r.passed for r in reports) and elapsed < 10.0
    report_line(
        1,
        f"graded Jacobi, 5 algebras, window 3, {elapsed:.1f}s (< 10s), zero violations",
        ok,
    )


def test_criterion_02_module_axioms():
    t0 = time.monotonic()
    report = check_module_compatibility(3, 3)
    elapsed = time.monotonic() - t0
    ok = report.passed and elapsed < 30.0
    report_line(
        2,
        f"rank-2 module bracket compatibility, window 3, degree 3, "
        f"{elapsed:.1f}s (< 30s), zero violations",
        ok,
    )


def test_criterion_03_homomorphism_suite():
    t0 = time.monotonic()
    reports = [check_homomorphism(factory(), 4) for factory in STANDARD_MAPS.values()]
    reports.append(check_twist_composition(4))
    elapsed = time.monotonic() - t0
    ok = all(r.passed for r in reports) and elapsed < 5.0
    report_line(
        3,
        f"five homomorphisms + twist composition, window 4, {elapsed:.1f}s (< 5s)",
        ok,
    )


def test_criterion_04_shift_identities():
    report = check_shift_identities(3, 3, 3)
    report_line(
        4, "operator shift identities, n <= 3, |m| <= 3, degree <= 3", report.passed
    )


def test_criterion_05_central_triviality():
    report = check_central_triviality(4)
    report_line(
        5, "center and 3(H1 H-1 - H-1 H1) act as zero on degree <= 4", report.passed
    )


def test_criterion_06_submodule_closure():
    specs = [
        SubmoduleSpec(kind, parse_unipoly(h))
        for h in ("1", "y", "y+1", "y-2", "y^2-1")
        for kind in ("M", "N")
    ]
    closures = all(check_closure(s, 3, 3).passed for s in specs)
    contain = all(
        check_containment(SubmoduleSpec("N", s.h), SubmoduleSpec("M", s.h))
        for s in specs
    )
    contain = contain and check_containment(
        parse_submodule_spec("M[h=y^2-1]"), parse_submodule_spec("M[h=y-1]")
    )
    proper = not contains(parse_submodule_spec("M[h=y]"), ModuleElement.one(EVEN))
    report_line(
        6,
        "submodule closure battery (window 3, degree 3), containments, "
        "and the non-simplicity witness",
        closures and contain and proper,
    )


def test_criterion_07_quotient_consistency():
    ok = True
    for a in (0, 1, -1, Fraction(3, 2)):
        p = QuotientParams(a=a)
        ok = ok and check_projection_intertwines(p, 3, 4).passed
        ok = ok and check_quotient_compatibility(p, 3, 4).passed
    report_line(
        7,
        "projection intertwines and quotient module axioms for "
        "a in {0, 1, -1, 3/2}, window 3, degree 4",
        ok,
    )


def test_criterion_08_isomorphism_intertwining():
    src = QuotientParams(a=1)
    dst = QuotientParams(a=1, alp=Scalar.param("bet"))
    ok = check_phi_intertwines(src, dst, 3, 4).passed
    for a, ht in ((1, "y - 1"), (0, "y + 1"), (-1, "y^2 + y - 2")):
        ok = ok and check_xi_intertwines(
            parse_unipoly(ht), QuotientParams(a=a), 3, 4
        ).passed
    raised_lam = False
    try:
        iso_phi(
            QuotientElement.one(EVEN),
            QuotientParams(a=1),
            QuotientParams(a=1, lam=Scalar.param("mu"), alp=Scalar.param("bet")),
        )
    except ParamMismatch:
        raised_lam = True
    raised_a = False
    try:
        iso_phi(
            QuotientElement.one(EVEN),
            QuotientParams(a=1),
            QuotientParams(a=2, alp=Scalar.param("bet")),
        )
    except ParamMismatch:
        raised_a = True
    report_line(
        8,
        "phi and three xi layers intertwine (window 3, degree 4); "
        "mismatched parameters raise",
        ok and raised_lam and raised_a,
    )


def test_criterion_09_composition_series():
    series = composition_series(parse_unipoly("y^2-1"))
    factors = Counter(series.factors)
    ok = factors == Counter([QuadExt(-1), QuadExt(1)])
    ok = ok and [s.render() for s in series.chain] == ["M[h=y - 1]", "M[h=y^2 - 1]"]
    for hint in ([1, -1], [-1, 1]):
        permuted = composition_series(
            parse_unipoly("y^2-1"), root_hint=[QuadExt(r) for r in hint]
        )
        ok = ok and Counter(permuted.factors) == factors
    report_line(
        9,
        "decompose y^2-1 into the two expected simple factors; "
        "multiset invariant under root permutation",
        ok,
    )


def test_criterion_10_n1_restriction():
    ok = True
    for a in (0, 1):
        r = RestrictedAction.ramond(QuotientParams(a=a))
        ok = ok and check_n1_relations(r, 3, 3).passed
        ok = ok and check_rank1_freeness(r, 5).passed
    rns = RestrictedAction.neveu_schwarz(QuotientParams(a=1))
    ok = ok and check_n1_relations(rns, 3, 3).passed
    # the transported defining relation [G0, G0] = 2 L0 on degree <= 5
    r1 = RestrictedAction.ramond(QuotientParams(a=1))
    G0 = AlgebraElement.basis(BasisSymbol("N1R", "G", 0))
    br = bracket(G0, G0)
    for parity in (EVEN, ODD):
        for k in range(6):
            v = QuotientElement.monomial(parity, k)
            gv = restricted_act(G0, v, r1)
            lhs = restricted_act(br, v, r1)
            ok = ok and lhs == restricted_act(G0, gv, r1) + restricted_act(G0, gv, r1)
    for a in (1, -1, 2):
        rep = check_simplicity_witness(a, Fraction(3, 2), 2, 3, 3)
        ok = ok and rep.passed
    ok = ok and check_simplicity_witness(0, Fraction(3, 2), 2, 3, 3).passed
    report_line(
        10,
        "N=1 restriction: relations (window 3, degree 3), rank-1 freeness to "
        "degree 5, transported [G0,G0]=2L0 to degree 5, simplicity certificates for "
        "a in {1,-1,2} and the a=0 closure certificate",
        ok,
    )


ROUND_TRIP_CORPUS = [
    # scalars
    ("scalar", "3/2*lam^2*alp^-1*sqrt2"),
    ("scalar", "a"),
    ("scalar", "1"),
    ("scalar", "0"),
    ("scalar", "lam + 1"),
    ("scalar", "-2*alp^-1"),
    ("scalar", "1/2*sqrt2"),
    ("scalar", "b^2*mu^-3 + 4"),
    ("scalar", "bet^2 - bet^-2"),
    ("scalar", "a*b - sqrt2"),
    ("scalar", "7/3"),
    ("scalar", "-lam^4*a^2"),
    ("scalar", "mu + bet + a + b"),
    ("scalar", "2 - 3*sqrt2 + lam"),
    ("scalar", "5*lam^-1*alp^-1*mu^-1*bet^-1"),
    # algebra elements
    ("R", "2*L[1] + lam*H[0] - C"),
    ("R", "Gp[2] - Gm[-2]"),
    ("R", "L[0]"),
    ("R", "C"),
    ("R", "-H[-3]"),
    ("R", "1/2*Gp[0] + 1/2*Gm[0]"),
    ("R", "sqrt2*L[2] - 1/24*C"),
    ("R", "lam^2*alp^-1*Gp[1]"),
    ("NS", "Gp[1/2] + Gm[-3/2]"),
    ("NS", "L[1] + H[1]"),
    ("NS", "Gp[-5/2]"),
    ("T", "G[0] + Q[5] - 1/2*H[-2]"),
    ("T", "2*Q[-1]"),
    ("N1R", "G[0] + 3*L[-4]"),
    ("N1NS", "sqrt2*G[7/2]"),
    # rank-2 module elements
    ("module", "x^2*y - 3"),
    ("module", "s*t^3"),
    ("module", "lam*x + 1/2*lam*y"),
    ("module", "2*lam^2*alp^-1*x + 4*lam^2*alp^-1*y"),
    ("module", "x^3 + x*y + y"),
    ("module", "s - t"),
    ("module", "alp*s^2"),
    ("module", "(lam + 1)*x"),
    ("module", "x^2*y^2 - 1/3*x"),
    ("module", "-s*t + 2*t^4"),
    # quotient elements
    ("quotient", "2*alp^-1*x"),
    ("quotient", "x^3 - x"),
    ("quotient", "s^2 + s"),
    ("quotient", "-1/2*s"),
    ("quotient", "lam*x^4 + sqrt2"),
    # submodule specs
    ("spec", "M[h=y^2-1]"),
    ("spec", "N[h=1]"),
    ("spec", "M[h=y]"),
    ("spec", "N[h=y^2 - 2]"),
    ("spec", "M[h=y^3 - 2*y^2 - y + 2]"),
]


def test_criterion_11_cli_contract(capsys):
    assert len(ROUND_TRIP_CORPUS) >= 50
    ok = True
    for kind, text in ROUND_TRIP_CORPUS:
        if kind == "scalar":
            v = parse_scalar(text)
            ok = ok and parse_scalar(v.render()) == v
        elif kind == "module":
            v = parse_module_element(text)
            ok = ok and parse_module_element(v.render(), v.parity) == v
        elif kind == "quotient":
            v = parse_quotient_element(text)
            ok = ok and parse_quotient_element(v.render()) == v
        elif kind == "spec":
            v = parse_submodule_spec(text)
            ok = ok and parse_submodule_spec(v.render()) == v
        else:
            v = parse_algebra_element(text, kind)
            ok = ok and parse_algebra_element(v.render(), kind) == v

    # JSON schema + exit codes 0 / 2 / 3 end to end, 1 via the report mapping
    code = main(["verify", "algebra", "--which", "N1R", "--window", "2", "--json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    ok = ok and code == 0 and doc["status"] == "pass"

    code = main(["decompose", "--h", "y^2-3", "--json"])
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    ok = ok and code == 2 and doc["status"] == "inconclusive"

    code = main(["act", "L[1", "1", "--parity", "even"])
    capsys.readouterr()
    ok = ok and code == 3

    from sconf.reports import VerificationReport

    failing = VerificationReport("probe")
    failing.record("ctx", "1", "0")
    doc = failing.to_dict()
    jsonschema.validate(doc, REPORT_SCHEMA)
    ok = ok and failing.exit_code == 1 and doc["status"] == "fail"

    report_line(
        11,
        f"{len(ROUND_TRIP_CORPUS)}-case parse/render round trip, JSON schema, "
        "exit codes 0/1/2/3",
        ok,
    )
