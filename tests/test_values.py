"""The plain value classes behave as frozen dataclasses did, every number and
element pickles and copies, and importing sconf loads no heavy stdlib module.

The reprs, validation messages and refusals pinned here were copied from the
dataclass versions of these classes.
"""

import copy
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sconf.algebras import BasisSymbol, GeneratorMap, embed_r1_in_r2, spectral_flow
from sconf.errors import AlgebraMismatch
from sconf.freemod import EVEN, ODD
from sconf.n1 import RestrictedAction
from sconf.parsing import parse_algebra_element, parse_module_element
from sconf.quotients import QuotientElement, QuotientParams, composition_series
from sconf.reports import VerificationReport, Violation
from sconf.scalars import QuadExt, Scalar
from sconf.submodules import SubmoduleSpec, UniPoly

SRC = Path(__file__).resolve().parents[1] / "src"
_ADDRESS = re.compile(r" at 0x[0-9a-f]+>")


def _series():
    return composition_series(UniPoly.from_roots([1, 2]))


# -- reprs ---------------------------------------------------------------------------

@pytest.mark.parametrize("build, text", [
    (lambda: BasisSymbol("NS", "Gp", -1), "BasisSymbol(algebra='NS', family='Gp', twice=-1)"),
    (lambda: QuotientParams(), "QuotientParams(a=None, lam=<Scalar lam>, alp=<Scalar alp>)"),
    (lambda: QuotientParams(a=1),
     "QuotientParams(a=QuadExt(Fraction(1, 1), Fraction(0, 1)), lam=<Scalar lam>, "
     "alp=<Scalar alp>)"),
    (lambda: QuotientParams(QuadExt(1, 1), Scalar.number(2), Scalar.param("lam", -1)),
     "QuotientParams(a=QuadExt(Fraction(1, 1), Fraction(1, 1)), lam=<Scalar 2>, "
     "alp=<Scalar lam^-1>)"),
    (lambda: SubmoduleSpec("N", UniPoly((2, 2))), "SubmoduleSpec(kind='N', h=<UniPoly y + 1>)"),
    (_series,
     "CompositionSeries(h=<UniPoly y^2 - 3*y + 2>, chain=(SubmoduleSpec(kind='M', "
     "h=<UniPoly y - 1>), SubmoduleSpec(kind='M', h=<UniPoly y^2 - 3*y + 2>)), "
     "factors=(QuadExt(Fraction(-1, 1), Fraction(0, 1)), QuadExt(Fraction(-2, 1), "
     "Fraction(0, 1))))"),
    (lambda: RestrictedAction.ramond(QuotientParams(a=1)),
     "RestrictedAction(source='N1R', embedding=GeneratorMap(name='upsilon2', source='N1R', "
     "target='R', rule=<function _generator_map.<locals>.rule>, mod_center=True), "
     "params=QuotientParams(a=QuadExt(Fraction(1, 1), Fraction(0, 1)), lam=<Scalar lam>, "
     "alp=<Scalar alp>))"),
    (lambda: Violation("c", "l", "r"), "Violation(context='c', lhs='l', rhs='r')"),
    (lambda: VerificationReport("s", {"w": 1}),
     "VerificationReport(suite='s', params={'w': 1}, violations=[], inconclusive=False, "
     "notes=[])"),
])
def test_repr_is_the_dataclass_repr(build, text):
    assert _ADDRESS.sub(">", repr(build())) == text


def test_generator_map_repr_up_to_its_rule():
    text = repr(embed_r1_in_r2())
    assert text.startswith("GeneratorMap(name='upsilon2', source='N1R', target='R', rule=")
    assert text.endswith(", mod_center=True)")
    assert repr(spectral_flow()).startswith(
        "GeneratorMap(name='sigma', source='NS', target='R', rule=")


def test_a_filled_report_repr():
    report = VerificationReport("s")
    report.record("x", 1, 2)
    report.notes.append("n")
    assert repr(report) == (
        "VerificationReport(suite='s', params={}, violations=[Violation(context='x', lhs='1', "
        "rhs='2')], inconclusive=False, notes=['n'])"
    )


# -- validation ----------------------------------------------------------------------

@pytest.mark.parametrize("kwargs, error, message", [
    ({"lam": 0}, ValueError, "lam must be an invertible monomial: 0 is not a monomial"),
    ({"alp": Scalar.param("a")}, ValueError,
     "alp must be an invertible monomial: a involves the non-invertible parameter a"),
    ({"a": 1, "lam": Scalar.param("a")}, ValueError,
     "lam must be an invertible monomial: a involves the non-invertible parameter a"),
    ({"lam": None}, TypeError, "cannot coerce None to Scalar"),
    ({"a": "x"}, TypeError, "cannot coerce 'x' to QuadExt"),
])
def test_quotient_params_refusals(kwargs, error, message):
    with pytest.raises(error) as info:
        QuotientParams(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("args, message", [
    (("X", UniPoly((1, 1))), "kind must be 'M' or 'N'"),
    (("M", UniPoly(())), "h must be nonzero"),
])
def test_submodule_spec_refusals(args, message):
    with pytest.raises(ValueError) as info:
        SubmoduleSpec(*args)
    assert str(info.value) == message


def test_restricted_action_refusals():
    p = QuotientParams(a=1)
    cases = [
        (("N1X", embed_r1_in_r2(), p), "restriction source must be N1R or N1NS, got N1X"),
        (("N1NS", embed_r1_in_r2(), p), "embedding must map the source algebra into R"),
        (("N1R", GeneratorMap("id", "N1R", "R", lambda s: None), p),
         "the embedding must be taken modulo the center"),
    ]
    for args, message in cases:
        with pytest.raises(AlgebraMismatch) as info:
            RestrictedAction(*args)
        assert str(info.value) == message


def test_defaults_and_derived_fields():
    p = QuotientParams(a=1)
    assert p.a == QuadExt(1) and p.lam == Scalar.param("lam") and p.alp == Scalar.param("alp")
    assert p.root == QuadExt(1) and QuotientParams().root == Scalar.param("a")
    assert QuotientParams(None, 2, 3) == QuotientParams(lam=Scalar.number(2), alp=3)
    report = VerificationReport("s", {"w": 1})
    assert (report.violations, report.inconclusive, report.notes) == ([], False, [])
    assert VerificationReport("s").params == {}
    assert VerificationReport("t").notes is not VerificationReport("t").notes
    spec = SubmoduleSpec("M", UniPoly((2, 2)))
    assert spec.h == UniPoly((1, 1)) and spec.odd_divisor == UniPoly((2, 1))
    assert "odd_divisor" not in repr(spec) and "root" not in repr(p)
    assert GeneratorMap("m", "R", "R", None).mod_center is False
    assert BasisSymbol("R", "C").twice == 0


# -- equality, hashing, immutability -------------------------------------------------

def test_equality_and_hashing():
    a, b = SubmoduleSpec("M", UniPoly((2, 2))), SubmoduleSpec("M", UniPoly((1, 1)))
    assert a == b and hash(a) == hash(b) and a != SubmoduleSpec("N", UniPoly((1, 1)))
    assert a.__eq__(("M", UniPoly((1, 1)))) is NotImplemented and a != "M[h=y + 1]"
    assert Violation("c", "l", "r") == Violation("c", "l", "r")
    assert hash(Violation("c", "l", "r")) == hash(("c", "l", "r"))
    assert QuotientParams(1) == QuotientParams(1) != QuotientParams(2)
    with pytest.raises(TypeError):  # Scalar fields are unhashable
        hash(QuotientParams(1))
    assert _series() == _series() and hash(_series()) == hash(_series())
    assert RestrictedAction.ramond(QuotientParams(1)) != RestrictedAction.ramond(QuotientParams(1))
    assert VerificationReport("s", {"w": 1}) == VerificationReport("s", {"w": 1})
    assert VerificationReport("s") != VerificationReport("t")
    with pytest.raises(TypeError):
        hash(VerificationReport("s"))


@pytest.mark.parametrize("build, fields", [
    (lambda: BasisSymbol("R", "L", 2), ("algebra", "family", "twice", "sort_index", "index")),
    (embed_r1_in_r2, ("name", "source", "target", "rule", "mod_center")),
    (lambda: QuotientParams(a=1), ("a", "lam", "alp", "root")),
    (_series, ("h", "chain", "factors")),
    (lambda: SubmoduleSpec("M", UniPoly((1, 1))), ("kind", "h", "odd_divisor")),
    (lambda: RestrictedAction.ramond(QuotientParams(a=1)), ("source", "embedding", "params")),
    (lambda: Violation("c", "l", "r"), ("context", "lhs", "rhs")),
], ids=["BasisSymbol", "GeneratorMap", "QuotientParams", "CompositionSeries", "SubmoduleSpec",
        "RestrictedAction", "Violation"])
def test_frozen_classes_refuse_assignment(build, fields):
    value = build()
    before = repr(value)
    for name in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    with pytest.raises(AttributeError):
        delattr(value, fields[0])
    assert repr(value) == before


def test_a_report_stays_mutable():
    report = VerificationReport("s")
    report.inconclusive = True
    report.params["w"] = 1
    assert report.status == "inconclusive" and report.params == {"w": 1}


# -- pickling and copying ------------------------------------------------------------

_PICKLED = {
    "QuadExt-rational": lambda: QuadExt(Fraction(3, 4)),
    "QuadExt-sqrt2": lambda: QuadExt(Fraction(-1, 6), Fraction(5, 4)),
    "Scalar": lambda: Scalar.monomial(QuadExt(1, 2), lam=-1, a=2) + Scalar.number(3),
    "UniPoly": lambda: UniPoly((QuadExt(0, 1), Fraction(1, 2), 1)),
    "ModuleElement": lambda: parse_module_element("(lam + sqrt2)*x^2*y - 3"),
    "ModuleElement-odd": lambda: parse_module_element("1/2*s*t", parity=ODD),
    "QuotientElement": lambda: QuotientElement.monomial(EVEN, 3, Scalar.param("alp", -2)),
    "AlgebraElement": lambda: parse_algebra_element("2*L[1] - sqrt2*H[0] + C", "R"),
    "BasisSymbol": lambda: BasisSymbol("NS", "Gm", 3),
    "QuotientParams": lambda: QuotientParams(QuadExt(1, 1), lam=Scalar.number(2)),
    "SubmoduleSpec": lambda: SubmoduleSpec("N", UniPoly((-2, 0, 1))),
    "CompositionSeries": _series,
    "Violation": lambda: Violation("c", "l", "r"),
    "VerificationReport": lambda: VerificationReport("s", {"w": 1}, [Violation("c", "l", "r")]),
}


@pytest.mark.parametrize("name", _PICKLED)
def test_pickle_and_copy_round_trips(name):
    value = _PICKLED[name]()
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(back) is type(value) and back == value
        assert repr(back) == repr(value)
    if isinstance(value, QuadExt):
        back = pickle.loads(pickle.dumps(value))
        assert (back.p, back.q, back.d) == (value.p, value.q, value.d)
        assert hash(back) == hash(value)


def test_unpickled_values_recompute_their_derived_fields():
    spec = pickle.loads(pickle.dumps(SubmoduleSpec("M", UniPoly((2, 2)))))
    assert spec.odd_divisor == UniPoly((2, 1))
    params = copy.deepcopy(QuotientParams())
    assert params.root == Scalar.param("a")
    assert copy.deepcopy(BasisSymbol("R", "L", -4)).index == -2


def test_maps_and_restrictions_deepcopy():
    r = RestrictedAction.ramond(QuotientParams(a=1))
    back = copy.deepcopy(r)
    assert back.embedding.rule is r.embedding.rule and back.params == r.params
    assert back.source == r.source


# -- import footprint ----------------------------------------------------------------

def test_import_loads_no_heavy_stdlib_module():
    """Without ``site`` (-S), no .pth file preloads anything."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import sconf, sconf.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == ""
