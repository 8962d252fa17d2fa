"""No cache outlives the sweep or the request that filled it.

Acting by an element tabulates nothing.  The table of generator rows in
``algebras.check_representation`` and the table of map images in
``algebras.check_homomorphism`` are local to their calls; each detector
below is checked to see its table from inside a call that fills it, so
neither passes for want of recognising one.  The package
keeps no module-level cache: every bracket is read from the tables when it
is needed.  The argument parser that every ``cli.main`` call shares is
per-process configuration, built once from constants when ``cli`` is
imported; it holds nothing of any request, so it is not a cache.
"""

import ast
import contextlib
import gc
import io
from pathlib import Path

from sconf import algebras, cli, freemod, n1, quotients, submodules
from sconf.algebras import BasisSymbol
from sconf.freemod import EVEN, ODD, ParityElement
from sconf.parsing import parse_submodule_spec
from sconf.quotients import QuotientParams

SRC = Path(__file__).resolve().parents[1] / "src" / "sconf"
ALLOWED = set()
_CACHES = {"lru_cache", "cache"}


def _cache_name(node):
    """'lru_cache' or 'cache' when ``node`` names one (called or not), else None."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name if name in _CACHES else None


def test_every_cache_is_on_the_allow_list():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for dec in node.decorator_list:
                    decorators.add(id(dec))
                    if _cache_name(dec):
                        found.add((path.stem, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in decorators and _cache_name(node.func):
                found.add((path.stem, f"call at line {node.lineno}"))
    assert found == ALLOWED


def _is_table(obj):
    """A dict from (generator, parity, monomial key) to an image, as the
    table of ``check_representation`` is (it numbers its generators): a
    parity-tagged element, or rows, a (target parity, slices) pair."""
    if type(obj) is not dict or not obj:
        return False
    key, image = next(iter(obj.items()))
    return (type(key) is tuple and len(key) == 3 and key[1] in (EVEN, ODD)
            and (isinstance(image, ParityElement) or type(image) is tuple
                 and len(image) == 2 and image[0] in (EVEN, ODD) and type(image[1]) is dict))


def _live_actions():
    """The number of action tables still alive."""
    gc.collect()
    return sum(1 for obj in gc.get_objects() if _is_table(obj))


def test_no_action_table_survives_sweeps_or_requests():
    before = _live_actions()
    freemod.check_module_compatibility(1, 1)
    freemod.check_shift_identities(1, 1, 1)
    submodules.check_closure(parse_submodule_spec("N[h=y-1]"), 1, 1)
    quotients.check_quotient_compatibility(QuotientParams(a=1), 1, 1)
    quotients.check_projection_intertwines(QuotientParams(a=1), 1, 1)
    n1.check_n1_relations(n1.RestrictedAction.neveu_schwarz(QuotientParams(a=1)), 1, 1)
    n1.check_simplicity_witness(1, 3, 2, 1, 1, index_window=1)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for k in range(40):
            assert cli.main(["act", f"L[{k % 5}] + H[1]; Gp[{k % 3}]", f"s^{k % 7}*t + 1",
                             "--parity", "odd"]) == 0
            assert cli.main(["act", f"Gm[{k % 4}]; L[-1]", f"x^{k % 6 + 1} - 2", "--module",
                             "quotient", "--a", "3/2", "--lam0", "sqrt2"]) == 0
    assert _live_actions() == before == 0


def test_a_sweep_holds_one_table_while_it_fills_it(monkeypatch):
    before = _live_actions()
    seen, calls, good = [], [], freemod.basis_rows

    def counting(sym, v, *coeff):
        calls.append(sym)
        if len(calls) % 16 == 0:  # a scan of every live object per call is slow
            seen.append(_live_actions())
        return good(sym, v, *coeff)

    monkeypatch.setattr(freemod, "basis_rows", counting)
    assert freemod.check_module_compatibility(1, 1).passed
    monkeypatch.undo()
    assert seen and set(seen) == {1}
    assert _live_actions() == before == 0


def _is_image_table(obj):
    """A dict from a basis symbol to the terms of its image, as the table of
    ``check_homomorphism`` is."""
    if type(obj) is not dict or not obj:
        return False
    key, image = next(iter(obj.items()))
    return type(key) is BasisSymbol and type(image) is dict


def _live_image_tables():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if _is_image_table(obj))


def test_no_image_table_survives_a_homomorphism_request(monkeypatch):
    before = _live_image_tables()
    seen = []  # live tables counted while a sweep fills its own
    apply_map = algebras.apply_map

    def counting(gmap, x):
        seen.append(_live_image_tables())
        return apply_map(gmap, x)

    monkeypatch.setattr(algebras, "apply_map", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "homomorphism", "--map", "sigma", "--window", "1"]) == 0
    monkeypatch.undo()
    assert max(seen) == 1
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "homomorphism", "--window", "2"]) == 0
    assert _live_image_tables() == before == 0
