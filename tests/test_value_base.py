"""One value base: ``values.Value`` alone decides how a value refuses
assignment and deletion and how it pickles.

The guard parses ``src/sconf`` with ``ast`` and fails when a class other
than ``Value`` defines ``__setattr__``, ``__delattr__`` or ``__reduce__``,
by a ``def`` or by an assignment in its body, unless ``ALLOWED`` names the
class and method with its reason.  It also fails when ``object.__setattr__``
is called outside ``Value.__init__`` and the derived attributes of
``QuotientParams`` and ``SubmoduleSpec``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sconf"
GUARDED = ("__setattr__", "__delattr__", "__reduce__")

# Class.method -> why that class, not Value, defines it
ALLOWED = {
    "VerificationReport.__setattr__": "a report is mutable by design: sweeps record into it",
    "VerificationReport.__delattr__": "a report is mutable by design: sweeps record into it",
    "QuadExt.__reduce__": "pickles through the trusted constructor _qe, since QuadExt(rat, "
                          "root2) does not take the stored triple (p, q, d)",
}

# classes whose own code calls object.__setattr__, and why
RAW_SETTERS = {
    "Value": "Value.__init__ stores the fields",
    "QuotientParams": "derived attributes root, units, roots and divisors",
    "SubmoduleSpec": "derived attributes odd_divisor and _int_divisors",
}


def _own_definitions(source):
    """``Class.method`` for each guarded method that a class body defines."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{cls.name}.{name}" for name in names if name in GUARDED]
    return found


def _raw_setter_classes(source):
    """The class around each call of ``object.__setattr__``, in source order."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef):
            found += [cls.name for node in ast.walk(cls)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "__setattr__"
                      and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"]
    return found


def _sources():
    return [path.read_text() for path in sorted(SRC.glob("*.py"))]


def test_only_value_defines_the_refusals_and_the_pickling():
    defined = [name for source in _sources() for name in _own_definitions(source)]
    assert sorted(set(defined) - set(ALLOWED)) == [f"Value.{name}" for name in sorted(GUARDED)]
    assert set(ALLOWED) <= set(defined)


def test_object_setattr_stays_in_the_value_base_and_the_derived_attributes():
    assert {cls for source in _sources() for cls in _raw_setter_classes(source)} == set(RAW_SETTERS)


@pytest.mark.parametrize("source, names", [
    ("class Scalar(Value):\n    def __setattr__(self, name, value):\n        raise AttributeError",
     ["Scalar.__setattr__"]),
    ("class A:\n    __delattr__ = object.__delattr__\n    __reduce__ = None",
     ["A.__delattr__", "A.__reduce__"]),
    ("class A:\n    def __reduce_ex__(self, protocol):\n        pass\n    def __repr__(self):\n"
     "        pass", []),
    ("def __setattr__(self, name, value):\n    pass", []),  # not in a class body
])
def test_the_guard_finds_each_definition(source, names):
    assert _own_definitions(source) == names


def test_the_guard_finds_each_raw_setter():
    source = ("class A:\n    def __init__(self):\n        object.__setattr__(self, 'x', 1)\n"
              "class B:\n    __setattr__ = object.__setattr__\n")
    assert _raw_setter_classes(source) == ["A"]
