"""The base of the package's immutable value classes.

Each subclass names, in constructor order, the attributes it shows and
compares in a ``_fields`` tuple.  ``Value`` decides what a frozen dataclass
would: ``Value(*values)`` stores the fields in that order, ``repr`` shows
them, two values are equal when they are of one class and their fields are
equal, the hash is that of the field tuple, assignment and deletion raise
``AttributeError``, and pickling and copying go through the constructor, so
an unpickled value is validated and its derived attributes are recomputed.
A subclass overrides only what it decides otherwise: the numbers and
elements keep their own ``repr``, ``QuadExt``, ``Scalar``, ``ParityElement``
and ``BasisSymbol`` their own equality, and the unhashable ones set
``__hash__ = None``.

A subclass that validates calls ``super().__init__`` after.  A derived
attribute (``QuotientParams.root``, ``.units``, ``.roots`` and ``.divisors``;
``SubmoduleSpec.odd_divisor`` and ``._int_divisors``) is set past the
refusing ``__setattr__`` with ``object.__setattr__`` and stays out of
``_fields``: it is neither shown nor compared.  Where construction is hot
(``BasisSymbol``, ``QuadExt``, ``Scalar``, ``ParityElement``,
``AlgebraElement``, ``UniPoly``), ``__init__`` sets each slot through the
slot's own setter instead.  No attribute is set after ``__init__`` returns.
"""


class Value:
    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
