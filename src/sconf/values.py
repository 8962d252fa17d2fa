"""The base of the package's plain value classes.

Each subclass writes its own ``__init__`` and names, in constructor order,
the attributes it shows and compares in a ``_fields`` tuple.  ``Value``
gives it what a frozen dataclass would: a ``repr`` of those fields, equality
with instances of the same class only, a hash of the field tuple, an
``AttributeError`` on assignment or deletion, and pickling and copying
through the constructor, so an unpickled value is validated and its derived
attributes are recomputed.  A derived attribute (``QuotientParams.root``,
``SubmoduleSpec.odd_divisor``) stays out of ``_fields``: it is neither shown
nor compared.  A subclass's ``__init__`` sets its attributes past the
refusing ``__setattr__``, with ``object.__setattr__`` or, where construction
is hot (``BasisSymbol``), with each slot's own setter.
"""


class Value:
    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

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
