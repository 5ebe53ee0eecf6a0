"""Immutable records: the package's certificates, results and solver
inputs that are plain values.

A record names its fields in ``_fields`` and keeps them in ``__slots__``.
:class:`Record`'s constructor takes one value per field, in that order;
a record that validates its input, or has defaults, has its own
``__init__`` with the same parameters, which passes the fields on to it.
After that no attribute can be assigned or deleted.
Records compare, hash and print field by field, and :meth:`Record.replace`
rebuilds one through its constructor, so a doctored copy is validated
again.  Unlike dataclasses, these cost a fresh process no import of
``dataclasses`` (and ``inspect`` with it) and no generated methods at
import time, which every CLI call would pay.
"""

# how a record stores a slot past Record.__setattr__
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(self._fields)} values,"
                f" not {len(values)}"
            )
        for name, value in zip(self._fields, values):
            set_field(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with ``changes`` applied to its fields, built (and
        validated) by the constructor."""
        unknown = changes.keys() - self._fields
        if unknown:
            raise TypeError(f"{type(self).__qualname__} has no field {min(unknown)!r}")
        return type(self)(*[changes.get(f, getattr(self, f)) for f in self._fields])
