"""Plain record classes: compared and printed by their fields, as dataclasses are.

A subclass names its fields in `_fields`, in constructor order, and sets
them in its own `__init__`; it usually lists them in `__slots__` too.
Instances of one class are equal when their fields are, and `repr` shows
`Name(field=value, ...)`.  A `Record` is unhashable, like a mutable
dataclass; a `FrozenRecord`, whose fields are not reassigned after
construction, hashes the tuple of its fields, as a frozen dataclass does.
Unlike `dataclasses`, nothing here generates or compiles code when a class
is defined.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())
