"""Value records built without generated code: a subclass lists its
fields, ``__slots__ = _fields = (...)`` in constructor order, and
writes its own ``__init__``, so creating the class ``exec``-s nothing.
"""

from __future__ import annotations


class Record:
    """Equal to a record of its class exactly when the ``_fields`` are,
    hashed as them (a mutable subclass sets ``__hash__ = None``)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes: object) -> Record:
        """A copy with ``changes`` applied, built through ``__init__``
        (so its checks run again, and an unknown name raises)."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)
