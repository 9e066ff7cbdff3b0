"""Contiguous typed columns backing the pre/size/level store.

A :class:`ColumnSet` is the physical layout of one shredded document:
the ``kinds`` byte column, the ``sizes``/``levels``/``parents`` 32-bit
columns (stdlib :class:`array.array` — contiguous machine ints, not
lists of boxed objects), and the ``names``/``values`` string columns.
In-memory documents keep names and values as lists of interned /
plain strings (a Python string column *is* a pointer array, and the
interned name column shares one object per distinct tag); a document
reopened from a spill file substitutes buffer-pool backed lazy
columns (:mod:`repro.xmldb.pool`) with the same sequence protocol, so
every consumer — kernels, indexes, the naive walker — is storage
agnostic.

A :class:`NameTable` interns the distinct names and assigns dense
name-ids in first-occurrence order; the spill format stores the
name-id column plus the table instead of repeating tag strings, and
the assignment is deterministic so freeze → open → freeze round-trips
byte-identically.

``column_byte_sizes`` reports the exact physical bytes of every
column (the spill format's sizes), which is what the planner's
statistics catalog records as the document's columnar footprint.
"""

from __future__ import annotations

from array import array
from sys import intern
from typing import Iterable, Mapping, Sequence

from repro.xmldb.kernels import PRE_TYPECODE

#: Typecode of the node-kind column (unsigned byte per node).
KIND_TYPECODE = "B"

#: Typecode of the value-blob offset column (one u64 per node + 1).
OFFSET_TYPECODE = "Q"

#: The name posting tables of one document: element name → sorted pres,
#: attribute name → sorted pres.
Postings = tuple[dict[str, array], dict[str, array]]


class NameTable:
    """Dense interned-name dictionary: name <-> name-id.

    Ids are assigned in first-occurrence order, so the same column
    always produces the same table — the determinism the spill
    round-trip relies on. Id 0 is always the empty string (the name of
    document/text/comment nodes).
    """

    __slots__ = ("names", "_ids")

    def __init__(self, names: Iterable[str] = ()):
        self.names: list[str] = [""]
        self._ids: dict[str, int] = {"": 0}
        for name in names:
            self.id_of(name)

    def id_of(self, name: str) -> int:
        """The id of ``name``, assigning the next dense id on first
        sight (the name is interned)."""
        nid = self._ids.get(name)
        if nid is None:
            name = intern(name)
            nid = len(self.names)
            self.names.append(name)
            self._ids[name] = nid
        return nid

    def value(self, nid: int) -> str:
        return self.names[nid]

    def __len__(self) -> int:
        return len(self.names)


class ColumnSet:
    """The six parallel columns of one document, typed and contiguous.

    ``kinds`` is ``array('B')``, ``sizes``/``levels``/``parents`` are
    ``array('i')``; ``names``/``values`` are string sequences (lists
    in memory, pooled lazy columns when spilled). Lists handed to the
    constructor are coerced into typed arrays once; typed arrays and
    lazy columns pass through untouched.

    ``postings`` is the :data:`Postings` pair the text scanner emits
    while it appends the columns; None on any other document until the
    structural index's first name read fills it in with one pass
    (:meth:`repro.xmldb.index.StructuralIndex.name_postings`).
    """

    __slots__ = ("kinds", "names", "values", "sizes", "levels",
                 "parents", "count", "postings")

    def __init__(self, kinds: Sequence[int], names: Sequence[str],
                 values: Sequence[str], sizes: Sequence[int],
                 levels: Sequence[int], parents: Sequence[int],
                 postings: Postings | None = None):
        self.kinds = _typed(kinds, KIND_TYPECODE)
        self.names = names
        self.values = values
        self.sizes = _typed(sizes, PRE_TYPECODE)
        self.levels = _typed(levels, PRE_TYPECODE)
        self.parents = _typed(parents, PRE_TYPECODE)
        self.count = len(self.kinds)
        self.postings = postings

    def __len__(self) -> int:
        return self.count

    # -- physical sizing -----------------------------------------------------

    def column_byte_sizes(self) -> Mapping[str, int]:
        """Exact physical bytes per column, matching what the spill
        format writes: fixed-width columns at their array item size,
        names as a 32-bit id column plus the UTF-8 name table, values
        as a 64-bit offset column plus the UTF-8 blob."""
        count = self.count
        distinct_names = set(self.names)
        distinct_names.add("")
        return {
            "kinds": count * self.kinds.itemsize,
            "names": count * 4 + sum(len(name.encode())
                                     for name in distinct_names),
            "values": (count + 1) * 8 + sum(len(value.encode())
                                            for value in self.values),
            "sizes": count * self.sizes.itemsize,
            "levels": count * self.levels.itemsize,
            "parents": count * self.parents.itemsize,
        }

    def byte_size(self) -> int:
        """Total exact columnar footprint in bytes."""
        return sum(self.column_byte_sizes().values())


def _typed(column: Sequence, typecode: str) -> Sequence:
    """Coerce lists (and tuples) to a typed array; anything already
    array-shaped or lazy passes through."""
    if isinstance(column, (list, tuple)):
        return array(typecode, column)
    return column
