"""Contiguous typed columns backing the pre/size/level store.

A :class:`ColumnSet` is the physical layout of one shredded document:
the ``kinds`` byte column, the ``sizes``/``levels``/``parents`` 32-bit
columns (stdlib :class:`array.array` — contiguous machine ints, not
lists of boxed objects), and the ``names``/``values`` string columns.
Names and values are lists of interned / plain strings (a Python
string column *is* a pointer array, and the interned name column
shares one object per distinct tag).
"""

from __future__ import annotations

from array import array
from typing import Sequence

from repro.xmldb.kernels import PRE_TYPECODE

#: Typecode of the node-kind column (unsigned byte per node).
KIND_TYPECODE = "B"

#: The name posting tables of one document: element name → sorted pres,
#: attribute name → sorted pres.
Postings = tuple[dict[str, array], dict[str, array]]


class ColumnSet:
    """The six parallel columns of one document, typed and contiguous.

    ``kinds`` is ``array('B')``, ``sizes``/``levels``/``parents`` are
    ``array('i')``; ``names``/``values`` are string lists. Lists handed
    to the constructor are coerced into typed arrays once; typed arrays
    pass through untouched.

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


def _typed(column: Sequence, typecode: str) -> Sequence:
    """Coerce lists (and tuples) to a typed array; a typed array passes
    through."""
    if isinstance(column, (list, tuple)):
        return array(typecode, column)
    return column
