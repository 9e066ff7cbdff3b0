"""Per-document content (value) indexes over element text and
attribute values.

Where :mod:`repro.xmldb.index` answers *structural* steps
(``child::person``) as array range scans, a :class:`ValueIndex`
answers *value* probes (``age < 40``, ``@id = "person7"``) the same
way: per tag (or ``@attr``) name it keeps the node values as typed
sorted arrays — one sorted by string (the XQuery codepoint collation
is plain ``str`` ordering) and one sorted by numeric value for the
entries whose text coerces to a double — so every general-comparison
operator becomes one or two :mod:`bisect` range scans returning a
sorted, duplicate-free pre list.

Columns are built lazily per key on first probe (an element column
materialises the tag's string values via ``string_value``; attribute
columns read the value array directly), over the key's bucket of the
name postings the structural index keeps — the scanner's own for a
document that came from text — and are kept in an LRU bounded by
:data:`~repro.xmldb.document.DEFAULT_MEMO_CACHE_CAP`, so a long-lived
peer probing many distinct keys cannot grow without limit. Each column
build is timed into ``index_build_seconds_total{kind="value"}``. Like
the structural index, the whole index rides on the
:class:`~repro.xmldb.document.Document` object: a ``Peer.store`` swaps
the object, so a stale value column is never served.

Comparison semantics match :func:`repro.xquery.xdm.general_compare`
pair by pair for the shapes the predicate compiler lowers here: node
values are untyped atomics, so a string probe value compares as a
string and a numeric probe value compares as a double (entries whose
text is not numeric become NaN, which satisfies only ``!=``).
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from math import isnan
from time import perf_counter
from typing import TYPE_CHECKING, Sequence

from repro.obs.metrics import GLOBAL_REGISTRY
from repro.xmldb.document import DEFAULT_MEMO_CACHE_CAP
from repro.xmldb.index import charge_build, structural_index
from repro.xmldb.kernels import (
    difference_sorted, equal_bounds, pre_array, sorted_array,
)
from repro.xmldb.node import node_string

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.xmldb.document import Document

_EMPTY = pre_array()


def coerce_number(text: str) -> float:
    """``fn:number`` on an untyped value: a double, NaN when the text
    is not numeric (mirrors :func:`repro.xquery.xdm.to_number`)."""
    try:
        return float(text.strip())
    except ValueError:
        return float("nan")


class ValueColumn:
    """The typed sorted arrays of one tag / attribute name.

    ``str_values``/``str_pres`` cover *every* indexed node of the key,
    sorted by ``(value, pre)``; ``num_values``/``num_pres`` cover the
    numeric-coercible subset, sorted by ``(number, pre)``. ``all_pres``
    is the key's full pre list in document order (complement scans).
    """

    __slots__ = ("key", "str_values", "str_pres", "num_values",
                 "num_pres", "all_pres")

    def __init__(self, key: str, entries: list[tuple[str, int]]):
        self.key = key
        entries.sort()
        self.str_values = [value for value, _pre in entries]
        self.str_pres = pre_array(pre for _value, pre in entries)
        numeric = sorted(
            (number, pre)
            for value, pre in entries
            if not isnan(number := coerce_number(value)))
        self.num_values = array("d", (number for number, _pre in numeric))
        self.num_pres = pre_array(pre for _number, pre in numeric)
        self.all_pres = sorted_array(self.str_pres)

    def __len__(self) -> int:
        return len(self.str_pres)

    # -- probes --------------------------------------------------------------

    def probe(self, op: str, value: object) -> Sequence[int] | None:
        """Sorted pres of nodes whose value satisfies ``value-op-probe``
        under general-comparison coercion; None when the probe value's
        type is not supported (booleans — the caller falls back)."""
        if isinstance(value, bool):
            return None
        if isinstance(value, (int, float)):
            return self._probe_numeric(op, float(value))
        if isinstance(value, str):
            return self._probe_string(op, str(value))
        return None

    def _probe_string(self, op: str, value: str) -> Sequence[int]:
        pres = self.str_pres
        lo, hi = equal_bounds(self.str_values, value)
        if op == "=":
            return sorted_array(pres[lo:hi])
        if op == "!=":
            return sorted_array(pres[:lo] + pres[hi:])
        if op == "<":
            return sorted_array(pres[:lo])
        if op == "<=":
            return sorted_array(pres[:hi])
        if op == ">":
            return sorted_array(pres[hi:])
        if op == ">=":
            return sorted_array(pres[lo:])
        raise ValueError(f"unknown probe operator {op!r}")

    def _probe_numeric(self, op: str, value: float) -> Sequence[int]:
        if isnan(value):
            # NaN satisfies only !=, and it does so against everything.
            return self.all_pres if op == "!=" else _EMPTY
        pres = self.num_pres
        lo, hi = equal_bounds(self.num_values, value)
        if op == "=":
            return sorted_array(pres[lo:hi])
        if op == "!=":
            # Non-numeric entries coerce to NaN, and NaN != n is true:
            # the complement runs over *all* pres, not just numeric ones.
            if lo == hi:
                return self.all_pres
            return difference_sorted(self.all_pres,
                                     sorted_array(pres[lo:hi]))
        if op == "<":
            return sorted_array(pres[:lo])
        if op == "<=":
            return sorted_array(pres[:hi])
        if op == ">":
            return sorted_array(pres[hi:])
        if op == ">=":
            return sorted_array(pres[lo:])
        raise ValueError(f"unknown probe operator {op!r}")


class ValueIndex:
    """All value columns of one document, built lazily per key.

    Keys are element tag names (column over the elements' string
    values — concatenated descendant text, as atomization defines) and
    ``@name`` attribute names (column over attribute values). The
    per-key column cache is an LRU bounded by
    :data:`DEFAULT_MEMO_CACHE_CAP`; peers share documents across concurrent
    queries, so the LRU mutations are lock-guarded (built columns are
    immutable and probed lock-free once handed out).
    """

    __slots__ = ("doc", "_columns", "_lock")

    def __init__(self, doc: "Document"):
        self.doc = doc
        self._columns: OrderedDict[str, ValueColumn | None] = OrderedDict()
        self._lock = threading.Lock()

    # -- column construction -------------------------------------------------

    def _build(self, key: str) -> ValueColumn | None:
        doc = self.doc
        if key.startswith("@"):
            values = doc.values
            entries = [(values[pre], pre)
                       for pre in self.attribute_pres(key[1:])]
        else:
            pres = structural_index(doc).tag_pres.get(key, _EMPTY)
            entries = [(node_string(doc, pre), pre) for pre in pres]
        if not entries:
            return None
        return ValueColumn(key, entries)

    def column(self, key: str) -> ValueColumn | None:
        """The column for ``key`` (built on first use, LRU-retained);
        None when no node with that name exists."""
        columns = self._columns
        with self._lock:
            if key in columns:
                columns.move_to_end(key)
                return columns[key]
        started = perf_counter()
        column = self._build(key)
        charge_build("value", started)
        with self._lock:
            columns[key] = column
            while len(columns) > DEFAULT_MEMO_CACHE_CAP:
                columns.popitem(last=False)
        return column

    def probe(self, key: str, op: str,
              value: object) -> Sequence[int] | None:
        """Sorted pres of ``key`` nodes satisfying ``op value``; an
        empty list when the key has no nodes, None when the probe is
        unsupported (the caller must fall back)."""
        column = self.column(key)
        if column is None:
            return _EMPTY
        return column.probe(op, value)

    def attribute_pres(self, name: str) -> Sequence[int]:
        """Sorted pres of every attribute named ``name`` (no value
        column is materialised for these): a bucket of the name
        postings the structural index keeps."""
        return structural_index(self.doc).attribute_pres.get(name, _EMPTY)


def value_index(doc: "Document") -> ValueIndex:
    """The document's value index, built on first use."""
    index = doc._value_index
    if index is not None:
        return index
    index = doc._value_index = ValueIndex(doc)
    GLOBAL_REGISTRY.counter(
        "index_builds_total", "lazy index constructions",
        ("kind",)).labels("value").inc()
    return index

