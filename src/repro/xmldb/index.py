"""Structural indexes over the pre/size/level store.

A :class:`StructuralIndex` rides on each
:class:`~repro.xmldb.document.Document` and answers every axis step —
all twelve axes, any node test — as array scans over whole context
sets instead of per-node tree walks — the same lever the paper's host
system (MonetDB/XQuery's Pathfinder "staircase join") uses: name
postings plus the size / parent columns serve every axis.
:meth:`StructuralIndex.axis_scan` is the one place an axis is applied —
a chain from a tree root is a run of steps like any other — and
:func:`scan_groups` lifts it to node sets spanning several documents
for the projection-path runtime (the evaluator scans per document
itself, carrying each pre's rows).

An index costs what a query reads of it: the index object is empty
when made and each part is built on its first read, by one pass over
the columns it needs:

* **name postings** — element name → sorted pre array
  (``tag_pres``) and attribute name → sorted pre array
  (``attribute_pres``), names interned so the keys share storage with
  the document's name column. A document that came from text arrives
  with both: the scanner emits them while it appends the columns
  (``ColumnSet.postings``), so a freshly shipped document is never
  walked a second time. Any other document (built, projected,
  generated) gets them from one pass over
  ``(kinds, names)``;
* **kind arrays** — sorted pre arrays per node kind (``element_pres``,
  ``text_pres``, ``comment_pres``, all non-attribute nodes), one
  ``bytes.translate`` of ``kinds`` and a ``compress`` each;
* **rank** — the non-attribute prefix count used for O(1) XRPC
  ``nodeid`` addressing, one ``accumulate`` over the same translation.

A child or descendant step from contexts with no content (attributes,
texts, empty elements) answers empty before any of these is read.

Every scan yields pres in ascending order with no duplicates, i.e. the
result is *provably in document order* — no step needs a post-sort.
Reverse and horizontal axes read the ``parents`` column, whose entry
for a tree root is -1: on a shipped fragment they find exactly the
ancestors and siblings the message carried (the paper's Problem 1).

Indexes ride on the document object itself (documents are immutable;
a :meth:`Peer.store` swaps the whole object, so a stale index can never
be served). ``index_builds_total{kind}`` counts index objects made,
``index_build_seconds_total{kind}`` the time of every part pass and
value-column build.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, compress
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.obs.metrics import GLOBAL_REGISTRY
from repro.xmldb import kernels
from repro.xmldb.columns import Postings
from repro.xmldb.kernels import pre_array
from repro.xmldb.node import (
    KIND_ATTRIBUTE, KIND_COMMENT, KIND_ELEMENT, KIND_TEXT, Node, NodeKind,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.xmldb.document import Document

_EMPTY = pre_array()


def _kind_rows(*kinds: int) -> bytes:
    """A ``bytes.translate`` table over kind bytes: 1 for ``kinds``."""
    return bytes(kind in kinds for kind in range(256))


_ELEMENT_ROWS = _kind_rows(KIND_ELEMENT)
_TEXT_ROWS = _kind_rows(KIND_TEXT)
_COMMENT_ROWS = _kind_rows(KIND_COMMENT)
#: Every kind but attributes: what a child / descendant step reaches.
_CONTENT_ROWS = _kind_rows(*(kind for kind in range(256)
                             if kind != KIND_ATTRIBUTE))

#: Per-document sorted duplicate-free pre columns, documents in
#: document-order (``doc_seq``) position: a node set, set-at-a-time.
Groups = list[tuple["Document", Sequence[int]]]


def charge_build(kind: str, started: float) -> None:
    """Add the wall time since ``started`` to the build-time counter:
    every part pass and value-column build, whoever read it first."""
    GLOBAL_REGISTRY.counter(
        "index_build_seconds_total", "wall seconds spent building indexes",
        ("kind",)).labels(kind).inc(perf_counter() - started)


class _part:
    """A part of the index, built by its method on first read and then
    a plain instance attribute (a non-data descriptor: later reads
    never come back here)."""

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, index: "StructuralIndex | None", owner=None):
        if index is None:
            return self
        started = perf_counter()
        value = index.__dict__[self.name] = self.build(index)
        charge_build("structural", started)
        return value


class StructuralIndex:
    """The per-document index structures, each built on first read by
    one pass over the columns it needs — a query pays for the parts its
    plan reads.

    Peers share documents across the engine's workers, and no lock is
    taken: a part is assigned only once it is whole, two threads that
    race on a first read build equal immutable arrays, and the last
    assignment wins (as the name postings on the columns do).
    """

    def __init__(self, doc: "Document"):
        self.doc = doc

    def name_postings(self) -> Postings:
        """``(tag_pres, attribute_pres)``: the text scanner's tables
        when the document came from text, else — built, projected,
        generated — one pass over ``(kinds, names)``, kept on the
        columns like the scanner's."""
        columns = self.doc.columns
        postings = columns.postings
        if postings is None:
            postings = {}, {}
            tables = {NodeKind.ELEMENT: postings[0],
                      NodeKind.ATTRIBUTE: postings[1]}
            for pre, (kind, name) in enumerate(zip(columns.kinds,
                                                   columns.names)):
                table = tables.get(kind)
                if table is not None:
                    bucket = table.get(name)
                    if bucket is None:
                        table[name] = bucket = pre_array()
                    bucket.append(pre)
            columns.postings = postings
        return postings

    @_part
    def tag_pres(self) -> dict[str, array]:
        """Element name → sorted pres."""
        return self.name_postings()[0]

    @_part
    def attribute_pres(self) -> dict[str, array]:
        """Attribute name → sorted pres."""
        return self.name_postings()[1]

    def _rows(self, table: bytes) -> array:
        """The pres whose kind ``table`` maps to 1: one C pass over the
        kind column."""
        kinds = self.doc.kinds
        return pre_array(compress(range(len(kinds)),
                                  bytes(kinds).translate(table)))

    @_part
    def element_pres(self) -> array:
        return self._rows(_ELEMENT_ROWS)

    @_part
    def text_pres(self) -> array:
        return self._rows(_TEXT_ROWS)

    @_part
    def comment_pres(self) -> array:
        return self._rows(_COMMENT_ROWS)

    @_part
    def non_attr_pres(self) -> array:
        """Every node a child / descendant step can reach."""
        return self._rows(_CONTENT_ROWS)

    @_part
    def non_attr_rank(self) -> array:
        """Per pre, how many non-attribute nodes lie at or before it:
        the XRPC fragment ``nodeid`` of ``pre`` under ``root`` is
        ``rank[pre] - rank[root] + 1``."""
        return pre_array(accumulate(
            bytes(self.doc.kinds).translate(_CONTENT_ROWS)))

    # -- test dispatch -------------------------------------------------------

    def _candidates(self, test: str) -> Sequence[int]:
        """Sorted pres of subtree-content nodes matching ``test`` (the
        candidate pool for child/descendant scans — never attributes)."""
        if test == "node()":
            return self.non_attr_pres
        if test == "*":
            return self.element_pres
        if test == "text()":
            return self.text_pres
        if test == "comment()":
            return self.comment_pres
        return self.tag_pres.get(test, _EMPTY)

    def matches(self, pre: int, test: str) -> bool:
        """The node test over the raw arrays (self axis)."""
        if test == "node()":
            return True
        kind = self.doc.kinds[pre]
        if test == "text()":
            return kind == KIND_TEXT
        if test == "comment()":
            return kind == KIND_COMMENT
        if kind != KIND_ELEMENT and kind != KIND_ATTRIBUTE:
            return False
        if test == "*":
            return True
        return self.doc.names[pre] == test

    # -- axis scans ------------------------------------------------------------

    def axis_scan(self, axis: str, test: str,
                  pres: Sequence[int]) -> Sequence[int]:
        """One set-at-a-time axis step over sorted, duplicate-free
        context pres (any node kind). Returns sorted, duplicate-free
        result pres (typed columns from the batch kernels). Total over
        :data:`repro.xmldb.axes.AXES`."""
        if not pres:
            return _EMPTY
        doc = self.doc
        if axis == "self":
            return self._matching(test, pres)
        if axis == "attribute":
            return self._attribute_scan(test, pres)
        if axis == "child" or axis == "descendant":
            if self._contentless(pres):
                # Leaves only (attributes, texts, empty elements): the
                # candidate pool is never read, nor built.
                return _EMPTY
            if axis == "child":
                return kernels.children_of(self._candidates(test), pres,
                                           doc.sizes, doc.parents)
            return kernels.subtree_sweep(self._candidates(test), pres,
                                         doc.sizes)
        if axis == "descendant-or-self":
            below = kernels.subtree_sweep(self._candidates(test), pres,
                                          doc.sizes)
            return kernels.union_sorted(self._matching(test, pres), below)
        if axis == "parent":
            parents = doc.parents
            above = {parents[pre] for pre in pres}
            above.discard(-1)
            return self._matching(test, sorted(above))
        if axis == "ancestor" or axis == "ancestor-or-self":
            return self._matching(test, kernels.ancestors_of(
                pres, doc.parents, or_self=axis == "ancestor-or-self"))
        if axis == "following-sibling" or axis == "preceding-sibling":
            return self._sibling_scan(test, pres,
                                      axis == "following-sibling")
        sizes = doc.sizes
        if axis == "following":
            # Everything past the earliest-ending context subtree; an
            # attribute context (size 0) thereby starts right after its
            # owner's attributes, which the pool never holds.
            first_end = min(pre + sizes[pre] for pre in pres)
            return kernels.range_scan(self._candidates(test), first_end,
                                      doc.count)
        if axis == "preceding":
            # Before the last context and not one of its ancestors:
            # the candidate's subtree ends before that context starts.
            last = pres[-1]
            return pre_array(
                pre for pre in kernels.range_scan(self._candidates(test),
                                                  -1, last - 1)
                if pre + sizes[pre] < last)
        raise ValueError(f"unknown axis {axis!r}")

    def _contentless(self, pres: Sequence[int]) -> bool:
        """Whether no context has a child: each subtree is the node
        alone or it and its own attributes (stored right after it, so
        a subtree ending on one ends with no content)."""
        doc = self.doc
        kinds, sizes, parents = doc.kinds, doc.sizes, doc.parents
        for pre in pres:
            last = pre + sizes[pre]
            if last != pre and (kinds[last] != KIND_ATTRIBUTE
                                or parents[last] != pre):
                return False
        return True

    def _matching(self, test: str, pres: Sequence[int]) -> array:
        return pre_array(pre for pre in pres if self.matches(pre, test))

    def _attribute_scan(self, test: str, pres: Sequence[int]) -> array:
        kinds = self.doc.kinds
        names = self.doc.names
        count = self.doc.count
        by_name = test != "*" and test != "node()"
        if test == "text()" or test == "comment()":
            return _EMPTY
        out = pre_array()
        for owner in pres:
            if kinds[owner] != KIND_ELEMENT:
                continue
            cursor = owner + 1
            # Attributes are stored contiguously right after the owner.
            while cursor < count and kinds[cursor] == KIND_ATTRIBUTE:
                if not by_name or names[cursor] == test:
                    out.append(cursor)
                cursor += 1
        return out

    def _sibling_scan(self, test: str, pres: Sequence[int],
                      following: bool) -> array:
        """Siblings after the first (``following``) or before the last
        context under each parent. Attributes and tree roots have no
        siblings."""
        kinds = self.doc.kinds
        parents = self.doc.parents
        pivot: dict[int, int] = {}
        for pre in pres:
            parent = parents[pre]
            if parent < 0 or kinds[pre] == KIND_ATTRIBUTE:
                continue
            if following:
                pivot.setdefault(parent, pre)
            else:
                pivot[parent] = pre
        if not pivot:
            return _EMPTY
        children = kernels.children_of(self._candidates(test), sorted(pivot),
                                       self.doc.sizes, parents)
        if following:
            return pre_array(pre for pre in children
                             if pre > pivot[parents[pre]])
        return pre_array(pre for pre in children
                         if pre < pivot[parents[pre]])


def group_by_document(nodes: Iterable[Node]) -> Groups:
    """Nodes (any order, duplicates allowed, several documents) as
    :data:`Groups`."""
    by_doc: dict[int, tuple["Document", set[int]]] = {}
    for node in nodes:
        entry = by_doc.get(id(node.doc))
        if entry is None:
            by_doc[id(node.doc)] = (node.doc, {node.pre})
        else:
            entry[1].add(node.pre)
    groups: Groups = [(doc, sorted(pres)) for doc, pres in by_doc.values()]
    groups.sort(key=lambda group: group[0].doc_seq)
    return groups


def scan_groups(axis: str, test: str, groups: Groups) -> Groups:
    """One axis step over a node set: one :meth:`~StructuralIndex.
    axis_scan` per document, result in document order."""
    out: Groups = []
    for doc, pres in groups:
        result = structural_index(doc).axis_scan(axis, test, pres)
        if result:
            out.append((doc, result))
    return out


def group_nodes(groups: Groups) -> list[Node]:
    """The :class:`Node` handles of a node set, in document order."""
    return [Node(doc, pre) for doc, pres in groups for pre in pres]


def structural_index(doc: "Document") -> StructuralIndex:
    """The document's index, built on first use."""
    index = doc._structural_index
    if index is not None:
        return index
    index = doc._structural_index = StructuralIndex(doc)
    GLOBAL_REGISTRY.counter(
        "index_builds_total", "lazy index constructions",
        ("kind",)).labels("structural").inc()
    return index
