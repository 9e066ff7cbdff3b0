"""Structural indexes over the pre/size/level store.

A :class:`StructuralIndex` is built lazily, once, per
:class:`~repro.xmldb.document.Document` and answers every axis step —
all twelve axes, any node test — as array scans over whole context
sets instead of per-node tree walks — the same lever the paper's host
system (MonetDB/XQuery's Pathfinder "staircase join") uses.
:meth:`StructuralIndex.axis_scan` is the one place an axis is applied;
:func:`scan_groups` lifts it to node sets spanning several documents
for the evaluator and the projection-path runtime:

* **tag index** — element name → sorted pre array (names interned, so
  index keys share storage with the document's name column);
* **kind arrays** — sorted pre arrays per node kind (elements, texts,
  comments, all non-attribute nodes) plus a non-attribute *rank*
  prefix-count used for O(1) XRPC ``nodeid`` addressing;
* **path summary** — the distinct root-to-node tag paths with a
  sorted pre list per path, answering whole ``//a//b`` / ``child::a``
  chains from the document root with a tiny NFA over the path set and
  one merge of the matching pre lists.

Every scan yields pres in ascending order with no duplicates, i.e. the
result is *provably in document order* — no step needs a post-sort.
Reverse and horizontal axes read the ``parents`` column, whose entry
for a tree root is -1: on a shipped fragment they find exactly the
ancestors and siblings the message carried (the paper's Problem 1).

Indexes ride on the document object itself (documents are logically
immutable; a :meth:`Peer.store` swaps the whole object, so a stale
index can never be served) and additionally record the document's
``epoch``: code that mutates arrays in place must call
:meth:`Document.invalidate_caches`, and the accessor rebuilds on an
epoch mismatch.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.obs.metrics import GLOBAL_REGISTRY
from repro.xmldb import kernels
from repro.xmldb.kernels import pre_array
from repro.xmldb.node import Node, NodeKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.xmldb.document import Document

_EMPTY = pre_array()

#: Per-document sorted duplicate-free pre columns, documents in
#: document-order (``doc_seq``) position: a node set, set-at-a-time.
Groups = list[tuple["Document", Sequence[int]]]


class StructuralIndex:
    """All per-document index structures, built in one array pass."""

    __slots__ = ("doc", "epoch", "tag_pres", "element_pres",
                 "non_attr_pres", "text_pres", "comment_pres",
                 "non_attr_rank", "path_of", "path_parent", "path_tag",
                 "path_pres")

    def __init__(self, doc: "Document"):
        self.doc = doc
        self.epoch = doc.epoch
        count = doc.count

        tag_pres: dict[str, array] = {}
        element_pres = pre_array()
        non_attr_pres = pre_array()
        text_pres = pre_array()
        comment_pres = pre_array()
        # Zero-filled typed columns in one allocation apiece.
        non_attr_rank = pre_array(bytes(4 * count))
        path_of = pre_array(bytes(4 * count))
        path_key: dict[tuple[int, str], int] = {}
        path_parent: list[int] = []
        path_tag: list[str] = []
        path_pres: list[array] = []

        ATTRIBUTE = NodeKind.ATTRIBUTE
        ELEMENT = NodeKind.ELEMENT
        TEXT = NodeKind.TEXT
        COMMENT = NodeKind.COMMENT
        rank = 0
        # One zipped pass: column iterators stream page-by-page on a
        # pooled (spilled) document instead of random-accessing every
        # row, and skip per-index __getitem__ calls on arrays too.
        for pre, (kind, name, parent) in enumerate(
                zip(doc.kinds, doc.names, doc.parents)):
            if kind != ATTRIBUTE:
                rank += 1
                non_attr_pres.append(pre)
            non_attr_rank[pre] = rank
            if kind == ELEMENT:
                element_pres.append(pre)
                bucket = tag_pres.get(name)
                if bucket is None:
                    tag_pres[name] = bucket = pre_array()
                bucket.append(pre)
                parent_path = path_of[parent] if parent >= 0 else -1
                key = (parent_path, name)
                path_id = path_key.get(key)
                if path_id is None:
                    path_id = len(path_parent)
                    path_key[key] = path_id
                    path_parent.append(parent_path)
                    path_tag.append(name)
                    path_pres.append(pre_array())
                path_of[pre] = path_id
                path_pres[path_id].append(pre)
            else:
                path_of[pre] = -1
                if kind == TEXT:
                    text_pres.append(pre)
                elif kind == COMMENT:
                    comment_pres.append(pre)

        self.tag_pres = tag_pres
        self.element_pres = element_pres
        self.non_attr_pres = non_attr_pres
        self.text_pres = text_pres
        self.comment_pres = comment_pres
        self.non_attr_rank = non_attr_rank
        self.path_of = path_of
        self.path_parent = path_parent
        self.path_tag = path_tag
        self.path_pres = path_pres

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
            return kind == NodeKind.TEXT
        if test == "comment()":
            return kind == NodeKind.COMMENT
        if kind != NodeKind.ELEMENT and kind != NodeKind.ATTRIBUTE:
            return False
        if test == "*":
            return True
        return self.doc.names[pre] == test

    # -- nodeid addressing ---------------------------------------------------

    def nodeid(self, root_pre: int, pre: int) -> int:
        """1-based ``descendant-or-self::node()`` rank of ``pre``
        within the subtree rooted at ``root_pre`` (attributes excluded)
        — the XRPC fragment ``nodeid`` in O(1)."""
        return self.non_attr_rank[pre] - self.non_attr_rank[root_pre] + 1

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
        if axis == "child":
            return kernels.children_of(self._candidates(test), pres,
                                       doc.sizes, doc.parents)
        if axis == "descendant":
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
            if kinds[owner] != NodeKind.ELEMENT:
                continue
            cursor = owner + 1
            # Attributes are stored contiguously right after the owner.
            while cursor < count and kinds[cursor] == NodeKind.ATTRIBUTE:
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
            if parent < 0 or kinds[pre] == NodeKind.ATTRIBUTE:
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

    # -- path summary --------------------------------------------------------

    def match_chain(self, chain: Sequence[tuple[str, str]]) -> Sequence[int]:
        """All pres reachable from the tree root by ``chain`` — a
        sequence of predicate-free ``("child" | "descendant", name)``
        steps — via NFA simulation over the path summary.

        Anchoring follows the root node at ``pre == 0``: a document
        node anchors above the parentless paths, a fragment root
        element anchors *at* its own path (its tag is not consumed by
        the chain). Non-element fragment roots have no element paths
        and match nothing.
        """
        path_parent = self.path_parent
        path_tag = self.path_tag
        full = len(chain)
        anchored = self.doc.kinds[0] == NodeKind.ELEMENT
        root_path = self.path_of[0] if anchored else -1
        states: list[tuple[int, ...]] = [()] * len(path_parent)
        matched: list[int] = []
        for path_id in range(len(path_parent)):
            if anchored and path_id == root_path:
                states[path_id] = (0,)
                continue
            parent = path_parent[path_id]
            if parent < 0:
                base: tuple[int, ...] = () if anchored else (0,)
            else:
                base = states[parent]
            if not base:
                continue
            state = _advance(base, path_tag[path_id], chain)
            states[path_id] = state
            if state and state[-1] == full:
                matched.append(path_id)
        if not matched:
            return _EMPTY
        if len(matched) == 1:
            return self.path_pres[matched[0]]
        return kernels.merge_sorted([self.path_pres[path_id]
                                     for path_id in matched])


def _advance(states: tuple[int, ...], tag: str,
             chain: Sequence[tuple[str, str]]) -> tuple[int, ...]:
    """Consume one path tag: NFA transition over chain positions."""
    out: set[int] = set()
    full = len(chain)
    for position in states:
        if position >= full:
            continue
        axis, name = chain[position]
        if axis == "descendant":
            out.add(position)  # the tag is a skipped intermediate
        if name == "*" or name == tag:
            out.add(position + 1)
    return tuple(sorted(out))


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
    """The document's index, built on first use and rebuilt when the
    document's cache epoch moved (see ``Document.invalidate_caches``)."""
    index = doc._structural_index
    if index is not None and index.epoch == doc.epoch:
        return index
    started = perf_counter()
    index = StructuralIndex(doc)
    doc._structural_index = index
    GLOBAL_REGISTRY.counter(
        "index_builds_total", "lazy index constructions",
        ("kind",)).labels("structural").inc()
    GLOBAL_REGISTRY.counter(
        "index_build_seconds_total", "wall seconds spent building indexes",
        ("kind",)).labels("structural").inc(perf_counter() - started)
    return index
