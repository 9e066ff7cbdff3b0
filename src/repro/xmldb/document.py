"""The pre/size/level document store and its builder.

A :class:`Document` holds one XML tree shredded into parallel arrays in
document order (preorder). The encoding is the one used by
MonetDB/XQuery's Pathfinder compiler — the paper's host system — and
gives O(1) node identity, document-order comparison, and ancestry
tests, plus O(subtree) axis scans.

Attributes are stored as nodes immediately after their owner element
(before its first child) and are counted in the owner's ``size``; axis
implementations filter them out where XPath requires (child,
descendant, following, ...).

Documents are logically immutable once built. *Fragment* documents —
parentless trees produced by element construction or by shredding XRPC
message payloads — are ordinary documents whose ``pre == 0`` node is an
element rather than a document node. A document is always one tree
(a frame's constructors cut one set of columns into a document per row).
"""

from __future__ import annotations

import itertools
from array import array
from sys import intern
from typing import Iterator

from repro.errors import XmlError
from repro.xmldb.columns import KIND_TYPECODE, ColumnSet
from repro.xmldb.kernels import PRE_TYPECODE
from repro.xmldb.node import (
    KIND_ATTRIBUTE, KIND_COMMENT, KIND_DOCUMENT, KIND_ELEMENT,
    KIND_TEXT, Node,
)

_doc_sequence = itertools.count()

#: Bound of each per-document memo cache (serializer subtree memo
#: entries, value-index columns). Large enough that single-query
#: working sets never evict, small enough that a long-lived peer under
#: a multi-tenant workload stays bounded.
DEFAULT_MEMO_CACHE_CAP = 1024


def fresh_doc_seq() -> int:
    """Allocate the next document sequence number (inter-document
    order tie-break). The cluster gather renumbers shard response
    fragments in shard order with this, so document order across
    shards is shard-major whichever cover peer's response was parsed
    first."""
    return next(_doc_sequence)


class Document:
    """One shredded XML tree (document or parentless fragment).

    The constructor wraps one built :class:`ColumnSet` as it is.

    What is derived from a document (indexes, serialisation, the
    planner's statistics view) is memoized on it and never invalidated:
    a ``Peer.store`` replaces the whole object.

    One :class:`ColumnSet` may back several documents (each hit on a
    cached XRPC response wraps the stored columns in new ones), so the
    columns are never mutated in place; only their name postings may be
    filled in, with the tables any reader would build.
    """

    __slots__ = ("uri", "columns", "kinds", "names", "values", "sizes",
                 "levels", "parents", "count", "doc_seq", "stats_view",
                 "_id_index", "_idref_index", "_structural_index",
                 "_value_index", "_ser_cache")

    def __init__(self, uri: str, columns: ColumnSet):
        if not columns.count:
            raise XmlError("a document must contain at least one node")
        self.uri = uri
        # The six parallel columns are bound as plain attributes (same
        # access cost as before the columnar refactor); ``columns`` is
        # the physical handle.
        self.columns = columns
        self.kinds = columns.kinds
        self.names = columns.names
        self.values = columns.values
        self.sizes = columns.sizes
        self.levels = columns.levels
        self.parents = columns.parents
        self.count = columns.count
        self.doc_seq = next(_doc_sequence)
        #: The planner's statistics view of this document, built by
        #: :class:`~repro.planner.stats.StatsCatalog` on first read.
        self.stats_view = None
        self._id_index: dict[str, int] | None = None
        self._idref_index: dict[str, list[int]] | None = None
        self._structural_index = None
        self._value_index = None
        self._ser_cache = None

    # -- basic accessors -----------------------------------------------------

    def __len__(self) -> int:
        return self.count

    @property
    def root(self) -> Node:
        return Node(self, 0)

    def node(self, pre: int) -> Node:
        # ``count`` is bound once at construction: the bounds check
        # costs two compares, never a column ``len()``.
        if not 0 <= pre < self.count:
            raise XmlError(f"pre rank {pre} out of range for {self.uri!r}")
        return Node(self, pre)

    def nodes(self) -> Iterator[Node]:
        """All nodes in document order (including attributes)."""
        for pre in range(self.count):
            yield Node(self, pre)

    # -- ID/IDREF index (for fn:id / fn:idref) --------------------------------

    def _build_id_indexes(self) -> None:
        ids: dict[str, int] = {}
        idrefs: dict[str, list[int]] = {}
        for pre, kind in enumerate(self.kinds):
            if kind != KIND_ATTRIBUTE:
                continue
            name = self.names[pre]
            owner = self.parents[pre]
            if name in ("id", "xml:id"):
                ids.setdefault(self.values[pre], owner)
            elif name.endswith("idref") or name == "person" or name.startswith("ref"):
                # Schema-less heuristic mirroring the paper's remark that
                # without a DTD, all ID-typed attributes must be conserved.
                for token in self.values[pre].split():
                    idrefs.setdefault(token, []).append(owner)
        self._id_index = ids
        self._idref_index = idrefs

    def element_by_id(self, value: str) -> Node | None:
        """fn:id lookup: the element whose ID attribute equals ``value``."""
        if self._id_index is None:
            self._build_id_indexes()
        assert self._id_index is not None
        pre = self._id_index.get(value)
        return None if pre is None else Node(self, pre)

    def elements_by_idref(self, value: str) -> list[Node]:
        """fn:idref lookup: elements with an IDREF attribute equal to ``value``."""
        if self._idref_index is None:
            self._build_id_indexes()
        assert self._idref_index is not None
        return [Node(self, pre) for pre in self._idref_index.get(value, [])]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Document {self.uri!r} nodes={len(self.kinds)}>"


class DocumentBuilder:
    """Incremental builder producing a :class:`Document`.

    Call sequence: optionally :meth:`start_document`, then nested
    :meth:`start_element` / :meth:`attribute` / :meth:`text` /
    :meth:`comment` / :meth:`end_element` calls, then :meth:`finish`.

    ``size`` values are back-patched when an element closes, so building
    is a single pass.

    Trees may be built one after another (a node started with none
    open begins one); pres, levels and parents are tree-local, so
    :meth:`finish_trees` cuts each tree's columns out as they are.
    """

    def __init__(self, uri: str = ""):
        self.uri = uri
        # Fixed-width columns accumulate straight into typed arrays —
        # one contiguous buffer per column, no per-node boxed ints.
        self._kinds = array(KIND_TYPECODE)
        self._names: list[str] = []
        self._values: list[str] = []
        self._sizes = array(PRE_TYPECODE)
        self._levels = array(PRE_TYPECODE)
        self._parents = array(PRE_TYPECODE)
        self._stack: list[int] = []  # pre ranks of open nodes
        self._roots: list[int] = []  # pre rank of each tree's root
        self._base = 0  # the current tree's root
        self._has_content: list[bool] = []  # parallel to _stack
        self._finished = False

    # -- low-level append ------------------------------------------------------

    def _append(self, kind: int, name: str, value: str) -> int:
        pre = len(self._kinds)
        parent = self._parent(kind)
        self._kinds.append(kind)
        self._names.append(name)
        self._values.append(value)
        self._sizes.append(0)
        self._levels.append(len(self._stack))
        self._parents.append(parent)
        return pre

    def _parent(self, kind: int) -> int:
        """The open node's tree-local pre, which a node of ``kind`` gives
        content unless it is an attribute; with none open, -1: the node
        begins a tree."""
        if self._stack:
            if kind != KIND_ATTRIBUTE:
                self._has_content[-1] = True
            return self._stack[-1] - self._base
        self._base = len(self._kinds)
        self._roots.append(self._base)
        return -1

    def _open(self, kind: int, name: str) -> None:
        self._stack.append(self._append(kind, name, ""))
        self._has_content.append(False)

    # -- events ------------------------------------------------------------------

    def start_document(self) -> None:
        if self._stack:
            raise XmlError("document node must be the first node")
        self._open(KIND_DOCUMENT, "")

    def start_element(self, name: str) -> None:
        # Interned names make name tests identity comparisons and let
        # every document / tag-index key share one string per tag.
        self._open(KIND_ELEMENT, intern(name))

    def attribute(self, name: str, value: str) -> None:
        if not self._stack or self._kinds[self._stack[-1]] != KIND_ELEMENT:
            raise XmlError("attribute outside an open element")
        if self._has_content[-1]:
            raise XmlError(f"attribute {name!r} after element content")
        self._append(KIND_ATTRIBUTE, intern(name), value)

    def text(self, content: str) -> None:
        if not content:
            return
        # Merge adjacent text nodes, as the XDM requires.
        last = len(self._kinds) - 1
        if (self._stack and self._kinds[last] == KIND_TEXT
                and self._parents[last] == self._stack[-1] - self._base):
            self._values[last] += content
            return
        self._append(KIND_TEXT, "", content)

    def comment(self, content: str) -> None:
        self._append(KIND_COMMENT, "", content)

    def end_element(self) -> None:
        if not self._stack or self._kinds[self._stack[-1]] != KIND_ELEMENT:
            raise XmlError("end_element without matching start_element")
        pre = self._stack.pop()
        self._has_content.pop()
        self._sizes[pre] = len(self._kinds) - pre - 1

    def end_document(self) -> None:
        if len(self._stack) != 1 or self._kinds[self._stack[0]] != KIND_DOCUMENT:
            raise XmlError("unbalanced document")
        pre = self._stack.pop()
        self._has_content.pop()
        self._sizes[pre] = len(self._kinds) - pre - 1

    # -- subtree copy -------------------------------------------------------------

    def copy_subtree(self, node: Node) -> None:
        """Deep-copy ``node`` (and its subtree) as content here.

        This is the marshalling primitive: the copy gets fresh node
        identity, which is exactly the pass-by-value behaviour whose
        consequences the paper analyses.
        """
        src = node.doc
        base_level = len(self._stack)
        start = node.pre
        end = node.pre + src.sizes[node.pre]
        src_level0 = src.levels[start]
        parent_of_root = self._parent(src.kinds[start])
        offset = len(self._kinds) - self._base - start
        stop = end + 1
        # Kinds/names/values/sizes copy verbatim: whole-column slice
        # extends instead of per-node appends.
        self._kinds.extend(src.kinds[start:stop])
        self._names.extend(src.names[start:stop])
        self._values.extend(src.values[start:stop])
        self._sizes.extend(src.sizes[start:stop])
        shift = base_level - src_level0
        if shift == 0:
            self._levels.extend(src.levels[start:stop])
        else:
            self._levels.extend([level + shift
                                 for level in src.levels[start:stop]])
        self._parents.append(parent_of_root)
        self._parents.extend([parent + offset
                              for parent in src.parents[start + 1:stop]])

    # -- completion ------------------------------------------------------------------

    def finish(self) -> Document:
        """The one tree built, as a document."""
        trees = self.finish_trees()
        if len(trees) != 1:
            raise XmlError("a document must hold exactly one tree")
        return Document(self.uri, trees[0])

    def finish_trees(self) -> list[ColumnSet]:
        """The columns of each tree built, in the order built."""
        if self._stack:
            raise XmlError("finish() with unclosed elements")
        if self._finished:
            raise XmlError("builder already finished")
        self._finished = True
        columns = (self._kinds, self._names, self._values, self._sizes,
                   self._levels, self._parents)
        if len(self._roots) == 1:
            return [ColumnSet(*columns)]
        bounds = itertools.pairwise(self._roots + [len(self._kinds)])
        return [ColumnSet(*[column[start:stop] for column in columns])
                for start, stop in bounds]

