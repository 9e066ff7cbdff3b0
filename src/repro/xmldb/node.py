"""Node kinds and the lightweight :class:`Node` handle.

A node is identified by the :class:`~repro.xmldb.document.Document` it
lives in plus its preorder rank (``pre``). Handles are value objects:
two handles compare equal iff they denote the same node in the same
document — which is exactly XQuery's node identity (the ``is``
operator). A handle is two slots, immutable by contract: nothing
assigns them after ``__init__``. Copying a subtree into a new document
creates new nodes with fresh identity, which is the root cause of the
paper's Problems 1-4.
"""

from __future__ import annotations

from enum import IntEnum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.xmldb.document import Document


class NodeKind(IntEnum):
    """The node kinds of the XDM subset we support.

    ``DOCUMENT`` only ever appears at ``pre == 0``. Fragment documents
    (results of element construction, or shredded XRPC parameters) have
    an ``ELEMENT`` at ``pre == 0`` instead.
    """

    DOCUMENT = 0
    ELEMENT = 1
    ATTRIBUTE = 2
    TEXT = 3
    COMMENT = 4
    PROCESSING_INSTRUCTION = 5


#: The kind column stores raw bytes; ``_KIND_OF[doc.kinds[pre]]`` is the
#: enum member (``node.kind.name`` etc.) without an enum call per read.
_KIND_OF = tuple(NodeKind)

#: The kind bytes as plain ints, for per-node loops: a member read off
#: ``NodeKind`` costs five plain attribute reads, and a byte column
#: appends an int faster than an enum member.
(KIND_DOCUMENT, KIND_ELEMENT, KIND_ATTRIBUTE, KIND_TEXT, KIND_COMMENT,
 KIND_PI) = map(int, NodeKind)


def node_string(doc: "Document", pre: int) -> str:
    """The XDM string value of the node at ``pre`` off the columns (what
    atomization yields): its value, or a document's or element's
    concatenated descendant text."""
    kinds, values = doc.kinds, doc.values
    if kinds[pre] > KIND_ELEMENT:
        return values[pre]
    end = pre + 1 + doc.sizes[pre]
    if end == pre + 2 and kinds[pre + 1] == KIND_TEXT:
        return values[pre + 1]
    return "".join([values[p] for p in range(pre + 1, end)
                    if kinds[p] == KIND_TEXT])


class Node:
    """A handle on one node: a ``(document, pre)`` pair.

    All structural accessors are O(1) thanks to the pre/size/level
    encoding of the backing document.
    """

    __slots__ = ("doc", "pre")

    def __init__(self, doc: "Document", pre: int):
        self.doc = doc
        self.pre = pre

    # -- identity and order ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self.doc is other.doc and self.pre == other.pre

    def __hash__(self) -> int:
        return hash((id(self.doc), self.pre))

    def order_key(self) -> tuple[int, int]:
        """Total document-order key: (document sequence number, pre).

        Inter-document order is implementation-defined by XQuery but
        must be stable; we order documents by creation sequence.
        """
        return (self.doc.doc_seq, self.pre)

    def __lt__(self, other: "Node") -> bool:
        return self.order_key() < other.order_key()

    # -- field accessors ---------------------------------------------------

    @property
    def kind(self) -> NodeKind:
        return _KIND_OF[self.doc.kinds[self.pre]]

    @property
    def name(self) -> str:
        """Element/attribute/PI name; empty string for other kinds."""
        return self.doc.names[self.pre]

    @property
    def value(self) -> str:
        """Attribute/text/comment/PI content; empty for elements."""
        return self.doc.values[self.pre]

    @property
    def size(self) -> int:
        """Number of nodes in this node's subtree, excluding itself.

        Attributes are stored inside their owner's subtree, so they
        count towards ``size`` even though they are not descendants in
        the XPath sense.
        """
        return self.doc.sizes[self.pre]

    @property
    def level(self) -> int:
        """Tree depth; the ``pre == 0`` node has level 0."""
        return self.doc.levels[self.pre]

    # -- O(1) structural predicates -----------------------------------------

    def parent(self) -> "Node | None":
        p = self.doc.parents[self.pre]
        if p < 0:
            return None
        return Node(self.doc, p)

    def is_ancestor_of(self, other: "Node") -> bool:
        """True iff ``self`` is a proper ancestor of ``other``.

        Uses the pre/size interval test; attribute nodes have no
        descendants so for them this is always False, while an
        attribute's owner *is* counted as its ancestor (XPath's
        parent-of-attribute relationship).
        """
        if self.doc is not other.doc:
            return False
        return self.pre < other.pre <= self.pre + self.size

    def root(self) -> "Node":
        """The root of the containing tree (fn:root semantics)."""
        return Node(self.doc, 0)

    # -- convenience ---------------------------------------------------------

    def string_value(self) -> str:
        """The XDM string value (concatenated descendant text)."""
        return node_string(self.doc, self.pre)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = self.kind
        label = self.name if self.name else self.value[:20]
        return f"<Node {kind.name} {label!r} pre={self.pre} doc={self.doc.uri!r}>"
