"""Serialise nodes back to XML text, with per-document memoization.

Serialisation is the marshalling workhorse: pass-by-value copies a
parameter node by serialising its subtree into the message, and the
message byte counts that drive the paper's bandwidth experiments
(Figure 7) are the lengths of these strings.

The serializer is *incremental* and *memoized*: the first full-document
serialisation records, for every node, the span its subtree occupies in
the text, so later subtree requests (bulk-RPC fragments, by-value
copies, shard bodies) are string slices instead of tree re-walks. The
spans also hand the planner's :class:`~repro.planner.stats.StatsCatalog`
exact per-subtree byte figures for free. Caches ride on the
:class:`~repro.xmldb.document.Document` object — a ``Peer.store``
swaps the object, so stale text is never served.

There is one producer of XML text, :func:`_emit`: a single loop over a
subtree's rows with the open elements on an explicit stack. The
whole-document pass runs it over every row and records the spans; a
subtree request on a document with no full text runs the same loop
over ``[pre, pre + size]`` without them. The one other source of a
document's text is the text it was parsed from, adopted when it is
proven to be what ``_emit`` would make (:func:`adopt_serialization`):
a ``Peer.store`` leaves the text it parsed on the document, and the
first serialisation read takes a canonical one — one this serializer
wrote, shipped or copied — as the memo and lays out its spans, so no
read emits it. A store that nothing reads as text derives nothing.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict

from repro.xmldb.document import DEFAULT_MEMO_CACHE_CAP, Document
from repro.xmldb.node import (
    KIND_ATTRIBUTE, KIND_COMMENT, KIND_ELEMENT, KIND_PI, KIND_TEXT, Node,
)


def escape_text(value: str) -> str:
    """Escape character data content. A ``\r`` is a reference: a parser
    reads a raw one as a line end (XML 1.0 §2.11)."""
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace("\r", "&#13;"))


def escape_attribute(value: str) -> str:
    """Escape an attribute value (double-quote delimited). Tab, line
    feed and carriage return are references: a parser reads raw ones as
    spaces (XML 1.0 §3.3.3)."""
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace('"', "&quot;").replace("\t", "&#9;")
            .replace("\n", "&#10;").replace("\r", "&#13;"))


class SerializedTree:
    """Memoized serialisation state of one document.

    ``full``/``starts``/``ends`` hold the whole-document text and the
    per-pre subtree spans (attribute spans cover the escaped value
    between its quotes, matching ``serialize_node`` on an attribute);
    ``memo`` caches subtree strings requested before (or independent
    of) a full serialisation, LRU-bounded by
    :data:`DEFAULT_MEMO_CACHE_CAP` so span-less fragment churn stays
    bounded. ``source`` is the text the document was parsed from until
    the first serialisation read adopts or drops it.
    """

    __slots__ = ("full", "starts", "ends", "memo", "memo_lock",
                 "byte_length", "source")

    def __init__(self):
        self.full: str | None = None
        self.starts: list[int] | None = None
        self.ends: list[int] | None = None
        self.memo: OrderedDict[int, str] = OrderedDict()
        # Documents are shared across concurrent queries; the LRU's
        # structural mutations (move_to_end / eviction) need the lock.
        self.memo_lock = threading.Lock()
        self.byte_length: int | None = None
        self.source: str | None = None


def _tree(doc: Document) -> SerializedTree:
    cache = doc._ser_cache
    if cache is None:
        cache = doc._ser_cache = SerializedTree()
    return cache


def serialize(doc: Document) -> str:
    """Serialise a whole document (or fragment) to a string.

    The text and every node's span in it are memoized on the document;
    repeated calls (statistics, shipping, fragment slicing) are free.
    """
    cache = _tree(doc)
    if cache.full is None and not _adopted(doc, cache):
        starts = [0] * doc.count
        ends = [0] * doc.count
        text = _emit(doc, 0, doc.count - 1, starts, ends)
        # Readers take ``full is not None`` to mean the spans exist.
        cache.starts, cache.ends = starts, ends
        cache.full = text
    return cache.full


def adopt_serialization(doc: Document, text: str) -> None:
    """Leave ``text``, the text ``doc`` was parsed from, on ``doc`` as
    its pending source. The first serialisation read takes it as the
    serialisation when it provably is what :func:`_emit` would make of
    ``doc`` (:func:`_adopted`); any other text is serialised then, as
    if none had been left."""
    _tree(doc).source = text


def _adopted(doc: Document, cache: SerializedTree) -> bool:
    """Whether the pending source is the serialisation, checked once:
    the root's start tag first, no :data:`_NONCANONICAL` token, and
    the root element, laid out from the rows (:func:`_layout`), ending
    where the text ends. Adopting seeds the memo and its spans."""
    text, cache.source = cache.source, None
    spans = (_layout(doc, text) if text is not None and text.endswith(">")
             and _ROOT_FIRST.match(text) and not _NONCANONICAL.search(text)
             else None)
    if spans is not None:
        cache.starts, cache.ends = spans
        cache.full = text
    return spans is not None


def serialize_node(node: Node) -> str:
    """Serialise one node (and its subtree) to a string.

    Attribute nodes serialise to their *value* (standalone attributes
    have no XML syntax; XRPC wraps them separately in the message
    layer). Served as a slice of the memoized document text when one
    exists (slices are cheap enough not to be worth pinning a second
    copy of the document in the memo), from the subtree memo otherwise.
    """
    doc = node.doc
    pre = node.pre
    if pre == 0:
        return serialize(doc)
    cache = _tree(doc)
    if cache.full is not None or (cache.source is not None
                                  and _adopted(doc, cache)):
        assert cache.starts is not None and cache.ends is not None
        return cache.full[cache.starts[pre]:cache.ends[pre]]
    with cache.memo_lock:
        cached = cache.memo.get(pre)
        if cached is not None:
            cache.memo.move_to_end(pre)
            return cached
    text = _emit(doc, pre, pre + doc.sizes[pre])
    with cache.memo_lock:
        cache.memo[pre] = text
        while len(cache.memo) > DEFAULT_MEMO_CACHE_CAP:
            cache.memo.popitem(last=False)
    return text


def cached_serialization(doc: Document) -> str | None:
    """The memoized full text if a current one exists, else None —
    a lock-free fast path for callers that serialise under a lock. It
    adopts nothing: a stored text is the memo only once a serialisation
    read took it."""
    cache = doc._ser_cache
    return None if cache is None else cache.full


def serialized_byte_length(doc: Document) -> int:
    """UTF-8 length of the serialised document, memoized with it."""
    cache = _tree(doc)
    if cache.byte_length is None:
        cache.byte_length = len(serialize(doc).encode())
    return cache.byte_length


def subtree_spans(doc: Document) -> tuple[list[int], list[int]]:
    """Per-pre ``(starts, ends)`` character spans of the full
    serialisation, memoized with it (serialising, or adopting the
    stored text, now if neither has happened yet). ``ends[p] -
    starts[p]`` is the exact serialised subtree length — the
    statistics catalog reads these instead of re-walking."""
    cache = doc._ser_cache
    if cache is None or cache.full is None:
        serialize(doc)
        cache = doc._ser_cache
    assert cache.starts is not None and cache.ends is not None
    return cache.starts, cache.ends


# ---------------------------------------------------------------------------
# Adopting a canonical text
# ---------------------------------------------------------------------------

_NAME = r"[\w.:-]+"
_ROOT_FIRST = re.compile(r"<[\w.:-]")
#: A ``<`` that does not open a token spelt as :func:`_emit` spells
#: what a parser reads from it, followed by canonical text up to the
#: next ``<``: ` name="…"` attributes, ``/>`` for an element with no
#: content, no ``\r``, only the references the escapes make, no PI or
#: CDATA section, and no ``<`` in a comment. Every run stops at a
#: ``<``, so a search reads each character about once, accepted or not.
_NONCANONICAL = re.compile(
    rf'<(?!(?:/{_NAME}>|{_NAME}(?: {_NAME}="[^"<&\t\n\r]*'
    r'(?:&(?:amp|lt|quot|#9|#10|#13);[^"<&\t\n\r]*)*")*(?:/>|>(?!</))'
    r"|!--[^-<\r]*(?:-[^-<\r]+)*-->)"
    r"[^<>&\r]*(?:&(?:amp|lt|gt|#13);[^<>&\r]*)*(?:<|\Z))")


def _layout(doc: Document, text: str
            ) -> tuple[list[int], list[int]] | None:
    """The spans :func:`_emit` records for document ``doc``, laid out
    over ``text`` in :func:`_emit`'s order, or None if the root element
    does not end where ``text`` does. Each span is read off the row and
    the text (a text ends at the next ``<``, an attribute value at the
    next ``"``), so it is exact when every token of ``text`` is
    canonical and the root's start tag opens it."""
    count = doc.count
    starts = [0] * count
    ends = [0] * count
    ends[0] = len(text)
    find = text.find
    at = 0
    # The open elements' (enclosing last row, pre, end tag length) and
    # the innermost one's last row.
    pending: list[tuple[int, int, int]] = []
    closing = 0
    tag_open = False
    for pre, kind, name, value, size in zip(
            range(1, count), doc.kinds[1:], doc.names[1:],
            doc.values[1:], doc.sizes[1:]):
        if kind == KIND_ATTRIBUTE:
            at += len(name) + 3  # ` name="`
            starts[pre] = at
            at = ends[pre] = find('"', at)
            at += 1
            if pre != closing:
                continue
        else:
            if tag_open:
                at += 1
                tag_open = False
            starts[pre] = at
            if kind == KIND_ELEMENT:
                at += 1 + len(name)
                if size:
                    pending.append((closing, pre, len(name) + 3))
                    closing = pre + size
                    tag_open = True
                    continue
                at = ends[pre] = at + 2  # ``/>``
            elif kind == KIND_TEXT:
                at = ends[pre] = find("<", at)
            else:  # ``<!--value-->``; a text with a PI is never canonical
                at = ends[pre] = at + len(value) + 7
        while pre == closing:
            closing, done, end_tag = pending.pop()
            at += 2 if tag_open else end_tag
            tag_open = False
            ends[done] = at
    return (starts, ends) if ends[1] == len(text) else None


# ---------------------------------------------------------------------------
# The emitter
# ---------------------------------------------------------------------------


def _emit(doc: Document, first: int, last: int,
          starts: list[int] | None = None,
          ends: list[int] | None = None) -> str:
    """The text of the subtree in rows ``first..last``: one loop over
    the columns, the open elements on an explicit stack (so depth is
    not bounded by the recursion limit). An element's start tag stays
    open while its attribute rows follow; its first content row ends
    the tag with ``>``, reaching its last row without one with ``/>``.

    With ``starts`` / ``ends`` every row's span in the text is
    recorded. An attribute's span is its escaped value between the
    quotes — which is all an attribute at ``first`` serialises to.
    """
    spans = starts is not None
    parts: list[str] = []
    pending: list[tuple[int, int, str]] = []  # (last row, pre, name)
    tag_open = False
    length = 0
    stop = last + 1
    for pre, kind, name, value, size in zip(
            range(first, stop), doc.kinds[first:stop],
            doc.names[first:stop], doc.values[first:stop],
            doc.sizes[first:stop]):
        if kind == KIND_ATTRIBUTE:
            text = escape_attribute(value)
            if spans:
                starts[pre] = start = length + (len(name) + 3 if tag_open
                                                else 0)
                ends[pre] = start + len(text)
            if tag_open:
                text = f' {name}="{text}"'
        else:
            if tag_open:
                parts.append(">")
                length += 1
                tag_open = False
            if spans:
                starts[pre] = length
            if kind == KIND_ELEMENT:
                text = f"<{name}"
                pending.append((pre + size, pre, name))
                tag_open = True
            elif kind == KIND_TEXT:
                text = escape_text(value)
            elif kind == KIND_COMMENT:
                text = f"<!--{value}-->"
            elif kind == KIND_PI:
                text = f"<?{name} {value}?>"
            else:  # the document node has no text of its own
                text = ""
            if spans:
                ends[pre] = length + len(text)
        parts.append(text)
        length += len(text)
        while pending and pending[-1][0] == pre:
            _last, done, name = pending.pop()
            text = "/>" if tag_open else f"</{name}>"
            tag_open = False
            parts.append(text)
            length += len(text)
            if spans:
                ends[done] = length
    if spans:
        ends[first] = length  # a document node's: nothing closes it
    return "".join(parts)
