"""Per-peer document statistics feeding the cost-based planner.

A :class:`DocumentStats` is a *view* over what a stored document
already carries, answered per key and only when a plan reads the key:
a tag bucket (:class:`TagStat`: instances of an element name and the
serialised bytes their subtrees cover) is the length of the name's pre
list in the structural index and the sum of its spans in the memoized
serialisation — the one source of byte figures (a canonical stored
text is that serialisation from ``Peer.store`` on, so the first plan
after a store emits no text); ``@name`` buckets (value bytes) read the
value index's attribute pres, ``#text`` the text pres. They price
projections ("only ``person/@id`` comes back") and atomisations
("``data($x)`` keeps the text"), so the first plan after a store pays
for the keys it prices, not for a pass over every node for every key.
Nothing summarises a key's *values*: a predicate prices at one
selectivity whatever literal it compares with, so a shape has one
price.

A document's view rides on the stored
:class:`~repro.xmldb.document.Document` object, as its indexes do, so a
``Peer.store`` — which swaps the object — takes exactly that view with
it. A *collection* host (cluster catalog virtual name) gets a view that
asks each shard fragment's view per key and merges; the
:class:`StatsCatalog` keeps it while its spec and every shard replica's
document are the ones it was merged from (compared by identity).
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from repro.xmldb.index import structural_index
from repro.xmldb.node import KIND_ELEMENT
from repro.xmldb.serializer import serialized_byte_length, subtree_spans
from repro.xmldb.values import value_index

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.system.federation import Federation
    from repro.xmldb.document import Document


@dataclass(frozen=True)
class TagStat:
    """One tag bucket: instances of a tag and the serialised
    bytes their subtrees cover (for ``@attr`` buckets, the value
    bytes; for ``#text``, the character data bytes)."""

    count: int = 0
    subtree_bytes: int = 0

    def merged(self, other: "TagStat") -> "TagStat":
        return TagStat(self.count + other.count,
                       self.subtree_bytes + other.subtree_bytes)


def _merged(parts):
    """Left fold of ``merged`` over the parts that have an answer."""
    out = None
    for part in parts:
        if part is not None:
            out = part if out is None else out.merged(part)
    return out


class DocumentStats:
    """Per-key statistics view of one stored document.

    Computed when first read, and then only that key: :meth:`tag` (a
    name / ``@name`` / ``#text`` bucket; None when no node carries the
    key) and ``elements``. Fixed at construction: ``serialized_bytes``
    (the text's exact UTF-8 length when the caller has it, its
    character count if not) and ``nodes`` (all stored nodes, attributes
    included).

    Every answer is memoized on the view. Engine workers share a view
    and may ask it for one key at once: each computes the same
    immutable value and the last store into the memo wins — a benign
    race, as in the parts of a ``StructuralIndex``; no lock is taken.
    """

    def __init__(self, document: "Document", uri: str,
                 serialized_bytes: int | None = None):
        starts, ends = subtree_spans(document)
        chars = ends[0] - starts[0]
        if serialized_bytes is None:
            serialized_bytes = chars
        self.document = document
        # Spans are character offsets: scaled to the UTF-8 total, subtree
        # byte figures stay consistent and sum to the true wire size.
        self._scale = serialized_bytes / chars if chars > 0 else 1.0
        self._setup(uri, serialized_bytes, len(document))

    def _setup(self, uri: str, serialized_bytes: int, nodes: int) -> None:
        self.uri = uri
        self.serialized_bytes = serialized_bytes
        self.nodes = nodes
        self._tags: dict[str, TagStat | None] = {}

    def tag(self, name: str) -> TagStat | None:
        try:
            return self._tags[name]
        except KeyError:
            stat = self._tags[name] = self._tag(name)
            return stat

    @cached_property
    def elements(self) -> int:
        return self.document.kinds.count(KIND_ELEMENT)

    @property
    def avg_element_bytes(self) -> float:
        return self.serialized_bytes / self.elements if self.elements else 0.0

    def keys_built(self) -> list[str]:
        """The tag keys answered so far (forces nothing)."""
        return sorted(key for key, answer in list(self._tags.items())
                      if answer is not None)

    # -- one document: read off its indexes and serialiser spans ------------

    def _tag(self, name: str) -> TagStat | None:
        document = self.document
        if name.startswith("@"):
            pres = value_index(document).attribute_pres(name[1:])
        elif name == "#text":
            pres = structural_index(document).text_pres
        else:
            # Element subtree figures are exact: the spans the memoized
            # serialisation recorded — no second length model.
            pres = structural_index(document).tag_pres.get(name, ())
            starts, ends = subtree_spans(document)
            return self._bucket(len(pres),
                                sum(map(ends.__getitem__, pres))
                                - sum(map(starts.__getitem__, pres)))
        return self._bucket(
            len(pres), sum(map(len, map(document.values.__getitem__, pres))))

    def _bucket(self, count: int, total: int) -> TagStat | None:
        return TagStat(count, int(total * self._scale)) if count else None


class _CollectionStats(DocumentStats):
    """One logical view of a sharded collection: every key asks each
    shard's view and merges the answers in shard order."""

    def __init__(self, parts: list[DocumentStats], uri: str):
        self.parts = parts
        self._setup(uri, sum(part.serialized_bytes for part in parts),
                    sum(part.nodes for part in parts))

    def _tag(self, name: str) -> TagStat | None:
        return _merged(part.tag(name) for part in self.parts)

    @cached_property
    def elements(self) -> int:
        return sum(part.elements for part in self.parts)


def compute_document_stats(document: "Document", uri: str,
                           serialized_bytes: int | None = None
                           ) -> DocumentStats:
    """The view over ``document`` (serialising it now if nothing has:
    a canonical stored text already is its serialisation)."""
    return DocumentStats(document, uri, serialized_bytes)


def merge_document_stats(parts: list[DocumentStats],
                         uri: str) -> DocumentStats:
    """The collection view over its shard fragments' views."""
    return _CollectionStats(parts, uri)


class StatsCatalog:
    """The statistics views of one federation's documents, built on
    first lookup. Thread-safe; shared by the federation's planner
    across all concurrent queries."""

    def __init__(self, federation: "Federation"):
        self.federation = federation
        self._lock = threading.Lock()
        #: ``(host, name)`` of a collection → its merged view, the
        #: catalog spec it was merged under and what :meth:`_sources`
        #: read before merging.
        self._views: dict[tuple[str, str],
                          tuple[DocumentStats, object, tuple]] = {}

    # -- lookups ------------------------------------------------------------

    def document_stats(self, host: str,
                       local_name: str) -> DocumentStats | None:
        """The view for ``host/local_name``; None when the document (or
        the host) does not exist. ``host`` may be a cluster collection
        virtual name, in which case the view merges its shards'."""
        spec = self.federation.collection(host)
        if spec is None:
            return self._peer_view(host, local_name)
        key = (host, local_name)
        sources = self._sources(spec)
        with self._lock:
            cached = self._views.get(key)
        if cached is not None and cached[1] is spec \
                and _same(cached[2], sources):
            return cached[0]
        view = self._collection_view(spec, local_name)
        if view is not None:
            with self._lock:
                self._views[key] = (view, spec, sources)
        return view

    def _peer_view(self, host: str, local_name: str) -> DocumentStats | None:
        peer = self.federation.peers.get(host)
        document = None if peer is None else peer.documents.get(local_name)
        if document is None:
            return None
        view = document.stats_view
        if view is not None:
            return view
        # Serialising (memoized on the document, with its UTF-8 length;
        # adopted at the store for a canonical text) records the
        # per-node spans the view's byte figures read.
        peer.serialized(local_name)
        view = compute_document_stats(
            document, f"xrpc://{host}/{local_name}",
            serialized_byte_length(document))
        with self._lock:
            if document.stats_view is None:
                document.stats_view = view
            return document.stats_view    # a racing build's, if first

    def _sources(self, spec) -> tuple:
        """The document every shard replica of ``spec`` stores now (None
        where it stores none), in shard and replica order."""
        peers = self.federation.peers
        return tuple(
            None if (peer := peers.get(replica)) is None
            else peer.documents.get(shard.local_name)
            for shard in spec.shards for replica in shard.replicas)

    def _collection_view(self, spec, local_name: str
                         ) -> DocumentStats | None:
        if local_name != spec.document:
            return None
        parts: list[DocumentStats] = []
        for shard in spec.shards:
            part = None
            for replica in shard.replicas:
                part = self.document_stats(replica, shard.local_name)
                if part is not None:
                    break
            if part is None:
                return None
            parts.append(part)
        return merge_document_stats(
            parts, uri=f"xrpc://{spec.name}/{local_name}")

    # -- introspection ------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """What has been built for the stored documents and the current
        collections; forces no view and no key."""
        views = {f"{host}/{name}": document.stats_view
                 for host, peer in list(self.federation.peers.items())
                 for name, document in list(peer.documents.items())
                 if document.stats_view is not None}
        with self._lock:
            collections = list(self._views.items())
        for (host, name), (view, spec, sources) in collections:
            if self.federation.collection(host) is spec \
                    and _same(sources, self._sources(spec)):
                views[f"{host}/{name}"] = view
        documents, built = {}, 0
        for name, view in sorted(views.items()):
            tag_keys = view.keys_built()
            built += len(tag_keys)
            documents[name] = {
                "serialized_bytes": view.serialized_bytes,
                "nodes": view.nodes, "tag_keys": tag_keys}
        return {"documents": documents, "keys_built": built}


def _same(documents: tuple, others: tuple) -> bool:
    """Whether two :meth:`StatsCatalog._sources` readings of one spec
    hold the very same documents."""
    return all(map(operator.is_, documents, others))
