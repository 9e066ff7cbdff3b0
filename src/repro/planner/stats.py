"""Per-peer document statistics feeding the cost-based planner.

A :class:`DocumentStats` is a *view* over what a stored document
already carries, answered per key and only when a plan reads the key:

* a tag bucket (:class:`TagStat`: instances of an element name and the
  serialised bytes their subtrees cover) is the length of the name's
  pre list in the structural index and the sum of its spans in the
  memoized serialisation — the one source of byte figures; ``@name``
  buckets (value bytes) read the value index's attribute pres,
  ``#text`` the text pres. They price projections ("only
  ``person/@id`` comes back") and atomisations ("``data($x)`` keeps
  the text");
* a *value histogram* (:class:`ValueHistogram`, per leaf-element tag or
  ``@attr`` key) summarises that key's content: total and distinct
  value counts for string equality, an equi-width bucket histogram over
  the numeric-coercible values for range comparisons — the measured
  predicate selectivities (``age < 40`` prices at the observed ~0.42,
  not a guessed 0.5) — so the first plan after a store pays for the
  keys it prices, not for a pass over every node for every key.

The :class:`StatsCatalog` keeps one view per ``(host, name)`` and drops
it through the same ``Peer.on_store`` hook the runtime's result cache
uses; a *collection* host (cluster catalog virtual name) gets a view
that asks each shard fragment's view per key and merges. ``version()``
bumps on every store — it is part of the stamp a prepared query's
lowered candidates carry, so a re-stored document can never be planned
against stale statistics.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from math import isnan
from typing import TYPE_CHECKING

from repro.xmldb.index import structural_index
from repro.xmldb.node import NodeKind
from repro.xmldb.serializer import serialized_byte_length, subtree_spans
from repro.xmldb.values import coerce_number, value_index

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.system.federation import Federation
    from repro.xmldb.document import Document


@dataclass(frozen=True)
class TagStat:
    """One histogram bucket: instances of a tag and the serialised
    bytes their subtrees cover (for ``@attr`` buckets, the value
    bytes; for ``#text``, the character data bytes)."""

    count: int = 0
    subtree_bytes: int = 0

    @property
    def avg_bytes(self) -> float:
        return self.subtree_bytes / self.count if self.count else 0.0

    def merged(self, other: "TagStat") -> "TagStat":
        return TagStat(self.count + other.count,
                       self.subtree_bytes + other.subtree_bytes)


#: Equi-width bucket count of the numeric value histograms.
VALUE_BUCKETS = 8

#: Selectivity estimates never reach exactly 0 or 1: a histogram is a
#: sample of one document state, not a proof about future parameters.
MIN_SELECTIVITY = 0.001


@dataclass(frozen=True)
class ValueHistogram:
    """Content summary of one value key (leaf-element tag or
    ``@attr``): the predicate-selectivity side of the statistics.

    ``count``
        values observed for this key (one per node).
    ``distinct``
        distinct *string* values — the denominator of string-equality
        selectivity (``@id = $x`` keeps ~``|$x| / distinct`` of the
        candidates).
    ``numeric_count``
        how many of the values coerce to a double (NaN excluded); the
        share of nodes a numeric range comparison can select at all.
    ``numeric_min`` / ``numeric_max``
        range of the coercible values (None when ``numeric_count`` is
        zero).
    ``buckets``
        :data:`VALUE_BUCKETS` equi-width counts over
        ``[numeric_min, numeric_max]``; range selectivity reads the
        cumulative fraction with linear interpolation inside the
        boundary bucket.
    """

    count: int
    distinct: int
    numeric_count: int = 0
    numeric_min: float | None = None
    numeric_max: float | None = None
    buckets: tuple[int, ...] = ()

    def selectivity(self, op: str, value: object) -> float | None:
        """Estimated fraction of this key's nodes whose value satisfies
        ``node-value op value``; None when the histogram has nothing to
        say (range comparison against a string — collation order is
        not summarised)."""
        if self.count <= 0:
            return None
        if op == "=":
            eq = 1.0 / max(self.distinct, 1)
            if isinstance(value, (int, float)) and not isinstance(value,
                                                                  bool):
                eq *= self.numeric_count / self.count
            return _clamp(eq)
        if op == "!=":
            inner = self.selectivity("=", value)
            return None if inner is None else _clamp(1.0 - inner)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None                      # string range: no ordering stats
        if self.numeric_count == 0 or self.numeric_min is None \
                or self.numeric_max is None:
            return _clamp(0.0)
        probe = float(value)
        if isnan(probe):
            return _clamp(0.0)
        if op == "<":
            matching = self._cumulative_below(probe, inclusive=False)
        elif op == "<=":
            matching = self._cumulative_below(probe, inclusive=True)
        elif op == ">":
            matching = self.numeric_count - self._cumulative_below(
                probe, inclusive=True)
        else:  # ">="
            matching = self.numeric_count - self._cumulative_below(
                probe, inclusive=False)
        return _clamp(matching / self.count)

    def _cumulative_below(self, value: float, inclusive: bool) -> float:
        """Estimated number of numeric values ``<`` (or ``<=``)
        ``value``, by bucket interpolation."""
        low, high = self.numeric_min, self.numeric_max
        assert low is not None and high is not None
        if value < low or (value == low and not inclusive):
            return 0.0
        if value > high or (value == high and inclusive):
            return float(self.numeric_count)
        if high == low:
            # Single-point distribution; value == low here.
            return float(self.numeric_count) if inclusive else 0.0
        width = (high - low) / len(self.buckets)
        position = (value - low) / width
        full = int(position)
        total = float(sum(self.buckets[:full]))
        if full < len(self.buckets):
            total += self.buckets[full] * (position - full)
        return total

    def merged(self, other: "ValueHistogram") -> "ValueHistogram":
        """Aggregate two shard histograms: counts add, distincts add
        (capped by count — disjoint for partitioned keys like ids,
        an overestimate for low-cardinality keys), numeric buckets are
        re-binned into the combined range assuming uniformity inside
        each source bucket."""
        count = self.count + other.count
        distinct = min(self.distinct + other.distinct, count)
        mins = [m for m in (self.numeric_min, other.numeric_min)
                if m is not None]
        maxs = [m for m in (self.numeric_max, other.numeric_max)
                if m is not None]
        if not mins:
            return ValueHistogram(count=count, distinct=distinct)
        low, high = min(mins), max(maxs)
        buckets = [0.0] * VALUE_BUCKETS
        for part in (self, other):
            _rebin(part, low, high, buckets)
        return ValueHistogram(
            count=count, distinct=distinct,
            numeric_count=self.numeric_count + other.numeric_count,
            numeric_min=low, numeric_max=high,
            buckets=tuple(int(round(b)) for b in buckets))


def _clamp(fraction: float) -> float:
    return min(1.0 - MIN_SELECTIVITY,
               max(MIN_SELECTIVITY, fraction))


def _rebin(part: "ValueHistogram", low: float, high: float,
           target: list[float]) -> None:
    if part.numeric_count == 0 or part.numeric_min is None \
            or part.numeric_max is None or not part.buckets:
        return
    span = high - low
    if span <= 0.0:
        target[0] += part.numeric_count
        return
    src_width = (part.numeric_max - part.numeric_min) / len(part.buckets)
    bucket_count = len(target)
    for index, count in enumerate(part.buckets):
        if count == 0:
            continue
        start = part.numeric_min + index * src_width
        end = start + (src_width if src_width > 0 else 0.0)
        if end <= start:
            slot = min(int((start - low) / span * bucket_count),
                       bucket_count - 1)
            target[slot] += count
            continue
        # Spread the bucket uniformly over the slots it overlaps.
        first = max(0, min(int((start - low) / span * bucket_count),
                           bucket_count - 1))
        last = max(0, min(int((end - low) / span * bucket_count),
                          bucket_count - 1))
        share = count / (last - first + 1)
        for slot in range(first, last + 1):
            target[slot] += share


def _histogram(values: list[str]) -> ValueHistogram | None:
    """The content summary of one key's values; None for no values."""
    if not values:
        return None
    numbers = [number for value in values
               if not isnan(number := coerce_number(value))]
    if not numbers:
        return ValueHistogram(count=len(values), distinct=len(set(values)))
    low, high = min(numbers), max(numbers)
    buckets = [0] * VALUE_BUCKETS
    span = high - low
    for number in numbers:
        slot = 0 if span <= 0.0 else min(
            int((number - low) / span * VALUE_BUCKETS), VALUE_BUCKETS - 1)
        buckets[slot] += 1
    return ValueHistogram(
        count=len(values), distinct=len(set(values)),
        numeric_count=len(numbers), numeric_min=low,
        numeric_max=high, buckets=tuple(buckets))


def _leaf_text(document: "Document", pre: int) -> str | None:
    """The string value of a *leaf* element (the typed fields statistics
    care about); None for a container, which would smear the histograms."""
    kinds, values = document.kinds, document.values
    parts = []
    for cursor in range(pre + 1, pre + document.sizes[pre] + 1):
        kind = kinds[cursor]
        if kind == NodeKind.ELEMENT:
            return None
        if kind == NodeKind.TEXT:
            parts.append(values[cursor])
    return "".join(parts)


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
    name / ``@name`` / ``#text`` bucket) and :meth:`value_histogram` (a
    leaf-element tag or ``@attr`` key) — None when no node carries the
    key — and ``elements``. Fixed at construction: ``serialized_bytes`` (the text's exact UTF-8 length
    when the caller has it, its character count if not) and ``nodes``
    (all stored nodes, attributes included).

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
        self._values: dict[str, ValueHistogram | None] = {}

    def tag(self, name: str) -> TagStat | None:
        try:
            return self._tags[name]
        except KeyError:
            stat = self._tags[name] = self._tag(name)
            return stat

    def value_histogram(self, key: str) -> ValueHistogram | None:
        try:
            return self._values[key]
        except KeyError:
            histogram = self._values[key] = self._value_histogram(key)
            return histogram

    @cached_property
    def elements(self) -> int:
        return len(structural_index(self.document).element_pres)

    @property
    def avg_element_bytes(self) -> float:
        return self.serialized_bytes / self.elements if self.elements else 0.0

    def keys_built(self) -> tuple[list[str], list[str]]:
        """The tag and value keys answered so far (forces nothing)."""
        return tuple(sorted(key for key, answer in list(memo.items())
                            if answer is not None)
                     for memo in (self._tags, self._values))

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

    def _value_histogram(self, key: str) -> ValueHistogram | None:
        document = self.document
        if key.startswith("@"):
            return _histogram(list(map(
                document.values.__getitem__,
                value_index(document).attribute_pres(key[1:]))))
        return _histogram(
            [text for pre in structural_index(document).tag_pres.get(key, ())
             if (text := _leaf_text(document, pre)) is not None])


class _CollectionStats(DocumentStats):
    """One logical view of a sharded collection: every key asks each
    shard's view and merges the answers in shard order."""

    def __init__(self, parts: list[DocumentStats], uri: str):
        self.parts = parts
        self._setup(uri, sum(part.serialized_bytes for part in parts),
                    sum(part.nodes for part in parts))

    def _tag(self, name: str) -> TagStat | None:
        return _merged(part.tag(name) for part in self.parts)

    def _value_histogram(self, key: str) -> ValueHistogram | None:
        return _merged(part.value_histogram(key) for part in self.parts)

    @cached_property
    def elements(self) -> int:
        return sum(part.elements for part in self.parts)


def compute_document_stats(document: "Document", uri: str,
                           serialized_bytes: int | None = None
                           ) -> DocumentStats:
    """The view over ``document`` (serialising it now if nothing has)."""
    return DocumentStats(document, uri, serialized_bytes)


def merge_document_stats(parts: list[DocumentStats],
                         uri: str) -> DocumentStats:
    """The collection view over its shard fragments' views."""
    return _CollectionStats(parts, uri)


class StatsCatalog:
    """The federation's statistics views, built on first lookup and
    dropped by the store that outdates them.

    Thread-safe; shared by one federation's planner across all
    concurrent queries. ``version()`` stamps every lowered plan.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``(host, name)`` → the view and, for a collection host, the
        #: catalog spec it was merged under (None for a peer).
        self._views: dict[tuple[str, str], tuple[DocumentStats, object]] = {}
        self._version = 0
        self._federation: "Federation | None" = None
        self._attached: set[str] = set()

    # -- lifecycle ----------------------------------------------------------

    def attach(self, federation: "Federation") -> None:
        """Register invalidation listeners on every peer (idempotent;
        call again after adding peers, as the planner does)."""
        self._federation = federation
        for name, peer in list(federation.peers.items()):
            with self._lock:
                if name in self._attached:
                    continue
                self._attached.add(name)
            peer.on_store(self._invalidate)

    def version(self) -> int:
        """Bumped by every invalidation (a stored document, anywhere)."""
        with self._lock:
            return self._version

    def _invalidate(self, peer_name: str, local_name: str) -> None:
        """Drop the stored document's view and the collection views
        that hold it as a shard replica — nothing else."""
        with self._lock:
            self._views.pop((peer_name, local_name), None)
            for key, (_view, spec) in list(self._views.items()):
                if spec is not None and any(
                        shard.local_name == local_name
                        and peer_name in shard.replicas
                        for shard in spec.shards):
                    del self._views[key]
            self._version += 1

    # -- lookups ------------------------------------------------------------

    def document_stats(self, host: str,
                       local_name: str) -> DocumentStats | None:
        """The view for ``host/local_name``; None when the document (or
        the host) does not exist. ``host`` may be a cluster collection
        virtual name, in which case the view merges its shards'."""
        federation = self._federation
        if federation is None:
            return None
        key = (host, local_name)
        spec = federation.collection(host)
        with self._lock:
            cached = self._views.get(key)
            version = self._version
        if cached is not None and cached[1] is spec:
            return cached[0]
        view = (self._peer_view(federation, host, local_name) if spec is None
                else self._collection_view(spec, local_name))
        if view is None:
            return None
        with self._lock:
            if self._version != version:
                return view              # a store raced the build: not kept
            current = self._views.get(key)
            if current is None or current[1] is not spec:
                self._views[key] = current = (view, spec)
            return current[0]            # a racing build's, if it was first

    def _peer_view(self, federation: "Federation", host: str,
                   local_name: str) -> DocumentStats | None:
        peer = federation.peers.get(host)
        document = None if peer is None else peer.documents.get(local_name)
        if document is None:
            return None
        # Serialising (memoized on the document, with its UTF-8 length)
        # records the per-node spans the view's byte figures read.
        peer.serialized(local_name)
        return compute_document_stats(
            document, f"xrpc://{host}/{local_name}",
            serialized_byte_length(document))

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
        """What has been built so far; forces no view and no key."""
        with self._lock:
            version = self._version
            views = sorted(self._views.items())
        documents, built = {}, 0
        for (host, name), (view, _spec) in views:
            tag_keys, value_keys = view.keys_built()
            built += len(tag_keys) + len(value_keys)
            documents[f"{host}/{name}"] = {
                "serialized_bytes": view.serialized_bytes,
                "nodes": view.nodes,
                "tag_keys": tag_keys, "value_keys": value_keys}
        return {"version": version, "documents": documents,
                "keys_built": built}
