"""Per-peer document statistics feeding the cost-based planner.

A :class:`DocumentStats` summarises one stored document: its exact
serialised size, node counts, and a per-tag histogram carrying, for
every element name, how many instances exist and how many serialised
bytes their subtrees cover. Attribute values are tracked under
``@name`` keys and text nodes under ``#text``, so the estimator can
price projections ("only ``person/@id`` comes back") and atomisations
("``data($x)`` keeps the text") without touching the documents again.

Alongside the byte histograms, a document's *value histograms*
(:class:`ValueHistogram`, one per leaf-element tag and ``@attr`` key)
summarise the actual content: total and distinct value counts for
string equality, and an equi-width bucket histogram over the
numeric-coercible values for range comparisons — the numbers behind
the estimator's measured predicate selectivities (``age < 40`` prices
at the observed ~0.42, not a guessed 0.5). They are computed only when
a query needs them (``with_values=True``): a lowering that compares
values asks for them and thereby builds them, one that does not never
reads them — no plan is ever priced "before histograms existed".

The :class:`StatsCatalog` computes stats lazily per ``(host, name)``
and invalidates them through the same ``Peer.on_store`` hook the
runtime's result cache uses; a *collection* host (cluster catalog
virtual name) aggregates its shard fragments' stats. ``version()``
bumps on every invalidation — it is part of the stamp a prepared
query's lowered candidates carry, so a re-stored document can never be
planned against stale statistics.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import isnan
from typing import TYPE_CHECKING, Mapping

from repro.xmldb.node import NodeKind
from repro.xmldb.serializer import serialized_byte_length, subtree_spans
from repro.xmldb.values import coerce_number, iter_leaf_values

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


def build_value_histograms(document: "Document"
                           ) -> dict[str, ValueHistogram]:
    """One pass over the document's attributes and leaf elements (see
    :func:`repro.xmldb.values.iter_leaf_values`), producing the
    per-key :class:`ValueHistogram` table."""
    raw: dict[str, list[str]] = {}
    for key, value in iter_leaf_values(document):
        raw.setdefault(key, []).append(value)
    out: dict[str, ValueHistogram] = {}
    for key, values in raw.items():
        numbers = [number for value in values
                   if not isnan(number := coerce_number(value))]
        if numbers:
            low, high = min(numbers), max(numbers)
            buckets = [0] * VALUE_BUCKETS
            span = high - low
            for number in numbers:
                if span <= 0.0:
                    buckets[0] += 1
                else:
                    slot = min(int((number - low) / span * VALUE_BUCKETS),
                               VALUE_BUCKETS - 1)
                    buckets[slot] += 1
            out[key] = ValueHistogram(
                count=len(values), distinct=len(set(values)),
                numeric_count=len(numbers), numeric_min=low,
                numeric_max=high, buckets=tuple(buckets))
        else:
            out[key] = ValueHistogram(count=len(values),
                                      distinct=len(set(values)))
    return out


@dataclass(frozen=True)
class DocumentStats:
    """Summary of one document (or an aggregated sharded collection).

    ``values`` is the per-key value-histogram table (see
    :class:`ValueHistogram`) when the stats were computed
    ``with_values``; None means value statistics were never requested
    for this document — the estimator then prices predicates with the
    calibrated default selectivity.
    """

    uri: str
    serialized_bytes: int        # exact length of the serialised text
    nodes: int                   # all stored nodes (incl. attributes)
    elements: int                # element nodes only
    tags: Mapping[str, TagStat]  # name / "@name" / "#text" buckets
    values: Mapping[str, ValueHistogram] | None = None
    #: Exact physical bytes of the document's typed columns (the spill
    #: format's sizes — see ``ColumnSet.column_byte_sizes``); sums over
    #: shards for a collection view.
    column_bytes: int = 0

    def tag(self, name: str) -> TagStat | None:
        return self.tags.get(name)

    def value_histogram(self, key: str) -> ValueHistogram | None:
        """The value histogram for ``key`` (tag or ``@attr``), when
        value statistics were computed."""
        return None if self.values is None else self.values.get(key)

    @property
    def avg_element_bytes(self) -> float:
        return (self.serialized_bytes / self.elements
                if self.elements else 0.0)


def compute_document_stats(document: "Document", uri: str,
                           serialized_bytes: int | None = None,
                           with_values: bool = False) -> DocumentStats:
    """One O(nodes) pass over the kind/name/value columns (two with
    ``with_values`` — the second builds the value-histogram table).

    Element subtree byte figures are *exact*: read off the spans the
    document's memoized serialisation recorded (see
    :func:`repro.xmldb.serializer.subtree_spans`; the catalog path has
    serialised the document already, for the exact total). Spans are
    character offsets, so they are scaled to the UTF-8 total when the
    caller provides it — subtree byte figures stay mutually consistent
    and sum to the true wire size.
    """
    kinds = document.kinds
    names = document.names
    values = document.values
    count = len(kinds)

    starts, ends = subtree_spans(document)
    total_chars = ends[0] - starts[0]
    elements = sum(1 for kind in kinds if kind == NodeKind.ELEMENT)
    scale = 1.0
    if serialized_bytes is not None and total_chars > 0:
        scale = serialized_bytes / total_chars

    counts: dict[str, int] = {}
    byte_totals: dict[str, int] = {}
    for pre in range(count):
        kind = kinds[pre]
        if kind == NodeKind.ELEMENT:
            key = names[pre]
            subtree = ends[pre] - starts[pre]
        elif kind == NodeKind.ATTRIBUTE:
            key = "@" + names[pre]
            subtree = len(values[pre])
        elif kind == NodeKind.TEXT:
            key = "#text"
            subtree = len(values[pre])
        else:
            continue
        counts[key] = counts.get(key, 0) + 1
        byte_totals[key] = byte_totals.get(key, 0) + subtree

    tags = {
        key: TagStat(counts[key], int(byte_totals[key] * scale))
        for key in counts
    }
    total = (serialized_bytes if serialized_bytes is not None
             else total_chars)
    values = build_value_histograms(document) if with_values else None
    return DocumentStats(uri=uri, serialized_bytes=total, nodes=count,
                         elements=elements, tags=tags, values=values,
                         column_bytes=document.column_bytes())


def merge_document_stats(parts: list[DocumentStats],
                         uri: str) -> DocumentStats:
    """Aggregate shard-fragment stats into one logical collection view
    (value histograms merge too, when every part carries them)."""
    tags: dict[str, TagStat] = {}
    for part in parts:
        for name, stat in part.tags.items():
            existing = tags.get(name)
            tags[name] = stat if existing is None else existing.merged(stat)
    values: dict[str, ValueHistogram] | None = None
    if parts and all(part.values is not None for part in parts):
        values = {}
        for part in parts:
            assert part.values is not None
            for key, histogram in part.values.items():
                existing_hist = values.get(key)
                values[key] = (histogram if existing_hist is None
                               else existing_hist.merged(histogram))
    return DocumentStats(
        uri=uri,
        serialized_bytes=sum(p.serialized_bytes for p in parts),
        nodes=sum(p.nodes for p in parts),
        elements=sum(p.elements for p in parts),
        tags=tags,
        values=values,
        column_bytes=sum(p.column_bytes for p in parts),
    )


class StatsCatalog:
    """Lazily computed, store-invalidated document statistics.

    Thread-safe; shared by one federation's planner across all
    concurrent queries. ``version()`` stamps every lowered plan.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: dict[tuple[str, str], DocumentStats] = {}
        self._collection_keys: set[tuple[str, str]] = set()
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
        with self._lock:
            stale = [key for key in self._stats
                     if key[0] == peer_name or key in self._collection_keys]
            for key in stale:
                self._stats.pop(key, None)
                self._collection_keys.discard(key)
            self._version += 1

    # -- lookups ------------------------------------------------------------

    def document_stats(self, host: str, local_name: str,
                       with_values: bool = False) -> DocumentStats | None:
        """Stats for ``host/local_name``; None when the document (or
        the host) does not exist. ``host`` may be a cluster collection
        virtual name, in which case shard-fragment stats are merged.

        ``with_values`` additionally demands the value-histogram table;
        a cached value-less entry is upgraded in place rather than
        served as-is.
        """
        key = (host, local_name)
        with self._lock:
            cached = self._stats.get(key)
        if cached is not None and (not with_values
                                   or cached.values is not None):
            return cached
        federation = self._federation
        if federation is None:
            return None
        spec = federation.collection(host)
        if spec is not None:
            stats = self._collection_stats(federation, spec, local_name,
                                           with_values)
            is_collection = True
        else:
            stats = self._peer_stats(federation, host, local_name,
                                     with_values)
            is_collection = False
        if stats is None:
            return None
        with self._lock:
            previous = self._stats.get(key)
            if previous is not None and (not with_values
                                         or previous.values is not None):
                return previous          # racing compute finished first
            self._stats[key] = stats
            if is_collection:
                self._collection_keys.add(key)
            return stats

    def _peer_stats(self, federation: "Federation", host: str,
                    local_name: str,
                    with_values: bool = False) -> DocumentStats | None:
        peer = federation.peers.get(host)
        if peer is None:
            return None
        document = peer.documents.get(local_name)
        if document is None:
            return None
        # Serialising (memoized on the document) records the per-node
        # spans compute_document_stats reads: byte statistics come free
        # from the serializer cache instead of a second walk, and the
        # UTF-8 length is memoized alongside the text.
        peer.serialized(local_name)
        return compute_document_stats(
            document, uri=f"xrpc://{host}/{local_name}",
            serialized_bytes=serialized_byte_length(document),
            with_values=with_values)

    def _collection_stats(self, federation: "Federation", spec,
                          local_name: str,
                          with_values: bool = False) -> DocumentStats | None:
        if local_name != spec.document:
            return None
        parts: list[DocumentStats] = []
        for shard in spec.shards:
            part = None
            for replica in shard.replicas:
                part = self._peer_stats(federation, replica,
                                        shard.local_name, with_values)
                if part is not None:
                    break
            if part is None:
                return None
            parts.append(part)
        return merge_document_stats(
            parts, uri=f"xrpc://{spec.name}/{local_name}")

    # -- introspection ------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "version": self._version,
                "documents": {
                    f"{host}/{name}": {
                        "serialized_bytes": stats.serialized_bytes,
                        "column_bytes": stats.column_bytes,
                        "elements": stats.elements,
                        "nodes": stats.nodes,
                    }
                    for (host, name), stats in sorted(self._stats.items())
                },
            }
