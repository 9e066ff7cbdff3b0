"""A projection-aware cache of XRPC responses shared across queries.

One entry is one XRPC response as decoded, with the byte length it had
on the wire, keyed by ``(dest peer, request digest, projection-path
signature)`` and bounded by LRU. The digest covers the exact request
text (shipped query body, static context, marshalled parameter
fragments), so a hit is only possible for a byte-identical request;
the projection signature is kept explicit in the key so by-projection
responses for different used/returned path sets never alias. A hit
decodes nothing: the consuming query takes
:meth:`~repro.xrpc.messages.ResponseMessage.fresh` of the stored
message, new documents over the shared (never mutated) columns — so
node identity stays private per query, and the stored documents never
reach a query.

Shipped documents are not cached: data shipping fetches and shreds
every remote document each query reads, as the paper's baseline counts
it (one ship per document per run).

Invalidation is by version, as an HTTP validator's: each call carries
the federation's store generation, read before computing (a response
from peer B may depend on documents shipped from peer A by a nested
``execute at``). The first call under a newer generation drops every
entry; a store under an older one is discarded.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry

#: Key of one response entry:
#: (dest scope, semantics, request digest, projection sig, shard epoch).
ResponseKey = tuple[str, str, str, tuple[str, ...], int]

#: The LRU bound on response entries.
MAX_RESPONSES = 256


def response_key(dest: str, semantics: str, request_xml: str,
                 used_paths: list[str] | None,
                 returned_paths: list[str] | None,
                 shard_epoch: int | None = None) -> ResponseKey:
    """Cache key for one round trip's response.

    ``semantics`` must be part of the key: the request XML carries no
    semantics marker (the handler receives it out-of-band), so by-value
    and by-fragment runs of the same query produce byte-identical
    requests whose responses use different wire formats.

    For cluster scatter calls ``dest`` is the collection, not the
    replica that served it (the request names the shards its calls
    read, and replicas hold identical fragments, so any replica's
    response for the same shards serves all) and
    ``shard_epoch`` is the catalog membership epoch, so entries from
    before a repartition can never be served after it. Plain
    peer-to-peer calls use ``-1``.
    """
    digest = hashlib.sha256(request_xml.encode()).hexdigest()
    signature = tuple(
        [f"u:{p}" for p in used_paths or []]
        + [f"r:{p}" for p in returned_paths or []])
    return (dest, semantics, digest, signature,
            -1 if shard_epoch is None else shard_epoch)


@dataclass
class CacheStats:
    """Hit/miss accounting; ``saved_bytes`` is wire traffic avoided."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    saved_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "saved_bytes": self.saved_bytes,
        }


class ResultCache:
    """LRU response cache, safe for concurrent queries.

    Accounting lives as ``cache_*`` counters in a
    :class:`~repro.obs.metrics.MetricsRegistry` (pass the federation's
    to fold cache truth into its uniform snapshot; a private registry
    is created otherwise). :attr:`stats` stays as the point-in-time
    :class:`CacheStats` view existing callers read.
    """

    def __init__(self, metrics: MetricsRegistry | None = None,
                 events=None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: A :class:`~repro.obs.events.EventLog`; invalidation sweeps
        #: emit into it when set (the engine wires the federation
        #: monitor's log through here).
        self.events = events
        self._hits = self.metrics.counter(
            "cache_hits_total", "result-cache lookups served")
        self._misses = self.metrics.counter(
            "cache_misses_total", "result-cache lookups missed")
        self._evictions = self.metrics.counter(
            "cache_evictions_total", "entries dropped by LRU bounds")
        self._invalidations = self.metrics.counter(
            "cache_invalidations_total",
            "entries dropped by a newer store generation")
        self._saved_bytes = self.metrics.counter(
            "cache_saved_bytes_total", "wire bytes avoided by hits")
        self._lock = threading.Lock()
        #: The newest federation generation a call has carried.
        self._generation = 0
        #: ResponseKey -> (stored response, its wire byte length)
        self._responses: OrderedDict[ResponseKey,
                                     tuple[object, int]] = OrderedDict()

    def _sweep(self, generation: int) -> int:
        """Note ``generation`` and drop the entries a newer one outdates
        (call with the lock held); how many it dropped."""
        if generation <= self._generation:
            return 0
        self._generation = generation
        dropped = len(self._responses)
        self._responses.clear()
        self._invalidations.inc(dropped)
        return dropped

    def _report(self, generation: int, dropped: int) -> None:
        """One event per sweep that dropped entries. Called outside the
        lock: the event sink locks internally and must never nest
        inside cache-internal critical sections."""
        if dropped and self.events is not None:
            self.events.emit(
                "cache_invalidation",
                f"store generation {generation} dropped {dropped} "
                "response cache entries",
                severity="info", scope="responses",
                generation=generation, dropped=dropped)

    def lookup_response(self, key: ResponseKey, request_bytes: int = 0,
                        generation: int = 0) -> object | None:
        """The stored response, or None. ``request_bytes`` sizes the
        request that a hit keeps off the wire (for ``saved_bytes``);
        ``generation`` is the federation's, read before the lookup."""
        with self._lock:
            dropped = self._sweep(generation)
            entry = self._responses.get(key)
            if entry is None:
                self._misses.inc()
            else:
                self._responses.move_to_end(key)
                self._hits.inc()
                self._saved_bytes.inc(request_bytes + entry[1])
        self._report(generation, dropped)
        return None if entry is None else entry[0]

    def store_response(self, key: ResponseKey, response: object,
                       response_bytes: int | None = None,
                       generation: int = 0) -> None:
        """Keep ``response``, handed back as is by a hit, and the wire
        bytes a hit saves (by default those of ``response`` as text),
        unless a store newer than ``generation`` — the federation's,
        read before computing it — has been seen. The federation stores
        the decoded message with its byte length, so hits never
        re-encode."""
        if response_bytes is None:
            response_bytes = len(response.encode())
        with self._lock:
            dropped = self._sweep(generation)
            # Computed under ``generation``: kept unless a newer store
            # has been seen since.
            if generation == self._generation:
                self._responses[key] = (response, response_bytes)
                self._responses.move_to_end(key)
                while len(self._responses) > MAX_RESPONSES:
                    self._responses.popitem(last=False)
                    self._evictions.inc()
        self._report(generation, dropped)

    # -- introspection ------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """A point-in-time :class:`CacheStats` view of the ``cache_*``
        registry counters (the historical read path)."""
        return CacheStats(hits=self._hits.value,
                          misses=self._misses.value,
                          evictions=self._evictions.value,
                          invalidations=self._invalidations.value,
                          saved_bytes=self._saved_bytes.value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._responses)

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "responses": len(self._responses),
                **self.stats.as_dict(),
            }
