"""A projection-aware result/fragment cache shared across queries.

Two kinds of entries, both bounded by LRU:

* **response entries** — one XRPC response as decoded, with the byte
  length it had on the wire, keyed by ``(dest peer, request digest,
  projection-path signature)``. The digest covers the exact request
  text (shipped query body, static context, marshalled parameter
  fragments), so a hit is only possible for a byte-identical request;
  the projection signature is kept explicit in the key so
  by-projection responses for different used/returned path sets never
  alias. A hit decodes nothing: the consuming query takes
  :meth:`~repro.xrpc.messages.ResponseMessage.fresh` of the stored
  message, new documents over the shared (never mutated) columns — so
  node identity stays private per query, and the stored documents
  never reach a query.
* **document entries** — shipped-and-shredded documents, keyed by
  ``(requester, owner, document)``. A hit skips the serialise /
  network / shred charges of data shipping entirely.

Invalidation is by version, as an HTTP validator's: each call carries
the store generation its caller read before computing — the
federation's for a response (one from peer B may depend on documents
shipped from peer A by a nested ``execute at``), the owner's for a
document (a collection's is the federation's). The first call under a
newer generation drops every entry of its scope; a store under an
older one is discarded.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.xmldb.document import Document

#: Key of one response entry:
#: (dest scope, semantics, request digest, projection sig, shard epoch).
ResponseKey = tuple[str, str, str, tuple[str, ...], int]

#: The LRU bounds: response entries, document entries.
MAX_RESPONSES = 256
MAX_DOCUMENTS = 32

#: The generation scope of every response entry (a document entry's is
#: its owner's name).
RESPONSES = ""


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
    """LRU response/document cache, safe for concurrent queries.

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
        #: Generation scope (:data:`RESPONSES` or an owner) -> the
        #: newest generation a call under it has carried.
        self._generations: dict[str, int] = {}
        #: ResponseKey -> (stored response, its wire byte length)
        self._responses: OrderedDict[ResponseKey,
                                     tuple[object, int]] = OrderedDict()
        #: (requester, owner, local_name) -> (Document, serialized bytes)
        self._documents: OrderedDict[tuple[str, str, str],
                                     tuple["Document", int]] = OrderedDict()

    def _sweep(self, scope: str, generation: int) -> int:
        """Note ``generation`` for ``scope`` and drop the entries a newer
        one outdates (call with the lock held); how many it dropped."""
        if generation <= self._generations.get(scope, 0):
            return 0
        self._generations[scope] = generation
        if scope == RESPONSES:
            dropped = len(self._responses)
            self._responses.clear()
        else:
            doomed = [key for key in self._documents if key[1] == scope]
            for key in doomed:
                del self._documents[key]
            dropped = len(doomed)
        self._invalidations.inc(dropped)
        return dropped

    def _report(self, scope: str, generation: int, dropped: int) -> None:
        """One event per sweep that dropped entries. Called outside the
        lock: the event sink locks internally and must never nest
        inside cache-internal critical sections."""
        if dropped and self.events is not None:
            self.events.emit(
                "cache_invalidation",
                f"store generation {generation} dropped {dropped} "
                f"{scope or 'response'} cache entries",
                severity="info", scope=scope or "responses",
                generation=generation, dropped=dropped)

    def _lookup(self, table: OrderedDict, scope: str, key, generation: int,
                request_bytes: int = 0) -> tuple | None:
        with self._lock:
            dropped = self._sweep(scope, generation)
            entry = table.get(key)
            if entry is None:
                self._misses.inc()
            else:
                table.move_to_end(key)
                self._hits.inc()
                self._saved_bytes.inc(request_bytes + entry[1])
        self._report(scope, generation, dropped)
        return entry

    def _store(self, table: OrderedDict, bound: int, scope: str, key,
               entry: tuple, generation: int) -> None:
        with self._lock:
            dropped = self._sweep(scope, generation)
            # Computed under ``generation``: kept unless a newer store
            # has been seen since.
            if generation == self._generations.get(scope, 0):
                table[key] = entry
                table.move_to_end(key)
                while len(table) > bound:
                    table.popitem(last=False)
                    self._evictions.inc()
        self._report(scope, generation, dropped)

    # -- responses ----------------------------------------------------------

    def lookup_response(self, key: ResponseKey, request_bytes: int = 0,
                        generation: int = 0) -> object | None:
        """The stored response, or None. ``request_bytes`` sizes the
        request that a hit keeps off the wire (for ``saved_bytes``);
        ``generation`` is the federation's, read before the lookup."""
        entry = self._lookup(self._responses, RESPONSES, key, generation,
                             request_bytes)
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
        self._store(self._responses, MAX_RESPONSES, RESPONSES, key,
                    (response, response_bytes), generation)

    # -- shipped documents --------------------------------------------------

    def lookup_document(self, requester: str, owner: str, local_name: str,
                        generation: int = 0
                        ) -> tuple["Document", int] | None:
        """The shipped document and its size, or None; ``generation``
        is the owner's, read before the lookup."""
        return self._lookup(self._documents, owner,
                            (requester, owner, local_name), generation)

    def store_document(self, requester: str, owner: str, local_name: str,
                       document: "Document", size: int,
                       generation: int = 0) -> None:
        """Keep a shipped document unless a store on its owner newer
        than ``generation`` has been seen."""
        self._store(self._documents, MAX_DOCUMENTS, owner,
                    (requester, owner, local_name), (document, size),
                    generation)

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
            return len(self._responses) + len(self._documents)

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "responses": len(self._responses),
                "documents": len(self._documents),
                **self.stats.as_dict(),
            }
