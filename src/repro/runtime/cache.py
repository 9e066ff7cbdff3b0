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

Invalidation is conservative: :meth:`ResultCache.attach` hooks
``Peer.store``, and a store on *any* peer drops that peer's document
entries plus **all** response entries — a response from peer B may
transitively depend on documents shipped from peer A (nested ``execute
at``), so per-peer response invalidation would be unsound.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.system.federation import Federation, Peer
    from repro.xmldb.document import Document

#: Key of one response entry:
#: (dest scope, semantics, request digest, projection sig, shard epoch).
ResponseKey = tuple[str, str, str, tuple[str, ...], int]

#: The LRU bounds: response entries, document entries.
MAX_RESPONSES = 256
MAX_DOCUMENTS = 32


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
            "cache_invalidations_total", "entries dropped by store hooks")
        self._saved_bytes = self.metrics.counter(
            "cache_saved_bytes_total", "wire bytes avoided by hits")
        self._lock = threading.Lock()
        self._epoch = 0
        #: ResponseKey -> (stored response, its wire byte length)
        self._responses: OrderedDict[ResponseKey,
                                     tuple[object, int]] = OrderedDict()
        #: (requester, owner, local_name) -> (Document, serialized bytes)
        self._documents: OrderedDict[tuple[str, str, str],
                                     tuple["Document", int]] = OrderedDict()
        #: id(peer) -> (peer, registered listener), for detach().
        self._attached: dict[int, tuple["Peer", object]] = {}

    def epoch(self) -> int:
        """The invalidation epoch. Capture it *before* computing a value
        and pass it to ``store_*``: if an invalidation lands in between,
        the store is discarded rather than re-populating the cache with
        data derived from pre-invalidation documents."""
        with self._lock:
            return self._epoch

    # -- responses ----------------------------------------------------------

    def lookup_response(self, key: ResponseKey,
                        request_bytes: int = 0) -> object | None:
        """The stored response, or None. ``request_bytes`` sizes the
        request that a hit keeps off the wire (for ``saved_bytes``)."""
        with self._lock:
            entry = self._responses.get(key)
            if entry is None:
                self._misses.inc()
                return None
            self._responses.move_to_end(key)
            self._hits.inc()
            self._saved_bytes.inc(request_bytes + entry[1])
            return entry[0]

    def store_response(self, key: ResponseKey, response: object,
                       response_bytes: int | None = None,
                       epoch: int | None = None) -> None:
        """Keep ``response``, handed back as is by a hit, and the wire
        bytes a hit saves (by default those of ``response`` as text).
        The federation stores the decoded message with its byte
        length, so hits never re-encode."""
        if response_bytes is None:
            response_bytes = len(response.encode())
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                return  # stale: an invalidation raced the computation
            self._responses[key] = (response, response_bytes)
            self._responses.move_to_end(key)
            while len(self._responses) > MAX_RESPONSES:
                self._responses.popitem(last=False)
                self._evictions.inc()

    # -- shipped documents --------------------------------------------------

    def lookup_document(self, requester: str, owner: str,
                        local_name: str) -> tuple["Document", int] | None:
        with self._lock:
            entry = self._documents.get((requester, owner, local_name))
            if entry is None:
                self._misses.inc()
                return None
            self._documents.move_to_end((requester, owner, local_name))
            self._hits.inc()
            self._saved_bytes.inc(entry[1])
            return entry

    def store_document(self, requester: str, owner: str, local_name: str,
                       document: "Document", size: int,
                       epoch: int | None = None) -> None:
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                return  # stale: an invalidation raced the computation
            self._documents[(requester, owner, local_name)] = (document, size)
            self._documents.move_to_end((requester, owner, local_name))
            while len(self._documents) > MAX_DOCUMENTS:
                self._documents.popitem(last=False)
                self._evictions.inc()

    # -- invalidation -------------------------------------------------------

    def invalidate_peer(self, peer_name: str) -> None:
        """Called when ``peer_name`` (re)stores a document: drop its
        document entries and, conservatively, every response entry."""
        with self._lock:
            self._epoch += 1
            doomed = [key for key in self._documents if key[1] == peer_name]
            for key in doomed:
                del self._documents[key]
            dropped = len(doomed) + len(self._responses)
            self._responses.clear()
            if dropped:
                self._invalidations.inc(dropped)
        # Emit outside the lock: the event sink locks internally and
        # must never nest inside cache-internal critical sections.
        if dropped and self.events is not None:
            self.events.emit(
                "cache_invalidation",
                f"store on {peer_name} dropped {dropped} cache entries",
                severity="info", peer=peer_name, dropped=dropped)

    def attach(self, federation: "Federation") -> None:
        """Hook invalidation into every current peer's ``store`` (safe to
        call repeatedly and concurrently; new peers are picked up on the
        next call)."""
        # Snapshot first: submit() calls this while other threads may be
        # adding peers, and each peer must be claimed under the lock so
        # concurrent attaches never double-register a listener.
        for peer in list(federation.peers.values()):
            def listener(peer_name: str, _name: str) -> None:
                self.invalidate_peer(peer_name)

            # Register under the cache lock so a concurrent detach()
            # can never miss a listener claimed-but-not-yet-registered.
            # Lock order is cache -> peer everywhere (store() calls
            # listeners with the peer lock released), so no deadlock.
            with self._lock:
                if id(peer) in self._attached:
                    continue
                peer.on_store(listener)
                self._attached[id(peer)] = (peer, listener)

    def detach(self) -> None:
        """Unhook this cache from every peer it attached to — call when
        retiring a cache so long-lived federations don't accumulate
        dead invalidation listeners."""
        with self._lock:
            attached = list(self._attached.values())
            self._attached.clear()
        for peer, listener in attached:
            peer.remove_on_store(listener)

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
