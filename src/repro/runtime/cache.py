"""A cache of XRPC responses shared across queries.

One entry is one round trip as its miss resolved it
(:class:`StoredResponse`), keyed by ``(dest peer, semantics, shard
epoch, request key)``, hashed once (:class:`ResponseKey`), and bounded
by LRU. The request key (:func:`request_key`) is, when every parameter
item is an atomic value, the request's
:class:`~repro.xrpc.messages.RequestHead` (shipped query body,
parameter names, static context, projection paths: built once per
call site, literal binding and static context) with each call's
``(type, lexical)`` pairs, so looking such a request up marshals
nothing; a request that ships a node is keyed by its marshalled form,
:attr:`~repro.xrpc.messages.RequestMessage.key` (the head's parts,
each fragment's and element copy's serialization, each call's items).
Either is equal for two requests exactly when their texts are, so a
hit is only possible for a request whose text would be the same, and
it writes no text. A hit decodes and unmarshals nothing: the
consuming query takes :meth:`StoredResponse.replay`, new documents over
the stored (never mutated) columns with the items mapped onto them —
so node identity stays private per query, and the stored documents
never reach a query.

Shipped documents are not cached: data shipping fetches and shreds
every remote document each query reads, as the paper's baseline counts
it (one ship per document per run).

Invalidation is per entry, as an HTTP cache validates a response
against what it depends on (RFC 9110 §8.8): each entry carries
*validators*, the ``(peer, generation)`` of every peer whose documents
its computation read — at the destination, shipped into its body, in a
nested ``execute at``, or as a replica of a scattered shard — each
generation read before that peer's documents (a :class:`ReadSet`
gathers them while the response is computed). A lookup serves the
entry only while every validator is current and drops it otherwise,
so a store outdates the responses that read its peer and no other.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

from repro.obs.metrics import MetricsRegistry
from repro.xmldb.document import Document
from repro.xmldb.node import Node
from repro.xrpc.marshal import atomic_params
from repro.xrpc.messages import (
    NodeCopy, RequestHead, RequestMessage, ResponseMessage,
)


#: An entry's validators: ``(peer, generation)`` per peer it read.
Validators = tuple[tuple[str, int], ...]

#: The LRU bound on response entries.
MAX_RESPONSES = 256

#: A generation no peer ever has (they start at 0 and only grow): a
#: validator holding it is never current.
STALE = -1


class ResponseKey:
    """Key of one response entry: ``parts`` is (dest scope, semantics,
    shard epoch, request key), hashed once, when the key is made."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: tuple[str, str, int, Hashable]) -> None:
        self.parts, self._hash = parts, hash(parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ResponseKey) and self.parts == other.parts


def request_key(head: RequestHead, calls: list[list[tuple[str, list]]],
                marshal: Callable[[], RequestMessage]
                ) -> tuple[Hashable, RequestMessage | None]:
    """The key of the request of ``calls`` under ``head``, and the
    request if the key needed ``marshal()``: ``(head,
    atomic_params(calls))`` when every parameter item is an atomic
    value, else the marshalled request's
    :attr:`~repro.xrpc.messages.RequestMessage.key`, as a node's
    serialization is part of the text. Either is equal for two requests
    exactly when their texts are; the two kinds never meet, nor do
    their texts (a node never writes an ``xrpc:atomic``)."""
    params = atomic_params(calls)
    if params is not None:
        return (head, params), None
    message = marshal()
    return message.key, message


def response_key(dest: str, semantics: str, request: Hashable,
                 shard_epoch: int | None = None) -> ResponseKey:
    """Cache key for one round trip's response; ``request`` is the
    request's :func:`request_key`.

    ``semantics`` must be part of the key: the request carries no
    semantics marker (the handler receives it out-of-band), so by-value
    and by-fragment runs of the same query produce identical requests
    whose responses use different wire formats.

    For cluster scatter calls ``dest`` is the collection, not the
    replica that served it (the request names the shards its calls
    read, and replicas hold identical fragments, so any replica's
    response for the same shards serves all) and
    ``shard_epoch`` is the catalog membership epoch, so entries from
    before a repartition can never be served after it. Plain
    peer-to-peer calls use ``-1``.
    """
    return ResponseKey((dest, semantics,
                        -1 if shard_epoch is None else shard_epoch, request))


class StoredResponse:
    """One round trip as its miss resolved it: the byte lengths its
    request and response had on the wire, its validators, the
    response's payload documents in ``from_xml``'s order (fragments,
    then copies by item) — new documents over the decoded columns, so
    the cache never holds a query's own — and each result item as
    ``(payload index, pre)`` or its atomic value."""

    __slots__ = ("request_bytes", "response_bytes", "validators",
                 "documents", "fragments", "results")

    def __init__(self, response: ResponseMessage, results: list[list],
                 request_bytes: int, response_bytes: int,
                 validators: Validators):
        payloads = [root.doc for root in response.fragments] + [
            item.content.doc for items in response.results
            for item in items if isinstance(item, NodeCopy)]
        at = {id(doc): index for index, doc in enumerate(payloads)}
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes
        self.validators = validators
        self.documents = tuple(Document(doc.uri, doc.columns)
                               for doc in payloads)
        self.fragments = len(response.fragments)
        self.results = tuple(
            tuple((at[id(item.doc)], item.pre) if isinstance(item, Node)
                  else item for item in items)
            for items in results)

    def replay(self, base_uri: str) -> list[list]:
        """The results as decoding and unmarshalling the response text
        again would give them: a new document over each payload's
        columns, made in decoding order and named as unmarshalling
        names it, each node item on its own."""
        fragments = self.fragments
        documents = [Document(f"{base_uri}#fragment{number}"
                              if number <= fragments else base_uri,
                              stored.columns)
                     for number, stored in enumerate(self.documents, 1)]
        return [[Node(documents[item[0]], item[1])
                 if isinstance(item, tuple) else item for item in items]
                for items in self.results]


class CacheStats:
    """Hit/miss accounting; ``saved_bytes`` is wire traffic avoided."""

    __slots__ = ("hits", "misses", "evictions", "invalidations", "saved_bytes")

    def __init__(self, hits: int = 0, misses: int = 0, evictions: int = 0,
                 invalidations: int = 0, saved_bytes: int = 0) -> None:
        self.hits, self.misses, self.evictions = hits, misses, evictions
        self.invalidations, self.saved_bytes = invalidations, saved_bytes

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


class ReadSet:
    """The validators one computation gathers while it runs: each peer
    whose documents it read (or looked for), with the generation read
    before them. Every note reaches the ``enclosing`` set too — the
    computation of the exchange that made this one's call — so an
    entry's validators cover its nested calls, hit or miss.

    A peer noted at two generations — the computation read both sides
    of a store — is pinned to :data:`STALE` for good.
    """

    __slots__ = ("_seen", "_enclosing")

    def __init__(self, enclosing: "ReadSet | None" = None) -> None:
        self._seen: dict[str, int] = {}
        self._enclosing = enclosing

    def note(self, peer: str, generation: int) -> None:
        if self._seen.setdefault(peer, generation) != generation:
            self._seen[peer] = STALE
        if self._enclosing is not None:
            self._enclosing.note(peer, generation)

    def note_all(self, validators: Validators) -> None:
        for peer, generation in validators:
            self.note(peer, generation)

    @property
    def validators(self) -> Validators:
        return tuple(self._seen.items())

    @property
    def storable(self) -> bool:
        """Whether a response computed under this set may be kept: no
        peer is :data:`STALE`."""
        return STALE not in self._seen.values()


class ResultCache:
    """LRU response cache, safe for concurrent queries.

    Accounting lives as ``cache_*`` counters in a
    :class:`~repro.obs.metrics.MetricsRegistry` (pass the federation's
    to fold cache truth into its uniform snapshot; a private registry
    is created otherwise). :attr:`stats` stays as the point-in-time
    :class:`CacheStats` view existing callers read.
    """

    def __init__(self, metrics: MetricsRegistry | None = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter(
            "cache_hits_total", "result-cache lookups served")
        self._misses = self.metrics.counter(
            "cache_misses_total", "result-cache lookups missed")
        self._evictions = self.metrics.counter(
            "cache_evictions_total", "entries dropped by LRU bounds")
        self._invalidations = self.metrics.counter(
            "cache_invalidations_total",
            "entries dropped by a store on a peer they read")
        self._saved_bytes = self.metrics.counter(
            "cache_saved_bytes_total", "wire bytes avoided by hits")
        self._lock = threading.Lock()
        #: ResponseKey -> (stored response, the wire bytes a hit
        #: saves, its validators)
        self._responses: OrderedDict[
            ResponseKey, tuple[object, int, Validators]] = OrderedDict()

    def lookup_response(self, key: ResponseKey,
                        current: Callable[[str], int] | None = None,
                        events=None) -> object | None:
        """The stored response, or None. ``current(peer)`` is that
        peer's generation now, which each of the entry's validators
        must equal for it to be served — an entry a store outdated is
        dropped instead, and emits into the
        :class:`~repro.obs.events.EventLog` ``events`` when one is
        given — or :data:`STALE` while the peer is unreachable: the
        miss a hit stands in for would not answer as the entry did, so
        it is not served, and kept."""
        outdated = None
        with self._lock:
            entry = self._responses.get(key)
            if entry is not None:
                unreachable = False
                for peer, generation in entry[2]:
                    at = current(peer)
                    if at == STALE:
                        unreachable = True
                    elif at != generation:
                        outdated = peer
                        break
                if outdated is not None:
                    del self._responses[key]
                    self._invalidations.inc()
                    entry = None
                elif unreachable:
                    entry = None
            if entry is None:
                self._misses.inc()
            else:
                self._responses.move_to_end(key)
                self._hits.inc()
                self._saved_bytes.inc(entry[1])
        if outdated is not None and events is not None:
            # Outside the lock: the event sink locks internally and
            # must never nest inside cache-internal critical sections.
            events.emit(
                "cache_invalidation",
                f"a store on {outdated} outdated a cached response "
                f"from {key.parts[0]}",
                severity="info", scope="responses", peer=outdated,
                dest=key.parts[0])
        return None if entry is None else entry[0]

    def store_response(self, key: ResponseKey, response: object,
                       saved_bytes: int = 0,
                       validators: Validators = ()) -> None:
        """Keep ``response``, handed back as is by a hit while its
        ``validators`` are current, with the wire bytes each hit saves
        (its round trip's request and response)."""
        with self._lock:
            self._responses[key] = (response, saved_bytes, validators)
            self._responses.move_to_end(key)
            while len(self._responses) > MAX_RESPONSES:
                self._responses.popitem(last=False)
                self._evictions.inc()

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
