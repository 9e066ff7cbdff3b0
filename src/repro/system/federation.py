"""Federated query execution over simulated peers.

:class:`Federation` owns the peers and the cost model; :meth:`run`
executes one query at an originating peer under a chosen strategy and
returns the result sequence together with the decomposition artifacts
and a full :class:`~repro.net.stats.RunStats` accounting — everything
the benchmark harness needs to regenerate Figures 7-9.

Transport realism: requests and responses are serialised to actual
SOAP-style XML text and re-parsed on the other side; document shipping
serialises the document at the owner and shreds it at the requester.
All byte counts are lengths of those texts. The wire is the
federation's one :class:`~repro.runtime.transport.Transport` (loopback
by default), which also keeps its clock;
:class:`~repro.runtime.engine.FederationEngine`
runs many queries concurrently over one federation, so peers are
thread-safe, and every ``Peer.store`` moves that peer's generation:
a cached response is current while the generation of every peer it
read is (:meth:`Federation.generation_of`), the planner's estimates
while their sum is (:meth:`Federation.generation`).

Host resolution is catalog-aware: a destination registered in an
attached :class:`~repro.cluster.catalog.ClusterCatalog` is a *virtual*
host naming a sharded collection, and both XRPC round trips and
data-shipping document fetches against it are routed through the
cluster's scatter-gather :class:`~repro.cluster.router.ClusterRouter`.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple
from functools import cached_property

from repro.cluster.membership import PeerView
from repro.decompose import DecompositionResult, Strategy, strategy_label
from repro.decompose.points import XRPC_SCHEME, split_xrpc_uri
from repro.errors import (
    NetworkError, XQueryDynamicError, XrpcMarshalError,
)
from repro.net.costmodel import CostModel
from repro.net.stats import PlanReport, RunStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer, bind_stats_span, child_span
from repro.planner.ir import CallSite, PhysicalPlan
from repro.planner.planner import QueryPlanner
from repro.runtime.cache import (
    STALE, ReadSet, ResultCache, StoredResponse, Validators,
    request_key, response_key,
)
from repro.runtime.transport import Transport
from repro.xmldb.document import Document
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import (
    adopt_serialization, cached_serialization, serialize,
)
from repro.xquery.ast import Expr, Module, bind
from repro.xquery.context import CostCounter, DynamicContext, StaticContext
from repro.xquery.prepared import Binding, PreparedTable
from repro.xquery.pretty import pretty
from repro.xrpc.marshal import marshal_calls, unmarshal_result
from repro.xrpc.messages import RequestHead, RequestMessage, ResponseMessage
from repro.xrpc.peer import RequestHandler

if TYPE_CHECKING:
    from repro.cluster.catalog import ClusterCatalog, CollectionSpec
    from repro.cluster.router import ClusterRouter


class Peer:
    """One peer: a named document space (safe to share across queries)."""

    def __init__(self, name: str):
        self.name = name
        self.documents: dict[str, Document] = {}
        #: The function bodies shipped here, compiled once per shape.
        self.prepared = PreparedTable()
        #: Stores, and removals that removed something, so far.
        self.generation = 0
        self._lock = threading.Lock()
        self._serialize_lock = threading.Lock()

    def store(self, local_name: str, content: str | Document) -> "Peer":
        """Register a document under a local name (chainable). A text
        is parsed and left on the document, whose first serialisation
        read adopts it if it is in the serializer's canonical form."""
        if isinstance(content, Document):
            document = content
        else:
            document = parse_document(
                content, uri=f"{XRPC_SCHEME}{self.name}/{local_name}")
            adopt_serialization(document, content)
        with self._lock:
            self.documents[local_name] = document
            self.generation += 1
        return self

    def remove(self, local_name: str) -> bool:
        """Drop a document (migration retirement); a removal moves the
        generation as a store does. Returns False when the name was
        absent (idempotent retirement)."""
        with self._lock:
            present = self.documents.pop(local_name, None) is not None
            self.generation += present
        return present

    def document(self, local_name: str) -> Document:
        try:
            return self.documents[local_name]
        except KeyError:
            raise NetworkError(
                f"peer {self.name!r} has no document {local_name!r}"
            ) from None

    def serialized(self, local_name: str) -> str:
        document = self.document(local_name)
        # The text is memoized on the document object itself (see
        # xmldb.serializer), so a store() — which swaps the object —
        # can never leave a stale write-back behind; a canonical stored
        # text becomes that memo at the first touch, which adopts it.
        # Memoized reads stay lock-free; the per-peer lock only stops
        # concurrent first-touch queries from redundantly serialising
        # (or adopting) the same (potentially large) document.
        cached = cached_serialization(document)
        if cached is not None:
            return cached
        with self._serialize_lock:
            return serialize(document)


class MessageLog(NamedTuple):
    """One request/response exchange, for tests and examples."""

    dest: str
    calls: int
    request_bytes: int
    response_bytes: int
    request_xml: str = ""
    response_xml: str = ""


class RunResult:
    """Everything produced by one federated execution."""

    def __init__(self, items: list, stats: RunStats,
                 decomposition: DecompositionResult,
                 messages: list[MessageLog] | None = None,
                 trace: Span | None = None, literals: tuple = ()) -> None:
        self.items, self.stats = items, stats
        self.decomposition = decomposition
        self.messages = [] if messages is None else messages
        #: The closed span tree of a ``trace=True`` run (None otherwise);
        #: export with :func:`repro.obs.dump_trace` /
        #: :func:`repro.obs.dump_chrome_trace`.
        self.trace = trace
        #: What the query text bound to its prepared shape's slots.
        self.literals = literals

    @cached_property
    def module(self) -> Module:
        """The rewritten module as this run's text reads (the shared
        ``decomposition.module`` holds slots where comparison literals
        were)."""
        return bind(self.decomposition.module, self.literals)

    @property
    def plan(self):
        """The :class:`~repro.net.stats.PlanReport` of this run."""
        return self.stats.plan


class Federation:
    """A set of peers plus the simulated network between them."""

    def __init__(self, cost_model: CostModel | None = None,
                 static: StaticContext | None = None,
                 transport: Transport | None = None,
                 catalog: ClusterCatalog | None = None,
                 metrics: MetricsRegistry | None = None):
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.static = static if static is not None else StaticContext()
        # One registry per federation: the transport's wire_* and the
        # engine cache's cache_* series count live (replica ranking
        # reads them mid-query); the query_* and scatter_* series are
        # folded from each finished run (:class:`_RunSeries`). An
        # injected transport keeps its own registry, which becomes the
        # federation's unless the caller passed one explicitly.
        if metrics is not None:
            self.metrics = metrics
        elif transport is not None:
            self.metrics = transport.metrics
        else:
            self.metrics = MetricsRegistry()
        self.peers: dict[str, Peer] = {}
        #: Request heads by content, so that runs and plans shipping one
        #: text share one head (:meth:`_Run.request_head`).
        self.request_heads = PreparedTable()
        self.catalog = catalog
        #: What the cluster believes about each peer — the one answer
        #: to "can this peer serve?" (:mod:`repro.cluster.membership`).
        self.peer_view = PeerView(catalog)
        #: The :class:`~repro.obs.events.EventLog` the wire, the catalog
        #: and the cluster's control plane emit into (set by
        #: ``EventLog().attach(federation)``; None ⇒ nothing is logged).
        self.events = None
        self.transport = (transport if transport is not None
                          else Transport(self.cost_model,
                                         metrics=self.metrics))
        #: The attached placement controller (set by
        #: ``Reconciler.attach``; None ⇒ no self-healing, no
        #: rebalancing).
        self.reconciler = None
        #: The cost-based planner and its table of prepared queries.
        self.planner = QueryPlanner(self)

    @property
    def transport(self) -> Transport:
        """The one wire of this federation and the keeper of its clock.
        Assignable: the attached event log follows the installed wire
        and runs on its clock."""
        return self._transport

    @transport.setter
    def transport(self, wire: Transport) -> None:
        self._transport = wire
        if self.events is not None:
            wire.events, self.events.clock = self.events, wire.clock

    def add_peer(self, name: str) -> Peer:
        if name in self.peers:
            raise NetworkError(f"peer {name!r} already exists")
        if self.catalog is not None and self.catalog.lookup(name) is not None:
            raise NetworkError(
                f"peer name {name!r} collides with a cluster collection")
        peer = Peer(name)
        self.peers[name] = peer
        return peer

    def peer(self, name: str) -> Peer:
        try:
            return self.peers[name]
        except KeyError:
            raise NetworkError(f"unknown peer {name!r}") from None

    def generation(self) -> int:
        """The store generation: the sum of the peers' own, which only
        grows (peers never leave)."""
        return sum(peer.generation for peer in list(self.peers.values()))

    def generation_of(self, name: str) -> int:
        """Peer ``name``'s store generation; 0 for a name no peer has
        yet, where a peer added under it starts."""
        peer = self.peers.get(name)
        return 0 if peer is None else peer.generation

    def current_generation(self, name: str) -> int:
        """What a cached response that read peer ``name`` is checked
        against: its generation, or :data:`STALE` while the wire cannot
        reach it."""
        return (STALE if self.transport.is_down(name)
                else self.generation_of(name))

    def generations(self, names: Iterable[str]) -> Validators:
        """``(name, generation)`` of each of ``names``, read now."""
        return tuple((name, self.generation_of(name))
                     for name in dict.fromkeys(names))

    def attach_catalog(self, catalog: ClusterCatalog) -> ClusterCatalog:
        """Install the cluster catalog: host names registered in it are
        resolved as sharded collections (scatter-gather) instead of
        peers from now on."""
        self.catalog = self.peer_view.catalog = catalog
        if self.events is not None and catalog.events is None:
            # A log attached before the catalog existed still gets the
            # catalog's epoch-bump events.
            catalog.events = self.events
        return catalog

    def collection(self, host: str) -> CollectionSpec | None:
        """Catalog-aware host resolution: the collection registered
        under ``host``, or None when ``host`` is (or should be) an
        ordinary peer."""
        if self.catalog is None:
            return None
        return self.catalog.lookup(host)

    # -- execution ---------------------------------------------------------

    def run(self, query: str, at: str,
            strategy: Strategy | str = Strategy.BY_PROJECTION,
            bulk_rpc: bool = True, code_motion: bool = True,
            let_sinking: bool = True,
            keep_message_xml: bool = False,
            result_cache: ResultCache | None = None,
            trace: bool = False) -> RunResult:
        """Parse, decompose and execute ``query`` at peer ``at``.

        ``strategy`` accepts the enum, a case-insensitive string alias
        (``"by-projection"``, ``"BY_FRAGMENT"``), or ``"auto"`` — which
        hands the choice to the cost-based :attr:`planner` (it may pick
        a *mixed* plan shipping some documents while decomposing
        others, and records its estimate in ``RunStats.plan``).

        ``result_cache`` is injected by
        :class:`~repro.runtime.engine.FederationEngine` for cross-query
        reuse, and stays off for standalone runs.

        ``trace=True`` records a per-query span tree (``query`` →
        ``plan`` / ``rpc`` / ``scatter`` / ``ship`` with component
        leaves) into ``RunResult.trace``; off by default and zero-cost
        when off.
        """
        clock = self.transport.clock
        started = clock()
        tracer = Tracer(clock) if trace else None
        root_ctx = (tracer.start("query", at=at,
                                 strategy=strategy_label(strategy))
                    if tracer is not None else nullcontext())
        run = None
        ok = False
        try:
            with root_ctx:
                # Fixed strategies go through the same planner entry
                # point as auto: one prepared query per shape amortises
                # parsing, decomposition and lowering across every run
                # of every text that differs from this one in
                # comparison literals.
                with child_span("plan"):
                    plan, report = self.planner.plan(
                        query, at=at, strategy=strategy,
                        bulk_rpc=bulk_rpc, code_motion=code_motion,
                        let_sinking=let_sinking)
                # The plan is shared by every text of its shape
                # (read-only); the run reads this text's literals from
                # the binding the lookup interned.
                run = _Run(self, plan, report.binding, bulk_rpc,
                           keep_message_xml,
                           result_cache=result_cache, tracer=tracer)
                result = self._execute(run, report)
            ok = True
        finally:
            self._account(run.stats if run is not None else None,
                          clock() - started, ok)
        return result

    @cached_property
    def _series(self) -> "_RunSeries":
        return _RunSeries(self.metrics)

    def _account(self, stats: RunStats | None, seconds: float,
                 ok: bool) -> None:
        """The one seam between a finished run — completed or failed,
        in parsing and planning too (then ``stats`` is None) — and
        everything counted across runs: the registry's ``query_*`` /
        ``scatter_*`` series."""
        self._series.fold(stats, seconds, ok)

    def _execute(self, run: "_Run", report: PlanReport) -> RunResult:
        """Evaluate a planned run, then hand the plan's report its
        actuals and to the planner's feedback, and label the trace
        root."""
        started = run.clock()
        result = run.execute()
        report.finish(result.stats, run.clock() - started)
        result.stats.plan = report
        self.planner.observe(report, result)
        root = run.tracer.root if run.tracer is not None else None
        if root is not None:
            root.set(strategy=result.stats.plan.strategy,
                     total_bytes=result.stats.total_transferred_bytes,
                     rpc_calls=result.stats.rpc_calls,
                     cache_hits=result.stats.cache_hits)
            result.trace = root
        return result


class _Run:
    """State for one federated execution."""

    def __init__(self, federation: Federation, plan: PhysicalPlan,
                 binding: Binding, bulk_rpc: bool, keep_message_xml: bool,
                 result_cache: ResultCache | None = None,
                 tracer: Tracer | None = None):
        self.federation = federation
        self.plan = plan
        self.binding = binding
        self.decomposition = plan.decomposition
        self.origin = plan.origin
        self.bulk_rpc = bulk_rpc
        self.keep_message_xml = keep_message_xml
        self.transport = federation.transport
        self.clock = self.transport.clock
        self.result_cache = result_cache
        self.tracer = tracer
        self.stats = RunStats()
        if tracer is not None and tracer.root is not None:
            # Charges against the run's stats land on the query root
            # until a narrower span (rpc/ship) rebinds them.
            self.stats.span = tracer.root
        self.messages: list[MessageLog] = []
        self.local_counter = CostCounter()
        self.remote_counter = CostCounter()
        #: (requester, document) -> the shipped document and the
        #: validators read before its fetch (none without a cache).
        self._shipped_docs: dict[tuple[str, str],
                                 tuple[Document, Validators]] = {}

    @cached_property
    def router(self) -> ClusterRouter:
        """The run's scatter-gather router (built on first use: most
        runs never touch a sharded collection, nor import the router)."""
        from repro.cluster.router import ClusterRouter
        return ClusterRouter(self, self.federation.catalog)

    # -- document resolution (data shipping) -----------------------------------

    def _resolver(self, peer_name: str, reads: ReadSet | None = None):
        """Document resolution at ``peer_name``, shipping charged to the
        run's stats wherever it is triggered (a shard body's included).
        ``reads`` (a cacheable exchange's) notes each owner resolved,
        found or not."""
        def resolve(uri: str) -> Document:
            owner, local_name = self._locate(uri, peer_name)
            if owner == peer_name:
                peer = self.federation.peer(owner)
                if reads is not None:
                    # Before the document: a store racing this read
                    # outdates whatever is computed from it.
                    reads.note(owner, peer.generation)
                return peer.document(local_name)
            return self._ship_document(owner, local_name, peer_name,
                                       reads=reads)
        return resolve

    def _locate(self, uri: str, requester: str) -> tuple[str, str]:
        parts = split_xrpc_uri(uri)
        if parts is None:
            return requester, uri
        if not parts[1]:
            raise XQueryDynamicError(f"malformed xrpc URI {uri!r}")
        return parts

    def _ship_document(self, owner: str, local_name: str,
                       requester: str,
                       reads: ReadSet | None = None) -> Document:
        """Data shipping: fetch, transfer, and shred a whole document.

        ``owner`` is a peer, or a sharded collection — then every shard
        ships from a live replica (failing over on wire faults) and the
        logical document is reassembled. Everything around the fetch
        (per-run memo, ``ship`` span, the ship's ``per_op`` actuals) is
        the same for both. Nothing outlives the run: a run ships each
        document it reads once, as the paper's data-shipping baseline
        counts it. ``reads`` notes the owner (a collection's every
        replica) at the generation read before the fetch, a memoized
        ship's included.
        """
        stats = self.stats
        spec = self.federation.collection(owner)
        # A collection's document is keyed by the catalog's membership
        # epoch, so a repartition mid-run ships it again.
        version = ("" if spec is None
                   else f"@e{self.federation.catalog.epoch()}")
        key = (requester, f"{owner}/{local_name}{version}")
        shipped = self._shipped_docs.get(key)
        if shipped is not None:
            if reads is not None:
                reads.note_all(shipped[1])
            return shipped[0]
        # Read before the fetch, and noted whether it finds the
        # document or not.
        validators = () if self.result_cache is None else \
            self.federation.generations(
                [owner] if spec is None else
                [replica for shard in spec.shards
                 for replica in shard.replicas])
        if reads is not None:
            reads.note_all(validators)
        wall0 = self.clock()
        sim0 = stats.times.total
        span_attrs = {} if spec is None else {"shards": len(spec.shards)}
        with child_span("ship", owner=owner, doc=local_name,
                        to=requester, **span_attrs) as ship_span:
            if spec is None:
                with bind_stats_span(stats, ship_span):
                    text, size = self.transport.fetch_document(
                        self.federation.peer(owner), local_name, stats)
                    document = parse_document(
                        text, uri=f"{XRPC_SCHEME}{owner}/{local_name}")
            else:
                document, size = self.router.fetch_collection_document(
                    spec, local_name)
            if ship_span is not None:
                ship_span.set(bytes=size)
        stats.record_op((owner, local_name), bytes=size, calls=1,
                        sim_s=stats.times.total - sim0,
                        wall_s=self.clock() - wall0, cache_hits=0)
        self._shipped_docs[key] = document, validators
        return document

    # -- XRPC transport ---------------------------------------------------------

    def _make_xrpc_execute(self, from_peer: str,
                           reads: ReadSet | None = None):
        """Nested ``execute at`` from ``from_peer``; ``reads`` is the
        calling exchange's read set."""
        def execute(dest: str, params: list[tuple[str, list]],
                    body: Expr, binding: Binding) -> list:
            results = self._round_trip(from_peer, dest, [params], body,
                                       binding, reads=reads)
            return results[0]
        return execute

    def _make_xrpc_execute_bulk(self, from_peer: str):
        if not self.bulk_rpc:
            return None

        def execute_bulk(dest: str, calls: list[list[tuple[str, list]]],
                         body: Expr, binding: Binding) -> list[list]:
            if not calls:
                return []
            return self._round_trip(from_peer, dest, calls, body, binding)
        return execute_bulk

    def _round_trip(self, from_peer: str, dest: str,
                    calls: list[list[tuple[str, list]]],
                    body: Expr, binding: Binding,
                    reads: ReadSet | None = None) -> list[list]:
        """One logical call of ``body`` at ``dest``: a destination
        registered in the cluster catalog is scattered by the router
        into one :meth:`_call_peer` per cover peer and gathered; a peer is
        called directly, under the contract the plan holds for the
        site, with the body rendered once per ``binding`` (the
        literals of the caller's text: this run's, or — for a call
        nested in a shipped body — those a peer read off that body).
        ``reads`` is the read set of the exchange that makes the call."""
        parts = split_xrpc_uri(dest)
        dest_name = parts[0] if parts is not None else dest
        spec = self.federation.collection(dest_name)
        if spec is not None:
            return self.router.scatter(from_peer, spec, calls, body,
                                       binding, reads=reads)
        site = self.plan.call_site(body)
        return self._call_peer(
            self.federation.peer(dest_name),  # raises on unknown peer
            calls, self.request_head(
                binding, site, lambda: pretty(bind(body, binding.literals)),
                [name for name, _seq in calls[0]] if calls else []),
            site, reads=reads)

    def request_head(self, binding: Binding, site: CallSite,
                     render: Callable[[], str], param_names: list[str],
                     scatter: object = None) -> RequestHead:
        """The head of the requests that ship ``render()`` under
        ``binding`` — ``site``'s body, or ``scatter``'s text of it —
        with ``site``'s paths: made once per call site, binding and
        static context, and interned."""
        static = self.federation.static

        def build() -> RequestHead:
            head = RequestHead(render(), param_names, static.to_attributes(),
                               site.used_paths, site.returned_paths)
            return self.federation.request_heads.intern(head, lambda: head)
        return binding.once((site, scatter, static), build)

    def _call_peer(self, peer: Peer,
                   calls: list[list[tuple[str, list]]],
                   head: RequestHead, site: CallSite,
                   cache_scope: str | None = None,
                   shard_epoch: int | None = None,
                   replicas: Iterable[str] = (),
                   reads: ReadSet | None = None) -> list[list]:
        """One network interaction: marshal, ship, execute, ship back.

        Every round trip takes the same path: *deliver* the request:
        the shared result cache answers with the results its miss
        resolved (:meth:`~repro.runtime.cache.StoredResponse.replay`:
        no request text, no decoding, no unmarshalling); otherwise the
        request is marshalled, its text goes out on the transport's
        wire, and the response text is decoded once and unmarshalled →
        *record* (stats and the site's ``per_op`` actuals, ``rpc``
        span, message log, cache store). The cache keys a request whose
        parameters are all atomic values by ``head`` and their ``(type,
        lexical)`` pairs, so such a hit marshals nothing; a request
        that ships a node is keyed by its marshalled form
        (:attr:`RequestMessage.key`), as the node's serialization is
        part of its text.

        ``head`` holds the function body as shipped and ``site`` is its
        call site's contract — for a scatter, the text whose calls name
        their shards, under the logical site's contract. ``cache_scope``
        / ``shard_epoch`` key the response cache by collection +
        membership epoch instead of the replica that happened to serve
        it. Everything is charged to the run's stats and counters,
        a scatter's round trips' included.

        With a cache, a miss gathers its own :class:`ReadSet` (its
        entry's validators: ``replicas``, the peers its evaluation reads
        documents of, its nested calls' sets), and every note reaches
        ``reads``, the set of the exchange making this call; a hit
        notes its entry's validators there.
        """
        stats = self.stats
        semantics = site.semantics
        used_paths, returned_paths = site.used_paths, site.returned_paths

        # Explain-analyze attribution goes to the logical call site the
        # plan priced; sim seconds are inclusive deltas, mirroring how
        # the estimator prices.
        wall0 = self.clock()
        sim0 = stats.times.total
        bytes0 = stats.message_bytes + stats.document_bytes

        with child_span("rpc", dest=peer.name) as rpc_span, \
                bind_stats_span(stats, rpc_span):
            if rpc_span is not None:
                rpc_span.set(semantics=semantics, calls=len(calls))
                if used_paths is not None:
                    rpc_span.set(used_paths=len(used_paths),
                                 returned=len(returned_paths))

            base_uri = f"{XRPC_SCHEME}{peer.name}/response"

            def marshal() -> RequestMessage:
                bundle = marshal_calls(calls, semantics, site.param_paths)
                return head.message(bundle.calls, bundle.fragments)

            # -- deliver: the cache answers, or the wire does ----------
            stored = cache_key = own = message = None
            if self.result_cache is not None:
                request, message = request_key(head, calls, marshal)
                cache_key = response_key(cache_scope or peer.name,
                                         semantics, request,
                                         shard_epoch=shard_epoch)
                stored = self.result_cache.lookup_response(
                    cache_key, self.federation.current_generation)
            cached = stored is not None
            if cached:
                # The entry's validators hold the destination and the
                # replicas, at the generations the lookup found current.
                if reads is not None:
                    reads.note_all(stored.validators)
                request_bytes = stored.request_bytes
                response_bytes = stored.response_bytes
                # New documents over the stored columns, so node
                # identity stays per query.
                results = stored.replay(base_uri)
                # -- record: nothing on the wire, only the local
                # deserialisation is charged.
                saved_bytes = request_bytes + response_bytes
                stats.cache_hits += 1
                stats.cache_saved_bytes += saved_bytes
                stats.charge("serialize",
                             self.federation.cost_model.deserialize_time(
                                 response_bytes))
                if rpc_span is not None:
                    rpc_span.set(cache="hit", saved_bytes=saved_bytes)
            else:  # only a miss writes the request text
                if cache_key is not None:
                    own = ReadSet(reads)
                    own.note_all(self.federation.generations(
                        (peer.name, *replicas)))
                if message is None:
                    message = marshal()
                request_xml = message.to_xml()
                request_bytes = len(request_xml.encode())
                handler = RequestHandler(
                    peer_name=peer.name,
                    resolve_doc=self._resolver(peer.name, reads=own),
                    xrpc_execute=self._make_xrpc_execute(peer.name,
                                                         reads=own),
                    semantics=semantics,
                    counter=self.remote_counter,
                    prepared=peer.prepared,
                )
                response_xml, response_bytes = self.transport.exchange(
                    peer, request_xml, handler.handle, stats,
                    request_bytes=request_bytes)

                # -- decode: once per message that crossed the wire -----
                response = ResponseMessage.from_xml(response_xml)
                if len(response.results) != len(calls):
                    raise XrpcMarshalError(
                        f"response from {peer.name} answers "
                        f"{len(response.results)} calls, "
                        f"{len(calls)} were sent")
                results = unmarshal_result(
                    response.results, response.fragments, base_uri)

                # -- record ---------------------------------------------
                stats.rpc_calls += len(calls)
                if rpc_span is not None:
                    rpc_span.set(cache="miss" if cache_key is not None
                                 else "off",
                                 request_bytes=request_bytes,
                                 response_bytes=response_bytes)
                self.messages.append(MessageLog(
                    dest=peer.name, calls=len(calls),
                    request_bytes=request_bytes,
                    response_bytes=response_bytes,
                    request_xml=request_xml if self.keep_message_xml else "",
                    response_xml=response_xml if self.keep_message_xml else "",
                ))
                if cache_key is not None and own.storable:
                    validators = own.validators
                    self.result_cache.store_response(
                        cache_key,
                        StoredResponse(response, results, request_bytes,
                                       response_bytes, validators),
                        request_bytes + response_bytes, validators)
            stats.record_op(
                site.site_id,
                bytes=stats.message_bytes + stats.document_bytes - bytes0,
                calls=0 if cached else len(calls),
                sim_s=stats.times.total - sim0,
                wall_s=self.clock() - wall0,
                cache_hits=int(cached))
            return results

    # -- top-level execution --------------------------------------------------------

    def execute(self) -> RunResult:
        env = DynamicContext(
            resolve_doc=self._resolver(self.origin),
            xrpc_execute=self._make_xrpc_execute(self.origin),
            xrpc_execute_bulk=self._make_xrpc_execute_bulk(self.origin),
            counter=self.local_counter,
            binding=self.binding,
        )
        items = self.plan.evaluator.run(env)

        model = self.federation.cost_model
        local_s = model.exec_time(
            self.local_counter.ticks, self.local_counter.nodes_visited)
        remote_s = model.exec_time(
            self.remote_counter.ticks, self.remote_counter.nodes_visited)
        # Execution time is computed once from the run-wide counters,
        # so the component leaves land on the query root (the wire
        # components were charged per rpc/ship span as they happened).
        self.stats.charge("local_exec", local_s)
        self.stats.charge("remote_exec", remote_s)
        return RunResult(items=items, stats=self.stats,
                         decomposition=self.decomposition,
                         messages=self.messages,
                         literals=self.binding.literals)


class _RunSeries:
    """The registry series counted across runs. Each is registered here
    and nowhere else, and moves only in :meth:`fold`, from a finished
    run's :class:`RunStats`."""

    def __init__(self, metrics: MetricsRegistry):
        counter = metrics.counter
        self.completed = counter("query_completed_total",
                                 "queries that finished cleanly")
        self.failed = counter("query_failed_total", "queries that raised")
        self.latency = metrics.histogram(
            "query_latency_seconds", "wall-clock seconds per query")
        self.bytes = counter(
            "query_transferred_bytes_total",
            "Figure 7 bytes summed over completed queries")
        self.sim_s = counter(
            "query_simulated_seconds_total",
            "Figure 8 simulated seconds summed over completed queries")
        self.plans = counter("query_plans_total",
                             "executions per physical plan label",
                             ("plan",))
        self.scatters = counter("scatter_calls_total",
                                "scatter fan-outs per collection",
                                ("collection",))
        #: ``per_shard`` entry field → its per-collection series.
        self.per_collection = {
            field: counter(name, help_text, ("collection",))
            for field, name, help_text in (
                ("skipped", "scatter_shards_skipped_total",
                 "shard round trips proven empty by value-index probes"),
                ("failovers", "scatter_failovers_total",
                 "replica switches after wire faults"))}
        # Per-shard heat, the reconciler's primary signal: labeled by
        # the shard's local_name (stable across split renumbering —
        # indexes shift when a split inserts a shard, local names
        # never do). Skipped and failed calls served nothing.
        self.per_shard = [
            counter(name, help_text, ("collection", "shard"))
            for name, help_text in (
                ("scatter_shard_serves_total",
                 "shard round trips actually served (skips excluded)"),
                ("scatter_shard_seconds_total",
                 "simulated wire seconds spent serving each shard"),
                ("scatter_shard_bytes_total",
                 "wire bytes served from each shard"))]

    def fold(self, stats: RunStats | None, seconds: float,
             ok: bool) -> None:
        """Count one finished run: ``query_*`` per run (latency, bytes,
        seconds and plan of completed runs only), ``scatter_*`` from
        every run's entries (a failed run spent too). A series is only
        touched by a non-zero amount, so none exists before it moves."""
        if ok:
            self.completed.inc()
            self.latency.observe(seconds)
            self.bytes.inc(stats.total_transferred_bytes)
            self.sim_s.inc(stats.times.total)
            if stats.plan is not None:
                self.plans.labels(stats.plan.strategy).inc()
        else:
            self.failed.inc()
        if stats is None:
            return
        for collection, count in stats.scatters.items():
            self.scatters.labels(collection).inc(count)
        for key, entry in stats.per_shard.items():
            collection = key.rsplit("#s", 1)[0]
            for field, series in self.per_collection.items():
                if entry[field]:
                    series.labels(collection).inc(entry[field])
            served = entry["calls"] - entry["skipped"] - entry["failed"]
            for series, amount in zip(self.per_shard, (
                    served, entry["sim_s"], entry["bytes"])):
                if amount > 0:
                    series.labels(collection, entry["shard"]).inc(amount)
