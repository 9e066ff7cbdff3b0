"""The scatter-gather router: executing one logical call site against
every shard of a collection.

When a federated run reaches an XRPC call site (or a data-shipping
document fetch) whose destination is a catalog virtual host, the
router takes over:

1. **rewrite** — the shipped body's ``doc("xrpc://{collection}/{doc}")``
   references are rewritten per shard to the shard fragment's *local*
   name (``doc("people.xml#s2")``), which resolves in the executing
   replica's own document space. The rewritten request is therefore
   byte-identical across replicas of one shard, so any replica can
   serve any replica's cached response.
2. **scatter** — one round trip per shard, in shard order. The
   rewrite depends only on the body and the collection's layout, so it
   is prepared once (:class:`_PreparedScatter`; the shard texts and
   skip probes once per binding of the body's comparison literals) and
   a warm scatter does per op only what differs per shard. The round
   trips run on a thread
   pool (bounded by :data:`MAX_SCATTER_PARALLELISM`) only when a
   transmission can sleep (:meth:`Transport.can_sleep`): shard calls
   are CPU-bound Python, so waiting is all threads can overlap; on a
   wire that never waits they run inline. Before fanning out,
   member-filter bodies
   (``for $m in coll return if ($m/... op literal) then .. else ()``)
   are probed against each shard's local value index
   (:func:`shard_skip_probes`): a shard where provably no node
   satisfies the filter contributes exactly ``()`` per call, so its
   round trip is skipped outright (``RunStats.shards_skipped``). Each
   shard call gets a private :class:`RunStats` / :class:`CostCounter`
   so the accounting stays race-free; they are merged in shard order
   after the gather — also when a shard failed, before its error is
   raised — keeping the run's totals deterministic.
3. **replica selection** — per shard, the replicas the federation's
   :class:`~repro.cluster.membership.PeerView` lets serve, healthy
   first, then by the transport's live load (in-flight exchanges, then
   total bytes served, then placement order), so the least-loaded
   healthy replica serves the call.
4. **failover** — a :class:`~repro.errors.NetworkError` from the wire
   (injected faults, killed peers) moves the call to the next replica
   in the order; each switch is counted in the shard call's
   ``per_shard`` entry (``RunStats.failovers`` sums them). Only when
   every replica fails does the query fail.
5. **gather** — :func:`~repro.cluster.gather.gather_plan` picks the
   combinator: shard-major concatenation for map-shaped bodies
   (document order under range partitioning), addition for
   ``count``/``sum`` aggregates (the pushdown keeps N numbers, not N
   member sequences, on the wire), OR/AND for ``some``/``every``.
   Bodies with global order/position semantics (``order by``,
   positional predicates, ``position()``) are *not* scattered: they
   fall back to exact evaluation at the originator over the merged
   collection document.

The router counts into the run's :class:`RunStats` only: each shard
call files one ``per_shard`` entry (calls, skips, retries, failovers,
bytes, the shard's ``local_name``). The registry's ``scatter_*`` series
— the rebalancer's per-shard heat among them — are folded from the
finished run at the end of ``Federation.run``.

Scatter-safety contract: a sharded collection is addressed through its
*members* (the partitioned elements). Queries returning spine elements
(e.g. the container itself) see one copy per shard — the standard
scatter-gather caveat, documented rather than policed.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable

from repro.cluster.catalog import (
    ClusterCatalog, ClusterError, CollectionSpec, ShardInfo,
)
from repro.cluster.gather import gather_plan, merge_shard_documents
from repro.decompose.points import XRPC_SCHEME, split_xrpc_uri
from repro.errors import (
    NetworkError, PeerUnavailableError, TransientNetworkError,
)
from repro.runtime.transport import RetryPolicy
from repro.net.stats import RunStats, fold_entry
from repro.obs.trace import Span, bind_stats_span, child_span
from repro.xmldb.document import Document, fresh_doc_seq
from repro.xmldb.node import Node
from repro.xmldb.parser import parse_document
from repro.xmldb.values import value_index
from repro.xquery.ast import (
    EmptySequence, Expr, ForExpr, FunCall, IfExpr, LetExpr, Literal,
    PathExpr, VarRef, XRPCExpr, bind,
)
from repro.xquery.context import CostCounter, DynamicContext
from repro.xquery.evaluator import Evaluator
from repro.xquery.predicates import conjunction_members, literal_probe
from repro.xquery.prepared import Binding
from repro.xquery.pretty import pretty

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.system.federation import _Run

_DOC_FUNCTIONS = ("doc", "fn:doc")

#: Router-level default when the catalog carries no policy: a couple of
#: in-place retries per replica before failing over, zero base backoff
#: (the simulated wire has no real congestion to wait out).
_DEFAULT_RETRY = RetryPolicy()

#: How many shard calls of one scatter run at a time on threads.
MAX_SCATTER_PARALLELISM = 8


class ShardUnavailableError(ClusterError):
    """Every replica of one shard failed (retries and failover
    exhausted). Distinct from other :class:`ClusterError`\\ s so the
    graceful-degradation policy can swallow exactly this case."""


def rewrite_doc_uris(expr: Expr,
                     mapping: Callable[[str], str | None]) -> Expr:
    """Rebuild ``expr`` with every literal ``doc(uri)`` argument passed
    through ``mapping`` (None keeps the original URI)."""
    def visit(node: Expr) -> Expr:
        if (isinstance(node, FunCall) and node.name in _DOC_FUNCTIONS
                and len(node.args) == 1):
            arg = node.args[0]
            if isinstance(arg, Literal) and isinstance(arg.value, str):
                replacement = mapping(arg.value)
                if replacement is not None:
                    return FunCall(node.name, [Literal(replacement)])
        return node.replace_children(visit)
    return visit(expr)


def unwrap_collection_xrpc(expr: Expr, collection: str) -> Expr:
    """Inline nested ``execute at`` wrappers that target ``collection``.

    A scattered body already runs *at* the shard replica; a nested
    XRPCExpr still aiming at the virtual host (the decomposer inserts
    one when the user wrote a literal ``execute at`` around the
    collection reference) would re-scatter from the replica with
    already-shard-local URIs — wrong on every shard but its own. The
    wrapper's parameter bindings become ``let``s, so the body is
    evaluated in place with identical semantics.
    """
    def visit(node: Expr) -> Expr:
        if isinstance(node, XRPCExpr) and isinstance(node.dest, Literal) \
                and isinstance(node.dest.value, str):
            parts = split_xrpc_uri(node.dest.value)
            host = parts[0] if parts is not None else node.dest.value
            if host == collection:
                inlined: Expr = node.body.replace_children(visit)
                for param in reversed(node.params):
                    inlined = LetExpr(param.name, param.value, inlined)
                return inlined
        return node.replace_children(visit)
    return visit(expr)


def shard_skip_probes(body: Expr,
                      collection: str) -> list[tuple[str, str, object]]:
    """Necessary-condition probes for skipping shards of ``collection``.

    Recognises the member-filter map shape ``for $m in <collection
    path> return if (cond) then ... else ()`` (optionally under
    ``let`` bindings) and extracts ``(key, op, literal)`` conditions
    from ``cond``'s leading conjuncts: if *no* node named ``key`` in a
    shard fragment satisfies ``op literal``, the condition is false
    for every member of that shard and the shard's contribution is
    provably ``()`` — the scatter can skip the round trip entirely.

    Error parity: a skipped shard evaluates nothing, so a conjunct is
    only usable while every conjunct to its left is itself a
    recognised *raise-free* literal comparison (``literal_probe`` with
    ``pure=True``: predicate-free path, literal of a type untyped
    atoms always pair with); scanning stops at the first unrecognised
    conjunct. ``let`` values are peeled only when they are literals,
    variable references, or predicate-free collection-rooted paths,
    for the same reason.
    """
    rooted: set[str] = set()
    while isinstance(body, LetExpr):
        if _rooted_in_collection(body.value, collection, rooted):
            rooted.add(body.var)
        elif not isinstance(body.value, (Literal, VarRef)):
            return []
        body = body.body
    if not isinstance(body, ForExpr) or body.pos_var is not None:
        return []
    if not _rooted_in_collection(body.seq, collection, rooted):
        return []
    if not (isinstance(body.body, IfExpr)
            and isinstance(body.body.else_branch, EmptySequence)):
        return []
    probes: list[tuple[str, str, object]] = []
    for conjunct in conjunction_members(body.body.cond):
        probe = literal_probe(conjunct, var=body.var, pure=True)
        if probe is None:
            break
        probes.append(probe)
    return probes


def _rooted_in_collection(expr: Expr, collection: str,
                          rooted_vars: set[str]) -> bool:
    """True when ``expr``'s items all come from the collection's
    member stream (a ``doc()`` call on the collection, a path over
    one, or a variable bound to one)."""
    if isinstance(expr, VarRef):
        return expr.name in rooted_vars
    if isinstance(expr, PathExpr):
        # Step predicates could raise during evaluation, which a
        # skipped shard would hide — only predicate-free paths qualify.
        if any(step.predicates for step in expr.steps):
            return False
        return _rooted_in_collection(expr.input, collection, rooted_vars)
    if isinstance(expr, FunCall) and expr.name in _DOC_FUNCTIONS \
            and len(expr.args) == 1:
        arg = expr.args[0]
        return (isinstance(arg, Literal) and isinstance(arg.value, str)
                and arg.value.startswith(f"{XRPC_SCHEME}{collection}/"))
    return False


def _shard_uri(uri: str, spec: CollectionSpec,
               shard: ShardInfo) -> str | None:
    parts = split_xrpc_uri(uri)
    if parts is None or parts[0] != spec.name:
        return None
    if parts[1] != spec.document:
        raise ClusterError(
            f"collection {spec.name!r} has no document {parts[1]!r} "
            f"(expected {spec.document!r})")
    # Relative URI: resolves in the executing replica's own document
    # space, keeping the request byte-identical across replicas.
    return shard.local_name


class _PreparedScatter:
    """What a scatter of ``body`` over ``spec`` needs and no op changes:
    the unwrapped body and its gather combinator (None: not
    scatter-safe, evaluated at the originator); and, per binding of
    the body's literals (:meth:`bound`), the shard-skip probes and
    each shard's shipped text.

    Interned in ``catalog.prepared`` under ``(id(body), id(spec))``;
    the entry holds both, so neither address can be reused while it
    lives (a nested scatter's body belongs to a peer's LRU table, not
    to the running plan). A layout change installs a new frozen spec
    and so re-prepares; a liveness-only epoch bump moves nothing read
    here.
    """

    __slots__ = ("body", "spec", "unwrapped", "combine")

    def __init__(self, body: Expr, spec: CollectionSpec):
        self.body, self.spec = body, spec
        self.unwrapped = unwrap_collection_xrpc(body, spec.name)
        self.combine = gather_plan(self.unwrapped, spec.name)

    def bound(self, literals: tuple
              ) -> tuple[list[tuple[str, str, object]], list[str]]:
        """``(probes, shard texts)`` for a scatter-safe body whose
        slots hold ``literals``."""
        spec, body = self.spec, bind(self.unwrapped, literals)
        return shard_skip_probes(body, spec.name), [
            pretty(rewrite_doc_uris(
                body, lambda uri, s=shard: _shard_uri(uri, spec, s)))
            for shard in spec.shards]


def _renumber_shard_fragments(outcomes: list["ScatterOutcome"]) -> None:
    """Reassign the response fragments' document sequence numbers in
    shard order.

    ``doc_seq`` (the inter-document order tie-break) is allocated when
    ``from_xml`` shreds a payload, and concurrent scatter threads decode
    their responses in whatever order the wire finishes — so without
    renumbering, a later document-order sort (a local path step over the
    gathered items, a ``union``, ``<<``) could interleave shards
    arbitrarily. The fragments are query-private (each decoding makes
    fresh documents, and a cache hit new ones over the stored columns,
    never the stored documents), so the mutation is race-free; the
    relative order of multiple fragments within one shard's response is
    preserved.
    """
    for outcome in outcomes:
        docs: dict[int, Document] = {}
        for items in outcome.results:
            for item in items:
                if isinstance(item, Node):
                    docs.setdefault(id(item.doc), item.doc)
        for doc in sorted(docs.values(), key=lambda d: d.doc_seq):
            doc.doc_seq = fresh_doc_seq()


class ScatterOutcome:
    """One shard call's private accounting, merged after the gather:
    its results (or the error it ended with), its :class:`RunStats`
    and :class:`CostCounter`, and ``entry`` — the call's own
    ``per_shard`` entry, filed into ``stats`` when the call ends."""

    __slots__ = ("results", "stats", "counter", "entry", "error")

    def __init__(self, shard: ShardInfo) -> None:
        self.results: list[list] = []
        self.stats = RunStats()
        self.counter = CostCounter()
        self.entry = {"shard": shard.local_name, "calls": 1,
                      "failovers": 0, "retries": 0, "skipped": 0,
                      "partial": 0, "failed": 0}
        self.error: Exception | None = None

    def file(self, key: str) -> "ScatterOutcome":
        """Complete the entry from the call's stats (bytes, messages
        and seconds include nested work) and file it under ``key``."""
        stats, entry = self.stats, self.entry
        entry.update(bytes=stats.total_transferred_bytes,
                     messages=stats.messages, sim_s=stats.times.total,
                     cache_hits=stats.cache_hits)
        fold_entry(stats.per_shard, key, entry)
        return self


class ClusterRouter:
    """Routes one run's logical call sites through the catalog (one
    per run, built on first use: ``_Run.router``)."""

    def __init__(self, run: "_Run", catalog: ClusterCatalog):
        self.run = run
        self.catalog = catalog
        self.transport = run.transport
        federation = run.federation
        #: Which replicas may serve and in what order; every attempt's
        #: outcome goes back to it as evidence.
        self.view = federation.peer_view
        # The fleet monitor's event log (None ⇒ disabled, zero extra
        # work) records failovers and skips.
        monitor = federation.monitor
        self.events = monitor.events if monitor is not None else None

    # -- replica selection --------------------------------------------------

    def replica_order(self, shard: ShardInfo) -> list[str]:
        """The replicas that may serve, healthy-then-least-loaded first.

        A *degrading* replica — alive, answering, but demoted by its
        windowed health score — sorts behind every healthy one, so it
        stops receiving first-choice traffic before it ever fails a
        request. Within a health bucket, order is the live load
        (in-flight exchanges, then total bytes served, then placement
        order as the deterministic tie-break). Demoted replicas stay in
        the order: they are still the failover path of last resort.
        """
        peer_load = self.transport.peer_load
        return self.view.order(
            self._serving(shard),
            lambda peer: (*peer_load(peer), shard.replicas.index(peer)))

    def _serving(self, shard: ShardInfo) -> list[str]:
        """The shard's replicas the view lets serve (all of them when it
        lets none — a dead cluster should fail on the wire, not silently
        on an empty candidate list)."""
        serves = self.view.serves
        return ([peer for peer in shard.replicas if serves(peer)]
                or list(shard.replicas))

    # -- scatter-gather over XRPC -------------------------------------------

    def scatter(self, from_peer: str, spec: CollectionSpec,
                calls: list[list[tuple[str, list]]],
                body: Expr, binding: Binding,
                stats: RunStats | None = None,
                counter: CostCounter | None = None) -> list[list]:
        """Execute one XRPC call site against every shard and gather
        (``binding``: the literals of the caller's text, and where what
        they decide — probes, shard texts — is kept).

        Bodies that are not scatter-safe (global order/position
        constructs, non-additive aggregates, collection re-references
        outside generator position) are instead evaluated at the
        originator over the merged collection document — exact
        semantics at data-shipping cost.

        ``stats``/``counter`` are the caller's accounting targets (the
        run's by default; a shard call's private ones when this call
        site is nested inside another scatter).
        """
        run = self.run
        epoch = self.catalog.epoch()
        # The contract belongs to the body the plan knows: resolve it
        # before anything below looks at a rewrite of that body.
        site = run.plan.call_site(body)
        prepared = self.catalog.prepared.intern(
            (id(body), id(spec)), lambda: _PreparedScatter(body, spec))
        if prepared.combine is None:
            return self._evaluate_locally(from_peer, calls,
                                          prepared.unwrapped, binding,
                                          stats=stats, counter=counter)
        probes, shard_texts = binding.once(
            prepared, lambda: prepared.bound(binding.literals))
        skip = [bool(probes) and self._shard_provably_empty(shard, probes)
                for shard in spec.shards]

        with child_span("scatter", collection=spec.name,
                        shards=len(spec.shards)) as scatter_span:
            def call_shard(index: int) -> ScatterOutcome:
                shard = spec.shards[index]
                shard_key = f"{spec.name}#s{shard.index}"
                if skip[index]:
                    # The shard-local value index proved the member
                    # filter selects nothing here: the shard's
                    # contribution is exactly one empty sequence per
                    # call, with no round trip at all.
                    outcome = ScatterOutcome(shard)
                    outcome.results = [[] for _ in calls]
                    outcome.entry["skipped"] = 1
                    if self.events is not None:
                        self.events.emit(
                            "shard_skip",
                            f"shard {shard_key} skipped: value-index "
                            f"probe proved the member filter empty",
                            severity="info", collection=spec.name,
                            shard=shard.index)
                    return outcome.file(shard_key)
                return self._serve_shard(
                    spec, shard, scatter_span,
                    lambda replica, outcome: run._call_peer(
                        run.federation.peer(replica), calls,
                        shard_texts[index], site,
                        outcome.stats, outcome.counter,
                        cache_scope=shard_key, shard_epoch=epoch),
                    partial_answer=[[] for _ in calls])

            outcomes = self._fan_out(len(spec.shards), call_shard)
            if stats is None:
                stats = run.stats
            stats.scatters[spec.name] = stats.scatters.get(spec.name, 0) + 1
            self._merge_outcomes(outcomes, stats=stats, counter=counter)
            if scatter_span is not None:
                spent = RunStats()
                for outcome in outcomes:
                    spent.merge(outcome.stats)
                scatter_span.set(
                    shards_skipped=spent.shards_skipped,
                    failovers=spent.failovers, retries=spent.retries,
                    partial_shards=spent.partial_shards,
                    per_shard=spent.per_shard)
            _renumber_shard_fragments(outcomes)
            return prepared.combine(
                [outcome.results for outcome in outcomes])

    # -- cluster document fetch (data shipping) -----------------------------

    def fetch_collection_document(self, spec: CollectionSpec,
                                  local_name: str,
                                  stats: RunStats | None = None,
                                  parent_span: "Span | None" = None
                                  ) -> tuple[Document, int]:
        """Ship every shard from a live replica and reassemble the
        logical document. Returns ``(document, total wire bytes)``.
        ``parent_span`` is the caller's ``ship`` span; shard fetches
        become its children (a fetch may run on a pool thread with no
        ambient span, so the handoff is explicit)."""
        if local_name != spec.document:
            raise ClusterError(
                f"collection {spec.name!r} has no document "
                f"{local_name!r} (expected {spec.document!r})")

        def fetch_shard(index: int) -> ScatterOutcome:
            shard = spec.shards[index]
            return self._serve_shard(
                spec, shard, parent_span,
                lambda replica, outcome: [self.transport.fetch_document(
                    self.run.federation.peer(replica), shard.local_name,
                    outcome.stats)])

        outcomes = self._fan_out(len(spec.shards), fetch_shard)
        self._merge_outcomes(outcomes, stats=stats)
        fetched = [outcome.results[0] for outcome in outcomes]
        shard_docs = [
            parse_document(text,
                           uri=f"{XRPC_SCHEME}{spec.name}/{shard.local_name}")
            for (text, _size), shard in zip(fetched, spec.shards)
        ]
        merged = merge_shard_documents(
            shard_docs, uri=f"{XRPC_SCHEME}{spec.name}/{local_name}",
            container_path=spec.container_path)
        return merged, sum(size for _text, size in fetched)

    # -- one shard call (shared by scatter and document fetch) --------------

    def _serve_shard(self, spec: CollectionSpec, shard: ShardInfo,
                     parent_span: "Span | None",
                     attempt: Callable[[str, "ScatterOutcome"], list],
                     partial_answer: list | None = None
                     ) -> ScatterOutcome:
        """Run ``attempt(replica, outcome)`` for one shard under its
        ``shard`` span, with retry/failover over the replicas and
        private accounting, then file the shard's ``per_shard`` entry.
        An error the call ends with is kept on the outcome (raised
        once the finished outcomes are merged).

        ``partial_answer`` is what a shard with zero serving replicas
        contributes under the catalog's ``partial="allow"`` policy;
        None (a document fetch, which cannot leave holes) always
        fails with :class:`ShardUnavailableError` instead.
        """
        outcome = ScatterOutcome(shard)
        shard_key = f"{spec.name}#s{shard.index}"
        try:
            # A pool thread has no ambient span; the explicit parent
            # hands it the tree.
            with child_span("shard", parent=parent_span,
                            shard=shard.index,
                            collection=spec.name) as shard_span, \
                    bind_stats_span(outcome.stats, shard_span):
                try:
                    outcome.results = self._with_failover(
                        shard, outcome, attempt, collection=spec.name)
                except ShardUnavailableError:
                    if partial_answer is None \
                            or self.catalog.partial_policy != "allow":
                        raise
                    # Graceful degradation: answer () per call and
                    # flag the hole instead of failing the whole query.
                    outcome.results = partial_answer
                    outcome.entry["partial"] = 1
                    if self.events is not None:
                        self.events.emit(
                            "partial_result",
                            f"shard {shard_key} unavailable; "
                            f"returning flagged partial answer "
                            f"(partial=allow)",
                            severity="warning",
                            collection=spec.name, shard=shard.index)
        except Exception as exc:
            # Not swallowed: _merge_outcomes raises it once the finished
            # calls' accounting is merged.
            outcome.error = exc
            outcome.entry["failed"] = 1
        return outcome.file(shard_key)

    # -- local fallback ------------------------------------------------------

    def _evaluate_locally(self, from_peer: str,
                          calls: list[list[tuple[str, list]]],
                          body: Expr, binding: Binding,
                          stats: RunStats | None = None,
                          counter: CostCounter | None = None) -> list[list]:
        """Evaluate a non-scatter-safe body at the originator, with the
        collection resolved through the run's document resolver (which
        ships and merges the shards, with caching and failover). Exact
        semantics, data-shipping cost — the safety valve for global
        order/position constructs."""
        run = self.run
        evaluator = Evaluator(run.decomposition.module,
                              run.federation.static)
        return evaluator.evaluate_calls(body, DynamicContext(
            resolve_doc=run._resolver(from_peer, stats=stats),
            xrpc_execute=run._make_xrpc_execute(from_peer, stats=stats,
                                                counter=counter),
            counter=run.local_counter,
            binding=binding,
        ), calls)

    # -- shard skipping ------------------------------------------------------

    def _shard_provably_empty(self, shard: ShardInfo,
                              probes: list[tuple[str, str, object]]
                              ) -> bool:
        """Probe a live replica's shard-local value index with the
        body's necessary conditions; True when any probe proves the
        member filter selects nothing in this shard.

        The in-process simulation reads the replica's document
        directly — the stand-in for what a deployed system would keep
        catalog-side (per-shard value synopses / bloom filters). Only
        replicas that may serve are consulted, so a fully-failed shard
        still surfaces its ClusterError instead of being silently
        skipped.
        """
        for replica in self._serving(shard):
            peer = self.run.federation.peers.get(replica)
            if peer is None:
                continue
            document = peer.documents.get(shard.local_name)
            if document is None:
                continue
            vindex = value_index(document)
            for key, op, value in probes:
                matched = vindex.probe(key, op, value)
                if matched is not None and not matched:
                    return True
            return False
        return False

    # -- internals ----------------------------------------------------------

    def _with_failover(self, shard: ShardInfo, outcome: ScatterOutcome,
                       attempt: Callable[[str, ScatterOutcome], list],
                       collection: str = "") -> list:
        """Run ``attempt(replica, outcome)`` against replicas in
        health-then-load order.

        *Transient* wire faults (injected faults, request timeouts —
        :class:`~repro.errors.TransientNetworkError`) are first retried
        **in place** on the same replica under the catalog's
        :class:`~repro.runtime.transport.RetryPolicy`: up to
        ``attempts`` tries per replica, drawing from one shared
        ``budget`` across the whole shard call, with seeded-jitter
        exponential backoff between tries. *Fatal* faults
        (:class:`PeerDownError` — the peer is gone, retrying the same
        wire is pointless) skip straight to the next replica; each
        replica switch is a counted failover. Query-level errors
        propagate immediately — they are not :class:`NetworkError`\\ s
        and must never burn retries or trigger failover.

        Every attempt that succeeds or meets a wire fault is evidence
        for the peer view (health windows, the detector's ladder): one
        :meth:`PeerView.record` each. A replica that answered with an
        error of its own (no such document, a nested scatter that
        failed) is no evidence about its liveness.
        """
        order = self.replica_order(shard)
        policy = self.catalog.retry_policy or _DEFAULT_RETRY
        rng: random.Random | None = None   # seeded at the first retry
        budget = policy.budget
        last_error: NetworkError | None = None
        record = self.view.record
        clock = self.transport.clock
        for position, replica in enumerate(order):
            for try_index in range(max(1, policy.attempts)):
                started = clock()
                try:
                    result = attempt(replica, outcome)
                except NetworkError as exc:
                    if isinstance(exc, (TransientNetworkError,
                                        PeerUnavailableError)):
                        record(replica, clock() - started, False)
                    last_error = exc
                    if isinstance(exc, TransientNetworkError) \
                            and try_index + 1 < policy.attempts \
                            and budget > 0:
                        budget -= 1
                        outcome.entry["retries"] += 1
                        if rng is None:
                            rng = random.Random(policy.seed)
                        delay = policy.backoff_s(try_index, rng)
                        if delay > 0:
                            clock.sleep(delay)
                        continue
                    break  # fatal fault or retries spent: fail over
                else:
                    record(replica, clock() - started, True)
                    return result
            if position + 1 < len(order):
                outcome.entry["failovers"] += 1
                if self.events is not None:
                    self.events.emit(
                        "failover",
                        f"shard {collection}#s{shard.index}: "
                        f"{replica} failed "
                        f"({type(last_error).__name__}), trying "
                        f"{order[position + 1]}",
                        severity="warning", collection=collection,
                        shard=shard.index, replica=replica,
                        next=order[position + 1])
        raise ShardUnavailableError(
            f"all {len(order)} replicas of shard {shard.index} "
            f"({', '.join(order)}) failed") from last_error

    def _fan_out(self, count: int,
                 call: Callable[[int], ScatterOutcome]
                 ) -> list[ScatterOutcome]:
        """Run ``call(0..count-1)``, outcomes in shard order: inline
        (up to the first that failed) unless a transmission can sleep,
        else on a pool bounded by :data:`MAX_SCATTER_PARALLELISM`.
        Threads overlap waiting, not Python: on the never-sleeping
        loopback wire a 4-shard scatter measured 16-18 ms pooled (GIL
        hand-offs — a shared pool read the same) against 10-11 ms
        inline. The pool is per-scatter: a shared one could deadlock on
        nested scatters."""
        parallelism = min(count, MAX_SCATTER_PARALLELISM)
        if parallelism <= 1 or not self.transport.can_sleep():
            outcomes = []
            for index in range(count):
                outcomes.append(call(index))
                if outcomes[-1].error is not None:
                    break
            return outcomes
        with ThreadPoolExecutor(
                max_workers=parallelism,
                thread_name_prefix="cluster-scatter") as pool:
            return list(pool.map(call, range(count)))

    def _merge_outcomes(self, outcomes: list[ScatterOutcome],
                        stats: RunStats | None = None,
                        counter: CostCounter | None = None) -> None:
        """Fold the shard calls' private accounting into the caller's
        targets (the run's by default), in shard order — deterministic
        totals under concurrency — then raise the first shard's error,
        so a failed scatter still accounts for what it spent."""
        if stats is None:
            stats = self.run.stats
        if counter is None:
            counter = self.run.remote_counter
        error = None
        for outcome in outcomes:
            stats.merge(outcome.stats)
            counter.ticks += outcome.counter.ticks
            counter.nodes_visited += outcome.counter.nodes_visited
            counter.docs_opened += outcome.counter.docs_opened
            error = error or outcome.error
        if error is not None:
            raise error
