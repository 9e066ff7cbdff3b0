"""The scatter-gather router: executing one logical call site against
every shard of a collection.

When a federated run reaches an XRPC call site (or a data-shipping
document fetch) whose destination is a catalog virtual host, the
router takes over:

1. **rewrite** — the shipped body's ``doc("xrpc://{collection}/{doc}")``
   references become ``doc($shard)``, a parameter (named afresh: no
   variable of the body can capture it) each call binds to a shard
   fragment's *local* name (``"people.xml#s2"``), which resolves in the
   executing replica's own document space. One text serves every shard
   and replica, so any replica's cached response for the same shards
   serves all. It depends only on the body and the collection's layout,
   so it is prepared once (:class:`_PreparedScatter`; text and skip
   probes once per binding of the body's comparison literals).
2. **cover** — member-filter bodies
   (``for $m in coll return if ($m/... op literal) then .. else ()``)
   are first probed against each shard's local value index
   (:func:`shard_skip_probes`): a shard where provably no node
   satisfies the filter contributes exactly ``()`` per call and is
   skipped (``RunStats.shards_skipped``). The rest go to the fewest
   serving peers that together hold them (:func:`shard_cover`), ties
   broken by :meth:`ClusterRouter.replica_order`'s key — healthy
   first, then the live load — so successive scatters rotate over the
   covers and every replica keeps getting traffic and health evidence.
3. **scatter** — one Bulk RPC per cover peer, one call per (originator
   call × shard it serves); the response's results split back per
   shard. The round trips run on a thread pool (bounded by
   :data:`MAX_SCATTER_PARALLELISM`) only when a transmission can sleep
   (:meth:`Transport.can_sleep`): they are CPU-bound Python, so waiting
   is all threads can overlap. Each keeps a private :class:`RunStats`
   / :class:`CostCounter`, merged in shard order after the gather —
   also when a shard failed, before its error is raised — keeping the
   run's totals deterministic.
4. **failover** — a :class:`~repro.errors.NetworkError` from the wire
   (injected faults, killed peers), once in-place retries are spent,
   re-covers the round trip's shards over their untried serving
   replicas; each moved shard counts one failover in its ``per_shard``
   entry. A shard every replica failed is unavailable (an error, or a
   flagged ``()`` under ``partial="allow"``).
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
files one ``per_shard`` entry (calls, skips, retries, failovers, its
share of bytes, messages and seconds, the shard's ``local_name``). The
registry's ``scatter_*`` series — the reconciler's per-shard heat
among them — are folded from the finished run at the end of
``Federation.run``.

Scatter-safety contract: a sharded collection is addressed through its
*members* (the partitioned elements). Queries returning spine elements
(e.g. the container itself) see one copy per shard — the standard
scatter-gather caveat, documented rather than policed.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Collection, Sequence, TypeVar

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

#: The shard parameter's name, or its stem when the body spells it.
SHARD_PARAMETER = "shard"

_Item = TypeVar("_Item")

#: Router-level default when the catalog carries no policy: a couple of
#: in-place retries per replica before failing over, zero base backoff
#: (the simulated wire has no real congestion to wait out).
_DEFAULT_RETRY = RetryPolicy()

#: How many round trips of one scatter run at a time on threads.
MAX_SCATTER_PARALLELISM = 8


class ShardUnavailableError(ClusterError):
    """Every replica of one shard failed (retries and failover
    exhausted). Distinct from other :class:`ClusterError`\\ s so the
    graceful-degradation policy can swallow exactly this case."""


def rewrite_doc_uris(expr: Expr,
                     mapping: Callable[[str], str | Expr | None]) -> Expr:
    """Rebuild ``expr`` with every literal ``doc(uri)`` argument passed
    through ``mapping``: a string is the new URI, an expression the new
    argument, None keeps the original URI."""
    def visit(node: Expr) -> Expr:
        if (isinstance(node, FunCall) and node.name in _DOC_FUNCTIONS
                and len(node.args) == 1):
            arg = node.args[0]
            if isinstance(arg, Literal) and isinstance(arg.value, str):
                replacement = mapping(arg.value)
                if isinstance(replacement, str):
                    replacement = Literal(replacement)
                if replacement is not None:
                    return FunCall(node.name, [replacement])
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


def shard_cover(items: Sequence[_Item],
                serving: Callable[[_Item], list[str]],
                rank: Callable[[list[str]], list[str]] = list
                ) -> list[tuple[str, list[_Item]]]:
    """The fewest peers that together serve every one of ``items``
    (shards, or what stands for them), as ``(peer, its items)`` pairs
    ordered by their first item.

    ``serving(item)`` lists the peers that may serve an item, ``rank``
    orders candidates (given in name order) best first. Of the least
    covers, the one whose peers rank best (best peer first) wins; each
    item goes to its best-ranked cover peer. An item's only server is
    in every cover, so the exact search runs over the other peers.
    """
    options = [serving(item) for item in items]
    ranked = rank(sorted({peer for peers in options for peer in peers}))
    forced = {peers[0] for peers in options if len(peers) == 1}
    free = [peer for peer in ranked if peer not in forced]
    for size in range(len(free) + 1):
        for extra in combinations(free, size):
            chosen = forced.union(extra)
            if all(not chosen.isdisjoint(peers) for peers in options):
                groups: dict[str, list[_Item]] = {}
                for item, peers in zip(items, options):
                    peer = next(p for p in ranked
                                if p in chosen and p in peers)
                    groups.setdefault(peer, []).append(item)
                return list(groups.items())
    raise ClusterError("an item has no serving peer")


def serving_replicas(view, shard: ShardInfo) -> list[str]:
    """The shard's replicas ``view`` lets serve (all of them when it
    lets none — a dead cluster should fail on the wire, not silently on
    an empty candidate list)."""
    return ([peer for peer in shard.replicas if view.serves(peer)]
            or list(shard.replicas))


class _PreparedScatter:
    """What a scatter of ``body`` over ``spec`` needs and no op changes:
    the unwrapped body and its gather combinator (None: not
    scatter-safe, evaluated at the originator); and, per binding of
    the body's literals (:meth:`bound`), the shard-skip probes, the
    shard parameter's name and the one shipped text.

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

    def bound(self, literals: tuple, param_names: list[str]
              ) -> tuple[list[tuple[str, str, object]], str, str]:
        """``(probes, shard parameter, text)`` for a scatter-safe body
        whose slots hold ``literals``, called with ``param_names``. The
        parameter is named so that the text spells no ``$`` + name and
        no call parameter is called so: nothing in the body can capture
        it."""
        spec, body = self.spec, bind(self.unwrapped, literals)
        spelled = pretty(body)
        name, suffix = SHARD_PARAMETER, 0
        while f"${name}" in spelled or name in param_names:
            suffix += 1
            name = f"{SHARD_PARAMETER}{suffix}"

        def parameter(uri: str) -> Expr | None:
            parts = split_xrpc_uri(uri)
            if parts is None or parts[0] != spec.name:
                return None
            if parts[1] != spec.document:
                raise ClusterError(
                    f"collection {spec.name!r} has no document "
                    f"{parts[1]!r} (expected {spec.document!r})")
            return VarRef(name)

        return (shard_skip_probes(body, spec.name), name,
                pretty(rewrite_doc_uris(body, parameter)))


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
    """One shard's part of a scatter or a collection fetch: its results
    (or the error it ended with), what is left of its retry budget, its
    backoff draw, and ``entry`` — its ``per_shard`` entry, filed into
    the caller's stats when the scatter is merged."""

    __slots__ = ("shard", "results", "entry", "error", "budget", "rng")

    def __init__(self, shard: ShardInfo, budget: int) -> None:
        self.shard = shard
        self.results: list = []
        self.entry = {"shard": shard.local_name, "calls": 1,
                      "failovers": 0, "retries": 0, "skipped": 0,
                      "partial": 0, "failed": 0, "bytes": 0,
                      "messages": 0, "sim_s": 0.0, "cache_hits": 0}
        self.error: Exception | None = None
        self.budget = budget
        self.rng: random.Random | None = None   # seeded at a first retry


def _share(group: list[ScatterOutcome], stats: RunStats) -> None:
    """Split one round trip's accounting (``stats``, nested work
    included) over the entries of the shards it served, by call share:
    each carries the same calls, so each gets an equal part, an
    integer's remainder going one unit each to the first shards. The
    sums over ``per_shard`` stay the run's totals."""
    count = len(group)
    totals = (("bytes", stats.total_transferred_bytes),
              ("messages", stats.messages),
              ("cache_hits", stats.cache_hits))
    for index, outcome in enumerate(group):
        entry = outcome.entry
        for name, total in totals:
            entry[name] += total // count + (index < total % count)
        entry["sim_s"] += stats.times.total / count


#: ``attempt(replica, shards, stats, counter)``: one round trip to
#: ``replica`` serving ``shards``, one result per shard.
_Attempt = Callable[[str, list[ShardInfo], RunStats, CostCounter], list]
#: The private accounting of each round trip one group took.
_Spent = list[tuple[RunStats, CostCounter]]


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
        the order: they are still the failover path of last resort. A
        cover ranks its candidate peers by the same key.
        """
        return self._rank(serving_replicas(self.view, shard), [shard])

    def _rank(self, peers: list[str], shards: list[ShardInfo]
              ) -> list[str]:
        peer_load = self.transport.peer_load
        return self.view.order(peers, lambda peer: (
            *peer_load(peer),
            min(s.replicas.index(peer) for s in shards
                if peer in s.replicas)))

    def _cover(self, outcomes: list[ScatterOutcome],
               tried: Collection[str] = ()
               ) -> list[tuple[str, list[ScatterOutcome]]]:
        """:func:`shard_cover` of ``outcomes``' shards over their
        serving replicas not ``tried``, ranked as replicas are."""
        shards = [outcome.shard for outcome in outcomes]
        return shard_cover(
            outcomes,
            lambda outcome: [peer for peer in serving_replicas(
                self.view, outcome.shard) if peer not in tried],
            lambda peers: self._rank(peers, shards))

    def _outcomes(self, spec: CollectionSpec) -> list[ScatterOutcome]:
        budget = (self.catalog.retry_policy or _DEFAULT_RETRY).budget
        return [ScatterOutcome(shard, budget) for shard in spec.shards]

    # -- scatter-gather over XRPC -------------------------------------------

    def scatter(self, from_peer: str, spec: CollectionSpec,
                calls: list[list[tuple[str, list]]],
                body: Expr, binding: Binding,
                stats: RunStats | None = None,
                counter: CostCounter | None = None) -> list[list]:
        """Execute one XRPC call site against every shard and gather
        (``binding``: the literals of the caller's text, and where what
        they decide — probes, the shipped text — is kept).

        Bodies that are not scatter-safe (global order/position
        constructs, non-additive aggregates, collection re-references
        outside generator position) are instead evaluated at the
        originator over the merged collection document — exact
        semantics at data-shipping cost.

        ``stats``/``counter`` are the caller's accounting targets (the
        run's by default; a round trip's private ones when this call
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
        probes, parameter, text = binding.once(
            prepared, lambda: prepared.bound(
                binding.literals, [name for name, _seq in calls[0]]
                if calls else []))
        outcomes = self._outcomes(spec)
        for outcome in outcomes:
            if probes and self._shard_provably_empty(outcome.shard, probes):
                # The shard-local value index proved the member filter
                # selects nothing here: the shard's contribution is
                # exactly one empty sequence per call, with no round
                # trip at all.
                outcome.results = [[] for _ in calls]
                outcome.entry["skipped"] = 1
                self.emit("shard_skip", spec, outcome.shard,
                          " skipped: value-index probe proved the member "
                          "filter empty", severity="info")
        groups = self._cover([outcome for outcome in outcomes
                              if not outcome.entry["skipped"]])

        def call_group(replica: str, shards: list[ShardInfo],
                       call_stats: RunStats,
                       call_counter: CostCounter) -> list[list[list]]:
            # Shard-major: the response's results split back per shard.
            results = run._call_peer(
                run.federation.peer(replica),
                [[*call, (parameter, [shard.local_name])]
                 for shard in shards for call in calls],
                text, site, call_stats, call_counter,
                cache_scope=spec.name, shard_epoch=epoch)
            width = len(calls)
            return [results[at:at + width]
                    for at in range(0, width * len(shards), width)]

        with child_span("scatter", collection=spec.name,
                        shards=len(spec.shards),
                        peers=len(groups)) as scatter_span:
            if stats is None:
                stats = run.stats
            stats.scatters[spec.name] = stats.scatters.get(spec.name, 0) + 1
            own = self._serve(spec, outcomes, groups, scatter_span,
                              call_group, [[] for _ in calls],
                              stats=stats, counter=counter)
            if scatter_span is not None:
                scatter_span.set(
                    shards_skipped=own.shards_skipped,
                    failovers=own.failovers, retries=own.retries,
                    partial_shards=own.partial_shards,
                    per_shard=own.per_shard)
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
        ambient span, so the handoff is explicit). A document is one
        transmission: each shard is a round trip of its own."""
        if local_name != spec.document:
            raise ClusterError(
                f"collection {spec.name!r} has no document "
                f"{local_name!r} (expected {spec.document!r})")

        def fetch(replica: str, shards: list[ShardInfo],
                  fetch_stats: RunStats, _counter: CostCounter) -> list:
            peer = self.run.federation.peer(replica)
            return [[self.transport.fetch_document(
                peer, shard.local_name, fetch_stats)] for shard in shards]

        outcomes = self._outcomes(spec)
        groups = [group for outcome in outcomes
                  for group in self._cover([outcome])]
        self._serve(spec, outcomes, groups, parent_span, fetch, stats=stats)
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

    # -- one round trip per group (shared by scatter and document fetch) ----

    def _serve_group(self, spec: CollectionSpec, replica: str,
                     group: list[ScatterOutcome],
                     parent_span: "Span | None", attempt: _Attempt,
                     partial_answer: list | None = None) -> _Spent:
        """One round trip serving ``group``'s shards at ``replica``
        under its ``shard`` span, retried in place, with private
        accounting (shared into the shards' entries). A wire fault
        re-covers the shards over their serving replicas not yet tried
        and serves them there, each moved shard counting one failover.
        An error a shard ends with is kept on its outcome (raised once
        the finished outcomes are merged).

        ``partial_answer`` is what a shard with zero serving replicas
        left contributes under the catalog's ``partial="allow"``
        policy; None (a document fetch, which cannot leave holes)
        always fails with :class:`ShardUnavailableError` instead.
        """
        spent: _Spent = []
        tried: set[str] = set()
        trips = [(replica, group)]
        for replica, group in trips:      # failovers append re-covers
            stats, counter = RunStats(), CostCounter()
            spent.append((stats, counter))
            try:
                # A pool thread has no ambient span; the explicit
                # parent hands it the tree.
                with child_span("shard", parent=parent_span,
                                collection=spec.name, peer=replica,
                                shards=[o.shard.index for o in group]) \
                        as shard_span, bind_stats_span(stats, shard_span):
                    results = self._with_retries(replica, group, attempt,
                                                 stats, counter)
                for outcome, result in zip(group, results):
                    outcome.results = result
            except NetworkError as fault:
                tried.add(replica)
                moving = [outcome for outcome in group
                          if not self._unavailable(spec, outcome, tried,
                                                   fault, partial_answer)]
                for peer, moved in self._cover(moving, tried):
                    for outcome in moved:
                        outcome.entry["failovers"] += 1
                        self.emit(
                            "failover", spec, outcome.shard,
                            f": {replica} failed ({type(fault).__name__}),"
                            f" trying {peer}", replica=replica, next=peer)
                    trips.append((peer, moved))
            except Exception as exc:
                for outcome in group:
                    outcome.error = exc
                    outcome.entry["failed"] = 1
            _share(group, stats)
        return spent

    def _unavailable(self, spec: CollectionSpec, outcome: ScatterOutcome,
                     tried: set[str], fault: NetworkError,
                     partial_answer: list | None) -> bool:
        """False while ``outcome``'s shard has a serving replica not
        ``tried``; else settle it — a flagged partial answer under
        ``partial="allow"``, an error otherwise — and say True."""
        serving = serving_replicas(self.view, outcome.shard)
        if not tried.issuperset(serving):
            return False
        if partial_answer is None or self.catalog.partial_policy != "allow":
            error = ShardUnavailableError(
                f"all {len(serving)} replicas of shard "
                f"{outcome.shard.index} ({', '.join(serving)}) failed")
            error.__cause__ = fault
            outcome.error = error
            outcome.entry["failed"] = 1
            return True
        # Graceful degradation: answer () per call and flag the hole
        # instead of failing the whole query.
        outcome.results = partial_answer
        outcome.entry["partial"] = 1
        self.emit("partial_result", spec, outcome.shard,
                  " unavailable; returning flagged partial answer "
                  "(partial=allow)")
        return True

    def emit(self, kind: str, spec: CollectionSpec, shard: ShardInfo,
              text: str, severity: str = "warning", **attrs) -> None:
        """One ``kind`` event about ``shard``, when a monitor listens."""
        if self.events is not None:
            self.events.emit(kind, f"shard {spec.name}#s{shard.index}{text}",
                             severity=severity, collection=spec.name,
                             shard=shard.index, **attrs)

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
        for replica in serving_replicas(self.view, shard):
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

    def _with_retries(self, replica: str, group: list[ScatterOutcome],
                      attempt: _Attempt, stats: RunStats,
                      counter: CostCounter) -> list:
        """Run ``attempt`` against ``replica`` for ``group``'s shards.

        *Transient* wire faults (injected faults, request timeouts —
        :class:`~repro.errors.TransientNetworkError`) are retried **in
        place** under the catalog's
        :class:`~repro.runtime.transport.RetryPolicy`: up to
        ``attempts`` tries, while every shard of the group has some of
        its own ``budget`` left (a retry spends one of each and counts
        in each entry), with seeded-jitter exponential backoff. Any
        other :class:`~repro.errors.NetworkError` (a fatal
        :class:`PeerDownError`, or retries spent) is raised for the
        caller to fail over; query-level errors are not, and never
        burn retries or trigger failover.

        Every attempt that succeeds or meets a wire fault is evidence
        for the peer view (health windows, the detector's ladder): one
        :meth:`PeerView.record` each. A replica that answered with an
        error of its own (no such document, a nested scatter that
        failed) is no evidence about its liveness.
        """
        policy = self.catalog.retry_policy or _DEFAULT_RETRY
        record = self.view.record
        clock = self.transport.clock
        shards = [outcome.shard for outcome in group]
        lead = group[0]       # its draw paces the group's backoff
        for try_index in range(max(1, policy.attempts)):
            started = clock()
            try:
                result = attempt(replica, shards, stats, counter)
            except NetworkError as exc:
                if isinstance(exc, (TransientNetworkError,
                                    PeerUnavailableError)):
                    record(replica, clock() - started, False)
                if not (isinstance(exc, TransientNetworkError)
                        and try_index + 1 < policy.attempts
                        and all(o.budget > 0 for o in group)):
                    raise
                for outcome in group:
                    outcome.budget -= 1
                    outcome.entry["retries"] += 1
                if lead.rng is None:
                    lead.rng = random.Random(policy.seed)
                delay = policy.backoff_s(try_index, lead.rng)
                if delay > 0:
                    clock.sleep(delay)
            else:
                record(replica, clock() - started, True)
                return result
        raise AssertionError("unreachable: the last try raises")

    def _serve(self, spec: CollectionSpec, outcomes: list[ScatterOutcome],
               groups: list[tuple[str, list[ScatterOutcome]]],
               parent_span: "Span | None", attempt: _Attempt,
               partial_answer: list | None = None,
               stats: RunStats | None = None,
               counter: CostCounter | None = None) -> RunStats:
        """Serve ``groups`` — inline (up to the first that failed)
        unless a transmission can sleep, else on a pool bounded by
        :data:`MAX_SCATTER_PARALLELISM` — then fold the round trips'
        private accounting and the entries of the shards skipped or
        served (in shard order) into the caller's targets (the run's by
        default), and raise the first shard's error: totals are
        deterministic under concurrency, and a failed scatter still
        accounts for what it spent. Returns what was folded in.

        Threads overlap waiting, not Python: on the never-sleeping
        loopback wire their hand-offs only add to the round trips' own
        time. The pool is per-scatter: a shared one could deadlock on
        nested scatters."""
        def serve(group: tuple[str, list[ScatterOutcome]]) -> _Spent:
            return self._serve_group(spec, *group, parent_span, attempt,
                                     partial_answer)

        parallelism = min(len(groups), MAX_SCATTER_PARALLELISM)
        if parallelism <= 1 or not self.transport.can_sleep():
            spent = []
            for group in groups:
                spent.append(serve(group))
                if any(outcome.error is not None for outcome in group[1]):
                    break
        else:
            with ThreadPoolExecutor(
                    max_workers=parallelism,
                    thread_name_prefix="cluster-scatter") as pool:
                spent = list(pool.map(serve, groups))
        if counter is None:
            counter = self.run.remote_counter
        own = RunStats()
        for call_stats, call_counter in (trip for trips in spent
                                         for trip in trips):
            own.merge(call_stats)
            counter.ticks += call_counter.ticks
            counter.nodes_visited += call_counter.nodes_visited
            counter.docs_opened += call_counter.docs_opened
        ran = {id(outcome) for _replica, group in groups[:len(spent)]
               for outcome in group}
        error = None
        for outcome in outcomes:
            if outcome.entry["skipped"] or id(outcome) in ran:
                fold_entry(own.per_shard,
                           f"{spec.name}#s{outcome.shard.index}",
                           outcome.entry)
                error = error or outcome.error
        (self.run.stats if stats is None else stats).merge(own)
        if error is not None:
            raise error
        return own
