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
   broken by the replica ranking (``ClusterRouter._rank``) — healthy
   first, then the live load — so successive scatters rotate over the
   covers and every replica keeps getting traffic and health evidence.
3. **scatter** — one Bulk RPC per cover peer, one call per (originator
   call × shard it serves); the response's results split back per
   shard. The round trips run one after another on the calling thread,
   in cover order, and stop after the first that ends with an error.
   Each charges the run's :class:`RunStats` directly; what the run's
   totals moved across it, nested work included, is shared into the
   ``per_shard`` entries of the shards it served.
4. **failover** — a :class:`~repro.errors.PeerUnavailableError`
   naming the replica (a killed peer, a replica without the fragment
   the catalog places on it) re-covers the round trip's shards over
   their untried serving replicas; each moved shard counts one
   failover in its ``per_shard`` entry. Nothing is retried in place:
   each replica is tried once, and a shard every serving replica
   failed fails the query with
   :class:`~repro.errors.ShardUnavailableError`. Any other fault (a
   nested scatter's unavailable shard, a down peer the body called, a
   missing document the body names, a dynamic error) fails the round
   trip's shards as a query error: no failover.
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
files one ``per_shard`` entry (calls, skips, failovers, failures, its
share of bytes, messages and seconds, the shard's ``local_name``). The
registry's ``scatter_*`` series — the reconciler's per-shard heat
among them — are folded from the finished run at the end of
``Federation.run``.

Scatter-safety contract: a sharded collection is addressed through its
*members* (the partitioned elements). Queries returning spine elements
(e.g. the container itself) see one copy per shard — the standard
scatter-gather caveat, documented rather than policed.

Import rule: this module first loads when a run first scatters, which
may be while a tracer has wrapped the layers' functions (the ledger's
span recorder rebinds every module attribute that holds one, and puts
back only what it rebound). So it binds no span target by name at
import: it reads ``parser.parse_document`` through its module.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Callable, Collection, Sequence, TypeVar

from repro.cluster.catalog import ClusterCatalog, CollectionSpec, ShardInfo
from repro.cluster.gather import gather_plan, merge_shard_documents
from repro.decompose.points import XRPC_SCHEME, split_xrpc_uri
from repro.errors import (
    ClusterError, PeerUnavailableError, ShardUnavailableError, indicts,
)
from repro.runtime.cache import ReadSet
from repro.net.stats import RunStats, fold_entry
from repro.obs.trace import bind_stats_span, child_span
from repro.xmldb import parser
from repro.xmldb.document import Document, fresh_doc_seq
from repro.xmldb.node import Node
from repro.xmldb.values import value_index
from repro.xquery.ast import (
    EmptySequence, Expr, ForExpr, FunCall, IfExpr, LetExpr, Literal,
    PathExpr, VarRef, XRPCExpr, bind,
)
from repro.xquery.context import DynamicContext
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
    ``from_xml`` shreds a payload, and the round trips decode their
    responses in cover order (a peer's shards together, failovers last)
    — so without renumbering, a later document-order sort (a local path
    step over the gathered items, a ``union``, ``<<``) could interleave
    shards. The fragments are query-private (each decoding makes
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
    (or the error it ended with) and ``entry`` — its ``per_shard``
    entry, filed into the run's stats when its scatter ends."""

    __slots__ = ("shard", "results", "entry", "error")

    def __init__(self, shard: ShardInfo) -> None:
        self.shard = shard
        self.results: list = []
        self.entry = {"shard": shard.local_name, "calls": 1,
                      "failovers": 0, "skipped": 0, "failed": 0,
                      "bytes": 0, "messages": 0, "sim_s": 0.0,
                      "cache_hits": 0}
        self.error: Exception | None = None


def _totals(stats: RunStats) -> tuple[int, int, int, float]:
    """The run totals a round trip's share is a delta of: bytes,
    messages, cache hits and simulated seconds."""
    return (stats.total_transferred_bytes, stats.messages,
            stats.cache_hits, stats.times.total)


def _share(group: list[ScatterOutcome], before: tuple,
           after: tuple) -> None:
    """Split what one round trip spent — the run's :func:`_totals`
    ``after`` it less ``before`` it, nested work included — over the
    entries of the shards it served, by call share: each carries the
    same calls, so each gets an equal part, an integer's remainder
    going one unit each to the first shards.

    A collection's entries sum to what its scatters' round trips spent.
    A scatter nested in one of those round trips is part of that spend,
    and its own collection's entries count it again: only the
    outermost collection's entries sum to the run's totals, and only
    when its scatters made all of the run's traffic."""
    count = len(group)
    spent = [end - start for start, end in zip(before, after)]
    for index, outcome in enumerate(group):
        entry = outcome.entry
        for name, total in zip(("bytes", "messages", "cache_hits"), spent):
            entry[name] += total // count + (index < total % count)
        entry["sim_s"] += spent[3] / count


#: ``attempt(replica, shards)``: one round trip to ``replica`` serving
#: ``shards``, one result per shard.
_Attempt = Callable[[str, list[ShardInfo]], list]


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
        # The federation's event log (None ⇒ disabled, zero extra
        # work) records failovers and skips.
        self.events = federation.events

    # -- replica selection --------------------------------------------------

    def _rank(self, peers: list[str], shards: list[ShardInfo]
              ) -> list[str]:
        """``peers`` (serving replicas of ``shards``), healthy-then-
        least-loaded first.

        A *degrading* replica — alive, answering, but demoted by its
        windowed health score — sorts behind every healthy one, so it
        stops receiving first-choice traffic before it ever fails a
        request. Within a health bucket, order is the live load
        (in-flight exchanges, then total bytes served, then placement
        order as the deterministic tie-break). Demoted replicas stay in
        the order: they are still the failover path of last resort.
        """
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

    # -- scatter-gather over XRPC -------------------------------------------

    def scatter(self, from_peer: str, spec: CollectionSpec,
                calls: list[list[tuple[str, list]]],
                body: Expr, binding: Binding,
                reads: ReadSet | None = None) -> list[list]:
        """Execute one XRPC call site against every shard and gather
        (``binding``: the literals of the caller's text, and where what
        they decide — probes, the shipped text — is kept).

        Bodies that are not scatter-safe (global order/position
        constructs, non-additive aggregates, collection re-references
        outside generator position) are instead evaluated at the
        originator over the merged collection document — exact
        semantics at data-shipping cost.

        ``reads``, the read set of the exchange making the call, notes
        every replica of every shard (the skip probes read them too);
        each round trip's cache entry is validated by the replicas of
        the shards it serves, as any of them may serve it next.
        """
        run = self.run
        if reads is not None:
            reads.note_all(run.federation.generations(
                replica for shard in spec.shards
                for replica in shard.replicas))
        epoch = self.catalog.epoch()
        # The contract belongs to the body the plan knows: resolve it
        # before anything below looks at a rewrite of that body.
        site = run.plan.call_site(body)
        prepared = self.catalog.prepared.intern(
            (id(body), id(spec)), lambda: _PreparedScatter(body, spec))
        if prepared.combine is None:
            return self._evaluate_locally(from_peer, calls,
                                          prepared.unwrapped, binding,
                                          reads=reads)
        names = [name for name, _seq in calls[0]] if calls else []
        probes, parameter, text = binding.once(
            prepared, lambda: prepared.bound(binding.literals, names))
        head = run.request_head(binding, site, lambda: text,
                                [*names, parameter], scatter=prepared)
        outcomes = [ScatterOutcome(shard) for shard in spec.shards]
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

        def call_group(replica: str,
                       shards: list[ShardInfo]) -> list[list[list]]:
            # Shard-major: the response's results split back per shard.
            results = run._call_peer(
                run.federation.peer(replica),
                [[*call, (parameter, [shard.local_name])]
                 for shard in shards for call in calls],
                head, site, cache_scope=spec.name, shard_epoch=epoch,
                replicas=(replica for shard in shards
                          for replica in shard.replicas),
                reads=reads)
            width = len(calls)
            return [results[at:at + width]
                    for at in range(0, width * len(shards), width)]

        with child_span("scatter", collection=spec.name,
                        shards=len(spec.shards),
                        peers=len(groups)) as scatter_span:
            scatters = run.stats.scatters
            scatters[spec.name] = scatters.get(spec.name, 0) + 1
            filed = self._serve(spec, outcomes, groups, call_group)
            if scatter_span is not None:
                # This scatter's own shards: a nested scatter's are
                # on its own span, below.
                own = RunStats(per_shard=filed)
                scatter_span.set(
                    shards_skipped=own.shards_skipped,
                    failovers=own.failovers, per_shard=filed)
            _renumber_shard_fragments(outcomes)
            return prepared.combine(
                [outcome.results for outcome in outcomes])

    # -- cluster document fetch (data shipping) -----------------------------

    def fetch_collection_document(self, spec: CollectionSpec,
                                  local_name: str) -> tuple[Document, int]:
        """Ship every shard from a live replica and reassemble the
        logical document. Returns ``(document, total wire bytes)``.
        Shard fetches become children of the caller's ``ship`` span. A
        document is one transmission: each shard is a round trip of its
        own."""
        if local_name != spec.document:
            raise ClusterError(
                f"collection {spec.name!r} has no document "
                f"{local_name!r} (expected {spec.document!r})")

        def fetch(replica: str, shards: list[ShardInfo]) -> list:
            peer = self.run.federation.peer(replica)
            return [[self.transport.fetch_document(
                peer, shard.local_name, self.run.stats)] for shard in shards]

        outcomes = [ScatterOutcome(shard) for shard in spec.shards]
        groups = [group for outcome in outcomes
                  for group in self._cover([outcome])]
        self._serve(spec, outcomes, groups, fetch)
        fetched = [outcome.results[0] for outcome in outcomes]
        shard_docs = [
            parser.parse_document(
                text, uri=f"{XRPC_SCHEME}{spec.name}/{shard.local_name}")
            for (text, _size), shard in zip(fetched, spec.shards)
        ]
        merged = merge_shard_documents(
            shard_docs, uri=f"{XRPC_SCHEME}{spec.name}/{local_name}",
            container_path=spec.container_path)
        return merged, sum(size for _text, size in fetched)

    # -- one round trip per group (shared by scatter and document fetch) ----

    def _serve_group(self, spec: CollectionSpec, replica: str,
                     group: list[ScatterOutcome],
                     attempt: _Attempt) -> None:
        """One round trip serving ``group``'s shards at ``replica``
        under its ``shard`` span, charging the run's stats (what it
        spent is shared into the shards' entries). A wire fault
        re-covers the shards over their serving replicas not yet tried
        and serves them there, each moved shard counting one failover;
        a shard with none left fails with :class:`ShardUnavailableError`.
        Only a :class:`PeerUnavailableError` naming ``replica`` is a
        wire fault; anything else the round trip raises (a nested
        scatter's unavailable shard, a peer the body called that is
        down, a document the body names that is missing) is a query
        error: it fails the group's shards, as another replica would
        raise it too. An error a shard ends with is kept on its outcome
        (raised once the scatter's entries are filed)."""
        stats = self.run.stats
        tried: set[str] = set()
        trips = [(replica, group)]
        for replica, group in trips:      # failovers append re-covers
            before = _totals(stats)
            try:
                with child_span("shard", collection=spec.name,
                                peer=replica,
                                shards=[o.shard.index for o in group]) \
                        as shard_span, bind_stats_span(stats, shard_span):
                    results = self._round_trip(replica, group, attempt)
                for outcome, result in zip(group, results):
                    outcome.results = result
            except Exception as fault:
                if not indicts(fault, replica):
                    self._fail(group, fault)
                else:
                    tried.add(replica)
                    moving = [outcome for outcome in group
                              if not self._unavailable(spec, outcome,
                                                       tried, fault)]
                    for peer, moved in self._cover(moving, tried):
                        for outcome in moved:
                            outcome.entry["failovers"] += 1
                            self.emit(
                                "failover", spec, outcome.shard,
                                f": {replica} failed "
                                f"({type(fault).__name__}), trying {peer}",
                                replica=replica, next=peer)
                        trips.append((peer, moved))
            _share(group, before, _totals(stats))

    @staticmethod
    def _fail(outcomes: list[ScatterOutcome], error: Exception) -> None:
        for outcome in outcomes:
            outcome.error = error
            outcome.entry["failed"] = 1

    def _unavailable(self, spec: CollectionSpec, outcome: ScatterOutcome,
                     tried: set[str], fault: PeerUnavailableError) -> bool:
        """False while ``outcome``'s shard has a serving replica not
        ``tried``; else fail it with :class:`ShardUnavailableError` and
        say True."""
        serving = serving_replicas(self.view, outcome.shard)
        if not tried.issuperset(serving):
            return False
        error = ShardUnavailableError(
            f"all {len(serving)} replicas of shard {spec.name}"
            f"#s{outcome.shard.index} ({', '.join(serving)}) failed")
        error.__cause__ = fault
        self._fail([outcome], error)
        return True

    def emit(self, kind: str, spec: CollectionSpec, shard: ShardInfo,
              text: str, severity: str = "warning", **attrs) -> None:
        """One ``kind`` event about ``shard``, when a log is attached."""
        if self.events is not None:
            self.events.emit(kind, f"shard {spec.name}#s{shard.index}{text}",
                             severity=severity, collection=spec.name,
                             shard=shard.index, **attrs)

    # -- local fallback ------------------------------------------------------

    def _evaluate_locally(self, from_peer: str,
                          calls: list[list[tuple[str, list]]],
                          body: Expr, binding: Binding,
                          reads: ReadSet | None = None) -> list[list]:
        """Evaluate a non-scatter-safe body at the originator, with the
        collection resolved through the run's document resolver (which
        ships and merges the shards, with caching and failover). Exact
        semantics, data-shipping cost — the safety valve for global
        order/position constructs."""
        run = self.run
        evaluator = Evaluator(run.decomposition.module,
                              run.federation.static)
        return evaluator.evaluate_calls(body, DynamicContext(
            resolve_doc=run._resolver(from_peer, reads=reads),
            xrpc_execute=run._make_xrpc_execute(from_peer, reads=reads),
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

    def _round_trip(self, replica: str, group: list[ScatterOutcome],
                 attempt: _Attempt) -> list:
        """Run ``attempt`` once against ``replica`` for ``group``'s
        shards. What it raises goes to the caller: a
        :class:`~repro.errors.PeerUnavailableError` naming ``replica``
        fails over, anything else fails the shards.

        A replica that lacks the fragment of a shard it serves fails
        the attempt before it is sent (:meth:`Peer.fragment`): a
        placement fault, which indicts the replica.

        The attempt is evidence for the peer view (health windows, the
        detector's ladder) when it succeeds or the fault indicts
        ``replica``: one :meth:`PeerView.record`. A replica that
        answered with a query error of its own (a nested scatter that
        failed, a down peer its body called) is no evidence about its
        liveness.
        """
        clock = self.transport.clock
        started = clock()
        shards = [outcome.shard for outcome in group]
        try:
            peer = self.run.federation.peer(replica)
            for shard in shards:
                peer.fragment(shard.local_name)
            result = attempt(replica, shards)
        except Exception as fault:
            if indicts(fault, replica):
                self.view.record(replica, clock() - started, False)
            raise
        self.view.record(replica, clock() - started, True)
        return result

    def _serve(self, spec: CollectionSpec, outcomes: list[ScatterOutcome],
               groups: list[tuple[str, list[ScatterOutcome]]],
               attempt: _Attempt) -> dict[str, dict]:
        """Serve ``groups`` one after another on the calling thread, up
        to the first that ends with an error, then file the entries of
        the shards skipped or served (in shard order) into the run's
        ``per_shard`` and raise the first shard's error: a failed
        scatter still accounts for what it spent, and no round trip
        reaches a group after it. Returns the entries filed, by key."""
        ran: set[int] = set()
        for replica, group in groups:
            self._serve_group(spec, replica, group, attempt)
            ran.update(id(outcome) for outcome in group)
            if any(outcome.error is not None for outcome in group):
                break
        filed: dict[str, dict] = {}
        error = None
        for outcome in outcomes:
            if outcome.entry["skipped"] or id(outcome) in ran:
                key = f"{spec.name}#s{outcome.shard.index}"
                fold_entry(self.run.stats.per_shard, key, outcome.entry)
                filed[key] = outcome.entry
                error = error or outcome.error
        if error is not None:
            raise error
        return filed
