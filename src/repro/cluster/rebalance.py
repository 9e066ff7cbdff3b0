"""Load-aware rebalancing: scoring peers and shards, planning moves.

PR 9's repair loop restores *replication*; this module restores
*balance*. It closes the remaining half of the elastic-operations
story: a hot shard can split while serving traffic, a loaded peer can
shed replicas onto a cooler one, and a peer can drain to empty for a
planned decommission — all behind the catalog's epoch machinery, so
in-flight scatters only ever see the old or the new placement.

Two pieces live here:

- :class:`LoadScorer` — **the** load-aware scoring function, shared by
  the repair engine's target selection and the rebalancer's planning.
  It folds the cluster's load signals into one :class:`PeerScore` per
  peer: fragment bytes from the planner's
  :class:`~repro.planner.stats.StatsCatalog` (serialized-size exact,
  memoized), live in-flight exchanges and cumulative served bytes from
  the transport. ``rank()`` keeps the peers the federation's
  :class:`~repro.cluster.membership.PeerView` lets accept a replica, in
  the view's order: healthy first, then coolest.

- :class:`Rebalancer` — the control loop. ``plan()`` reads the
  router's per-shard serve counters (``scatter_shard_serves_total``,
  labeled by shard *local name* so identity survives split
  renumbering) as heat deltas since the previous planning pass and
  emits migration plans: :class:`SplitPlan` when one shard absorbs
  more than ``hot_share`` of a collection's traffic, :class:`MovePlan`
  when the hottest peer carries more than ``spread_factor`` times the
  mean load. ``drain()``/``undrain()`` run planned decommissions.
  Execution is delegated to the federation's one
  :class:`~repro.cluster.migrate.MigrationExecutor` (shared with the
  repair engine), which owns the staged copy → verify → cutover →
  retire protocol and its rollback/retry discipline.

Everything is deterministic given a deterministic workload: scoring
reads point-in-time snapshots, ties break on names, and the chaos
harness's ``chaos_split``/``chaos_move`` picks use cumulative heat so
a replayed schedule reshapes the cluster identically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.cluster.catalog import ClusterError
from repro.xmldb.serializer import serialized_byte_length

__all__ = [
    "PeerScore", "LoadScorer", "MovePlan", "SplitPlan", "ReplicatePlan",
    "Rebalancer",
]

#: One in-flight exchange weighs like this many resident fragment
#: bytes — it represents work actively squatting on the peer now,
#: which matters more than cold data at rest.
INFLIGHT_BYTES_WEIGHT = 65536
#: Cumulative served wire bytes are the long-run traffic signal; they
#: grow without bound, so they enter the score damped.
SERVED_BYTES_WEIGHT = 0.25


@dataclass(frozen=True)
class PeerScore:
    """One peer's standing in the placement order."""

    peer: str
    fragments: int       # shard replicas placed on this peer
    fragment_bytes: int  # serialized bytes of those fragments
    in_flight: int       # live exchanges on the wire right now
    served_bytes: int    # cumulative wire bytes served

    @property
    def load(self) -> float:
        """The scalar the placement order sorts by."""
        return (self.fragment_bytes
                + INFLIGHT_BYTES_WEIGHT * self.in_flight
                + SERVED_BYTES_WEIGHT * self.served_bytes)


class LoadScorer:
    """The one load-aware scoring function repair and rebalance share.

    Signals are read fresh on every call — a scorer holds no state, so
    two callers (the repair engine picking a re-replication target, the
    rebalancer picking a move destination) always agree on the same
    cluster view at the same instant.
    """

    def __init__(self, federation):
        self.federation = federation
        self.view = federation.peer_view

    # -- signals ------------------------------------------------------------

    def _fragment_load(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per-peer placed-fragment count and serialized bytes, from
        the catalog's placements and the planner's statistics."""
        counts: dict[str, int] = {}
        nbytes: dict[str, int] = {}
        catalog = self.federation.catalog
        if catalog is None:
            return counts, nbytes
        stats = self.federation.planner.stats
        for spec in catalog.collections():
            for shard in spec.shards:
                for replica in shard.replicas:
                    counts[replica] = counts.get(replica, 0) + 1
                    nbytes[replica] = (
                        nbytes.get(replica, 0)
                        + self._fragment_bytes(stats, replica,
                                               shard.local_name))
        return counts, nbytes

    def _fragment_bytes(self, stats, peer: str, local_name: str) -> int:
        if stats is not None:
            doc_stats = stats.document_stats(peer, local_name)
            if doc_stats is not None:
                return doc_stats.serialized_bytes
        peer_obj = self.federation.peers.get(peer)
        document = (None if peer_obj is None
                    else peer_obj.documents.get(local_name))
        return 0 if document is None else serialized_byte_length(document)

    def snapshot(self) -> dict[str, PeerScore]:
        """A point-in-time :class:`PeerScore` per federation peer, in
        name order."""
        counts, frag_bytes = self._fragment_load()
        transport = self.federation.transport
        scores: dict[str, PeerScore] = {}
        for name in sorted(self.federation.peers):
            in_flight, served = transport.peer_load(name)
            scores[name] = PeerScore(
                peer=name, fragments=counts.get(name, 0),
                fragment_bytes=frag_bytes.get(name, 0),
                in_flight=in_flight, served_bytes=served)
        return scores

    def rank(self, exclude=()) -> list[str]:
        """Placement targets, coolest first: the peers outside
        ``exclude`` that the view lets accept a replica, in its order
        (healthy before demoted), then ascending load, fragment count,
        and name (the deterministic tie-break)."""
        scores = self.snapshot()
        excluded = set(exclude)
        ordered = self.view.order(scores, lambda name: (
            scores[name].load, scores[name].fragments, name))
        return [name for name in ordered
                if name not in excluded and self.view.accepts(name)]


# ---------------------------------------------------------------------------
# Migration plans. Beside its fields a plan carries its vocabulary: ``op``
# labels it, ``reason`` annotates the cutover's epoch bump, ``span`` names
# the trace span its copy runs in.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MovePlan:
    """Move one shard replica ``source`` → ``target`` (copy, verify,
    cut over, retire the source copy)."""

    collection: str
    shard_index: int
    source: str
    target: str
    op = "move"
    reason = "rebalance"
    span = "migrate"


@dataclass(frozen=True)
class SplitPlan:
    """Split one shard at a member boundary: members ``0..at_member-1``
    form the first child shard, the rest the second."""

    collection: str
    shard_index: int
    at_member: int
    op = "split"
    reason = "rebalance"
    span = "migrate"


@dataclass(frozen=True)
class ReplicatePlan:
    """Add a replica of one shard on ``target`` — a move that drops
    nothing (copy, verify, cut over). The repair engine's plan."""

    collection: str
    shard_index: int
    target: str
    op = "replicate"
    reason = "repair"
    span = "repair"


# ---------------------------------------------------------------------------
# The control loop
# ---------------------------------------------------------------------------


class Rebalancer:
    """Scores the fleet, emits migration plans, and executes them.

    ``hot_share`` — a shard absorbing more than this fraction of its
    collection's serves (since the last planning pass) is split-hot.
    ``spread_factor`` — a peer carrying more than this multiple of the
    mean alive-peer load sheds its hottest shard. ``min_split_members``
    — both children of a split must hold at least this many members.
    """

    def __init__(self, *, events=None, metrics=None,
                 hot_share: float = 0.5, spread_factor: float = 1.5,
                 min_split_members: int = 2, max_plans_per_step: int = 2):
        if not 0.0 < hot_share <= 1.0:
            raise ClusterError(
                f"hot_share {hot_share} must be in (0, 1]")
        if spread_factor < 1.0:
            raise ClusterError(
                f"spread_factor {spread_factor} must be >= 1")
        if min_split_members < 1:
            raise ClusterError(
                f"min_split_members {min_split_members} must be >= 1")
        self.federation = self.catalog = self.view = None
        self.events = events
        self.metrics = metrics
        self.hot_share = hot_share
        self.spread_factor = spread_factor
        self.min_split_members = min_split_members
        self.max_plans_per_step = max_plans_per_step
        #: Both are the federation's shared ones once attached.
        self.scorer = self.executor = None
        self._lock = threading.Lock()
        self._last_heat: dict[tuple, float] = {}
        self._drains = 0
        self._m_plans = None
        self._init_metrics(metrics)

    def _init_metrics(self, metrics) -> None:
        if metrics is None:
            return
        self.metrics = metrics
        self._m_plans = metrics.counter(
            "rebalance_plans_total", "migration plans emitted",
            ("op",))

    # -- wiring ---------------------------------------------------------------

    def attach(self, federation) -> "Rebalancer":
        """Install on ``federation``: adopt its catalog / peer view /
        monitor / metrics and its migration executor, expose as
        ``federation.rebalancer``."""
        from repro.cluster.migrate import MigrationExecutor
        self.federation = federation
        self.catalog = federation.catalog
        self.view = federation.peer_view
        monitor = federation.monitor
        if self.events is None and monitor is not None:
            self.events = monitor.events
        if self._m_plans is None:
            self._init_metrics(federation.metrics)
        self.executor = MigrationExecutor.shared(
            federation, events=self.events, metrics=self.metrics)
        self.scorer = self.executor.scorer
        federation.rebalancer = self
        return self

    def _require_executor(self):
        if self.executor is None:
            raise ClusterError("rebalancer has no migration executor "
                               "(call attach() first)")
        return self.executor

    # -- heat -----------------------------------------------------------------

    def heat(self) -> dict[tuple[str, str], float]:
        """Cumulative served round trips per ``(collection, shard
        local_name)``, from the router's counters."""
        metric = (self.metrics.get("scatter_shard_serves_total")
                  if self.metrics is not None else None)
        if metric is None:
            return {}
        return {labels: series.value
                for labels, series in metric.series().items()}

    def _heat_delta(self) -> dict[tuple[str, str], float]:
        """Serves per shard since the previous planning pass."""
        current = self.heat()
        with self._lock:
            last, self._last_heat = self._last_heat, current
        return {labels: value - last.get(labels, 0.0)
                for labels, value in current.items()}

    # -- planning -------------------------------------------------------------

    def plan(self) -> list:
        """Migration plans for the current imbalance (may be empty).

        Consumes the heat window: serve counts observed by this call
        will not be re-counted by the next. At most
        ``max_plans_per_step`` plans are returned, splits first (a
        split creates the mobility a later move needs).
        """
        self._require_executor()
        delta = self._heat_delta()
        plans: list = []
        plans.extend(self._plan_splits(delta))
        plans.extend(self._plan_moves(delta))
        plans = plans[:self.max_plans_per_step]
        for plan in plans:
            if self._m_plans is not None:
                self._m_plans.labels(plan.op).inc()
            if self.events is not None:
                self.events.emit(
                    "rebalance_planned",
                    f"planned {plan.op}: {plan}",
                    severity="info", op=plan.op)
        return plans

    def _shards_by_heat(self, delta, *, min_members: int):
        """(spec, shard, serves) triples hottest-first, ties broken by
        member count (descending) then names — deterministic."""
        out = []
        for spec in self.catalog.collections():
            for shard in spec.shards:
                if shard.members < min_members:
                    continue
                serves = delta.get((spec.name, shard.local_name), 0.0)
                out.append((spec, shard, serves))
        out.sort(key=lambda t: (-t[2], -t[1].members, t[0].name,
                                t[1].local_name))
        return out

    def _plan_splits(self, delta) -> list[SplitPlan]:
        plans: list[SplitPlan] = []
        totals: dict[str, float] = {}
        for (collection, _), serves in delta.items():
            totals[collection] = totals.get(collection, 0.0) + serves
        for spec, shard, serves in self._shards_by_heat(
                delta, min_members=2 * self.min_split_members):
            total = totals.get(spec.name, 0.0)
            if total <= 0 or serves / total < self.hot_share:
                continue
            plans.append(SplitPlan(spec.name, shard.index,
                                   at_member=shard.members // 2))
        return plans

    def _plan_moves(self, delta) -> list[MovePlan]:
        alive = [s for s in self.scorer.snapshot().values()
                 if self.view.accepts(s.peer)]
        if len(alive) < 2:
            return []
        mean_load = sum(s.load for s in alive) / len(alive)
        hot = sorted(alive, key=lambda s: (-s.load, s.peer))
        plans: list[MovePlan] = []
        for peer_score in hot:
            if mean_load <= 0 \
                    or peer_score.load <= self.spread_factor * mean_load:
                break
            plan = self._move_off(peer_score.peer, delta)
            if plan is not None:
                plans.append(plan)
        return plans

    def _move_off(self, source: str, delta) -> MovePlan | None:
        """The hottest shard on ``source`` that has somewhere cooler to
        go (None when every candidate placement is blocked)."""
        for spec, shard, _serves in self._shards_by_heat(delta,
                                                         min_members=0):
            if source not in shard.replicas:
                continue
            targets = self.scorer.rank(exclude=set(shard.replicas))
            if not targets:
                continue
            return MovePlan(spec.name, shard.index, source=source,
                            target=targets[0])
        return None

    # -- execution ------------------------------------------------------------

    def split(self, collection: str, shard_index: int,
              at_member: int | None = None) -> bool:
        """Split one shard explicitly (operator command). ``at_member``
        defaults to the member midpoint."""
        executor = self._require_executor()
        if at_member is None:
            at_member = self._shard(collection, shard_index).members // 2
        return executor.execute(
            SplitPlan(collection, shard_index, at_member=at_member))

    def _shard(self, collection: str, shard_index: int):
        shard = self.catalog.get(collection).shard(shard_index)
        if shard is None:
            raise ClusterError(
                f"collection {collection!r} has no shard {shard_index}")
        return shard

    def move(self, collection: str, shard_index: int, source: str,
             target: str | None = None) -> bool:
        """Move one replica explicitly. ``target`` defaults to the
        coolest peer not already holding the shard."""
        executor = self._require_executor()
        if target is None:
            shard = self._shard(collection, shard_index)
            targets = self.scorer.rank(exclude=set(shard.replicas))
            if not targets:
                return False
            target = targets[0]
        return executor.execute(
            MovePlan(collection, shard_index, source=source,
                     target=target))

    def drain(self, peer: str) -> bool:
        """Decommission ``peer``: mark it draining (no new placements),
        then migrate every replica it holds — a guarded retire when the
        shard is already at target without it, a full move otherwise.
        True when the peer ended the call holding no placements."""
        executor = self._require_executor()
        self.view.drain(peer)
        with self._lock:
            self._drains += 1
        if self.events is not None:
            self.events.emit("rebalance_drain_started",
                             f"draining peer {peer}", severity="info",
                             peer=peer)
        progressed = True
        while progressed:
            progressed = False
            for spec in self.catalog.collections():
                # Re-read per shard: each cutover rewrites the spec.
                for shard in list(self.catalog.get(spec.name).shards):
                    if peer not in shard.replicas:
                        continue
                    # Redundant here ⇒ retire (the executor's guard
                    # decides); else move it to the coolest non-holder.
                    done = executor.retire_replica(
                        spec.name, shard.index, peer)
                    if not done:
                        targets = self.scorer.rank(
                            exclude=set(shard.replicas))
                        done = bool(targets) and executor.execute(
                            MovePlan(spec.name, shard.index, source=peer,
                                     target=targets[0]))
                    progressed = progressed or done
        remaining = self._placements_on(peer)
        drained = not remaining
        if self.events is not None:
            self.events.emit(
                "rebalance_drain_completed" if drained
                else "rebalance_drain_stalled",
                f"peer {peer} "
                + ("drained to zero placements" if drained else
                   f"still holds {len(remaining)} placements"),
                severity="info" if drained else "warning", peer=peer,
                remaining=len(remaining))
        return drained

    def undrain(self, peer: str) -> None:
        """Return a draining peer to placement eligibility."""
        self._require_executor()
        self.view.undrain(peer)

    def _placements_on(self, peer: str) -> list[tuple[str, int]]:
        return [(spec.name, shard.index)
                for spec in self.catalog.collections()
                for shard in spec.shards if peer in shard.replicas]

    # -- chaos hooks ----------------------------------------------------------

    def chaos_split(self) -> bool:
        """A deterministic split pick for the chaos harness: the
        cumulatively hottest splittable shard (ties: most members,
        then names). No-op (False) when nothing is splittable."""
        executor = self._require_executor()
        for spec, shard, _serves in self._shards_by_heat(
                self.heat(), min_members=2):
            return executor.execute(SplitPlan(
                spec.name, shard.index, at_member=shard.members // 2))
        if self.events is not None:
            self.events.emit("rebalance_noop",
                             "chaos split: no splittable shard",
                             severity="info", op="split")
        return False

    def chaos_move(self) -> bool:
        """A deterministic move pick for the chaos harness: hottest
        shard (cumulative heat) with a usable non-holder target. No-op
        (False) when every placement is pinned."""
        executor = self._require_executor()
        for spec, shard, _serves in self._shards_by_heat(self.heat(),
                                                         min_members=0):
            sources = [r for r in shard.replicas if self.view.serves(r)]
            targets = self.scorer.rank(exclude=set(shard.replicas))
            if not sources or not targets:
                continue
            return executor.execute(MovePlan(
                spec.name, shard.index, source=sources[0],
                target=targets[0]))
        if self.events is not None:
            self.events.emit("rebalance_noop",
                             "chaos move: no movable placement",
                             severity="info", op="move")
        return False

    # -- bookkeeping ----------------------------------------------------------

    def collect(self) -> int:
        """Physically retire tombstoned fragments (safe between
        queries — see :meth:`MigrationExecutor.collect`)."""
        executor = self._require_executor()
        return executor.collect()

    def stats(self) -> dict[str, int]:
        executor_stats = (self.executor.stats()
                          if self.executor is not None else {})
        with self._lock:
            drains = self._drains
        return {"drains": drains, **executor_stats}
