"""The cluster's one placement loop: scoring peers, planning
migrations, and reconciling the catalog with the desired placement.

Every way the cluster decides where a fragment should live runs here,
in the controller style: diff the desired state against the observed
one, and run what the diff yields. Two pieces:

- :class:`LoadScorer` — **the** load-aware scoring function. It folds
  the cluster's load signals into one :class:`PeerScore` per peer:
  fragment bytes from the planner's
  :class:`~repro.planner.stats.StatsCatalog` (serialized-size exact,
  memoized), live in-flight exchanges and cumulative served bytes from
  the transport. ``rank()`` keeps the peers the federation's
  :class:`~repro.cluster.membership.PeerView` lets accept a replica, in
  the view's order: healthy first, then coolest.

- :class:`Reconciler` — the controller. :meth:`~Reconciler.reconcile`
  compares the catalog and the peer view against the desired state
  (every shard has ``replication_factor`` serving replicas, and no
  draining peer holds a placement) and runs, in catalog order, what
  the difference yields: a :class:`ReplicatePlan` for a short shard;
  for a replica on a draining peer, a guarded retire, or a
  :class:`MovePlan` when the retire is refused. It runs on every
  eviction the failure detector reports, inside ``drain()``, and when
  called. The catalog is the backlog: a shard still short after a
  give-up is found again by the next reconcile. The heat policy
  (``plan()``: :class:`SplitPlan` when one shard absorbs more than
  :data:`HOT_SHARE` of a collection's traffic, :class:`MovePlan` when
  the hottest peer carries more than :data:`SPREAD_FACTOR` times the
  mean load), the operator commands and the chaos picks choose their
  targets through the same one function, the coolest peer ``rank()``
  offers. Every plan runs through the federation's one
  :class:`~repro.cluster.migrate.MigrationExecutor`, which owns the
  staged copy → verify → cutover → retire protocol, each plan run
  once.

Everything is deterministic given a deterministic workload: scoring
reads point-in-time snapshots, ties break on names, and the chaos
picks (``chaos_split``/``chaos_move``) use cumulative heat so a
replayed schedule reshapes the cluster identically.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from repro.errors import ClusterError
from repro.cluster.membership import EVICTED

__all__ = [
    "PeerScore", "LoadScorer", "MovePlan", "SplitPlan", "RetirePlan",
    "ReplicatePlan", "Reconciler",
]

#: One in-flight exchange weighs like this many resident fragment
#: bytes — it represents work actively squatting on the peer now,
#: which matters more than cold data at rest.
INFLIGHT_BYTES_WEIGHT = 65536
#: Cumulative served wire bytes are the long-run traffic signal; they
#: grow without bound, so they enter the score damped.
SERVED_BYTES_WEIGHT = 0.25

#: A shard absorbing more than this fraction of its collection's serves
#: (since the last planning pass) is split-hot.
HOT_SHARE = 0.5
#: A peer carrying more than this multiple of the mean alive-peer load
#: sheds its hottest shard.
SPREAD_FACTOR = 1.5
#: Both children of a planned split hold at least this many members.
MIN_SPLIT_MEMBERS = 2
#: At most this many plans per planning pass, splits first.
MAX_PLANS_PER_STEP = 2


class PeerScore(NamedTuple):
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
    """The one load-aware scoring function of the placement loop.

    Signals are read fresh on every call — a scorer holds no state, so
    every target the loop picks (a re-replication's, a move's) is read
    off the same cluster view at the instant it is picked.
    """

    def __init__(self, federation):
        self.federation = federation
        self.view = federation.peer_view

    def snapshot(self) -> dict[str, PeerScore]:
        """A point-in-time :class:`PeerScore` per federation peer, in
        name order: fragments from the catalog's placements, their
        bytes from the planner's statistics, load from the wire."""
        counts: dict[str, int] = {}
        nbytes: dict[str, int] = {}
        stats = self.federation.planner.stats
        for spec in self.federation.catalog.collections():
            for shard in spec.shards:
                for replica in shard.replicas:
                    view = stats.document_stats(replica, shard.local_name)
                    counts[replica] = counts.get(replica, 0) + 1
                    nbytes[replica] = nbytes.get(replica, 0) + (
                        0 if view is None else view.serialized_bytes)
        load = self.federation.transport.peer_load
        return {name: PeerScore(name, counts.get(name, 0),
                                nbytes.get(name, 0), *load(name))
                for name in sorted(self.federation.peers)}

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
# the trace span its copy runs in, and ``family`` names its events and
# metrics (the ``repair_*`` or the ``rebalance_*`` series).
# ---------------------------------------------------------------------------


class MovePlan(NamedTuple):
    """Move one shard replica ``source`` → ``target`` (copy, verify,
    cut over, retire the source copy). ``target`` None: no peer could
    take it, and the executor gives the plan up."""

    collection: str
    shard_index: int
    source: str
    target: str | None
    op = "move"
    reason = "rebalance"
    span = "migrate"
    family = "rebalance"


class SplitPlan(NamedTuple):
    """Split one shard at a member boundary: members ``0..at_member-1``
    form the first child shard, the rest the second."""

    collection: str
    shard_index: int
    at_member: int
    op = "split"
    reason = "rebalance"
    span = "migrate"
    family = "rebalance"


class RetirePlan(NamedTuple):
    """Drop ``peer``'s replica of one shard — guarded: a no-op unless
    the replicas left that serve still meet the replication factor.
    Catalog surgery plus a tombstone; no bytes move."""

    collection: str
    shard_index: int
    peer: str
    op = "retire"
    reason = "rebalance"
    span = "migrate"
    family = "rebalance"


class ReplicatePlan(NamedTuple):
    """Add a replica of one shard on ``target`` — a move that drops
    nothing (copy, verify, cut over). A repair: what the reconciler
    runs for a short shard."""

    collection: str
    shard_index: int
    target: str | None
    op = "replicate"
    reason = "repair"
    span = "repair"
    family = "repair"


# ---------------------------------------------------------------------------
# The controller
# ---------------------------------------------------------------------------


class Reconciler:
    """Keeps the catalog at the desired placement and runs the heat
    policy's and the operator's migrations (:meth:`attach` it to a
    federation first)."""

    def __init__(self):
        self.federation = self.catalog = self.view = None
        self.metrics = self._m_plans = None
        #: The federation's one migration executor, and the one scorer
        #: every target is picked by.
        self.scorer = self.executor = None
        self._lock = threading.Lock()
        self._last_heat: dict[tuple, float] = {}
        self._drains = 0

    # -- wiring ---------------------------------------------------------------

    def attach(self, federation) -> "Reconciler":
        """Install on ``federation`` as ``federation.reconciler``: adopt
        its catalog / peer view / metrics, own its migration executor,
        and reconcile on every eviction its failure detector reports
        (when one is attached)."""
        from repro.cluster.migrate import MigrationExecutor
        self.federation = federation
        self.catalog = federation.catalog
        self.view = federation.peer_view
        self.metrics = federation.metrics
        self._m_plans = self.metrics.counter(
            "rebalance_plans_total", "migration plans emitted", ("op",))
        self.executor = MigrationExecutor(federation)
        self.scorer = LoadScorer(federation)
        federation.reconciler = self
        if self.view.detector is not None:
            self.view.detector.subscribe(self._on_membership)
        return self

    @property
    def events(self):
        """The event log attached to the federation now (None: none)."""
        return self.federation.events

    def _on_membership(self, peer: str, old: str, new_state: str) -> None:
        if new_state == EVICTED:
            self.reconcile()

    # -- the reconcile step ---------------------------------------------------

    def reconcile(self) -> int:
        """Run what the difference between the desired placement and
        the catalog yields, shard by shard in catalog order, re-reading
        the difference after every plan, until a pass changes nothing.
        Returns how many plans that last pass found (0: nothing to
        do)."""
        while True:
            found = done = 0
            for spec in self.catalog.collections():
                for index in range(len(spec.shards)):
                    tried: list = []
                    while (plan := self._diff(spec.name, index)) \
                            is not None and plan not in tried:
                        tried.append(plan)
                        done += self.executor.execute(plan)
                    found += len(tried)
            if not done:
                return found

    def _diff(self, collection: str, index: int):
        """The first plan that takes shard ``index`` of ``collection``
        toward the desired state as the catalog and the view stand now
        (None: it is there): a replica where it is short; else, for a
        replica on a draining peer, a retire when the replicas left
        that serve still meet the factor, a move when they do not."""
        spec = self.catalog.lookup(collection)
        shard = None if spec is None else spec.shard(index)
        if shard is None:
            return None
        serving = [r for r in shard.replicas if self.view.serves(r)]
        if len(serving) < spec.replication_factor:
            return ReplicatePlan(collection, index,
                                 self._target(shard) if serving else None)
        peer = next(filter(self.view.draining, shard.replicas), None)
        if peer is None:
            return None
        if len(serving) - (peer in serving) >= spec.replication_factor:
            return RetirePlan(collection, index, peer)
        return MovePlan(collection, index, peer, self._target(shard))

    def _target(self, shard) -> str | None:
        """The one target choice: the coolest peer that may take a
        replica of ``shard`` and does not hold one (None: no peer may)."""
        targets = self.scorer.rank(exclude=shard.replicas)
        return targets[0] if targets else None

    # -- heat -----------------------------------------------------------------

    def heat(self) -> dict[tuple[str, str], float]:
        """Cumulative served round trips per ``(collection, shard
        local_name)``, from the router's counters."""
        metric = self.metrics.get("scatter_shard_serves_total")
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

    # -- the heat policy ------------------------------------------------------

    def plan(self) -> list:
        """Migration plans for the current imbalance (may be empty).

        Consumes the heat window: serve counts observed by this call
        will not be re-counted by the next. At most
        :data:`MAX_PLANS_PER_STEP` plans are returned, splits first (a
        split creates the mobility a later move needs).
        """
        delta = self._heat_delta()
        plans: list = []
        plans.extend(self._plan_splits(delta))
        plans.extend(self._plan_moves(delta))
        plans = plans[:MAX_PLANS_PER_STEP]
        for plan in plans:
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
                delta, min_members=2 * MIN_SPLIT_MEMBERS):
            total = totals.get(spec.name, 0.0)
            if total <= 0 or serves / total < HOT_SHARE:
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
                    or peer_score.load <= SPREAD_FACTOR * mean_load:
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
            target = self._target(shard)
            if target is not None:
                return MovePlan(spec.name, shard.index, source, target)
        return None

    # -- operator commands ----------------------------------------------------

    def split(self, collection: str, shard_index: int,
              at_member: int | None = None) -> bool:
        """Split one shard explicitly. ``at_member`` defaults to the
        member midpoint."""
        if at_member is None:
            at_member = self._shard(collection, shard_index).members // 2
        return self.executor.execute(
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
        if target is None:
            target = self._target(self._shard(collection, shard_index))
        return self.executor.execute(
            MovePlan(collection, shard_index, source, target))

    def drain(self, peer: str) -> bool:
        """Decommission ``peer``: mark it draining (no new placements),
        then reconcile until it holds nothing. True when the peer ended
        the call holding no placements."""
        self.view.drain(peer)
        with self._lock:
            self._drains += 1
        if self.events is not None:
            self.events.emit("rebalance_drain_started",
                             f"draining peer {peer}", severity="info",
                             peer=peer)
        self.reconcile()
        remaining = [shard for spec in self.catalog.collections()
                     for shard in spec.shards if peer in shard.replicas]
        if self.events is not None:
            self.events.emit(
                "rebalance_drain_stalled" if remaining
                else "rebalance_drain_completed",
                f"peer {peer} "
                + (f"still holds {len(remaining)} placements" if remaining
                   else "drained to zero placements"),
                severity="warning" if remaining else "info", peer=peer,
                remaining=len(remaining))
        return not remaining

    def undrain(self, peer: str) -> None:
        """Return a draining peer to placement eligibility."""
        self.view.undrain(peer)

    # -- chaos picks ----------------------------------------------------------

    def chaos_split(self) -> bool:
        """A deterministic split pick for the chaos harness: the
        cumulatively hottest splittable shard (ties: most members,
        then names). No-op (False) when nothing is splittable."""
        for spec, shard, _serves in self._shards_by_heat(
                self.heat(), min_members=2):
            return self.executor.execute(SplitPlan(
                spec.name, shard.index, at_member=shard.members // 2))
        return self._noop("split", "chaos split: no splittable shard")

    def chaos_move(self) -> bool:
        """A deterministic move pick for the chaos harness: hottest
        shard (cumulative heat) with a serving replica and a target.
        No-op (False) when every placement is pinned."""
        for spec, shard, _serves in self._shards_by_heat(self.heat(),
                                                         min_members=0):
            sources = [r for r in shard.replicas if self.view.serves(r)]
            target = self._target(shard)
            if sources and target is not None:
                return self.executor.execute(MovePlan(
                    spec.name, shard.index, sources[0], target))
        return self._noop("move", "chaos move: no movable placement")

    def _noop(self, op: str, message: str) -> bool:
        if self.events is not None:
            self.events.emit("rebalance_noop", message, severity="info",
                             op=op)
        return False

    # -- bookkeeping ----------------------------------------------------------

    def collect(self) -> int:
        """Physically retire tombstoned fragments (safe between
        queries — see :meth:`MigrationExecutor.collect`)."""
        return self.executor.collect()

    def stats(self) -> dict[str, int]:
        with self._lock:
            drains = self._drains
        return {"drains": drains, **self.executor.stats()}
