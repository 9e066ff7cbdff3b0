"""A deterministic chaos harness for the self-healing cluster.

Chaos testing earns its keep only when a failure *reproduces*: a
flake seen once in CI must replay, step for step, on a laptop. So
everything here is driven by explicit seeded :class:`random.Random`
streams and a discrete step clock — no wall-clock coupling, no global
randomness. Query latency, the one time read here, comes off the
federation's clock like every delay, backoff, window and event stamp
below: on ``Transport(clock=VirtualClock(), time_scale=1.0)`` two runs
of one seed give equal reports and byte-identical event JSONL.

- :class:`ChaosEvent` — one scheduled fault action (``kill`` /
  ``revive`` / ``degrade`` / ``restore``) at one step.
- :class:`ChaosSchedule` — an immutable event list.
  :meth:`ChaosSchedule.generate` synthesises one from an **explicit**
  ``random.Random``: every kill gets a matching revive, at most
  ``max_down`` peers are ever scheduled down at once (default
  ``replication_factor - 1``, so a query always has a serving
  replica), and degrades add latency without killing.
- :class:`ChaosHarness` — interleaves the schedule with a live
  workload. Each step applies due events, advances the failure
  detector one probe tick (an eviction makes the reconciler heal),
  runs one query, and checks the answer **against a single-owner
  oracle** (byte-exact serialized comparison). After the schedule it
  drives the cluster to convergence (membership settled, and a
  reconcile finds nothing to do) and then runs a steady-state pass in
  which any failover is a bug — the healed cluster must route around
  nothing. After every step (and once more at the end) it also checks
  *placement truth*: every replica the catalog places holds its
  fragment.

:class:`ChaosReport` carries the verdict: wrong answers (must be 0),
failovers during turbulence (informational),
steady-state failovers (must be 0), phantom replicas (must be 0;
asserted beside ``ok``), repair and eviction counts, and latency
percentiles over the live workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster.catalog import ClusterError
from repro.cluster.membership import ALIVE, DEAD, EVICTED

__all__ = ["ChaosEvent", "ChaosSchedule", "ChaosHarness", "ChaosReport",
           "percentile"]

ACTIONS = ("kill", "revive", "degrade", "restore",
           "split", "move", "drain", "undrain")

#: Rebalance operations dispatched to a :class:`Reconciler` instead of
#: the transport. ``split``/``move`` carry no peer (the reconciler
#: picks deterministically from cumulative heat); ``drain``/``undrain``
#: name the decommission target.
REBALANCE_ACTIONS = ("split", "move", "drain", "undrain")


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation: the
    exact figure behind a drill's ``p50_ms`` / ``p95_ms`` / ``p99_ms``
    in ``benchmarks/drills.json``, over the harness's own latency list.

    Edge cases: an empty list yields 0.0; a single value is every
    percentile of itself; ``q`` outside [0, 100] raises; the input
    need not be sorted (and is never mutated).
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} out of range")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    low_v, high_v = ordered[low], ordered[high]
    if weight == 0.0 or low_v == high_v:
        # Interpolating a*(1-w) + b*w between equal subnormals can
        # round both products to zero; answer exactly instead.
        return low_v
    return low_v + (high_v - low_v) * weight


@dataclass(frozen=True)
class ChaosEvent:
    """One fault-injection (or rebalance) action at one schedule step."""

    step: int
    action: str      # one of ACTIONS
    peer: str        # "" for split/move (reconciler picks the victim)
    extra_latency_s: float = 0.0   # degrade only

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ClusterError(
                f"chaos action {self.action!r} not in {ACTIONS}")
        if self.step < 0:
            raise ClusterError(f"chaos step {self.step} must be >= 0")


@dataclass(frozen=True)
class ChaosSchedule:
    """An immutable, replayable fault schedule over ``steps`` steps."""

    steps: int
    events: tuple[ChaosEvent, ...]

    def due(self, step: int) -> list[ChaosEvent]:
        """Events firing at ``step``, in schedule order."""
        return [e for e in self.events if e.step == step]

    def describe(self) -> list[dict]:
        return [{"step": e.step, "action": e.action, "peer": e.peer,
                 **({"extra_latency_s": e.extra_latency_s}
                    if e.action == "degrade" else {})}
                for e in self.events]

    @classmethod
    def generate(cls, rng: random.Random, peers: list[str],
                 steps: int = 40, *, kill_rate: float = 0.15,
                 degrade_rate: float = 0.10, max_down: int = 1,
                 down_for: tuple[int, int] = (4, 10),
                 degrade_for: tuple[int, int] = (2, 6),
                 extra_latency_s: float = 0.002,
                 splits: int = 0, moves: int = 0,
                 drains: int = 0) -> "ChaosSchedule":
        """Synthesise a schedule from an explicit seeded ``rng``.

        The caller passes the :class:`random.Random` (never a bare
        seed fished from ambient state): the same rng state always
        yields the same schedule. Invariants: at most ``max_down``
        peers are scheduled down at any step; every kill's revive
        lands inside the schedule; a peer is touched by one fault at
        a time (no degrade of a dead peer). The tail quarter of the
        schedule is left quiet so the run ends on a healable cluster.

        ``splits``/``moves``/``drains`` interleave that many rebalance
        operations into the active region (their rng draws come after
        the fault draws, so schedules generated without them replay
        byte-identically). Every drain's ``undrain`` lands at the
        quiet boundary, so convergence sees the full fleet as
        placement-eligible again.
        """
        if not peers:
            raise ClusterError("chaos schedule needs at least one peer")
        if max_down < 0:
            raise ClusterError(f"max_down {max_down} must be >= 0")
        events: list[ChaosEvent] = []
        down_until: dict[str, int] = {}     # peer -> revive step
        slow_until: dict[str, int] = {}
        quiet_from = steps - max(1, steps // 4)
        for step in range(quiet_from):
            # Strict inequality: a peer stays "touched" through the
            # step its end-event fires, so a new fault on it can only
            # start the step after — kill@s + revive@s on one peer
            # would otherwise race on schedule order.
            for peer, until in list(down_until.items()):
                if until < step:
                    del down_until[peer]
            for peer, until in list(slow_until.items()):
                if until < step:
                    del slow_until[peer]
            untouched = [p for p in peers
                         if p not in down_until and p not in slow_until]
            if untouched and len(down_until) < max_down \
                    and rng.random() < kill_rate:
                peer = rng.choice(untouched)
                until = min(quiet_from,
                            step + rng.randint(*down_for))
                events.append(ChaosEvent(step, "kill", peer))
                events.append(ChaosEvent(until, "revive", peer))
                down_until[peer] = until
                untouched.remove(peer)
            if untouched and rng.random() < degrade_rate:
                peer = rng.choice(untouched)
                until = min(quiet_from,
                            step + rng.randint(*degrade_for))
                events.append(ChaosEvent(step, "degrade", peer,
                                         extra_latency_s))
                events.append(ChaosEvent(until, "restore", peer))
                slow_until[peer] = until
        # Rebalance operations: drawn after the fault loop so a
        # schedule generated without them consumes exactly the same
        # rng stream as before (replay compatibility).
        active = max(1, quiet_from)
        for _ in range(splits):
            events.append(ChaosEvent(rng.randrange(active), "split", ""))
        for _ in range(moves):
            events.append(ChaosEvent(rng.randrange(active), "move", ""))
        drainable = list(peers)
        for _ in range(min(drains, max(0, len(peers) - 2))):
            peer = rng.choice(drainable)
            drainable.remove(peer)
            events.append(ChaosEvent(rng.randrange(active), "drain",
                                     peer))
            events.append(ChaosEvent(quiet_from, "undrain", peer))
        events.sort(key=lambda e: (e.step, ACTIONS.index(e.action),
                                   e.peer))
        return cls(steps=steps, events=tuple(events))


@dataclass
class ChaosReport:
    """What one chaos run did and how the cluster held up."""

    steps: int = 0
    queries: int = 0
    wrong_answers: int = 0
    failovers: int = 0
    evictions: int = 0
    rejoins: int = 0
    repairs_completed: int = 0
    repairs_failed: int = 0
    splits: int = 0
    moves: int = 0
    drains: int = 0
    retires: int = 0
    migrations_failed: int = 0
    fragments_collected: int = 0
    phantom_replicas: int = 0   # placements whose peer lacks the fragment
    converged: bool = False
    convergence_ticks: int = 0
    steady_queries: int = 0
    steady_failovers: int = 0
    latencies_s: list[float] = field(default_factory=list)
    wrong_steps: list[int] = field(default_factory=list)

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies_s, 50) * 1000

    @property
    def p95_ms(self) -> float:
        return percentile(self.latencies_s, 95) * 1000

    @property
    def p99_ms(self) -> float:
        return percentile(self.latencies_s, 99) * 1000

    @property
    def ok(self) -> bool:
        """The run's verdict: exact answers throughout, converged, and
        a healed cluster that fails over on nothing."""
        return (self.wrong_answers == 0 and self.converged
                and self.steady_failovers == 0)

    def as_dict(self) -> dict[str, object]:
        return {
            "steps": self.steps, "queries": self.queries,
            "wrong_answers": self.wrong_answers,
            "failovers": self.failovers,
            "evictions": self.evictions, "rejoins": self.rejoins,
            "repairs_completed": self.repairs_completed,
            "repairs_failed": self.repairs_failed,
            "splits": self.splits, "moves": self.moves,
            "drains": self.drains, "retires": self.retires,
            "migrations_failed": self.migrations_failed,
            "fragments_collected": self.fragments_collected,
            "phantom_replicas": self.phantom_replicas,
            "converged": self.converged,
            "convergence_ticks": self.convergence_ticks,
            "steady_queries": self.steady_queries,
            "steady_failovers": self.steady_failovers,
            "p50_ms": self.p50_ms, "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms, "ok": self.ok,
        }


class ChaosHarness:
    """Interleaves a fault schedule with a live workload and checks
    every answer against a pre-computed oracle.

    ``queries`` is a list of ``(query_text, expected_serialized)``
    pairs — the expected side computed once against an unsharded
    single-owner federation (or any trusted oracle). Step ``i`` runs
    query ``i mod len(queries)``, so every query shape sees every
    fault phase across a long enough schedule.
    """

    def __init__(self, federation, schedule: ChaosSchedule, *,
                 queries: list[tuple[str, str]], serialize=None,
                 at: str = "local", strategy=None,
                 convergence_ticks: int = 24, steady_passes: int = 2):
        if not queries:
            raise ClusterError("chaos harness needs at least one query")
        self.federation = federation
        self.schedule = schedule
        self.queries = list(queries)
        self.view = federation.peer_view
        self.membership = self.view.detector
        self.reconciler = federation.reconciler
        if self.membership is None:
            raise ClusterError("chaos harness needs a membership tracker")
        if self.reconciler is None and any(
                e.action in REBALANCE_ACTIONS for e in schedule.events):
            raise ClusterError(
                "schedule contains rebalance actions but no "
                "reconciler is attached")
        if serialize is None:
            from repro.xquery.xdm import serialize_sequence
            serialize = serialize_sequence
        self.serialize = serialize
        self.at = at
        self.strategy = strategy
        self.convergence_ticks = convergence_ticks
        self.steady_passes = steady_passes
        self._track_membership()

    def _track_membership(self) -> None:
        self._evictions = 0
        self._rejoins = 0

        def on_transition(peer: str, old: str, new_state: str) -> None:
            if new_state == EVICTED:
                self._evictions += 1
            elif old in (DEAD, EVICTED) and new_state == ALIVE:
                self._rejoins += 1

        self.membership.subscribe(on_transition)

    # -- fault application ----------------------------------------------------

    def apply(self, event: ChaosEvent) -> None:
        transport = self.federation.transport
        if event.action == "kill":
            transport.kill_peer(event.peer)
        elif event.action == "revive":
            transport.revive_peer(event.peer)
            # An evicted peer's probes stopped (eviction is terminal
            # for the detector); revival models a restarted process
            # re-announcing itself to the membership.
            if self.view.state(event.peer) == EVICTED:
                self.membership.rejoin(event.peer)
        elif event.action == "degrade":
            transport.degrade_peer(event.peer, event.extra_latency_s)
        elif event.action == "restore":
            transport.restore_peer(event.peer)
        elif event.action == "split":
            self.reconciler.chaos_split()
        elif event.action == "move":
            self.reconciler.chaos_move()
        elif event.action == "drain":
            self.reconciler.drain(event.peer)
        elif event.action == "undrain":
            self.reconciler.undrain(event.peer)

    # -- the run --------------------------------------------------------------

    def run(self) -> ChaosReport:
        report = ChaosReport(steps=self.schedule.steps)
        for step in range(self.schedule.steps):
            for event in self.schedule.due(step):
                self.apply(event)
            self.membership.tick()
            self._query(step, report)
            if self.reconciler is not None:
                # Queries are sequential here, so nothing is in
                # flight between steps: superseded fragments can
                # physically retire now.
                self.reconciler.collect()
            report.phantom_replicas += self._phantom_replicas()
        report.converged = self._converge(report)
        self._steady_state(report)
        report.phantom_replicas += self._phantom_replicas()
        if self.reconciler is not None:
            self.reconciler.collect()
            stats = self.reconciler.stats()
            report.repairs_completed = stats["repairs_completed"]
            report.repairs_failed = stats["repairs_failed"]
            report.splits = stats["splits"]
            report.moves = stats["moves"]
            report.drains = stats["drains"]
            report.retires = stats["retires"]
            report.migrations_failed = stats["migrations_failed"]
            report.fragments_collected = stats["collected"]
        report.evictions = self._evictions
        report.rejoins = self._rejoins
        return report

    def _phantom_replicas(self) -> int:
        """Placements whose peer does not hold the fragment. Read off
        the peer objects; nothing is sent."""
        peers = self.federation.peers
        return sum(
            1 for spec in self.federation.catalog.collections()
            for shard in spec.shards for replica in shard.replicas
            if replica not in peers
            or shard.local_name not in peers[replica].documents)

    def _query(self, step: int, report: ChaosReport,
               steady: bool = False) -> None:
        query, expected = self.queries[step % len(self.queries)]
        clock = self.federation.transport.clock
        started = clock()
        kwargs = {"at": self.at}
        if self.strategy is not None:
            kwargs["strategy"] = self.strategy
        try:
            result = self.federation.run(query, **kwargs)
        except ClusterError:
            # A failed query is as wrong as a wrong one — with the
            # schedule's max_down invariant this should never fire.
            result = None
        report.latencies_s.append(clock() - started)
        report.queries += 1
        if steady:
            report.steady_queries += 1
        if result is None or self.serialize(result.items) != expected:
            report.wrong_answers += 1
            report.wrong_steps.append(step)
        if result is None:
            return
        report.failovers += result.stats.failovers
        if steady:
            report.steady_failovers += result.stats.failovers

    def _converge(self, report: ChaosReport) -> bool:
        """Tick until the detector settles and a reconcile finds
        nothing to do."""
        for tick in range(self.convergence_ticks):
            self.membership.tick()
            idle = self.reconciler is None or self.reconciler.reconcile() == 0
            if self.membership.converged() and idle:
                report.convergence_ticks = tick + 1
                return True
        report.convergence_ticks = self.convergence_ticks
        return False

    def _steady_state(self, report: ChaosReport) -> None:
        """Post-convergence passes: the healed cluster must answer
        every query exactly, with zero failovers."""
        base = self.schedule.steps
        for offset in range(self.steady_passes * len(self.queries)):
            self._query(base + offset, report, steady=True)
