"""The membership failure detector: alive → suspect → dead → evicted.

PR 2's router *dodges* dead replicas — every query rediscovers the
same corpse, pays one failed attempt, and fails over. This module
detects the failure **once**, cluster-wide, and acts through the
catalog's epoch machinery so routers stop selecting the replica
entirely:

* **Evidence** arrives on two channels. *Passive*: the router reports
  every real attempt's outcome (``record_success`` / ``record_failure``
  from ``_with_failover``), so workload traffic doubles as detection
  traffic. *Active*: :meth:`tick` sends one heartbeat-sized probe per
  watched peer through :meth:`~repro.runtime.transport.Transport.probe`
  — idle peers keep getting judged, and a revived peer gets noticed
  without waiting for a query to gamble on it.

* **Suspicion** is phi-accrual-flavoured, tick-driven and
  deterministic: over the same rolling windows :mod:`repro.obs.health`
  uses, the failure fraction ``f`` maps to ``phi = -log10(1 - f)``
  (0.3 at 50 % failures, 1 at 90 %, ~`PHI_CEILING` at 100 %). A peer
  turns **suspect** when ``phi >= suspect_phi`` with enough window
  samples *or* after ``suspect_after`` consecutive failures — the
  consecutive ladder keeps detection latency bounded by probe ticks
  rather than window width. **Dead** needs ``dead_after`` consecutive
  failures; recovery needs ``revive_after`` consecutive successes
  (hysteresis — one lucky probe cannot flap a suspect back to alive).

* **Actions** ride the catalog epochs. Dead ⇒ ``catalog.mark_down``
  (one epoch bump; every router's replica ordering excludes the peer
  from then on — no more per-request rediscovery). Alive again ⇒
  ``mark_up``. After ``evict_after_ticks`` further ticks dead, the
  peer is **evicted**: removed from every shard placement that has
  another replica (``catalog.update``, reason ``"evict"``), leaving
  under-replicated shards for :class:`~repro.cluster.repair.RepairEngine`
  to heal — subscribers are notified per transition. A shard whose
  *only* replica is the dead peer keeps its placement (data is not
  forgotten, merely unreachable); serving it is the partial-results
  policy's decision. Eviction is terminal until :meth:`rejoin`.

Every transition emits an event (``membership_suspect`` /
``membership_dead`` / ``membership_alive`` / ``replica_evicted``) and
feeds the ``membership_*`` metrics series. All mutations happen under
one lock; side effects (catalog calls, events, callbacks) run after it
is released, in deterministic peer order.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace as dc_replace

from repro.cluster.catalog import ClusterCatalog, ClusterError
from repro.errors import NetworkError
from repro.obs.windows import RollingWindowFamily
from repro.runtime.clock import REAL_CLOCK

__all__ = ["ALIVE", "SUSPECT", "DEAD", "EVICTED", "PHI_CEILING",
           "ReplicaState", "MembershipTracker"]

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
EVICTED = "evicted"

_STATES = (ALIVE, SUSPECT, DEAD, EVICTED)
_STATE_CODES = {state: code for code, state in enumerate(_STATES)}

#: phi for a window that is 100 % failures (``-log10(0)`` clamped).
PHI_CEILING = 16.0

_EVENT_SEVERITY = {SUSPECT: "warning", DEAD: "error",
                   ALIVE: "info", EVICTED: "error"}


@dataclass
class ReplicaState:
    """One watched peer's current standing."""

    peer: str
    state: str = ALIVE
    phi: float = 0.0
    consecutive_failures: int = 0
    consecutive_successes: int = 0
    dead_ticks: int = 0           # ticks spent dead (drives eviction)
    transitions: int = 0

    def snapshot(self) -> dict:
        return {
            "peer": self.peer,
            "state": self.state,
            "phi": self.phi,
            "consecutive_failures": self.consecutive_failures,
            "consecutive_successes": self.consecutive_successes,
            "dead_ticks": self.dead_ticks,
            "transitions": self.transitions,
        }


class MembershipTracker:
    """Tick-driven failure detector over the cluster catalog.

    Construct standalone (``MembershipTracker(catalog=...,
    transport=...)``) or wire into a federation with :meth:`attach`,
    which also auto-watches every peer holding a replica. ``clock``
    (default: the attached federation's) only drives the evidence
    windows; state transitions are functions of evidence counts and
    :meth:`tick` calls — never time — so chaos schedules replay exactly.
    """

    def __init__(self, catalog: ClusterCatalog | None = None,
                 transport=None, *, clock=None,
                 width_s: float = 0.5, buckets: int = 20,
                 window_s: float | None = None,
                 suspect_phi: float = 1.0, min_samples: int = 4,
                 suspect_after: int = 2, dead_after: int = 4,
                 revive_after: int = 2, evict_after_ticks: int = 2,
                 auto_evict: bool = True, probe_bytes: int = 64,
                 events=None, metrics=None):
        if not 1 <= suspect_after <= dead_after:
            raise ClusterError(
                f"need 1 <= suspect_after ({suspect_after}) <= "
                f"dead_after ({dead_after})")
        if revive_after < 1:
            raise ClusterError(f"revive_after {revive_after} must be >= 1")
        if evict_after_ticks < 1:
            raise ClusterError(
                f"evict_after_ticks {evict_after_ticks} must be >= 1")
        self.catalog = catalog
        self.transport = transport
        self.window_s = window_s
        self.suspect_phi = suspect_phi
        self.min_samples = min_samples
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.revive_after = revive_after
        self.evict_after_ticks = evict_after_ticks
        self.auto_evict = auto_evict
        self.probe_bytes = probe_bytes
        self.events = events
        self._follows_wire = clock is None
        self._failures = RollingWindowFamily(
            width_s, buckets, clock or REAL_CLOCK, eps=None)
        self._lock = threading.Lock()
        self._states: dict[str, ReplicaState] = {}
        self._subscribers: list = []
        self._ticks = 0
        self._init_metrics(metrics)

    def _init_metrics(self, metrics) -> None:
        self._state_gauge = self._transitions = self._probes = None
        if metrics is None:
            return
        self._state_gauge = metrics.gauge(
            "membership_state",
            "0=alive 1=suspect 2=dead 3=evicted", ("peer",))
        self._transitions = metrics.counter(
            "membership_transitions_total",
            "state-machine transitions by destination state", ("state",))
        self._probes = metrics.counter(
            "membership_probes_total", "heartbeat probes by outcome",
            ("outcome",))

    # -- wiring ---------------------------------------------------------------

    def attach(self, federation) -> "MembershipTracker":
        """Install on ``federation``: adopt its catalog/transport, the
        wire's clock (and monitor event log + metrics registry when
        present), watch every replica peer, and let the router feed
        passive evidence through ``federation.membership``."""
        if self.catalog is None:
            self.catalog = federation.catalog
        if self.transport is None:
            self.transport = federation.transport
        if self._follows_wire:
            # Per-peer windows are born on their first evidence.
            self._failures.clock = federation.transport.clock
        monitor = getattr(federation, "monitor", None)
        if self.events is None and monitor is not None:
            self.events = monitor.events
        if self._state_gauge is None:
            self._init_metrics(federation.metrics)
        federation.membership = self
        if self.catalog is not None:
            for spec in self.catalog.collections():
                self.watch(*spec.replica_peers)
        return self

    def subscribe(self, callback) -> None:
        """``callback(peer, old_state, new_state)`` after every
        transition (called outside the tracker lock, in deterministic
        order; the repair engine subscribes for dead/evicted)."""
        self._subscribers.append(callback)

    def watch(self, *peers: str) -> None:
        with self._lock:
            for peer in peers:
                self._states.setdefault(peer, ReplicaState(peer=peer))

    # -- reads ----------------------------------------------------------------

    def peers(self) -> list[str]:
        with self._lock:
            return sorted(self._states)

    def state(self, peer: str) -> str:
        with self._lock:
            entry = self._states.get(peer)
            return entry.state if entry is not None else ALIVE

    def phi(self, peer: str) -> float:
        """The current phi suspicion score (windowed failure mass)."""
        window = self._failures.get(peer)
        if window is None:
            return 0.0
        samples = window.count(self.window_s)
        if samples < self.min_samples:
            return 0.0
        fraction = window.sum(self.window_s) / samples
        if fraction >= 1.0:
            return PHI_CEILING
        return min(PHI_CEILING, -math.log10(1.0 - fraction))

    def snapshot(self) -> list[dict]:
        with self._lock:
            entries = [dc_replace(entry) for _, entry in
                       sorted(self._states.items())]
        for entry in entries:
            entry.phi = self.phi(entry.peer)
        return [entry.snapshot() for entry in entries]

    def converged(self) -> bool:
        """True when no watched peer is suspect or dead (evicted peers
        are resolved, not pending — the repair engine owns their data)."""
        with self._lock:
            return all(entry.state in (ALIVE, EVICTED)
                       for entry in self._states.values())

    # -- evidence -------------------------------------------------------------

    def record_success(self, peer: str) -> None:
        """Passive evidence: one real attempt against ``peer`` worked."""
        self._failures.labels(peer).observe(0.0)
        self._observe(peer, ok=True)

    def record_failure(self, peer: str, error: Exception | None = None
                       ) -> None:
        """Passive evidence: one real attempt against ``peer`` failed
        at the wire level."""
        self._failures.labels(peer).observe(1.0)
        self._observe(peer, ok=False)

    def tick(self) -> dict[str, str]:
        """One detector round: probe every watched, non-evicted peer
        (deterministic name order), advance dead peers toward eviction.
        Returns the post-tick state per peer."""
        if self.transport is None:
            raise ClusterError("membership tracker has no transport "
                               "to probe through (attach a federation)")
        with self._lock:
            self._ticks += 1
            probe_list = [entry.peer for _, entry in
                          sorted(self._states.items())
                          if entry.state != EVICTED]
        for peer in probe_list:
            try:
                self.transport.probe(peer, self.probe_bytes)
            except NetworkError:
                if self._probes is not None:
                    self._probes.labels("fail").inc()
                self.record_failure(peer)
            else:
                if self._probes is not None:
                    self._probes.labels("ok").inc()
                self.record_success(peer)
        self._advance_dead()
        with self._lock:
            return {peer: entry.state
                    for peer, entry in sorted(self._states.items())}

    # -- operator actions -----------------------------------------------------

    def evict(self, peer: str) -> None:
        """Force-evict ``peer`` (the auto path calls this after
        ``evict_after_ticks`` dead ticks)."""
        transitions = []
        with self._lock:
            entry = self._states.get(peer)
            if entry is None or entry.state == EVICTED:
                return
            transitions.append(self._transition(entry, EVICTED))
        self._apply(transitions)

    def rejoin(self, peer: str) -> None:
        """Readmit an evicted peer as a fresh, empty member: state
        resets to alive and the catalog mark clears. Its old fragments
        were re-replicated elsewhere; new placements come from repair
        or future resharding."""
        transitions = []
        with self._lock:
            entry = self._states.setdefault(peer, ReplicaState(peer=peer))
            if entry.state != ALIVE:
                entry.consecutive_failures = 0
                entry.consecutive_successes = 0
                entry.dead_ticks = 0
                transitions.append(self._transition(entry, ALIVE))
        self._apply(transitions)

    # -- state machine --------------------------------------------------------

    def _observe(self, peer: str, ok: bool) -> None:
        transitions = []
        with self._lock:
            entry = self._states.setdefault(peer, ReplicaState(peer=peer))
            if entry.state == EVICTED:
                return  # terminal until rejoin()
            if ok:
                entry.consecutive_failures = 0
                entry.consecutive_successes += 1
                if (entry.state in (SUSPECT, DEAD)
                        and entry.consecutive_successes
                        >= self.revive_after):
                    transitions.append(self._transition(entry, ALIVE))
            else:
                entry.consecutive_successes = 0
                entry.consecutive_failures += 1
                if (entry.state in (ALIVE, SUSPECT)
                        and entry.consecutive_failures >= self.dead_after):
                    if entry.state == ALIVE:
                        transitions.append(
                            self._transition(entry, SUSPECT))
                    transitions.append(self._transition(entry, DEAD))
                elif (entry.state == ALIVE
                      and entry.consecutive_failures
                      >= self.suspect_after):
                    transitions.append(self._transition(entry, SUSPECT))
        if not transitions and not ok and self.state(peer) == ALIVE \
                and self.phi(peer) >= self.suspect_phi:
            # The windowed phi signal: mostly-failing mixed traffic
            # turns a peer suspect even when successes keep resetting
            # the consecutive ladder.
            with self._lock:
                entry = self._states[peer]
                if entry.state == ALIVE:
                    transitions.append(self._transition(entry, SUSPECT))
        self._apply(transitions)

    def _advance_dead(self) -> None:
        transitions = []
        with self._lock:
            for _, entry in sorted(self._states.items()):
                if entry.state != DEAD:
                    continue
                entry.dead_ticks += 1
                if (self.auto_evict
                        and entry.dead_ticks >= self.evict_after_ticks):
                    transitions.append(self._transition(entry, EVICTED))
        self._apply(transitions)

    def _transition(self, entry: ReplicaState, new_state: str):
        """Record a transition under the lock; side effects happen in
        :meth:`_apply` after release."""
        old = entry.state
        entry.state = new_state
        entry.transitions += 1
        if new_state == DEAD:
            entry.dead_ticks = 0
        return (entry.peer, old, new_state)

    def _apply(self, transitions) -> None:
        """Side effects for recorded transitions, in order: catalog
        epoch bumps, events, metrics, subscriber callbacks."""
        for peer, old, new_state in transitions:
            if self.catalog is not None:
                if new_state == DEAD:
                    self.catalog.mark_down(peer)
                elif new_state == ALIVE and old in (DEAD, EVICTED):
                    self.catalog.mark_up(peer)
                elif new_state == EVICTED:
                    self._evict_placements(peer)
            if self._state_gauge is not None:
                self._state_gauge.labels(peer).set(
                    _STATE_CODES[new_state])
                self._transitions.labels(new_state).inc()
            if self.events is not None:
                kind = ("replica_evicted" if new_state == EVICTED
                        else f"membership_{new_state}")
                self.events.emit(
                    kind,
                    f"peer {peer}: {old} -> {new_state} "
                    f"(phi {self.phi(peer):.2f})",
                    severity=_EVENT_SEVERITY[new_state],
                    peer=peer, old=old, new=new_state)
            for callback in list(self._subscribers):
                callback(peer, old, new_state)

    def _evict_placements(self, peer: str) -> None:
        """Remove ``peer`` from every shard placement that still has
        another replica (epoch bump per collection, reason ``evict``).
        Sole-replica shards keep their placement — the data exists,
        the peer is merely unreachable — and stay behind the catalog's
        down-mark until repair or rejoin."""
        def without(spec):
            kept = spec
            for shard in spec.shards:
                if peer in shard.replicas and len(shard.replicas) > 1:
                    kept = kept.placing(shard, tuple(
                        r for r in shard.replicas if r != peer))
            return kept if kept is not spec else None

        for spec in self.catalog.collections():
            self.catalog.update(spec.name, without, reason="evict",
                                peer=peer)
