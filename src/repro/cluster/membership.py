"""Peer liveness: one view of every peer, and the failure detector that
writes into it.

:class:`PeerView` is the cluster's one answer to "can this peer
serve?"; every federation has one (``federation.peer_view``). Its row
for a peer holds four beliefs: the detector's **state** (alive →
suspect → dead → evicted); the **down** mark, set by ``mark_down`` or a
dead verdict and lifted by ``mark_up`` or a revival, each change one
catalog epoch bump; the **draining** mark of a decommission; and the
**demotion** the health scorer (:class:`~repro.obs.health.HealthTracker`)
judges anew whenever the standing is read. The router, the reconciler,
migration and placement ask it and nothing else:
:meth:`~PeerView.serves` (not down, not held dead or evicted — an
operator's ``mark_up`` does not overrule a dead verdict),
:meth:`~PeerView.accepts` a new replica (serves, held alive — not
suspect — and not draining), and :meth:`~PeerView.order` (healthy
first, then by load). Evidence arrives through :meth:`PeerView.record`,
one call per router attempt or detector probe; it stays with whoever
weighs it (the scorer's latency windows, the detector's failure window
and ladder), and a view with neither attached records nothing.

:class:`MembershipTracker`, the failure detector, judges each watched
peer once, cluster-wide, so routers stop selecting a dead replica
instead of rediscovering it per query:

* **Evidence** arrives on two channels. *Passive*: every real attempt
  the router makes, so workload traffic doubles as detection traffic.
  *Active*: :meth:`MembershipTracker.tick` sends one heartbeat-sized
  probe per watched peer through
  :meth:`~repro.runtime.transport.Transport.probe`, so idle peers keep
  getting judged and a revived peer gets noticed without waiting for a
  query to gamble on it.

* **Suspicion** is phi-accrual-flavoured, tick-driven and
  deterministic: over a rolling window of the kind :mod:`repro.obs.health`
  uses, the failure fraction ``f`` maps to ``phi = -log10(1 - f)``
  (0.3 at 50 % failures, 1 at 90 %, ~`PHI_CEILING` at 100 %). A peer
  turns **suspect** when ``phi >= SUSPECT_PHI`` (1) with at least
  ``MIN_SAMPLES`` (4) window samples *or* after ``SUSPECT_AFTER`` (2)
  consecutive failures — the consecutive ladder keeps detection latency
  bounded by probe ticks rather than window width. **Dead** needs
  ``DEAD_AFTER`` (4) consecutive failures; recovery needs
  ``REVIVE_AFTER`` (2) consecutive successes (hysteresis — one lucky
  probe cannot flap a suspect back to alive).

* **Eviction**: after ``EVICT_AFTER_TICKS`` (2) further ticks dead, the
  peer is **evicted**: removed from every shard placement that has
  another replica (``catalog.update``, reason ``"evict"``), leaving
  under-replicated shards for :class:`~repro.cluster.rebalance.Reconciler`
  to heal — subscribers are notified per transition. A shard whose
  *only* replica is the dead peer keeps its placement (data is not
  forgotten, merely unreachable), and a query that needs it fails
  with ``ShardUnavailableError``. Eviction is terminal until
  :meth:`rejoin`.

Every transition emits an event (``membership_suspect`` /
``membership_dead`` / ``membership_alive`` / ``replica_evicted``) and
feeds the ``membership_*`` metrics series. All mutations happen under
one lock; side effects (epoch bumps, events, callbacks) run after it
is released, in deterministic peer order.
"""

from __future__ import annotations

import math
import threading

from repro.cluster.catalog import ClusterCatalog
from repro.errors import NetworkError
from repro.obs.windows import RollingWindowFamily

__all__ = ["ALIVE", "SUSPECT", "DEAD", "EVICTED", "PHI_CEILING",
           "PeerView", "MembershipTracker"]

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
EVICTED = "evicted"

_STATES = (ALIVE, SUSPECT, DEAD, EVICTED)
_STATE_CODES = {state: code for code, state in enumerate(_STATES)}

#: phi for a window that is 100 % failures (``-log10(0)`` clamped).
PHI_CEILING = 16.0

#: The failure window: ``BUCKETS`` buckets of ``WIDTH_S`` seconds.
WIDTH_S = 0.5
BUCKETS = 20
#: Suspect at this phi, once the window holds ``MIN_SAMPLES`` samples.
SUSPECT_PHI = 1.0
MIN_SAMPLES = 4
#: The consecutive-evidence ladder (see the module docstring).
SUSPECT_AFTER = 2
DEAD_AFTER = 4
REVIVE_AFTER = 2
EVICT_AFTER_TICKS = 2
#: The size of one heartbeat probe.
PROBE_BYTES = 64

_EVENT_SEVERITY = {SUSPECT: "warning", DEAD: "error",
                   ALIVE: "info", EVICTED: "error"}


class PeerRow:
    """What the cluster believes about one peer."""

    __slots__ = ("state", "down", "draining", "demoted")

    def __init__(self, state: str = ALIVE, down: bool = False,
                 draining: bool = False, demoted: bool = False) -> None:
        self.state, self.down, self.draining = state, down, draining
        self.demoted = demoted


class PeerView:
    """The per-peer table every liveness question is answered from (see
    the module docstring). A peer without a row is alive, up, not
    draining and healthy."""

    def __init__(self, catalog: ClusterCatalog | None = None):
        #: Bumps the epoch when a down mark changes (None: no epochs).
        self.catalog = catalog
        #: The health scorer and the failure detector, installed by
        #: their ``attach``; None ⇒ that evidence is dropped.
        self.health = self.detector = None
        self._lock = threading.Lock()
        self._rows: dict[str, PeerRow] = {}

    # -- questions ------------------------------------------------------------

    def state(self, peer: str) -> str:
        row = self._rows.get(peer)
        return ALIVE if row is None else row.state

    def serves(self, peer: str) -> bool:
        """May the router send ``peer`` a request?"""
        row = self._rows.get(peer)
        return row is None or (not row.down
                               and row.state in (ALIVE, SUSPECT))

    def accepts(self, peer: str) -> bool:
        """May ``peer`` receive a new replica?"""
        row = self._rows.get(peer)
        return row is None or (not row.down and row.state == ALIVE
                               and not row.draining)

    def draining(self, peer: str) -> bool:
        """Is ``peer`` being decommissioned (placements leaving it)?"""
        row = self._rows.get(peer)
        return row is not None and row.draining

    def healthy(self, peer: str) -> bool:
        """``peer``'s health standing, first refreshed by the health
        scorer when one is attached (a demotion or a restoration is
        written here and emits its event)."""
        health = self.health
        if health is None:
            row = self._rows.get(peer)
            return row is None or not row.demoted
        with self._lock:    # one judgment, one event, per transition
            row = self._rows.setdefault(peer, PeerRow())
            row.demoted = not health.judge(peer, not row.demoted)
            return not row.demoted

    def order(self, peers, load) -> list[str]:
        """``peers`` healthy first, then ascending ``load(peer)``."""
        return sorted(peers,
                      key=lambda peer: (not self.healthy(peer), load(peer)))

    # -- operator actions -----------------------------------------------------

    def mark_down(self, peer: str) -> None:
        """Take ``peer`` out of service (one epoch bump if it was up)."""
        if self._flip(peer, "down", True) and self.catalog is not None:
            self.catalog.bump("mark_down", peer=peer)

    def mark_up(self, peer: str) -> None:
        """Lift ``peer``'s down mark (one epoch bump if it was down)."""
        if self._flip(peer, "down", False) and self.catalog is not None:
            self.catalog.bump("mark_up", peer=peer)

    def drain(self, peer: str) -> None:
        """Stop placing new replicas on ``peer``; it keeps serving the
        ones it holds while the reconciler moves them away."""
        self._set_draining(peer, True)

    def undrain(self, peer: str) -> None:
        self._set_draining(peer, False)

    def _set_draining(self, peer: str, draining: bool) -> None:
        events = getattr(self.catalog, "events", None)
        if self._flip(peer, "draining", draining) and events is not None:
            events.emit(
                "peer_draining" if draining else "peer_undrained",
                f"peer {peer} " + ("draining for decommission" if draining
                                   else "accepting placements again"),
                severity="info", peer=peer)

    def _flip(self, peer: str, mark: str, value: bool) -> bool:
        """Set one of ``peer``'s marks; True when that changed it."""
        with self._lock:
            row = self._rows.setdefault(peer, PeerRow())
            if getattr(row, mark) == value:
                return False
            setattr(row, mark, value)
            return True

    # -- evidence -------------------------------------------------------------

    def record(self, peer: str, seconds: float | None, ok: bool) -> None:
        """One attempt against ``peer`` that took ``seconds``, or one
        probe (``seconds`` None: no latency sample), and whether it went
        through the wire."""
        if self.health is not None and seconds is not None:
            self.health.record(peer, seconds, ok)
        if self.detector is not None:
            self.detector.observe(peer, ok)

    # -- introspection --------------------------------------------------------

    def describe(self) -> dict[str, object]:
        """:meth:`ClusterCatalog.describe` plus liveness: the peers
        marked down and draining, and per shard the ``live`` replicas
        (those that serve)."""
        snap = self.catalog.describe()
        with self._lock:
            rows = sorted(self._rows.items())
        snap["down"] = [peer for peer, row in rows if row.down]
        snap["draining"] = [peer for peer, row in rows if row.draining]
        for collection in snap["collections"].values():
            for shard in collection["shards"]:
                shard["live"] = [peer for peer in shard["replicas"]
                                 if self.serves(peer)]
        return snap


class _Ladder:
    """The detector's evidence counters for one watched peer."""

    __slots__ = ("consecutive_failures", "consecutive_successes", "dead_ticks")

    def __init__(self, consecutive_failures: int = 0,
                 consecutive_successes: int = 0, dead_ticks: int = 0) -> None:
        self.consecutive_failures = consecutive_failures
        self.consecutive_successes = consecutive_successes
        self.dead_ticks = dead_ticks  # ticks spent dead (drives eviction)


class MembershipTracker:
    """Tick-driven failure detector writing into a :class:`PeerView`.

    :meth:`attach` wires it into a federation before any use: it adopts
    the federation's view, wire and clock, and watches every peer
    holding a replica. The clock only drives the evidence window; state
    transitions are functions of evidence counts and :meth:`tick` calls
    — never time — so chaos schedules replay exactly.
    """

    def __init__(self):
        self.view = self.transport = self.events = None
        self._failures = None
        self._lock = threading.Lock()
        self._ladders: dict[str, _Ladder] = {}    # the watched peers
        self._subscribers: list = []

    # -- wiring ---------------------------------------------------------------

    def attach(self, federation) -> "MembershipTracker":
        """Install on ``federation``: write into its peer view (whose
        :meth:`PeerView.record` then feeds this detector the router's
        attempts), adopt its transport, the wire's clock, its event
        log when one is attached and the metrics registry, and
        watch every replica peer."""
        self.view = federation.peer_view
        self.view.detector = self
        self.transport = federation.transport
        self._failures = RollingWindowFamily(
            WIDTH_S, BUCKETS, federation.transport.clock, eps=None)
        self.events = federation.events
        metrics = federation.metrics
        self._state_gauge = metrics.gauge(
            "membership_state",
            "0=alive 1=suspect 2=dead 3=evicted", ("peer",))
        self._transitions = metrics.counter(
            "membership_transitions_total",
            "state-machine transitions by destination state", ("state",))
        self._probes = metrics.counter(
            "membership_probes_total", "heartbeat probes by outcome",
            ("outcome",))
        if federation.catalog is not None:
            for spec in federation.catalog.collections():
                self.watch(*spec.replica_peers)
        return self

    def subscribe(self, callback) -> None:
        """``callback(peer, old_state, new_state)`` after every
        transition (called outside the tracker lock, in deterministic
        order; the reconciler subscribes for evictions)."""
        self._subscribers.append(callback)

    def watch(self, *peers: str) -> None:
        with self._lock:
            for peer in peers:
                self._ladders.setdefault(peer, _Ladder())

    # -- reads ----------------------------------------------------------------

    def peers(self) -> list[str]:
        with self._lock:
            return sorted(self._ladders)

    def phi(self, peer: str) -> float:
        """The current phi suspicion score (windowed failure mass)."""
        window = self._failures.get(peer)
        if window is None:
            return 0.0
        samples = window.count()
        if samples < MIN_SAMPLES:
            return 0.0
        fraction = window.sum() / samples
        if fraction >= 1.0:
            return PHI_CEILING
        return min(PHI_CEILING, -math.log10(1.0 - fraction))

    def converged(self) -> bool:
        """True when no watched peer is suspect or dead (evicted peers
        are resolved, not pending — the reconciler owns their data)."""
        return all(self.view.state(peer) in (ALIVE, EVICTED)
                   for peer in self.peers())

    # -- evidence -------------------------------------------------------------

    def observe(self, peer: str, ok: bool) -> None:
        """One attempt's or probe's outcome against ``peer`` (delivered
        by :meth:`PeerView.record`)."""
        self._failures.labels(peer).observe(0.0 if ok else 1.0)
        state = self.view.state
        transitions = []
        with self._lock:
            ladder = self._ladders.setdefault(peer, _Ladder())
            if state(peer) == EVICTED:
                return  # terminal until rejoin()
            if ok:
                ladder.consecutive_failures = 0
                ladder.consecutive_successes += 1
                if (state(peer) in (SUSPECT, DEAD)
                        and ladder.consecutive_successes >= REVIVE_AFTER):
                    transitions.append(self._transition(peer, ALIVE))
            else:
                ladder.consecutive_successes = 0
                ladder.consecutive_failures += 1
                if (state(peer) in (ALIVE, SUSPECT)
                        and ladder.consecutive_failures >= DEAD_AFTER):
                    if state(peer) == ALIVE:
                        transitions.append(
                            self._transition(peer, SUSPECT))
                    transitions.append(self._transition(peer, DEAD))
                elif (state(peer) == ALIVE
                      and ladder.consecutive_failures >= SUSPECT_AFTER):
                    transitions.append(self._transition(peer, SUSPECT))
        if not transitions and not ok and state(peer) == ALIVE \
                and self.phi(peer) >= SUSPECT_PHI:
            # The windowed phi signal: mostly-failing mixed traffic
            # turns a peer suspect even when successes keep resetting
            # the consecutive ladder.
            with self._lock:
                if state(peer) == ALIVE:
                    transitions.append(self._transition(peer, SUSPECT))
        self._apply(transitions)

    def tick(self) -> dict[str, str]:
        """One detector round: probe every watched, non-evicted peer
        (deterministic name order), advance dead peers toward eviction.
        Returns the post-tick state per peer."""
        for peer in [peer for peer in self.peers()
                     if self.view.state(peer) != EVICTED]:
            try:
                self.transport.probe(peer, PROBE_BYTES)
            except NetworkError:
                ok = False
            else:
                ok = True
            self._probes.labels("ok" if ok else "fail").inc()
            self.view.record(peer, None, ok)
        self._advance_dead()
        return {peer: self.view.state(peer) for peer in self.peers()}

    # -- operator actions -----------------------------------------------------

    def evict(self, peer: str) -> None:
        """Force-evict a watched ``peer`` (the tick does this after
        ``EVICT_AFTER_TICKS`` dead ticks)."""
        transitions = []
        with self._lock:
            if peer in self._ladders \
                    and self.view.state(peer) != EVICTED:
                transitions.append(self._transition(peer, EVICTED))
        self._apply(transitions)

    def rejoin(self, peer: str) -> None:
        """Readmit an evicted peer as a fresh, empty member: state
        resets to alive and its down mark lifts. Its old fragments
        were re-replicated elsewhere; new placements come from the
        reconciler or future resharding."""
        transitions = []
        with self._lock:
            self._ladders.setdefault(peer, _Ladder())
            if self.view.state(peer) != ALIVE:
                self._ladders[peer] = _Ladder()
                transitions.append(self._transition(peer, ALIVE))
        self._apply(transitions)

    # -- state machine --------------------------------------------------------

    def _advance_dead(self) -> None:
        transitions = []
        with self._lock:
            for peer, ladder in sorted(self._ladders.items()):
                if self.view.state(peer) != DEAD:
                    continue
                ladder.dead_ticks += 1
                if ladder.dead_ticks >= EVICT_AFTER_TICKS:
                    transitions.append(self._transition(peer, EVICTED))
        self._apply(transitions)

    def _transition(self, peer: str, new_state: str):
        """Write a transition into the view under the lock; side
        effects happen in :meth:`_apply` after release."""
        row = self.view._rows.setdefault(peer, PeerRow())
        old, row.state = row.state, new_state
        if new_state == DEAD:
            self._ladders[peer].dead_ticks = 0
        return (peer, old, new_state)

    def _apply(self, transitions) -> None:
        """Side effects for recorded transitions, in order: the down
        mark a dead verdict sets and a revival lifts (an epoch bump
        each), evictions, metrics, events, subscriber callbacks."""
        for peer, old, new_state in transitions:
            if new_state == DEAD:
                self.view.mark_down(peer)
            elif new_state == ALIVE and old in (DEAD, EVICTED):
                self.view.mark_up(peer)
            elif new_state == EVICTED:
                self._evict_placements(peer)
            self._state_gauge.labels(peer).set(_STATE_CODES[new_state])
            self._transitions.labels(new_state).inc()
            if self.events is not None:
                self.events.emit(
                    "replica_evicted" if new_state == EVICTED
                    else f"membership_{new_state}",
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
        the peer is merely unreachable — and the view keeps it from
        serving until a repair or a rejoin."""
        catalog = self.view.catalog
        if catalog is None:
            return

        def without(spec):
            kept = spec
            for shard in spec.shards:
                if peer in shard.replicas and len(shard.replicas) > 1:
                    kept = kept.placing(shard, tuple(
                        r for r in shard.replicas if r != peer))
            return kept if kept is not spec else None

        for spec in catalog.collections():
            catalog.update(spec.name, without, reason="evict", peer=peer)
