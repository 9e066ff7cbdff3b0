"""Structured fleet events: a thread-safe bounded ring of typed records.

Metrics say *how much*; events say *what happened and when*. The
runtime emits one :class:`Event` per operationally interesting
transition — a failover, a peer kill/recover, a catalog epoch bump, a
cached response a store outdated, a shard skipped by a probe, a health
demotion — into the one :class:`EventLog` that
``EventLog().attach(federation)`` installs as ``federation.events``
(None until then: nothing is logged). The log is a bounded
deque (old events fall off; cumulative per-kind counts survive
eviction), exports JSONL for CI artifacts, and timestamps every event
twice off the federation's wire clock: ``wall()`` (calendar seconds,
for humans reading the JSONL) and the monotonic reading spans use (so
:func:`repro.obs.export.chrome_trace_events` can place events on the
span timeline as instant markers) — both virtual on a ``VirtualClock``.

Event kinds emitted by the wired subsystems (a tier-1 test scans
``src/`` for every ``emit`` and checks this table against it):

===============================  ==============================================
kind                             emitted by
===============================  ==============================================
``failover``                     router: a replica was down or lacked a shard
``peer_down``                    ``Transport.kill_peer``
``peer_up``                      ``Transport.revive_peer``
``peer_degraded``                ``Transport.degrade_peer`` (latency injection)
``peer_restored``                ``Transport.restore_peer``
``epoch_bump``                   catalog register / update / drop, and the
                                 peer view's ``mark_down`` / ``mark_up`` (the
                                 detector's dead / revived verdicts included)
``peer_draining``                peer view ``drain`` (a reconciler drain)
``peer_undrained``               peer view ``undrain``
``cache_invalidation``           result cache: a lookup dropped an entry a
                                 store outdated (one per entry, naming the
                                 stored peer)
``shard_skip``                   router skipped a shard on a value-index probe
``health_demoted``               health scorer: score fell below demote
``health_restored``              health scorer: score recovered past restore
``membership_suspect``           failure detector: replica entered *suspect*
``membership_dead``              failure detector: replica declared *dead*
``membership_alive``             failure detector: replica revived / rejoined
``replica_evicted``              detector evicted a replica from placements
``repair_started``               executor began re-replicating a fragment
``repair_completed``             fragment re-replicated and registered
``repair_failed``                repair's source failed, or repair abandoned
``rebalance_planned``            reconciler planned a split or a move
``rebalance_completed``          executor cut a split / move / retire over
``rebalance_failed``             migration's source failed, or it was abandoned
``rebalance_retired``            executor removed a superseded fragment copy
``rebalance_noop``               a chaos split / move found nothing to do
``rebalance_drain_started``      reconciler began draining a peer
``rebalance_drain_completed``    the drained peer holds no placement
``rebalance_drain_stalled``      drain ended with placements left
===============================  ==============================================
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque

from repro.clock import REAL_CLOCK, Clock

__all__ = ["Event", "EventLog"]

_SEVERITIES = ("info", "warning", "error")

#: How many of the newest events the ring keeps.
CAPACITY = 1024


class Event:
    """One typed occurrence in the fleet."""

    __slots__ = ("seq", "wall_ts", "perf_s", "kind", "message", "severity",
                 "attrs")

    def __init__(self, seq: int, wall_ts: float, perf_s: float, kind: str,
                 message: str, severity: str = "info",
                 attrs: dict | None = None) -> None:
        self.seq = seq  # monotone per-log sequence number
        self.wall_ts = wall_ts  # clock.wall() — for humans / JSONL
        self.perf_s = perf_s  # clock() — span timeline
        self.kind, self.message, self.severity = kind, message, severity
        self.attrs = {} if attrs is None else attrs

    def to_dict(self) -> dict:
        out = {
            "seq": self.seq,
            "wall_ts": self.wall_ts,
            "perf_s": self.perf_s,
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


class EventLog:
    """Thread-safe bounded ring of :class:`Event`.

    :data:`CAPACITY` bounds memory: the ring keeps the newest events,
    and :meth:`count` reads cumulative per-kind totals that survive
    eviction. ``clock`` supplies both timestamps.
    """

    def __init__(self, clock: Clock = REAL_CLOCK):
        self.clock = clock
        self._ring: deque[Event] = deque(maxlen=CAPACITY)
        self._counts: dict[str, int] = {}
        self._seq = itertools.count()
        self._lock = threading.Lock()

    def attach(self, federation) -> "EventLog":
        """Install as ``federation.events``: the federation's wire and
        catalog emit here, on the wire's clock, and so does all that
        reads ``federation.events`` when it emits (a run's result-cache
        lookups, the router, the cluster's control plane, the health
        scorer), attached before this or after. ``Federation.transport``'s
        setter keeps the log on a swapped wire."""
        federation.events = federation.transport.events = self
        self.clock = federation.transport.clock
        if federation.catalog is not None:
            federation.catalog.events = self
        return self

    def emit(self, kind: str, message: str, severity: str = "info",
             **attrs) -> Event:
        if severity not in _SEVERITIES:
            raise ValueError(f"severity {severity!r} not in {_SEVERITIES}")
        with self._lock:
            event = Event(seq=next(self._seq), wall_ts=self.clock.wall(),
                          perf_s=self.clock(), kind=kind, message=message,
                          severity=severity, attrs=attrs)
            self._ring.append(event)
            self._counts[kind] = self._counts.get(kind, 0) + 1
        return event

    # -- reads ----------------------------------------------------------------

    def recent(self, n: int | None = None,
               kind: str | None = None) -> list[Event]:
        """The newest events, oldest first (``kind`` filters; ``n``
        limits to the last n *after* filtering)."""
        with self._lock:
            events = list(self._ring)
        if kind is not None:
            events = [e for e in events if e.kind == kind]
        if n is not None:
            events = events[-n:]
        return events

    def count(self, kind: str) -> int:
        """Cumulative emissions of ``kind`` (survives ring eviction)."""
        with self._lock:
            return self._counts.get(kind, 0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # -- export ---------------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        return [event.to_dict() for event in self.recent()]

    def export_jsonl(self, path) -> int:
        """Write the retained events as JSON Lines; returns the count."""
        events = self.to_dicts()
        with open(path, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        return len(events)
