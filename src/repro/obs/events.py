"""Structured fleet events: a thread-safe bounded ring of typed records.

Metrics say *how much*; events say *what happened and when*. The
runtime emits one :class:`Event` per operationally interesting
transition — a failover, a peer kill/recover, a catalog epoch bump, a
cache invalidation sweep, a shard skipped by a probe, a query over the
slow threshold, an SLO alert firing or resolving — into one
:class:`EventLog` owned by the fleet monitor. The log is a bounded
deque (old events fall off; cumulative per-kind counts survive
eviction), exports JSONL for CI artifacts, and timestamps every event
twice off its one clock: ``wall()`` (calendar seconds, for humans
reading the JSONL) and the monotonic reading spans use (so
:func:`repro.obs.export.chrome_trace_events` can place events on the
span timeline as instant markers) — both virtual on a ``VirtualClock``.

Event kinds emitted by the wired subsystems (a tier-1 test scans
``src/`` for every ``emit`` and checks this table against it):

===============================  ==============================================
kind                             emitted by
===============================  ==============================================
``failover``                     router: a replica raised ``NetworkError``
``peer_down``                    ``Transport.kill_peer``
``peer_up``                      ``Transport.revive_peer``
``peer_degraded``                ``Transport.degrade_peer`` (latency injection)
``peer_restored``                ``Transport.restore_peer``
``epoch_bump``                   catalog register / update / drop, and the
                                 peer view's ``mark_down`` / ``mark_up`` (the
                                 detector's dead / revived verdicts included)
``peer_draining``                peer view ``drain`` (a reconciler drain)
``peer_undrained``               peer view ``undrain``
``cache_invalidation``           result cache: a newer store generation dropped
                                 some entries
``shard_skip``                   router skipped a shard on a value-index probe
``slow_query``                   monitor: wall time over the slow threshold
``health_demoted``               health scorer: score fell below demote
``health_restored``              health scorer: score recovered past restore
``alert_fired``                  SLO burn-rate rule breached (once per breach)
``alert_resolved``               burn rate fell back under the resolve ratio
``membership_suspect``           failure detector: replica entered *suspect*
``membership_dead``              failure detector: replica declared *dead*
``membership_alive``             failure detector: replica revived / rejoined
``replica_evicted``              detector evicted a replica from placements
``partial_result``               scatter answered around a dead shard
``repair_started``               executor began re-replicating a fragment
``repair_completed``             fragment re-replicated and registered
``repair_failed``                repair attempt aborted or abandoned
``rebalance_planned``            reconciler planned a split or a move
``rebalance_completed``          executor cut a split / move / retire over
``rebalance_failed``             migration attempt aborted or abandoned
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
from dataclasses import dataclass, field

from repro.clock import REAL_CLOCK, Clock

__all__ = ["Event", "EventLog"]

_SEVERITIES = ("info", "warning", "error")

#: How many of the newest events the ring keeps.
CAPACITY = 1024


@dataclass(frozen=True)
class Event:
    """One typed occurrence in the fleet."""

    seq: int                     # monotone per-log sequence number
    wall_ts: float               # clock.wall() — for humans / JSONL
    perf_s: float                # clock() — span timeline
    kind: str
    message: str
    severity: str = "info"
    attrs: dict = field(default_factory=dict)

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
    and :meth:`counts` keeps cumulative per-kind totals that survive
    eviction (the soak test's "alert fired exactly once" is asserted
    against the totals, not the ring). ``clock`` supplies both
    timestamps.
    """

    def __init__(self, clock: Clock = REAL_CLOCK):
        self.clock = clock
        self._ring: deque[Event] = deque(maxlen=CAPACITY)
        self._counts: dict[str, int] = {}
        self._seq = itertools.count()
        self._lock = threading.Lock()

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

    def counts(self) -> dict[str, int]:
        """Cumulative emissions per kind (survives ring eviction)."""
        with self._lock:
            return dict(self._counts)

    def count(self, kind: str) -> int:
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
