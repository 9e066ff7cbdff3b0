"""What an engine keeps of its runs: when each started and finished.

An engine counts nothing itself. Each run is counted once, in its
:class:`~repro.net.stats.RunStats`, and folded once across runs, at
the end of ``Federation.run``, into the federation registry's
``query_*`` / ``scatter_*`` series (engine and standalone runs alike);
the engine's cache publishes its ``cache_*`` counters there too. Read
totals, latency quantiles and plan counts from
``federation.metrics.snapshot()``.

:class:`EngineMetrics` holds the one thing the registry cannot: each
run's :class:`QueryRecord` on the wire's clock, the newest
:data:`CAPACITY` of them, so a caller that noted when it submitted can
tell how long its queries queued. A query its waiting caller ran itself
starts as soon as the caller waits, so its ``started_at`` is about its
submit time and its queue wait about 0.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import NamedTuple

__all__ = ["QueryRecord", "EngineMetrics"]


class QueryRecord(NamedTuple):
    """One run's life in the engine, on the wire's clock."""

    started_at: float
    finished_at: float


#: How many of the newest records :attr:`EngineMetrics.records` keeps:
#: above the end-to-end ledger's largest closed-loop block (30 ops x 2
#: clients), whose records it reads back by index.
CAPACITY = 256


class RecordRing:
    """The newest :data:`CAPACITY` records, indexed as if none had been
    dropped: ``len()`` counts every record ever appended (a monotone
    cursor), ``ring[i:]`` is the kept records from absolute index ``i``
    on, and ``ring[i]`` raises :class:`IndexError` once record ``i`` has
    been dropped."""

    def __init__(self) -> None:
        self._kept: deque[QueryRecord] = deque(maxlen=CAPACITY)
        self._count = 0
        self._lock = threading.Lock()

    def append(self, record: QueryRecord) -> None:
        with self._lock:
            self._kept.append(record)
            self._count += 1

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        with self._lock:
            return iter(list(self._kept))

    def __getitem__(self, index):
        with self._lock:
            kept, wanted = list(self._kept), range(self._count)[index]
            first = self._count - len(kept)
        if isinstance(index, slice):
            return [kept[n - first] for n in wanted if n >= first]
        if wanted < first:
            raise IndexError(f"record {index} is no longer kept")
        return kept[wanted - first]


class EngineMetrics:
    """An engine's :attr:`records`, and nothing else."""

    def __init__(self) -> None:
        self.records = RecordRing()
