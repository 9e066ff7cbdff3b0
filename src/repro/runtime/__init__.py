"""Concurrent multi-query runtime on top of the federation simulator.

The seed executes one federated query at a time; this package turns it
into a runtime that serves many queries concurrently over shared peers:

* :class:`Clock` / :class:`VirtualClock`, re-exported from the leaf
  module :mod:`repro.clock` — the one seam time enters through
  (:class:`VirtualClock` for replayable drills);
* :mod:`repro.runtime.transport` — the wire: one :class:`Transport`
  per federation, delay and fault policy as data (loopback by default);
* :mod:`repro.runtime.engine` — :class:`FederationEngine`, a
  thread-pool scheduler with admission control and per-peer capacity
  gates;
* :mod:`repro.runtime.cache` — a projection-aware result/fragment
  cache shared across queries, current by the store generation;
* :mod:`repro.runtime.batching` — cross-query Bulk-RPC coalescing,
  extending the paper's bulk idea across query boundaries;
* :mod:`repro.runtime.metrics` — throughput / latency-percentile /
  cache aggregation across queries.
"""

from repro.clock import Clock, VirtualClock
from repro.runtime.batching import BulkBatcher
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.engine import EngineClosedError, FederationEngine
from repro.runtime.metrics import MetricsAggregator, QueryRecord
from repro.runtime.transport import (FaultInjectedError, FaultPlan,
                                     PeerDownError, RequestTimeoutError,
                                     RetryPolicy, Transport)

__all__ = [
    "BulkBatcher",
    "CacheStats", "ResultCache",
    "Clock", "VirtualClock",
    "EngineClosedError", "FederationEngine",
    "MetricsAggregator", "QueryRecord",
    "FaultInjectedError", "FaultPlan", "PeerDownError",
    "RequestTimeoutError", "RetryPolicy", "Transport",
]
