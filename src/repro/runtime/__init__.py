"""Concurrent multi-query runtime on top of the federation simulator.

The seed executes one federated query at a time; this package turns it
into a runtime that serves many queries concurrently over shared peers:

* :class:`Clock` / :class:`VirtualClock`, re-exported from the leaf
  module :mod:`repro.clock` — the one seam time enters through
  (:class:`VirtualClock` for replayable drills);
* :mod:`repro.runtime.transport` — the wire: one :class:`Transport`
  per federation, its delay policy as data (loopback by default), and
  killed peers as the one way a transmission fails;
* :mod:`repro.runtime.engine` — :class:`FederationEngine`, a
  thread-pool scheduler with admission control and per-peer capacity
  gates;
* :mod:`repro.runtime.cache` — a projection-aware result/fragment
  cache shared across queries, each entry current while the peers it
  read are;
* :mod:`repro.runtime.metrics` — when each engine run started and
  finished (what the runs did is the federation registry's ``query_*``
  / ``scatter_*`` / ``cache_*`` series).
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(globals(), {
    ".cache": "CacheStats ResultCache",
    "repro.clock": "Clock VirtualClock",
    ".engine": "EngineClosedError FederationEngine",
    ".metrics": "QueryRecord",
    ".transport": "PeerDownError Transport",
})
