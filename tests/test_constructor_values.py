"""The constructor surface of the control plane, the fleet monitor and
the engine, pinned: every parameter here is a value some product caller
sets (or the wiring a caller hands over); a value nothing sets is a
module constant. Adding a parameter means editing this pin on purpose
and saying why in CHANGES.md."""

import importlib
import inspect

import pytest

#: class (module path, name) -> its constructor's parameter names.
PINNED = {
    ("repro.cluster.membership", "MembershipTracker"): (),
    ("repro.cluster.membership", "PeerView"): ("catalog",),
    ("repro.obs.health", "HealthTracker"): ("events", "clock"),
    ("repro.obs.fleet", "FleetMonitor"): ("slow_query_s", "profile_every"),
    ("repro.cluster.rebalance", "Reconciler"): (),
    ("repro.cluster.rebalance", "LoadScorer"): ("federation",),
    ("repro.cluster.migrate", "MigrationExecutor"): ("federation",),
    ("repro.cluster.catalog", "ClusterCatalog"): ("partial",),
    ("repro.cluster.router", "ClusterRouter"): ("run", "catalog"),
    ("repro.runtime.engine", "FederationEngine"): (
        "federation", "max_workers", "cache", "batch_window_s"),
    ("repro.runtime.cache", "ResultCache"): ("metrics", "events"),
    ("repro.runtime.batching", "BulkBatcher"): ("window_s", "worth_waiting"),
    ("repro.obs.events", "EventLog"): ("clock",),
    ("repro.planner.feedback", "CalibrationBook"): (),
}


@pytest.mark.parametrize("where", sorted(PINNED), ids=lambda w: w[1])
def test_constructor_takes_only_the_pinned_values(where):
    module, name = where
    cls = getattr(importlib.import_module(module), name)
    assert tuple(inspect.signature(cls).parameters) == PINNED[where]
