"""One accounting path: a run is counted once, in its ``RunStats``, and
the registry's ``query_*`` / ``scatter_*`` series are the fold of the
finished runs' records — checked after every step of seeded chaos
schedules and after each run of the sharded paper query, against the
plain fold in ``tests/oracle/accounting_reference.py``.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, strategies as st

import repro.system.federation as federation_module
from repro.cluster import ClusterError
from repro.cluster.membership import MembershipTracker
from repro.cluster.rebalance import Reconciler
from repro.decompose import Strategy
from repro.errors import XQuerySyntaxError
from repro.runtime import FederationEngine
from repro.workloads import (
    SHARDED_BENCHMARK_QUERY, SHARDED_SCAN_QUERY, build_sharded_federation,
    sharded_query_variant,
)

from tests.cluster.chaos_harness import ChaosHarness, ChaosSchedule
from tests.cluster.conftest import NODES, make_cluster, observe, virtual_wire
from tests.cluster.test_chaos import oracle_queries
from tests.conftest import fuzz_settings
from tests.oracle.accounting_reference import (
    SERIES, reference_series, registry_series,
)

SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")


@contextmanager
def recorded_runs():
    """``(federation, stats, ok)`` of every ``Federation.run`` inside
    the block, read off the run objects rather than the seam that
    folds them (a run that failed before it was planned has no
    stats). Runs on several threads at once are told apart by their
    thread, which makes a run's ``_Run`` and calls its ``run``."""
    runs: list[tuple[object, object, bool]] = []
    started = threading.local()
    init = federation_module._Run.__init__
    run = federation_module.Federation.run

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        started.stats = self.stats

    def recording_run(self, *args, **kwargs):
        started.stats = None
        ok = False
        try:
            result = run(self, *args, **kwargs)
            ok = True
            return result
        finally:
            runs.append((self, started.stats, ok))

    federation_module._Run.__init__ = recording_init
    federation_module.Federation.run = recording_run
    try:
        yield runs
    finally:
        federation_module._Run.__init__ = init
        federation_module.Federation.run = run


@pytest.fixture
def runs():
    with recorded_runs() as recorded:
        yield recorded


def own(federation, runs) -> list[tuple[object, bool]]:
    return [(stats, ok) for owner, stats, ok in runs if owner is federation]


def assert_folded(federation, runs) -> None:
    actual = registry_series(federation.metrics)
    expected = reference_series(own(federation, runs))
    for name in SERIES:
        assert actual[name] == pytest.approx(expected[name]), name


class CheckedHarness(ChaosHarness):
    """A chaos harness that checks the fold after every query it runs
    (each schedule step, then the steady-state passes)."""

    def __init__(self, *args, runs, **kwargs):
        super().__init__(*args, **kwargs)
        self.runs = runs
        self.checked = 0

    def _query(self, step, report, steady=False):
        super()._query(step, report, steady)
        assert_folded(self.federation, self.runs)
        self.checked += 1


def _chaos(seed, steps=30):
    cluster = make_cluster(transport=virtual_wire())
    observe(cluster)
    MembershipTracker().attach(cluster)
    Reconciler().attach(cluster)
    return cluster, ChaosSchedule.generate(
        random.Random(seed), NODES, steps=steps, degrade_rate=0.3)


def _resharding(seed, steps=24):
    cluster = make_cluster(shard_count=2, transport=virtual_wire())
    observe(cluster)
    MembershipTracker().attach(cluster)
    Reconciler().attach(cluster)
    return cluster, ChaosSchedule.generate(
        random.Random(seed), NODES, steps=steps, splits=1, moves=2,
        drains=1)


def _kill_heavy(seed, steps=24):
    cluster = make_cluster(transport=virtual_wire())
    MembershipTracker().attach(cluster)
    Reconciler().attach(cluster)
    return cluster, ChaosSchedule.generate(
        random.Random(seed), NODES, steps=steps, kill_rate=0.35)


def check_drill(runs, drill, seed, **kwargs) -> None:
    cluster, schedule = drill(seed, **kwargs)
    harness = CheckedHarness(cluster, schedule, queries=oracle_queries(),
                             strategy=Strategy.BY_PROJECTION, runs=runs)
    report = harness.run()
    assert report.wrong_answers == 0, report.wrong_steps
    finished = own(cluster, runs)
    assert harness.checked == report.queries == len(finished)
    assert sum(stats.scatter_shards for stats, _ok in finished) > 0


@pytest.mark.parametrize("drill, seed", [(_chaos, 7),
                                         (_resharding, 20090329),
                                         (_kill_heavy, 42)])
def test_series_are_the_fold_after_every_chaos_step(runs, drill, seed):
    check_drill(runs, drill, seed)


@fuzz_settings(3, hunt=300)
@given(drill=st.sampled_from([_chaos, _resharding, _kill_heavy]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_series_are_the_fold_over_generated_schedules(drill, seed):
    with recorded_runs() as runs:
        check_drill(runs, drill, seed, steps=16)


def test_series_are_the_fold_of_bulk_and_per_call_runs(runs):
    federation = build_sharded_federation(0.004, shard_count=4,
                                          replication_factor=2)
    for bulk_rpc in (True, False):
        federation.run(SHARDED_BENCHMARK_QUERY, at="local",
                       strategy=Strategy.BY_PROJECTION, bulk_rpc=bulk_rpc)
        assert_folded(federation, runs)
    assert len(own(federation, runs)) == 2


def test_engine_runs_are_folded_once(runs):
    """A batch through an engine with its cache, over a
    cluster with one replica dead and one query that fails: each run is
    folded once, by the federation, and nowhere else."""
    federation = build_sharded_federation(0.004, shard_count=4,
                                          replication_factor=2)
    federation.transport.kill_peer("node1")
    texts = [SHARDED_BENCHMARK_QUERY, SHARDED_SCAN_QUERY,
             sharded_query_variant(30)] * 3 + ["for $x in"]
    with FederationEngine(federation, max_workers=2) as engine:
        futures = [engine.submit(text, "local") for text in texts]
        failed = 0
        for future in futures:
            try:
                future.result()
            except XQuerySyntaxError:
                failed += 1
    assert failed == 1
    assert len(own(federation, runs)) == len(engine.metrics.records) == 10
    assert_folded(federation, runs)
    series = registry_series(federation.metrics)
    assert series["query_failed_total"] == 1
    assert series["scatter_failovers_total"]
    assert engine.cache.stats.lookups > 0


def test_failed_runs_are_folded_too(runs):
    """A run that fails in parsing counts as failed; one that fails in
    a scatter publishes what its shard calls spent."""
    cluster = make_cluster()
    with pytest.raises(XQuerySyntaxError):
        cluster.run("for $x in", at="local")
    assert own(cluster, runs) == [(None, False)]
    # Shard 0 lives on node1 and node2 only: dark. node1 is in the
    # first cover with shards 0 and 3, and both fail over once.
    cluster.transport.kill_peer("node1")
    cluster.transport.kill_peer("node2")
    with pytest.raises(ClusterError):
        cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert_folded(cluster, runs)
    _federation, stats, ok = runs[-1]
    assert not ok and stats.failovers == 2
    assert stats.per_shard["books-c#s0"]["failed"] == 1
    series = registry_series(cluster.metrics)
    assert series["query_failed_total"] == 2
    assert series["query_completed_total"] == 0
    assert series["scatter_failovers_total"] == {"books-c": 2}
    # A call that failed served nothing: shard 0's none, shard 3's
    # answered at node4 before the failed scatter stopped.
    assert series["scatter_shard_serves_total"] == {"books-c,books.xml#s3": 1}
