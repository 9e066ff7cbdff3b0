"""What a scatter pays per op: threads only on a wire that can wait,
and no AST rewrite or pretty-print on a warm plan.

No wall-clock assertion anywhere — fan-out mode is read off the thread
a round trip runs on, preparation off call counts.
"""

import dataclasses
import sys
import threading

import pytest

import repro.cluster.router as router_module
import repro.system.federation as federation_module
from repro.cluster.router import ClusterRouter
from repro.decompose import Strategy
from repro.runtime import FederationEngine, Transport, VirtualClock
from repro.workloads import (
    SHARDED_BENCHMARK_QUERY, build_sharded_federation,
)
from repro.xquery.xdm import serialize_sequence

from tests.cluster.conftest import make_cluster

SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")

#: A scatter inside a scatter: the body shipped to every people shard
#: re-references a second collection through its own ``execute at``,
#: so each people replica scatters over the auctions shards with a
#: body that belongs to that peer's table, not to the running plan.
NESTED = """
declare function sold($id as xs:string) as item()* {
  count(doc("xrpc://auctions-c/auctions.xml")/descendant::open_auction
        [child::seller/attribute::person = $id])
};
declare function young() as item()* {
  for $p in doc("xrpc://people-c/people.xml")/child::site/child::people
            /child::person[child::age < 30]
  return execute at {"auctions-c"} { sold($p/attribute::id) }
};
execute at {"people-c"} { young() }
"""


@pytest.fixture
def shard_threads(monkeypatch):
    """Names of the threads round trips (a scatter's one per cover
    peer, a document fetch's one per shard) ran on."""
    names: list[str] = []
    serve = ClusterRouter._serve_group

    def recording(self, *args, **kwargs):
        names.append(threading.current_thread().name)
        return serve(self, *args, **kwargs)

    monkeypatch.setattr(ClusterRouter, "_serve_group", recording)
    return names


def _pooled(names: list[str]) -> bool:
    """True when every round trip ran on a scatter pool thread, False
    when every one ran on the caller's; anything mixed fails."""
    pooled = {name.startswith("cluster-scatter") for name in names}
    assert len(pooled) == 1, names
    if not pooled.pop():
        assert set(names) == {threading.current_thread().name}
        return False
    return True


def _waiting_wire(federation) -> Transport:
    return Transport(federation.cost_model, extra_latency_s=0.0002)


# -- selection ---------------------------------------------------------------


@pytest.mark.parametrize("strategy", [Strategy.BY_PROJECTION,
                                      Strategy.DATA_SHIPPING])
def test_loopback_scatter_and_fetch_start_no_thread(strategy,
                                                    shard_threads):
    cluster = make_cluster()
    result = cluster.run(SCAN, at="local", strategy=strategy)
    assert result.stats.scatter_shards == 4
    shipping = strategy is Strategy.DATA_SHIPPING
    assert result.stats.documents_shipped == (4 if shipping else 0)
    # A fetch ships each shard; a scatter calls each of its 2 cover peers.
    assert len(shard_threads) == (4 if shipping else 2)
    assert not _pooled(shard_threads)


@pytest.mark.parametrize("strategy", [Strategy.BY_PROJECTION,
                                      Strategy.DATA_SHIPPING])
def test_wire_that_can_wait_fans_out_over_threads(strategy,
                                                  shard_threads):
    cluster = make_cluster()
    cluster.transport = _waiting_wire(cluster)
    cluster.run(SCAN, at="local", strategy=strategy)
    assert len(shard_threads) \
        == (4 if strategy is Strategy.DATA_SHIPPING else 2)
    assert _pooled(shard_threads)


def test_zero_delay_policy_stays_inline(shard_threads):
    cluster = make_cluster()
    cluster.transport = Transport(cluster.cost_model, time_scale=0.0,
                                  extra_latency_s=0.0)
    cluster.run(SCAN, at="local")
    assert not _pooled(shard_threads)


def test_virtual_wire_stays_inline_whatever_its_delay(shard_threads):
    """A virtual sleep passes no wall time for threads to overlap."""
    cluster = make_cluster()
    cluster.transport = Transport(cluster.cost_model, clock=VirtualClock(),
                                  time_scale=1.0, extra_latency_s=0.0002)
    cluster.transport.degrade_peer("node3", 0.0002)
    cluster.run(SCAN, at="local")
    assert not _pooled(shard_threads)
    assert cluster.transport.clock.now > 0.0


def test_degraded_peer_turns_loopback_threaded_until_restored(
        shard_threads):
    cluster = make_cluster()
    cluster.transport.degrade_peer("node3", 0.0002)
    cluster.run(SCAN, at="local")
    assert _pooled(shard_threads)
    del shard_threads[:]
    cluster.transport.restore_peer("node3")
    cluster.run(SCAN, at="local")
    assert not _pooled(shard_threads)


def test_parallelism_bound_still_applies_to_threads(shard_threads):
    """A one-shard scatter's bound is one thread: it runs inline, also
    on a wire that waits."""
    cluster = make_cluster(shard_count=1)
    cluster.transport = _waiting_wire(cluster)
    cluster.run(SCAN, at="local")
    assert not _pooled(shard_threads)


# -- both modes account identically ------------------------------------------


def _comparable(result) -> tuple[str, dict]:
    summary = result.stats.summary()
    del summary["plan"]          # estimates read the live replica load
    return serialize_sequence(result.items), summary


def _both_modes(federation, query, strategy, shard_threads):
    inline = federation.run(query, at="local", strategy=strategy)
    assert not _pooled(shard_threads)
    del shard_threads[:]
    federation.transport = _waiting_wire(federation)
    threaded = federation.run(query, at="local", strategy=strategy)
    assert _pooled(shard_threads)
    assert _comparable(threaded) == _comparable(inline)
    return inline


def test_modes_agree_on_the_paper_query(shard_threads):
    federation = build_sharded_federation(0.004, shard_count=4,
                                          replication_factor=2)
    inline = _both_modes(federation, SHARDED_BENCHMARK_QUERY,
                         Strategy.BY_PROJECTION, shard_threads)
    assert inline.stats.scatter_shards == 8
    assert len(inline.stats.per_shard) == 8


def test_modes_agree_on_a_nested_scatter(shard_threads):
    federation = build_sharded_federation(0.004, shard_count=4,
                                          replication_factor=2)
    # Data shipping decomposes nothing, so the two literal
    # ``execute at`` sites run exactly as written.
    inline = _both_modes(federation, NESTED, Strategy.DATA_SHIPPING,
                         shard_threads)
    nested = inline.stats.scatter_shards - 4
    assert nested > 0 and nested % 4 == 0
    # One message pair per cover peer, one call per (call × shard).
    assert inline.stats.messages == 2 * len(inline.messages)
    assert sum(m.calls for m in inline.messages) \
        == inline.stats.scatter_shards - inline.stats.shards_skipped
    assert {key.split("#")[0] for key in inline.stats.per_shard} \
        == {"people-c", "auctions-c"}


def test_nested_scatter_counts_each_shard_call_once():
    """Every view of a run's shard calls is a sum of one record: the
    engine's per-collection calls, the registry's serves and the run's
    ``scatter_shards`` agree (the engine once counted merged per-shard
    entries, 4 on ``auctions-c`` where 8 calls were made)."""
    federation = build_sharded_federation(0.02)
    with FederationEngine(federation, max_workers=1) as engine:
        result = engine.submit(NESTED, "local",
                               Strategy.BY_FRAGMENT).result()
    per_collection = engine.metrics.summary()["per_collection"]
    calls = {name: agg["shard_calls"]
             for name, agg in per_collection.items()}
    serves: dict[str, int] = {}
    for label, value in federation.metrics.snapshot()[
            "scatter_shard_serves_total"].items():
        collection = label.split(",")[0]
        serves[collection] = serves.get(collection, 0) + value
    assert result.stats.scatter_shards == 12
    assert calls == serves == {"auctions-c": 8, "people-c": 4}


def test_modes_agree_on_a_partial_answer(shard_threads):
    cluster = make_cluster()
    cluster.catalog.set_partial_policy("allow")
    dead = cluster.catalog.get("books-c").shards[0]
    waiting = _waiting_wire(cluster)
    for replica in dead.replicas:
        # Down on both wires, and marked down so the surviving shards
        # never try them first (which would make failovers depend on
        # load order).
        cluster.transport.kill_peer(replica)
        waiting.kill_peer(replica)
        cluster.peer_view.mark_down(replica)
    inline = cluster.run(SCAN, at="local")
    assert not _pooled(shard_threads)
    del shard_threads[:]
    cluster.transport = waiting
    threaded = cluster.run(SCAN, at="local")
    assert _pooled(shard_threads)
    assert _comparable(threaded) == _comparable(inline)
    assert inline.stats.partial_shards == 1
    assert inline.stats.per_shard["books-c#s0"]["partial"]
    assert 0 < len(inline.items) < 10


# -- one preparation per (body, layout) --------------------------------------

_PREPARATION = ("unwrap_collection_xrpc", "rewrite_doc_uris",
                "gather_plan", "shard_skip_probes", "pretty")


@pytest.fixture
def preparation_calls(monkeypatch):
    """Calls of the five pure preparation functions, by name."""
    calls = dict.fromkeys(_PREPARATION, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _PREPARATION:
        monkeypatch.setattr(router_module, name,
                            counting(name, getattr(router_module, name)))
    monkeypatch.setattr(federation_module, "pretty",
                        counting("pretty", federation_module.pretty))
    return calls


def test_warm_scatter_prepares_nothing(preparation_calls):
    federation = build_sharded_federation(0.004, shard_count=4,
                                          replication_factor=2)
    cold = federation.run(SHARDED_BENCHMARK_QUERY, at="local")
    assert preparation_calls == {
        "unwrap_collection_xrpc": 2, "gather_plan": 2,
        "shard_skip_probes": 2, "rewrite_doc_uris": 2, "pretty": 4}
    for name in _PREPARATION:
        preparation_calls[name] = 0
    warm = federation.run(SHARDED_BENCHMARK_QUERY, at="local")
    assert not any(preparation_calls.values()), preparation_calls
    assert serialize_sequence(warm.items) == serialize_sequence(cold.items)
    assert warm.stats.message_bytes == cold.stats.message_bytes


def test_layout_change_re_prepares_exactly_once(preparation_calls):
    cluster = make_cluster()
    catalog = cluster.catalog
    expected = serialize_sequence(cluster.run(SCAN, at="local").items)
    assert preparation_calls["unwrap_collection_xrpc"] == 1

    # A liveness-only epoch bump moves nothing a preparation read.
    epoch = catalog.epoch()
    cluster.peer_view.mark_down("node1")
    cluster.peer_view.mark_up("node1")
    assert catalog.epoch() == epoch + 2
    cluster.run(SCAN, at="local")
    assert preparation_calls["unwrap_collection_xrpc"] == 1

    # A layout change installs a new (frozen) spec: one re-preparation,
    # shared by every run until the next.
    spec = catalog.get("books-c")
    catalog.replace(dataclasses.replace(spec), reason="test")
    for _ in range(3):
        result = cluster.run(SCAN, at="local")
        assert serialize_sequence(result.items) == expected
    assert preparation_calls["unwrap_collection_xrpc"] == 2
    assert preparation_calls["pretty"] == 4


def test_nested_scatter_body_is_prepared_once_per_peer_parse(
        preparation_calls):
    federation = build_sharded_federation(0.004, shard_count=4,
                                          replication_factor=2)
    scatters = 0
    for _ in range(3):
        result = federation.run(NESTED, at="local",
                                strategy=Strategy.DATA_SHIPPING)
        scatters += result.stats.scatter_shards // 4
    # The nested body is the serving peer's parse of the shard-local
    # text: one per (people shard, replica) at most, plus the plan's
    # own outer body — however many scatters ran.
    prepared = preparation_calls["unwrap_collection_xrpc"]
    assert scatters > 9 >= prepared >= 2
    assert len(federation.catalog.prepared) == prepared


def test_concurrent_first_scatters_share_one_preparation(
        preparation_calls):
    """Engine workers share one read-only plan; racing first scatters
    of its two call sites must publish one preparation each."""
    federation = build_sharded_federation(0.004, shard_count=4,
                                          replication_factor=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with FederationEngine(federation, max_workers=8, cache=False,
                              batch_window_s=0) as engine:
            futures = [engine.submit(SHARDED_BENCHMARK_QUERY, "local")
                       for _ in range(24)]
            outputs = [serialize_sequence(f.result(timeout=60).items)
                       for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert preparation_calls["unwrap_collection_xrpc"] == 2
    assert preparation_calls["pretty"] == 4
    expected = serialize_sequence(
        build_sharded_federation(0.004, shard_count=4,
                                 replication_factor=2)
        .run(SHARDED_BENCHMARK_QUERY, at="local").items)
    assert outputs == [expected] * 24
