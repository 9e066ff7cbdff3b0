"""What a scatter pays per op: its round trips on the calling thread,
whatever the wire, and no AST rewrite or pretty-print on a warm plan.

No wall-clock assertion anywhere — where a round trip ran is read off
its thread, how many ran off the wire's exchange calls, preparation off
call counts.
"""

import sys
import threading

import pytest

import repro.cluster.router as router_module
import repro.system.federation as federation_module
from repro.cluster.router import ClusterRouter, ShardUnavailableError
from repro.decompose import Strategy
from repro.errors import XQueryDynamicError
from repro.runtime import FederationEngine, Transport, VirtualClock
from repro.workloads import (
    SHARDED_BENCHMARK_QUERY, build_sharded_federation,
)
from repro.xquery.xdm import serialize_sequence

from tests.cluster.conftest import make_cluster
from tests.obs.test_accounting import recorded_runs

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


@pytest.fixture
def exchanges(monkeypatch):
    """The peers ``Transport.exchange`` was called for, in call order."""
    peers: list[str] = []
    exchange = Transport.exchange

    def recording(self, peer, *args, **kwargs):
        peers.append(peer.name)
        return exchange(self, peer, *args, **kwargs)

    monkeypatch.setattr(Transport, "exchange", recording)
    return peers


def _sleeping_wire(federation) -> Transport:
    return Transport(federation.cost_model, extra_latency_s=0.0002)


def _time_scaled_wire(federation) -> Transport:
    return Transport(federation.cost_model, time_scale=0.1)


def _degraded_loopback(federation) -> Transport:
    transport = Transport(federation.cost_model)
    transport.degrade_peer("node3", 0.0002)
    return transport


def _virtual_wire(federation) -> Transport:
    transport = Transport(federation.cost_model, clock=VirtualClock(),
                          time_scale=1.0, extra_latency_s=0.0002)
    transport.degrade_peer("node3", 0.0002)
    return transport


WIRES = {
    "loopback": lambda federation: federation.transport,
    "extra-latency": _sleeping_wire,
    "time-scale": _time_scaled_wire,
    "degraded-peer": _degraded_loopback,
    "virtual-clock": _virtual_wire,
}


# -- one thread ---------------------------------------------------------------


@pytest.mark.parametrize("wire", sorted(WIRES))
@pytest.mark.parametrize("strategy", [Strategy.BY_PROJECTION,
                                      Strategy.DATA_SHIPPING])
def test_every_wire_serves_on_the_calling_thread(wire, strategy,
                                                 shard_threads):
    cluster = make_cluster()
    cluster.transport = WIRES[wire](cluster)
    result = cluster.run(SCAN, at="local", strategy=strategy)
    assert result.stats.scatter_shards == 4
    shipping = strategy is Strategy.DATA_SHIPPING
    assert result.stats.documents_shipped == (4 if shipping else 0)
    # A fetch ships each shard; a scatter calls each of its 2 cover peers.
    assert len(shard_threads) == (4 if shipping else 2)
    assert set(shard_threads) == {threading.current_thread().name}
    if wire == "virtual-clock":
        assert cluster.transport.clock.now > 0.0


#: A shipped body over every book; data shipping decomposes nothing,
#: so it runs as written: one Bulk RPC per cover peer.
PER_BOOK = """
declare function per_book() as item()* {
  for $b in doc("xrpc://books-c/books.xml")/child::library/child::books
            /child::book
  return %s
};
execute at {"books-c"} { per_book() }
"""


@pytest.mark.parametrize("wire", ["loopback", "extra-latency"])
def test_an_error_stops_the_scatter_at_its_group(wire, exchanges):
    """A query-level error ends the scatter with the cover group that
    raised it: no round trip reaches a later group, on a wire that
    sleeps exactly as on the loopback."""
    cluster = make_cluster()
    cluster.transport = WIRES[wire](cluster)
    cluster.run(PER_BOOK % "exactly-one($b/child::title)", at="local",
                strategy=Strategy.DATA_SHIPPING)
    assert len(exchanges) == len(set(exchanges)) == 2   # two groups
    del exchanges[:]
    # Every member raises: a book has three children.
    with pytest.raises(XQueryDynamicError, match="exactly-one"):
        cluster.run(PER_BOOK % "exactly-one($b/child::*)", at="local",
                    strategy=Strategy.DATA_SHIPPING)
    assert len(exchanges) == 1


# -- a sleeping wire accounts as the loopback does -----------------------------


def _comparable(result) -> tuple[str, dict]:
    """Items and ``summary()``, ``per_shard`` entries included."""
    summary = result.stats.summary()
    del summary["plan"]          # estimates read the live replica load
    return serialize_sequence(result.items), summary


def _sleeping_agrees(federation, query, strategy):
    loopback = federation.run(query, at="local", strategy=strategy)
    federation.transport = _sleeping_wire(federation)
    sleeping = federation.run(query, at="local", strategy=strategy)
    assert _comparable(sleeping) == _comparable(loopback)
    return loopback


def test_sleeping_wire_agrees_on_the_paper_query():
    federation = build_sharded_federation(0.004, shard_count=4,
                                          replication_factor=2)
    loopback = _sleeping_agrees(federation, SHARDED_BENCHMARK_QUERY,
                                Strategy.BY_PROJECTION)
    assert loopback.stats.scatter_shards == 8
    assert len(loopback.stats.per_shard) == 8


def test_sleeping_wire_agrees_on_a_nested_scatter():
    federation = build_sharded_federation(0.004, shard_count=4,
                                          replication_factor=2)
    # Data shipping decomposes nothing, so the two literal
    # ``execute at`` sites run exactly as written.
    loopback = _sleeping_agrees(federation, NESTED, Strategy.DATA_SHIPPING)
    nested = loopback.stats.scatter_shards - 4
    assert nested > 0 and nested % 4 == 0
    # One message pair per cover peer, one call per (call × shard).
    assert loopback.stats.messages == 2 * len(loopback.messages)
    assert sum(m.calls for m in loopback.messages) \
        == loopback.stats.scatter_shards - loopback.stats.shards_skipped
    assert {key.split("#")[0] for key in loopback.stats.per_shard} \
        == {"people-c", "auctions-c"}


def test_nested_scatter_counts_each_shard_call_once():
    """Every view of a run's shard calls is a sum of one record: the
    run's per-collection calls, the registry's serves and the run's
    ``scatter_shards`` agree (a second fold of engine runs once counted
    merged per-shard entries, 4 on ``auctions-c`` where 8 calls were
    made)."""
    federation = build_sharded_federation(0.02)
    with FederationEngine(federation, max_workers=1) as engine:
        result = engine.submit(NESTED, "local",
                               Strategy.BY_FRAGMENT).result()
    calls: dict[str, int] = {}
    for key, entry in result.stats.per_shard.items():
        collection = key.rsplit("#s", 1)[0]
        calls[collection] = calls.get(collection, 0) + entry["calls"]
    serves: dict[str, int] = {}
    for label, value in federation.metrics.snapshot()[
            "scatter_shard_serves_total"].items():
        collection = label.split(",")[0]
        serves[collection] = serves.get(collection, 0) + value
    assert result.stats.scatter_shards == 12
    assert calls == serves == {"auctions-c": 8, "people-c": 4}


@pytest.mark.parametrize("strategy", list(Strategy), ids=str)
def test_nested_collection_entries_count_their_traffic_again(strategy):
    """A shard's ``per_shard`` share is what its round trips spent,
    nested work included: the outermost collection's entries sum to the
    run's totals, and a nested collection's count its own traffic a
    second time. The registry's per-shard heat is folded from these
    entries, so it counts the nested traffic twice too."""
    federation = build_sharded_federation(0.004, shard_count=4,
                                          replication_factor=2)
    stats = federation.run(NESTED, at="local", strategy=strategy).stats
    sums: dict[str, list[int]] = {}
    for key, entry in stats.per_shard.items():
        total = sums.setdefault(key.rsplit("#s", 1)[0], [0, 0])
        total[0] += entry["bytes"]
        total[1] += entry["messages"]
    assert sums["people-c"] == [stats.total_transferred_bytes,
                                stats.messages]
    nested_bytes, nested_messages = sums["auctions-c"]
    assert 0 < nested_bytes < stats.total_transferred_bytes
    assert nested_messages < stats.messages
    heat: dict[str, int] = {}
    for label, value in federation.metrics.snapshot()[
            "scatter_shard_bytes_total"].items():
        collection = label.split(",")[0]
        heat[collection] = heat.get(collection, 0) + value
    assert heat == {"people-c": stats.total_transferred_bytes,
                    "auctions-c": nested_bytes}


_UNWRAP_LET = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 6(c): gather_plan does not look through the let that "
    "unwrap_collection_xrpc introduces, so the inner auctions-c scatter "
    "falls back to evaluating over the merged collection"))


@pytest.mark.parametrize("strategy", [
    strategy if strategy is Strategy.DATA_SHIPPING
    else pytest.param(strategy, marks=_UNWRAP_LET)
    for strategy in Strategy], ids=str)
def test_the_nested_scatter_is_gathered_not_evaluated_locally(strategy,
                                                              monkeypatch):
    """``NESTED``'s inner ``auctions-c`` call is a ``count``: it
    scatters with the additive combiner under every strategy, and no
    round trip falls back to ``ClusterRouter._evaluate_locally``
    (which ships every auctions shard to each people cover peer)."""
    fallbacks: list[str] = []
    evaluate = ClusterRouter._evaluate_locally

    def recording(self, from_peer, *args, **kwargs):
        fallbacks.append(from_peer)
        return evaluate(self, from_peer, *args, **kwargs)

    monkeypatch.setattr(ClusterRouter, "_evaluate_locally", recording)
    federation = build_sharded_federation(0.004, shard_count=4,
                                          replication_factor=2)
    federation.run(NESTED, at="local", strategy=strategy)
    assert fallbacks == []


def test_sleeping_wire_agrees_on_a_dark_shard():
    """Both wires fail the query alike and account for it alike."""
    cluster = make_cluster()
    dead = cluster.catalog.get("books-c").shards[0]
    sleeping = _sleeping_wire(cluster)
    for replica in dead.replicas:
        # Down on both wires, and marked down so the surviving shards
        # never try them first (which would make failovers depend on
        # load order).
        cluster.transport.kill_peer(replica)
        sleeping.kill_peer(replica)
        cluster.peer_view.mark_down(replica)
    errors = []
    with recorded_runs() as runs:
        for wire in (cluster.transport, sleeping):
            cluster.transport = wire
            with pytest.raises(ShardUnavailableError) as failed:
                cluster.run(SCAN, at="local")
            errors.append(str(failed.value))
    assert errors[0] == errors[1]
    loopback, asleep = (stats.summary() for _federation, stats, _ok in runs)
    del loopback["plan"], asleep["plan"]
    assert asleep == loopback
    assert loopback["per_shard"]["books-c#s0"]["failed"] == 1


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
    catalog.replace(spec.replace(), reason="test")
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
        with FederationEngine(federation, max_workers=8, cache=False) as engine:
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
