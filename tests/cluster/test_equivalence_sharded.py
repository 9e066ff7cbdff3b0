"""The cluster's correctness criterion, property-style: every paper
benchmark query over a sharded collection returns exactly the
single-owner federation's result sequence, for all four strategies.

Two corpora:

* the small library collection (fast, shard count 4 > member
  diversity) with a battery of path / predicate / aggregate / order-by
  query shapes;
* the XMark pair of Section VII, sharded as ``people-c`` /
  ``auctions-c`` with ≥4 shards and replication factor 2 — the
  acceptance bar for the cluster layer.

Hash partitioning is checked separately: shard-major gather order is
not document order, so equivalence there is set-level plus exact for
order-insensitive (aggregate / order-by) queries.

A scatter is one Bulk RPC per peer of the least cover of its shards;
a generated-layout property checks that grouping against the single
owner, the message count against the cover and the per-shard
accounting against the run's totals.
"""

import functools

import pytest
from hypothesis import given, strategies as st

from repro.cluster.router import serving_replicas, shard_cover
from repro.decompose import Strategy
from repro.workloads import (
    BENCHMARK_QUERY, SHARDED_BENCHMARK_QUERY, build_federation,
    build_sharded_federation, benchmark_query_variant, sharded_query_variant,
)
from repro.xquery.xdm import serialize_sequence
from repro.xrpc.messages import RequestMessage

from tests.cluster.conftest import (
    make_cluster, make_single_owner, virtual_wire,
)
from tests.conftest import fuzz_settings

# -- library battery --------------------------------------------------------

LIBRARY_QUERIES = [
    # plain member scan
    ('doc("{host}/books.xml")/child::library/child::books/child::book'),
    # member field projection
    ('doc("{host}/books.xml")/child::library/child::books/child::book'
     "/child::title"),
    # predicate on member content
    ('for $b in doc("{host}/books.xml")'
     "/child::library/child::books/child::book "
     "return if ($b/child::year < 2005) then $b/child::title else ()"),
    # descendant axis into members
    ('doc("{host}/books.xml")//child::pages'),
    # aggregate pushdown shapes
    ('count(doc("{host}/books.xml")'
     "/child::library/child::books/child::book)"),
    ('sum(doc("{host}/books.xml")'
     "/child::library/child::books/child::book/child::pages)"),
    # order by over members (order-insensitive to gather order)
    ('for $b in doc("{host}/books.xml")'
     "/child::library/child::books/child::book "
     "order by $b/child::title descending return $b/child::year"),
    # existential over members
    ('some $b in doc("{host}/books.xml")'
     "/child::library/child::books/child::book "
     'satisfies $b/@id = "b7"'),
]


def run_pair(query_template: str, strategy: Strategy, cluster,
             single_owner) -> tuple[str, str]:
    sharded = cluster.run(query_template.format(host="xrpc://books-c"),
                          at="local", strategy=strategy)
    baseline = single_owner.run(query_template.format(host="xrpc://owner"),
                                at="local", strategy=strategy)
    return (serialize_sequence(sharded.items),
            serialize_sequence(baseline.items))


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("query", LIBRARY_QUERIES)
def test_library_equivalence_range(query, strategy, cluster, single_owner):
    sharded, baseline = run_pair(query, strategy, cluster, single_owner)
    assert sharded == baseline


@pytest.fixture(scope="module")
def hash_cluster():
    return make_cluster(partitioning="hash")


@pytest.mark.parametrize("strategy", list(Strategy))
def test_library_hash_partitioning_set_equivalence(strategy, hash_cluster):
    single = make_single_owner()
    scan = LIBRARY_QUERIES[0]
    sharded = hash_cluster.run(scan.format(host="xrpc://books-c"),
                               at="local", strategy=strategy)
    baseline = single.run(scan.format(host="xrpc://owner"),
                          at="local", strategy=strategy)
    from repro.xmldb.serializer import serialize_node
    assert sorted(serialize_node(i) for i in sharded.items) \
        == sorted(serialize_node(i) for i in baseline.items)
    # Aggregates and explicit order-by are exact even under hashing.
    for exact in (LIBRARY_QUERIES[4], LIBRARY_QUERIES[5],
                  LIBRARY_QUERIES[6]):
        s, b = (hash_cluster.run(exact.format(host="xrpc://books-c"),
                                 at="local", strategy=strategy),
                single.run(exact.format(host="xrpc://owner"),
                           at="local", strategy=strategy))
        assert serialize_sequence(s.items) == serialize_sequence(b.items)


# -- XMark acceptance bar ---------------------------------------------------

XMARK_SCALE = 0.004
AGE_THRESHOLDS = (30, 40)


@pytest.fixture(scope="module")
def xmark_cluster():
    """≥4 shards, replication factor 2 — the acceptance configuration."""
    return build_sharded_federation(XMARK_SCALE, shard_count=4,
                                    replication_factor=2)


@pytest.fixture(scope="module")
def xmark_baseline():
    return build_federation(XMARK_SCALE)


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("max_age", AGE_THRESHOLDS)
def test_xmark_benchmark_equivalence(strategy, max_age, xmark_cluster,
                                     xmark_baseline):
    sharded = xmark_cluster.run(sharded_query_variant(max_age),
                                at="local", strategy=strategy,
                                keep_message_xml=True)
    baseline = xmark_baseline.run(benchmark_query_variant(max_age),
                                  at="local", strategy=strategy,
                                  keep_message_xml=True)
    assert serialize_sequence(sharded.items) \
        == serialize_sequence(baseline.items)
    if strategy.decomposes:
        assert sharded.stats.scatter_shards >= 8   # both call sites
    if strategy is Strategy.BY_PROJECTION:
        # The shard rewrite must not cost a call site its contract:
        # all 4 requests (one per cover peer, 2 per call site; 8 shard
        # calls) carry the used/returned paths the single-owner
        # requests carry, so the scatter still ships less than
        # by-fragment does.
        assert len(sharded.messages) == 4
        assert sum(m.calls for m in sharded.messages) == 8
        assert {_projection_paths(m) for m in sharded.messages} \
            == {_projection_paths(m) for m in baseline.messages}
        by_fragment = xmark_cluster.run(sharded_query_variant(max_age),
                                        at="local",
                                        strategy=Strategy.BY_FRAGMENT)
        assert sharded.stats.message_bytes \
            < by_fragment.stats.message_bytes


@pytest.mark.parametrize("shards", [1, 2])
def test_projection_ships_less_than_fragment_on_a_small_fleet(shards):
    """The shard rewrite once cost a call site its projection paths, and
    by-projection shipped by-fragment's bytes; 4 shards are checked
    above."""
    cluster = build_sharded_federation(0.01, shard_count=shards,
                                       replication_factor=shards,
                                       node_count=shards)
    projection, fragment = (
        cluster.run(SHARDED_BENCHMARK_QUERY, at="local",
                    strategy=strategy).stats.message_bytes
        for strategy in (Strategy.BY_PROJECTION, Strategy.BY_FRAGMENT))
    assert projection < fragment


def _projection_paths(message) -> tuple[tuple[str, ...], tuple[str, ...]]:
    request = RequestMessage.from_xml(message.request_xml)
    assert request.used_paths is not None
    assert request.returned_paths is not None
    return tuple(request.used_paths), tuple(request.returned_paths)


def test_xmark_count_aggregates(xmark_cluster, xmark_baseline):
    queries = (
        ('count(doc("{p}/people.xml")/child::site/child::people'
         "/child::person)"),
        ('count(doc("{a}/auctions.xml")/descendant::open_auction)'),
    )
    for template in queries:
        sharded = xmark_cluster.run(
            template.format(p="xrpc://people-c", a="xrpc://auctions-c"),
            at="local", strategy=Strategy.BY_PROJECTION)
        baseline = xmark_baseline.run(
            template.format(p="xrpc://peer1", a="xrpc://peer2"),
            at="local", strategy=Strategy.BY_PROJECTION)
        assert sharded.items == baseline.items


def test_unsharded_query_text_unchanged():
    """The sharded query is the same query, just re-hosted — the
    paper's benchmark text survives verbatim otherwise."""
    assert sharded_query_variant(40).replace(
        "xrpc://people-c/people.xml", "xrpc://peer1/people.xml").replace(
        "xrpc://auctions-c/auctions.xml", "xrpc://peer2/auctions.xml") \
        == BENCHMARK_QUERY.replace("< 40", "< 40")


# -- grouped round trips over generated layouts ------------------------------

#: Scatter-safe shapes: a member map, a filter whose value-index probes
#: may skip shards, and an additive aggregate.
GROUPED_QUERIES = (LIBRARY_QUERIES[1], LIBRARY_QUERIES[2],
                   LIBRARY_QUERIES[4])


def _layout_and_fault(data, shard_count, replication_factor, node_count,
                      partitioning):
    """A cluster over ``node_count`` nodes on the virtual wire, and at
    most one peer killed (on the wire; ``known``: also marked down) or
    degraded — never the last live replica of a shard."""
    nodes = [f"node{i}" for i in range(1, node_count + 1)]
    cluster = make_cluster(shard_count, replication_factor, partitioning,
                           nodes=nodes, transport=virtual_wire())
    shards = cluster.catalog.get("books-c").shards
    fault = data.draw(st.sampled_from(["none", "kill", "degrade"]))
    spare = [peer for peer in nodes
             if all(set(shard.replicas) - {peer} for shard in shards)]
    dead = None
    if fault == "kill" and spare:
        dead = data.draw(st.sampled_from(spare))
        cluster.transport.kill_peer(dead)
        if data.draw(st.booleans()):
            cluster.peer_view.mark_down(dead)
    elif fault == "degrade":
        cluster.transport.degrade_peer(data.draw(st.sampled_from(nodes)),
                                       0.002)
    return cluster, dead


@functools.lru_cache(maxsize=None)
def _single_owner_items(query: str, strategy: Strategy) -> tuple:
    items = make_single_owner().run(query.format(host="xrpc://owner"),
                                    at="local", strategy=strategy).items
    return tuple(serialize_sequence([item]) for item in items)


@fuzz_settings(40, hunt=400)
@given(shard_count=st.integers(1, 6), replication_factor=st.integers(1, 3),
       extra_nodes=st.integers(0, 5),
       partitioning=st.sampled_from(["range", "hash"]),
       query=st.sampled_from(GROUPED_QUERIES), data=st.data())
def test_grouped_scatter_equals_single_owner(shard_count,
                                             replication_factor,
                                             extra_nodes, partitioning,
                                             query, data):
    node_count = min(replication_factor + extra_nodes, 6)
    cluster, dead = _layout_and_fault(data, shard_count, replication_factor,
                                      node_count, partitioning)
    spec = cluster.catalog.get("books-c")
    view = cluster.peer_view
    for strategy in Strategy:
        sharded = cluster.run(query.format(host="xrpc://books-c"),
                              at="local", strategy=strategy)
        items = tuple(serialize_sequence([item]) for item in sharded.items)
        baseline = _single_owner_items(query, strategy)
        if partitioning == "range":
            assert items == baseline
        else:   # shard-major gather: the same items, in shard order
            assert sorted(items) == sorted(baseline)
        stats = sharded.stats
        entries = stats.per_shard.values()
        assert sum(e["bytes"] for e in entries) \
            == stats.total_transferred_bytes
        assert sum(e["messages"] for e in entries) == stats.messages
        assert sum(e["sim_s"] for e in entries) == pytest.approx(
            stats.times.total - stats.times.local_exec
            - stats.times.remote_exec)
        if not strategy.decomposes:
            continue
        served = [spec.shard_named(e["shard"]) for e in entries
                  if not e["skipped"]]
        cover = shard_cover(served, lambda shard: [
            peer for peer in serving_replicas(view, shard) if peer != dead])
        # One logged round trip (two messages) per cover peer, one call
        # per shard it serves.
        assert stats.messages == 2 * len(sharded.messages)
        assert sum(m.calls for m in sharded.messages) == len(served)
        # The least cover of the live replicas is the fewest round
        # trips; it is what is sent unless a dead peer was tried first
        # (a failed attempt sends nothing, and its shards' re-cover may
        # take more round trips than the least cover).
        if stats.failovers == 0:
            assert stats.messages == 2 * len(cover)
        else:
            assert dead is not None
            assert stats.messages >= 2 * len(cover)
