"""Router mechanics: URI rewrite, scatter, aggregate pushdown, and
shard-identity response caching."""

import pytest

from repro.cluster import ClusterError, rewrite_doc_uris
from repro.decompose import Strategy
from repro.errors import NetworkError
from repro.runtime import FederationEngine
from repro.xquery.ast import FunCall, Literal
from repro.xquery.parser import parse_query
from repro.xquery.pretty import pretty
from repro.xquery.xdm import serialize_sequence

SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")
SCAN_OWNER = SCAN.replace("xrpc://books-c", "xrpc://owner")
COUNT = ('count(doc("xrpc://books-c/books.xml")'
         "/child::library/child::books/child::book)")
SUM = ('sum(doc("xrpc://books-c/books.xml")'
       "/child::library/child::books/child::book/child::pages)")


def test_rewrite_doc_uris_targets_only_mapped_literals():
    module = parse_query(
        'doc("xrpc://books-c/books.xml")/child::a union '
        'doc("xrpc://other/d.xml")/child::b')
    mapping = {"xrpc://books-c/books.xml": "books.xml#s1"}
    rewritten = rewrite_doc_uris(module.body, mapping.get)
    text = pretty(rewritten)
    assert 'doc("books.xml#s1")' in text
    assert 'doc("xrpc://other/d.xml")' in text
    # Non-literal and non-doc calls are left alone.
    call = FunCall("concat", [Literal("xrpc://books-c/books.xml")])
    assert rewrite_doc_uris(call, mapping.get) is call


def test_scatter_matches_single_owner(cluster, single_owner):
    expected = single_owner.run(SCAN_OWNER, at="local",
                                strategy=Strategy.BY_PROJECTION)
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) \
        == serialize_sequence(expected.items)
    assert result.stats.scatter_shards == 4
    # One request/response per shard, all to fleet nodes.
    assert {m.dest for m in result.messages} <= {"node1", "node2",
                                                 "node3", "node4"}


def test_aggregate_pushdown_count_and_sum(cluster):
    count = cluster.run(COUNT, at="local", strategy=Strategy.BY_FRAGMENT)
    assert count.items == [10]
    assert count.stats.scatter_shards == 4
    total = cluster.run(SUM, at="local", strategy=Strategy.BY_FRAGMENT)
    assert total.items == [sum(100 + 10 * i for i in range(10))]
    # Pushdown ships per-shard numbers, not member sequences: every
    # response is tiny compared to the scan's member-bearing ones.
    scan = cluster.run(SCAN, at="local", strategy=Strategy.BY_FRAGMENT)
    max_count_response = max(m.response_bytes for m in count.messages)
    max_scan_response = max(m.response_bytes for m in scan.messages)
    assert max_count_response < max_scan_response


def test_unknown_collection_document_rejected(cluster):
    with pytest.raises((ClusterError, NetworkError)):
        cluster.run('doc("xrpc://books-c/wrong.xml")/child::library',
                    at="local", strategy=Strategy.BY_PROJECTION)


def test_collection_name_collisions_rejected(cluster):
    with pytest.raises(NetworkError):
        cluster.add_peer("books-c")


def test_response_cache_keys_by_shard_identity(cluster):
    """Any replica's cached response serves every replica: a grouped
    response is keyed by collection, shard set and epoch, not by the
    peer that served it. The two minimal covers of a 4 x 2 layout
    (node1 + node3, node2 + node4) group the shards differently and
    alternate with the load; once both have run, the whole fleet can
    die and the query is still answered (no wire traffic at all)."""
    with FederationEngine(cluster, max_workers=2,
                          batch_window_s=0) as engine:
        first = engine.submit(SCAN, at="local").result()
        other = engine.submit(SCAN, at="local").result()
        assert first.stats.cache_hits == other.stats.cache_hits == 0
        assert {m.dest for m in first.messages + other.messages} \
            == {"node1", "node2", "node3", "node4"}
        for node in ("node1", "node2", "node3", "node4"):
            cluster.transport.kill_peer(node)
        third = engine.submit(SCAN, at="local").result()
        assert serialize_sequence(third.items) \
            == serialize_sequence(first.items)
        assert third.stats.cache_hits == 2        # one per cover peer
        assert third.stats.failovers == 0


def test_catalog_epoch_invalidates_cached_responses(cluster):
    with FederationEngine(cluster, max_workers=2,
                          batch_window_s=0) as engine:
        engine.submit(SCAN, at="local").result()
        hits_before = engine.cache.stats.hits
        cluster.peer_view.mark_down("node9")   # membership epoch bump
        third = engine.submit(SCAN, at="local").result()
        # New epoch -> new cache keys -> recomputed on the wire.
        assert third.stats.cache_hits == 0
        assert engine.cache.stats.hits == hits_before


def test_data_shipping_merges_and_caches_collection(cluster, single_owner):
    expected = single_owner.run(SCAN_OWNER, at="local",
                                strategy=Strategy.DATA_SHIPPING)
    with FederationEngine(cluster, max_workers=2,
                          batch_window_s=0) as engine:
        first = engine.submit(SCAN, at="local",
                              strategy=Strategy.DATA_SHIPPING).result()
        assert serialize_sequence(first.items) \
            == serialize_sequence(expected.items)
        assert first.stats.documents_shipped == 4   # one per shard
        second = engine.submit(SCAN, at="local",
                               strategy=Strategy.DATA_SHIPPING).result()
        assert second.stats.cache_hits >= 1          # merged doc reused
        assert second.stats.documents_shipped == 0


def test_collection_reference_outside_generator_falls_back(cluster,
                                                           single_owner):
    """Regression: a body that re-opens the collection in consumer
    position (here: a global count inside the loop body) must not be
    scattered — each shard would see only its slice of the count. The
    router falls back to the merged document instead."""
    template = ('for $b in doc("{host}/books.xml")'
                "/child::library/child::books/child::book "
                'return if (count(doc("{host}/books.xml")'
                "/child::library/child::books/child::book) > 5) "
                "then $b/child::title else ()")
    sharded = cluster.run(template.format(host="xrpc://books-c"),
                          at="local", strategy=Strategy.BY_FRAGMENT)
    baseline = single_owner.run(template.format(host="xrpc://owner"),
                                at="local", strategy=Strategy.BY_FRAGMENT)
    # Global count is 10 > 5, so every title comes back.
    assert len(baseline.items) == 10
    assert serialize_sequence(sharded.items) \
        == serialize_sequence(baseline.items)
    # The fallback data-ships the shards rather than scattering.
    assert sharded.stats.documents_shipped == 4


def test_shard_restore_invalidates_merged_document_cache(cluster):
    """Regression: merged-document cache entries live under the
    collection scope, which peer-store invalidation can't target by
    name — the invalidation epoch woven into the entry name must make
    them unreachable after any store."""
    from repro.xmldb.parser import parse_document
    COUNT = ('count(doc("xrpc://books-c/books.xml")'
             "/child::library/child::books/child::book)")
    with FederationEngine(cluster, max_workers=2,
                          batch_window_s=0) as engine:
        first = engine.submit(COUNT, at="local",
                              strategy=Strategy.DATA_SHIPPING).result()
        assert first.items == [10]
        shard = cluster.catalog.get("books-c").shards[0]
        replacement = parse_document(
            "<library><meta><curator>Ann</curator>"
            "<founded>1602</founded></meta><books>"
            '<book id="bX"><title>New</title><year>2030</year>'
            "<pages>1</pages></book></books>"
            "<staff><clerk>Bob</clerk></staff></library>", uri="frag")
        for replica in shard.replicas:
            cluster.peer(replica).store(shard.local_name, replacement)
        second = engine.submit(COUNT, at="local",
                               strategy=Strategy.DATA_SHIPPING).result()
        # Shard 0 held 3 books, now holds 1: 10 - 3 + 1.
        assert second.items == [8], second.items


def test_concurrent_batched_scatter_keeps_shard_order():
    """Regression: shard response fragments are renumbered in shard
    order after the gather. Without that, concurrent queries (whose
    batching windows scramble which scatter thread parses first) got
    arbitrary inter-shard document order, so a local suffix path step
    over the gathered items re-sorted across shards — a permuted
    result sequence."""
    from repro.workloads import (
        SHARDED_BENCHMARK_QUERY, build_sharded_federation,
    )
    federation = build_sharded_federation(0.005)
    expected = serialize_sequence(
        federation.run(SHARDED_BENCHMARK_QUERY, at="local").items)
    with FederationEngine(federation, max_workers=8,
                          cache=False) as engine:
        futures = [engine.submit(SHARDED_BENCHMARK_QUERY, "local")
                   for _ in range(12)]
        outputs = [serialize_sequence(f.result().items) for f in futures]
    assert outputs == [expected] * len(outputs)


def test_execute_at_literal_targets_collection(cluster):
    """The paper's ``execute at`` syntax scatters too when it names a
    virtual host."""
    query = (
        "declare function years() as node()* "
        '{ doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::year }; "
        'execute at {"books-c"} { years() }')
    result = cluster.run(query, at="local", strategy=Strategy.BY_FRAGMENT)
    assert [str(item.string_value()) for item in result.items] \
        == [str(2000 + i) for i in range(10)]
    assert result.stats.scatter_shards == 4


# ---------------------------------------------------------------------------
# Value-index shard skipping
# ---------------------------------------------------------------------------

MEMBER_FILTER = """
for $b in doc("xrpc://books-c/books.xml")/child::library
          /child::books/child::book
return if ($b/child::year = 2003) then $b/child::title else ()
"""

MEMBER_FILTER_OWNER = MEMBER_FILTER.replace("xrpc://books-c/books.xml",
                                            "xrpc://owner/books.xml")

RANGE_FILTER = MEMBER_FILTER.replace("child::year = 2003",
                                     "child::pages < 120")


def test_shard_skip_probes_recognise_member_filter():
    from repro.cluster.router import shard_skip_probes

    body = parse_query(MEMBER_FILTER).body
    probes = shard_skip_probes(body, "books-c")
    assert probes == [("year", "=", 2003)]
    # Unrelated collections are never skipped.
    assert shard_skip_probes(body, "other-c") == []


def test_equality_filter_skips_provably_empty_shards(cluster,
                                                     single_owner):
    expected = single_owner.run(MEMBER_FILTER_OWNER, at="local",
                                strategy=Strategy.BY_FRAGMENT)
    result = cluster.run(MEMBER_FILTER, at="local",
                         strategy=Strategy.BY_FRAGMENT)
    assert serialize_sequence(result.items) \
        == serialize_sequence(expected.items)
    # Range partitioning puts year 2003 in exactly one shard; the
    # other three are proven empty by their value indexes.
    assert result.stats.shards_skipped == 3
    assert len(result.messages) == 1


def test_range_filter_skips_shards(cluster, single_owner):
    expected = single_owner.run(
        RANGE_FILTER.replace("xrpc://books-c/books.xml",
                             "xrpc://owner/books.xml"),
        at="local", strategy=Strategy.BY_PROJECTION)
    result = cluster.run(RANGE_FILTER, at="local",
                         strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) \
        == serialize_sequence(expected.items)
    # pages 100..190 ascending across range shards: only shard 0 has
    # pages < 120.
    assert result.stats.shards_skipped == 3


def test_unfiltered_scan_skips_nothing(cluster):
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_FRAGMENT)
    assert result.stats.shards_skipped == 0
    assert result.stats.scatter_shards == 4


def test_skip_probe_consults_only_live_replicas(cluster):
    cluster.transport.kill_peer("node1")
    result = cluster.run(MEMBER_FILTER, at="local",
                         strategy=Strategy.BY_FRAGMENT)
    assert result.stats.shards_skipped == 3
    assert len(result.items) == 1


def test_skip_never_hides_dynamic_errors(cluster, single_owner):
    """A condition path carrying a step predicate could raise during
    evaluation; skipping the shard would swallow that error, so such
    conjuncts must not produce skip probes (error parity with the
    single-owner evaluation)."""
    from repro.errors import XQueryTypeError
    from repro.cluster.router import shard_skip_probes

    raising = """
    for $b in doc("xrpc://books-c/books.xml")/child::library
              /child::books/child::book
    return if ($b/child::year[fn:true() = 1] = 9999) then $b else ()
    """
    assert shard_skip_probes(parse_query(raising).body, "books-c") == []
    with pytest.raises(XQueryTypeError):
        single_owner.run(raising.replace("xrpc://books-c",
                                        "xrpc://owner"),
                         at="local", strategy=Strategy.DATA_SHIPPING)
    with pytest.raises(XQueryTypeError):
        cluster.run(raising, at="local", strategy=Strategy.BY_FRAGMENT)


# -- one round trip per cover peer --------------------------------------------


def test_cover_rotates_over_every_replica():
    """Ties between the covers of a 4 x 2 layout (node1 + node3,
    node2 + node4) break by the live load, so successive scatters
    rotate: over 200 seeded runs every node serves and the counted wire
    bytes per node stay within a factor of 2 (a cover fixed by name
    order would leave node2 and node4 idle, and a degraded replica
    there would never be demoted)."""
    import random

    from repro.workloads import (
        build_sharded_federation, sharded_query_variant,
    )
    federation = build_sharded_federation(0.004, shard_count=4,
                                          replication_factor=2)
    rng = random.Random(41)
    for _ in range(200):
        result = federation.run(
            sharded_query_variant(rng.choice((25, 30, 35, 40, 45))),
            at="local", strategy=Strategy.BY_PROJECTION)
        assert len(result.messages) == 4          # 2 peers x 2 sites
    served = {peer: entry["total_bytes"] for peer, entry
              in federation.transport.wire_summary().items()}
    assert set(served) == {"node1", "node2", "node3", "node4"}
    assert max(served.values()) <= 2 * min(served.values())


def test_shard_parameter_is_never_a_body_variable(cluster, single_owner):
    """The shipped body binds ``$shard`` — the shard parameter's own
    name — around the collection's ``doc()``: the router names the
    parameter afresh, so the user's binding captures nothing and every
    shard still reads its own fragment."""
    from repro.cluster.router import SHARD_PARAMETER
    from repro.xrpc.messages import RequestMessage

    template = """
    declare function titles() as item()* {
      let $VAR := 2005
      return for $b in doc("xrpc://HOST/books.xml")
                 /child::library/child::books/child::book
             return if ($b/child::year < $VAR) then $b/child::title else ()
    };
    execute at {"HOST"} { titles() }
    """.replace("VAR", SHARD_PARAMETER)
    for strategy in Strategy:
        sharded = cluster.run(template.replace("HOST", "books-c"),
                              at="local", strategy=strategy,
                              keep_message_xml=True)
        baseline = single_owner.run(template.replace("HOST", "owner"),
                                    at="local", strategy=strategy)
        assert serialize_sequence(sharded.items) \
            == serialize_sequence(baseline.items)
        assert len(sharded.items) == 5
        for message in sharded.messages:
            request = RequestMessage.from_xml(message.request_xml)
            assert SHARD_PARAMETER not in request.param_names
            assert f"{SHARD_PARAMETER}1" in request.param_names
