"""Federation API: peers, data shipping, transport accounting."""

import pytest

from repro.decompose import Strategy
from repro.errors import NetworkError, XrpcMarshalError
from repro.obs.trace import COMPONENTS
from repro.runtime.transport import Transport
from repro.system.federation import Federation
from repro.workloads import (BENCHMARK_QUERY, SHARDED_BENCHMARK_QUERY,
                             build_federation, build_sharded_federation)
from repro.xmark import generate_pair
from repro.xmldb.serializer import serialize
from repro.xquery.xdm import serialize_sequence
from repro.xrpc.messages import ResponseMessage


@pytest.fixture
def fed():
    federation = Federation()
    federation.add_peer("p1").store("d.xml", "<a><b>x</b><b>y</b></a>")
    federation.add_peer("p2").store("e.xml", "<r><s/></r>")
    federation.add_peer("local").store("mine.xml", "<m><n/></m>")
    return federation


class TestPeers:
    def test_duplicate_peer_rejected(self, fed):
        with pytest.raises(NetworkError):
            fed.add_peer("p1")

    def test_unknown_peer_rejected(self, fed):
        with pytest.raises(NetworkError):
            fed.peer("nope")

    def test_unknown_document_rejected(self, fed):
        with pytest.raises(NetworkError):
            fed.peer("p1").document("nope.xml")

    def test_store_is_chainable_and_parses(self, fed):
        doc = fed.peer("p1").document("d.xml")
        assert doc.uri == "xrpc://p1/d.xml"


class TestStoredTextIsItsSerialization:
    """Counted, not timed: the first run after a store of a canonical
    text emits none of the stored documents (the store adopted each
    text) and builds no element list; a text in any other spelling is
    emitted once, on its first read."""

    @pytest.mark.parametrize("strategy", [Strategy.BY_PROJECTION,
                                          Strategy.DATA_SHIPPING])
    @pytest.mark.parametrize("prolog, emits",
                             [("", 0), ('<?xml version="1.0"?>', 1)])
    def test_the_first_run_after_a_store(self, whole_emits, strategy,
                                         prolog, emits):
        federation = build_federation(0.01)
        stored = list(zip(("peer1", "peer2"), ("people.xml", "auctions.xml"),
                          generate_pair(0.01, 7)))
        for peer, name, document in stored:
            federation.peer(peer).store(name, prolog + serialize(document))
        federation.run(BENCHMARK_QUERY, at="local", strategy=strategy)
        for peer, name, _document in stored:
            document = federation.peer(peer).document(name)
            assert whole_emits(document) == emits
            index = document._structural_index
            assert index is None or "element_pres" not in vars(index)


class TestLocalResolution:
    def test_relative_uri_resolves_at_originator(self, fed):
        result = fed.run('doc("mine.xml")/child::m/child::n', at="local",
                         strategy=Strategy.DATA_SHIPPING)
        assert serialize_sequence(result.items) == "<n/>"
        assert result.stats.total_transferred_bytes == 0

    def test_own_xrpc_uri_is_local(self, fed):
        result = fed.run('doc("xrpc://local/mine.xml")/child::m',
                         at="local", strategy=Strategy.DATA_SHIPPING)
        assert result.stats.documents_shipped == 0


class TestDataShipping:
    def test_remote_doc_shipped_and_counted(self, fed):
        result = fed.run('doc("xrpc://p1/d.xml")//b', at="local",
                         strategy=Strategy.DATA_SHIPPING)
        assert len(result.items) == 2
        stats = result.stats
        assert stats.documents_shipped == 1
        assert stats.document_bytes == len("<a><b>x</b><b>y</b></a>")
        assert stats.times.shred > 0

    def test_document_cached_within_run(self, fed):
        query = ('(doc("xrpc://p1/d.xml")//b, '
                 'doc("xrpc://p1/d.xml")//b)')
        result = fed.run(query, at="local",
                         strategy=Strategy.DATA_SHIPPING)
        assert result.stats.documents_shipped == 1

    def test_two_peers_both_shipped(self, fed):
        query = ('(doc("xrpc://p1/d.xml")//b, '
                 'doc("xrpc://p2/e.xml")//s)')
        result = fed.run(query, at="local",
                         strategy=Strategy.DATA_SHIPPING)
        assert result.stats.documents_shipped == 2


class TestFunctionShipping:
    def test_messages_counted(self, fed):
        result = fed.run('doc("xrpc://p1/d.xml")/child::a/child::b',
                         at="local", strategy=Strategy.BY_FRAGMENT)
        assert result.stats.messages == 2  # request + response
        assert result.stats.rpc_calls == 1
        assert result.stats.documents_shipped == 0

    def test_message_log(self, fed):
        result = fed.run('doc("xrpc://p1/d.xml")/child::a/child::b',
                         at="local", strategy=Strategy.BY_FRAGMENT,
                         keep_message_xml=True)
        (log,) = result.messages
        assert log.dest == "p1"
        assert log.request_bytes == len(log.request_xml.encode())
        assert "<xrpc:query>" in log.request_xml

    def test_remote_and_local_exec_tracked_separately(self, fed):
        result = fed.run('doc("xrpc://p1/d.xml")/child::a/child::b',
                         at="local", strategy=Strategy.BY_FRAGMENT)
        assert result.stats.times.remote_exec > 0
        assert result.stats.times.local_exec > 0

    def test_unknown_destination_peer_raises(self, fed):
        with pytest.raises(NetworkError):
            fed.run('declare function f() as item()* { 1 };'
                    'execute at {"ghost"} { f() }',
                    at="local", strategy=Strategy.BY_VALUE)


    def test_response_answering_no_call_is_a_typed_fault(self):
        """A well-formed response must answer as many calls as were
        sent; one holding no ``xrpc:call`` was a bare ``IndexError``."""
        class AnswersNothing(Transport):
            def exchange(self, peer, request_xml, handle, stats,
                         request_bytes=None):
                text = ResponseMessage(results=[]).to_xml()
                return text, len(text.encode())

        federation = Federation(transport=AnswersNothing())
        federation.add_peer("p1").store("d.xml", "<a><b>x</b></a>")
        federation.add_peer("local")
        with pytest.raises(XrpcMarshalError, match="answers 0 calls, 1"):
            federation.run('doc("xrpc://p1/d.xml")/child::a/child::b',
                           at="local", strategy=Strategy.BY_FRAGMENT)


class TestConstructorParts:
    """A direct element keeps one content part per enclosed expression
    through let-sinking and decomposition: a let whose variable two
    parts read stays above the constructor, a part shipped on its own
    is a remote call of its own, and each part joins its own atoms."""

    @pytest.mark.parametrize("strategy", [Strategy.BY_PROJECTION,
                                          Strategy.BY_FRAGMENT])
    @pytest.mark.parametrize("query, expected, calls", [
        ("let $x := 1 return <a>{$x}{$x}</a>", "<a>11</a>", 0),
        ('let $p := doc("xrpc://p1/d.xml") return <r>{$p//b}{count($p//b)}</r>',
         "<r><b>x</b><b>y</b>2</r>", 1),
        ('let $p := doc("xrpc://p1/d.xml") '
         "return <r>{data($p//b)}{data($p//b)}</r>", "<r>x yx y</r>", 1),
        ('<r>{data(doc("xrpc://p1/d.xml")//b)}'
         '{count(doc("xrpc://p2/e.xml")//s)}</r>', "<r>x y1</r>", 2),
    ])
    def test_a_let_read_by_two_parts(self, fed, strategy, query, expected,
                                     calls):
        sunk = fed.run(query, at="local", strategy=strategy,
                       let_sinking=True)
        kept = fed.run(query, at="local", strategy=strategy,
                       let_sinking=False)
        assert serialize_sequence(sunk.items) == expected
        assert serialize_sequence(kept.items) == expected
        assert sunk.stats.rpc_calls == calls


class TestRemoteDataShipping:
    def test_remote_peer_can_fetch_third_party_doc(self, fed):
        # A function executed at p1 opens p2's document: p1 data-ships
        # it from p2 (counted), then evaluates locally.
        query = ('declare function f() as item()* '
                 '{ count(doc("xrpc://p2/e.xml")/child::r/child::s) };'
                 'execute at {"p1"} { f() }')
        result = fed.run(query, at="local", strategy=Strategy.BY_VALUE)
        assert result.items == [1]
        assert result.stats.documents_shipped == 1


class TestGoldenWireFigures:
    """The Fig. 7-9 query's wire figures at XMark scale 0.02, seed
    20090329 — the exact cells of the end-to-end ledger
    (``benchmarks/e2e/baseline.json``). A codec or delivery change
    that moves a transferred byte fails here first."""

    CASES = {
        "by-projection": (
            lambda: build_federation(0.02, 20090329), BENCHMARK_QUERY,
            Strategy.BY_PROJECTION,
            dict(message_bytes=7263, messages=4, document_bytes=0,
                 documents_shipped=0)),
        "data-shipping": (
            lambda: build_federation(0.02, 20090329), BENCHMARK_QUERY,
            Strategy.DATA_SHIPPING,
            dict(message_bytes=0, messages=0, document_bytes=104405,
                 documents_shipped=2)),
        "sharded-4x2-by-projection": (
            lambda: build_sharded_federation(0.02, 20090329, shard_count=4,
                                             replication_factor=2),
            SHARDED_BENCHMARK_QUERY, Strategy.BY_PROJECTION,
            # 32565 until PR 17: the shard rewrite lost the call site's
            # projection spec, so shards answered by-fragment. 16958
            # bytes in 16 messages while a scatter sent one round trip
            # per shard; now one per cover peer (2 per call site).
            dict(message_bytes=14076, messages=8, document_bytes=0,
                 documents_shipped=0)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_wire_figures_and_component_totals(self, case):
        build, query, strategy, golden = self.CASES[case]
        federation = build()
        stats = federation.run(query, at="local", strategy=strategy).stats
        assert {name: getattr(stats, name) for name in golden} == golden

        traced = federation.run(query, at="local", strategy=strategy,
                                trace=True)
        assert {name: getattr(traced.stats, name)
                for name in golden} == golden
        # Every simulated second enters through RunStats.charge, which
        # charges the bound span the same amount; only the order of
        # the float additions differs (per-span leaves vs one running
        # sum), hence the last-bits tolerance.
        totals = traced.trace.component_totals()
        assert set(totals) <= set(COMPONENTS)
        assert {name: totals.get(name, 0.0) for name in COMPONENTS} == \
            pytest.approx({name: getattr(traced.stats.times, name)
                           for name in COMPONENTS}, rel=1e-12, abs=0.0)
