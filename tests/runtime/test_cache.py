"""Result-cache correctness: keys, LRU bounds, counters, that shipped
documents stay out of it, and — the load-bearing part — invalidation
per entry, by the generations of the peers its computation read."""

import collections
import functools
import re
import sys
import threading

import pytest
from hypothesis import example, given, strategies as st

from repro.cluster.router import ClusterRouter, ShardUnavailableError
from repro.errors import ReproError
from repro.obs.events import EventLog
from repro.runtime.cache import (
    MAX_RESPONSES, STALE, ReadSet, ResultCache, response_key,
)
from repro.runtime.engine import FederationEngine
from repro.system import federation as federation_module
from repro.system.federation import Federation
from repro.workloads import (BENCHMARK_QUERY, SHARDED_SCAN_QUERY,
                             build_federation, build_sharded_federation)
from repro.xmldb.node import Node
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize
from repro.xquery.context import StaticContext
from repro.xquery.xdm import serialize_sequence
from repro.xrpc import marshal as marshal_module
from repro.xrpc.messages import Call, RequestMessage, ResponseMessage

from tests.conftest import COURSE_XML, Q2, STUDENTS_XML, fuzz_settings
from tests.planner.test_shape_equivalence import _federation, _on_peers
from tests.xquery.test_flwor_differential import (
    _documents, _queries, _trees,
)


def make_federation():
    federation = Federation()
    federation.add_peer("A").store("students.xml", STUDENTS_XML)
    federation.add_peer("B").store("course42.xml", COURSE_XML)
    federation.add_peer("local")
    return federation


def request(**fields) -> RequestMessage:
    """A one-call request for ``f()``, with ``fields`` set."""
    return RequestMessage(**{"query": "f()", "param_names": [],
                             "calls": [Call()], **fields})


class TestResponseKey:
    def test_identical_requests_share_a_key(self):
        assert response_key("B", "by-fragment", request().key) == \
            response_key("B", "by-fragment", request().key)

    def test_projection_signature_separates_entries(self):
        base = response_key("B", "by-fragment", request().key)
        used = response_key("B", "by-fragment",
                            request(used_paths=["child::a"]).key)
        returned = response_key("B", "by-fragment",
                                request(returned_paths=["child::a"]).key)
        assert len({base, used, returned}) == 3

    def test_dest_peer_separates_entries(self):
        assert response_key("A", "by-fragment", request().key) != \
            response_key("B", "by-fragment", request().key)

    def test_semantics_separates_entries(self):
        """By-value and by-fragment requests are identical (semantics
        travels out-of-band), but their responses use different
        formats — they must never share a cache entry."""
        assert response_key("B", "by-value", request().key) != \
            response_key("B", "by-fragment", request().key)

    def test_mixed_strategy_runs_never_share_responses(self):
        from repro.decompose import Strategy

        federation = make_federation()
        cache = ResultCache()
        by_value = federation.run(Q2, at="local",
                                  strategy=Strategy.BY_VALUE,
                                  result_cache=cache)
        by_fragment = federation.run(Q2, at="local",
                                     strategy=Strategy.BY_FRAGMENT,
                                     result_cache=cache)
        # The second run must not be served the first run's response.
        assert by_fragment.stats.cache_hits == 0
        assert by_fragment.stats.messages > 0
        assert serialize_sequence(by_value.items) == \
            serialize_sequence(by_fragment.items)


class TestLruAndCounters:
    def test_hit_and_miss_counters(self):
        cache = ResultCache()
        key = response_key("B", "by-fragment", "<req/>")
        assert cache.lookup_response(key) is None
        cache.store_response(key, "<resp/>", saved_bytes=10 + len("<resp/>"))
        assert cache.lookup_response(key) == "<resp/>"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.saved_bytes == 10 + len("<resp/>")

    @staticmethod
    def _keys(count):
        return [response_key("B", "by-fragment", f"<req n='{i}'/>")
                for i in range(count)]

    def test_response_lru_eviction(self):
        cache = ResultCache()
        keys = self._keys(MAX_RESPONSES + 1)
        for i, key in enumerate(keys):
            cache.store_response(key, f"<resp n='{i}'/>")
        assert cache.lookup_response(keys[0]) is None  # evicted
        assert cache.lookup_response(keys[1]) is not None
        assert cache.lookup_response(keys[-1]) is not None
        assert cache.stats.evictions == 1

    def test_lookup_refreshes_lru_order(self):
        cache = ResultCache()
        *keys, last = self._keys(MAX_RESPONSES + 1)
        for i, key in enumerate(keys):
            cache.store_response(key, str(i))
        cache.lookup_response(keys[0])          # 0 becomes most recent
        cache.store_response(last, "last")      # evicts 1, not 0
        assert cache.lookup_response(keys[0]) == "0"
        assert cache.lookup_response(keys[1]) is None


def test_data_shipping_ships_every_run_through_an_engine():
    """Data shipping is the paper's baseline: through a cached engine
    each run fetches and shreds every remote document it reads, as a
    standalone run does; only XRPC responses are served from the
    cache."""
    with FederationEngine(build_federation(0.005), max_workers=1) as engine:
        ships = [engine.submit(BENCHMARK_QUERY, "local",
                               "data-shipping").result().stats
                 for _ in range(2)]
        projections = [engine.submit(BENCHMARK_QUERY, "local",
                                     "by-projection").result().stats
                       for _ in range(2)]
    alone = build_federation(0.005).run(BENCHMARK_QUERY, at="local",
                                        strategy="data-shipping").stats
    for stats in ships:
        assert (stats.documents_shipped, stats.document_bytes,
                stats.cache_hits) == (2, alone.document_bytes, 0)
    assert alone.documents_shipped == 2
    assert projections[0].cache_hits == 0
    assert projections[1].cache_hits == 2
    assert projections[1].rpc_calls == 0


#: A replacement ``course42.xml`` whose every grade is Z.
ALL_Z_COURSE = """<enroll>
 <exam id="s2"><grade>Z</grade></exam>
 <exam id="s1"><grade>Z</grade></exam>
</enroll>"""


def rpc_outcomes(result) -> list[tuple[str, str]]:
    """Each traced round trip's destination and cache outcome."""
    return sorted((span.attrs["dest"], span.attrs["cache"])
                  for span in result.trace.iter_spans()
                  if span.name == "rpc")


def _answer_after(store, text: str = Q2, strategy: str = "by-projection",
                  federation=None) -> str:
    """``text``'s answer on a fresh federation after ``store``."""
    federation = federation or make_federation()
    store(federation)
    return serialize_sequence(federation.run(text, at="local",
                                             strategy=strategy).items)


def _generations(**peers):
    return lambda name: peers[name]


class TestInvalidation:
    def test_a_store_drops_only_the_entries_that_read_its_peer(self):
        cache = ResultCache()
        read_a, read_b = (response_key(peer, "by-fragment", "<req/>")
                          for peer in "AB")
        cache.store_response(read_a, "<a/>", validators=(("A", 1),))
        cache.store_response(read_b, "<b/>", validators=(("B", 1),))
        # A store on B moves B's generation 1 -> 2 and A's not at all.
        after = _generations(A=1, B=2)
        assert cache.lookup_response(read_b, current=after) is None
        assert cache.lookup_response(read_a, current=after) == "<a/>"
        assert cache.lookup_response(read_b, current=after) is None
        assert (cache.stats.invalidations, cache.stats.evictions,
                cache.stats.hits, len(cache)) == (1, 0, 1, 1)

    def test_each_outdated_entry_emits_one_event_naming_its_peer(self):
        events = EventLog()
        cache = ResultCache(events=events)
        keys = [response_key("B", "by-fragment", f"<r n='{n}'/>")
                for n in range(3)]
        for key, validators in zip(keys, [(("B", 1),),
                                          (("A", 1), ("C", 1)),
                                          (("B", 1), ("C", 1))]):
            cache.store_response(key, "<x/>", validators=validators)
        after = _generations(A=1, B=1, C=2)     # a store on C
        assert [cache.lookup_response(key, current=after)
                for key in keys + keys] == ["<x/>", None, None] * 2
        outdated = [event for event in events.recent()
                    if event.kind == "cache_invalidation"]
        assert [(event.attrs["peer"], event.attrs["dest"])
                for event in outdated] == [("C", "B"), ("C", "B")]
        assert cache.stats.invalidations == 2

    def test_peer_store_invalidates_serialized_text_cache(self):
        federation = make_federation()
        peer = federation.peer("A")
        before = peer.serialized("students.xml")
        peer.store("students.xml", "<people/>")
        after = peer.serialized("students.xml")
        assert before != after
        assert "<people/>" in after

    def test_peer_store_invalidates_runtime_fragment_cache(self):
        """A store on B reaches the engine's result cache: Q2's call to
        B misses, its call to A (which read nothing of B) still hits,
        and the answer is a fresh federation's."""
        federation = make_federation()
        with FederationEngine(federation, max_workers=2) as engine:
            first = engine.submit(Q2, "local", trace=True).result()
            assert rpc_outcomes(first) == [("A", "miss"), ("B", "miss")]

            # Repeat: answered from cache, same answer.
            repeat = engine.submit(Q2, "local", trace=True).result()
            assert rpc_outcomes(repeat) == [("A", "hit"), ("B", "hit")]
            assert serialize_sequence(repeat.items) == \
                serialize_sequence(first.items)

            federation.peer("B").store("course42.xml", ALL_Z_COURSE)
            fresh = engine.submit(Q2, "local", trace=True).result()
            assert rpc_outcomes(fresh) == [("A", "hit"), ("B", "miss")]
            assert fresh.stats.cache_hits == 1
            text = serialize_sequence(fresh.items)
            assert text == _answer_after(lambda federation: federation.peer(
                "B").store("course42.xml", ALL_Z_COURSE))
            assert text != serialize_sequence(first.items)
            assert "Z" in text
            assert engine.cache.stats.invalidations == 1

    def test_peer_store_invalidates_a_cache_passed_to_run(self):
        """A cache handed straight to ``Federation.run`` registers
        nowhere, and a store still outdates the entries that read the
        stored peer, and only those."""
        federation, cache = make_federation(), ResultCache()
        first = federation.run(Q2, at="local", result_cache=cache)
        federation.peer("B").store("course42.xml", ALL_Z_COURSE)
        expected = _answer_after(lambda federation: federation.peer(
            "B").store("course42.xml", ALL_Z_COURSE))
        again = federation.run(Q2, at="local", result_cache=cache,
                               trace=True)
        assert rpc_outcomes(again) == [("A", "hit"), ("B", "miss")]
        assert serialize_sequence(again.items) == expected
        assert expected != serialize_sequence(first.items)

    def test_generation_counts_stores_and_removals_that_removed(self):
        federation = make_federation()
        peer = federation.peer("A")
        assert (peer.generation, federation.generation()) == (1, 2)
        peer.store("students.xml", STUDENTS_XML)
        assert not peer.remove("absent.xml")
        assert (peer.generation, federation.generation()) == (2, 3)
        assert peer.remove("students.xml")
        assert federation.generation_of("C") == 0     # no such peer yet
        late = federation.add_peer("C").store("d.xml", "<d/>")
        assert (peer.generation, late.generation) == (3, 1)
        assert federation.generation() == 5
        assert federation.generations(["C", "A", "C"]) == (("C", 1),
                                                           ("A", 3))

    def test_an_entry_read_before_a_store_is_never_served(self):
        """A value computed before a store must not be served after it
        (the store/compute race): its validators name the generation
        read before the documents, which the store has moved on."""
        cache = ResultCache()
        key = response_key("B", "by-fragment", "<req/>")
        cache.store_response(key, "<stale/>", validators=(("B", 1),))
        assert cache.lookup_response(key, current=_generations(B=2)) \
            is None
        assert cache.lookup_response(key, current=_generations(B=1)) \
            is None                  # dropped, not kept for a rollback
        assert (cache.stats.invalidations, cache.stats.hits) == (1, 0)

    def test_an_entry_with_current_validators_is_served(self):
        cache = ResultCache()
        key = response_key("B", "by-fragment", "<req/>")
        cache.store_response(key, "<fresh/>",
                             validators=(("A", 5), ("B", 3)))
        current = _generations(A=5, B=3, C=9)
        assert [cache.lookup_response(key, current=current)
                for _ in range(2)] == ["<fresh/>"] * 2
        # An entry that read no documents is current under any store.
        bare = response_key("C", "by-fragment", "<req/>")
        cache.store_response(bare, "<none/>")
        assert cache.lookup_response(bare, current=current) == "<none/>"
        assert (cache.stats.hits, cache.stats.invalidations) == (3, 0)


def _three_peers() -> Federation:
    federation = Federation()
    federation.add_peer("B").store("b.xml", "<r><x/></r>")
    federation.add_peer("C").store("c.xml", "<r><x/><x/><x/></r>")
    federation.add_peer("local")
    return federation


def _store_one_x(federation: Federation) -> None:
    federation.peer("C").store("c.xml", "<r><x/></r>")


#: A call to B whose body calls C: its answer reads C's document.
NESTED = ('declare function g() as xs:integer '
          '{ count(doc("xrpc://C/c.xml")/child::r/child::x) }; '
          'declare function f() as xs:integer { (execute at {"C"} { g() })'
          ' + count(doc("xrpc://B/b.xml")/child::r/child::x) }; '
          'execute at {"B"} { f() }')
#: A call to B whose body ships C's document to B.
SHIPPING = ('declare function f($i as xs:integer) as xs:integer '
            '{ $i + count(doc("xrpc://C/c.xml")/child::r/child::x) }; ')


def test_a_read_set_noted_from_many_threads_loses_no_conflict():
    """Eight threads note into one chain of read sets, each peer once
    per thread: a peer they all note at one generation keeps it, a peer
    noted at two is STALE in both sets, whatever the interleaving."""
    outer = ReadSet()
    inner = ReadSet(outer)
    barrier = threading.Barrier(8)

    def noter(index):
        barrier.wait()
        for round_ in range(2000):
            inner.note(f"agreed{round_}", 7)
            inner.note(f"split{round_}", index % 2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=noter, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for read_set in (inner, outer):
        assert dict(read_set.validators) == {
            **{f"agreed{n}": 7 for n in range(2000)},
            **{f"split{n}": STALE for n in range(2000)}}
        assert not read_set.storable


class TestValidators:
    """Each entry is outdated by a store on any peer its computation
    read, however it read it — and by no other."""

    def _twice_then_store(self, federation, text, store,
                          strategy="data-shipping"):
        """``text`` run twice through one cache, ``store``, once more:
        the last run's answer and round trips, and the cache."""
        cache = ResultCache()
        for _ in range(2):
            federation.run(text, at="local", strategy=strategy,
                           result_cache=cache)
        store(federation)
        result = federation.run(text, at="local", strategy=strategy,
                                result_cache=cache, trace=True)
        return serialize_sequence(result.items), rpc_outcomes(result), cache

    def test_a_store_on_a_nested_peer_outdates_the_outer_entry(self):
        answer, outcomes, cache = self._twice_then_store(
            _three_peers(), NESTED, _store_one_x)
        assert outcomes == [("B", "miss"), ("C", "miss")]
        assert answer == _answer_after(_store_one_x, NESTED,
                                       "data-shipping", _three_peers())
        assert answer == "2"
        assert cache.stats.invalidations == 2

    def test_a_store_on_the_peer_a_body_shipped_from_outdates_it(self):
        text = SHIPPING + 'execute at {"B"} { f(0) }'
        answer, outcomes, _cache = self._twice_then_store(
            _three_peers(), text, _store_one_x)
        assert (answer, outcomes) == ("1", [("B", "miss")])

    def test_a_store_racing_the_computation_is_never_served(self):
        """C's generation is read before its document ships: a store
        landing right after the ship outdates the entry computed from
        the old text."""
        text = SHIPPING + 'execute at {"B"} { f(0) }'
        federation, cache = _three_peers(), ResultCache()
        wire, raced = federation.transport, []
        fetch = wire.fetch_document

        def then_store(owner, local_name, stats):
            shipped = fetch(owner, local_name, stats)
            if not raced:
                raced.append(local_name)
                _store_one_x(federation)
            return shipped

        wire.fetch_document = then_store
        first = federation.run(text, at="local", strategy="data-shipping",
                               result_cache=cache)
        again = federation.run(text, at="local", strategy="data-shipping",
                               result_cache=cache, trace=True)
        assert (first.items, raced) == ([3], ["c.xml"])
        assert (again.items, rpc_outcomes(again)) == ([1], [("B", "miss")])

    def test_a_scatter_entry_is_outdated_by_a_store_on_any_replica(self):
        """Any replica of a response's shards may serve it next: a store
        on one that did not serve it outdates it too."""
        federation = build_sharded_federation(
            0.005, shard_count=2, replication_factor=2, node_count=2)
        federation.peer_view.mark_down("node2")     # node1 serves all
        shard = federation.collection("people-c").shards[0]
        assert shard.replicas == ("node1", "node2")
        idle = federation.peer("node2")
        answer, outcomes, cache = self._twice_then_store(
            federation, SHARDED_SCAN_QUERY,
            lambda _federation: idle.store(
                shard.local_name, idle.documents[shard.local_name]),
            strategy="by-projection")
        assert outcomes == [("node1", "miss")]
        assert cache.stats.invalidations == 1
        assert answer == serialize_sequence(build_sharded_federation(
            0.005, shard_count=2, replication_factor=2,
            node_count=2).run(SHARDED_SCAN_QUERY, at="local").items)

    #: B's body scatters over ``people-c`` and counts its persons.
    NESTED_COUNT = ('declare function m() as xs:integer '
                    '{ count(doc("xrpc://people-c/people.xml")'
                    '/child::site/child::people/child::person) }; '
                    'declare function n() as xs:integer '
                    '{ execute at {"people-c"} { m() } }; '
                    'execute at {"B"} { n() }')

    def _lacking_shard(self):
        """A federation whose ``people-c`` shard 0 its only replica
        lacks, the whole answer, and a call that stores the shard
        back."""
        federation = build_sharded_federation(
            0.005, shard_count=2, replication_factor=1, node_count=2)
        federation.add_peer("B")
        whole = federation.run(self.NESTED_COUNT, at="local",
                               strategy="data-shipping")
        shard = federation.collection("people-c").shards[0]
        owner = federation.peer(shard.replicas[0])
        document = owner.documents[shard.local_name]
        owner.remove(shard.local_name)
        return (federation, serialize_sequence(whole.items),
                lambda: owner.store(shard.local_name, document))

    def _run(self, federation, cache):
        result = federation.run(self.NESTED_COUNT, at="local",
                                strategy="data-shipping",
                                result_cache=cache, trace=True)
        return serialize_sequence(result.items), rpc_outcomes(result)

    def test_a_lost_shard_fails_every_run_through_the_cache(self):
        """A scatter nested in B's body loses a shard: every run through
        the cache fails, and no exchange stores anything: once the
        shard is back, B's scatter meets both shards afresh and B's
        whole answer is kept."""
        federation, whole, restore = self._lacking_shard()
        cache = ResultCache()
        for _ in range(2):
            with pytest.raises(ShardUnavailableError):
                federation.run(self.NESTED_COUNT, at="local",
                               strategy="data-shipping", result_cache=cache)
        restore()
        assert self._run(federation, cache) == (whole, [
            ("B", "miss"), ("node1", "miss"), ("node2", "miss")])
        assert self._run(federation, cache) == (whole, [("B", "hit")])


# ---------------------------------------------------------------------------
# Hits: a stored resolved response, new documents per hit
# ---------------------------------------------------------------------------

#: The four exams of ``COURSE_XML`` in reverse document order, as nodes
#: of peer B; each call ships its own copies / fragment.
EXAMS = ('declare function exams() as node()* '
         '{ reverse(doc("xrpc://B/course42.xml")'
         '/child::enroll/child::exam) }; ')
#: Three identical calls in one run: the first misses, the other two
#: hit the entry it stored.
THRICE = (EXAMS + 'let $a := execute at {"B"} { exams() } '
          'let $b := execute at {"B"} { exams() } '
          'let $c := execute at {"B"} { exams() } '
          'return (count($a | $b | $c), '
          'subsequence($b, 1, 1) is subsequence($c, 1, 1))')
#: The response's items, then a path over them: the path sorts by
#: document order, so it reads the order of the response's documents.
SORTED = (EXAMS + 'let $r := execute at {"B"} { exams() } '
          'return ($r, $r/self::exam/child::grade)')


def stored_documents(cache: ResultCache) -> list:
    """Every payload document of every stored response, each response's
    in decoding order."""
    return [doc for (stored, *_) in cache._responses.values()
            for doc in stored.documents]


def columns_of(doc) -> tuple:
    """What a stored document's columns hold, by value."""
    columns = doc.columns
    postings = columns.postings
    return (bytes(columns.kinds), bytes(columns.sizes),
            bytes(columns.levels), bytes(columns.parents),
            list(columns.names), list(columns.values),
            None if postings is None
            else (sorted(postings[0]), sorted(postings[1])))


class _Snapshotting(ResultCache):
    """A cache that keeps each stored response's columns as stored."""

    def __init__(self):
        super().__init__()
        self.stored: list[tuple] = []

    def store_response(self, key, response, saved_bytes=0, validators=()):
        self.stored.extend((doc, columns_of(doc))
                           for doc in response.documents)
        super().store_response(key, response, saved_bytes, validators)


def document_ranks(items: list) -> list[int]:
    """Each node item's rank among the items' documents by ``doc_seq``."""
    seqs = sorted({item.doc.doc_seq for item in items
                   if isinstance(item, Node)})
    return [seqs.index(item.doc.doc_seq) for item in items
            if isinstance(item, Node)]


class TestNodeIdentityUnderHits:
    """Cache on ≡ cache off: a hit gives the query documents of its
    own, in the order a decoding of the response text would."""

    @pytest.mark.parametrize("strategy", ["by-value", "by-fragment"])
    def test_hits_inside_one_run_are_distinct_nodes(self, strategy):
        plain = make_federation().run(THRICE, at="local", strategy=strategy)
        federation = make_federation()
        cache = ResultCache()
        result = federation.run(THRICE, at="local", strategy=strategy,
                                result_cache=cache)
        assert result.stats.cache_hits == 2
        assert plain.items == [12, False]
        assert result.items == plain.items

    def test_repeated_text_shares_no_document(self):
        with FederationEngine(make_federation(), max_workers=1) as engine:
            first = engine.submit(Q2, "local", "by-fragment").result()
            second = engine.submit(Q2, "local", "by-fragment").result()
            stored = {id(doc) for doc in stored_documents(engine.cache)}
        assert second.stats.cache_hits > 0
        assert serialize_sequence(second.items) == \
            serialize_sequence(first.items)
        first_docs = {id(item.doc) for item in first.items}
        second_docs = {id(item.doc) for item in second.items}
        assert not first_docs & second_docs
        assert not (first_docs | second_docs) & stored

    def test_a_hit_decodes_nothing(self, monkeypatch):
        federation = make_federation()
        cache = ResultCache()
        federation.run(Q2, at="local", result_cache=cache)
        decodes = []
        decode = ResponseMessage.from_xml.__func__
        monkeypatch.setattr(ResponseMessage, "from_xml", classmethod(
            lambda cls, text: decodes.append(text) or decode(cls, text)))
        hit = federation.run(Q2, at="local", result_cache=cache)
        assert hit.stats.cache_hits > 0 and hit.stats.rpc_calls == 0
        assert decodes == []

    @pytest.mark.parametrize("strategy", ["by-value", "by-fragment"])
    def test_hit_documents_come_in_decoding_order(self, strategy):
        plain = make_federation().run(SORTED, at="local", strategy=strategy)
        federation, cache = make_federation(), ResultCache()
        miss = federation.run(SORTED, at="local", strategy=strategy,
                              result_cache=cache)
        hit = federation.run(SORTED, at="local", strategy=strategy,
                             result_cache=cache)
        assert hit.stats.cache_hits > 0 and hit.stats.rpc_calls == 0
        copies = strategy == "by-value"
        assert len(stored_documents(cache)) > 1
        expected = serialize_sequence(plain.items)
        assert serialize_sequence(miss.items) == expected
        assert serialize_sequence(hit.items) == expected
        # By value each exam is a document, made in item order (the
        # exams reversed), so the sorted grades read D C B A; by
        # fragment all four are one fragment, in source order.
        assert expected.endswith(
            "<grade>D</grade> <grade>C</grade> <grade>B</grade> "
            "<grade>A</grade>" if copies else
            "<grade>A</grade> <grade>B</grade> <grade>C</grade> "
            "<grade>D</grade>")
        assert document_ranks(hit.items) == document_ranks(miss.items) \
            == document_ranks(plain.items)

    def test_sharded_hit_gathers_shard_major(self, monkeypatch):
        query = f"({SHARDED_SCAN_QUERY})/child::name"
        plain = build_sharded_federation(0.005).run(query, at="local")
        federation = build_sharded_federation(0.005)
        # A wire that sleeps: its round trips run inline all the same.
        federation.transport.extra_latency_s = 0.001
        with FederationEngine(federation, max_workers=2) as engine:
            miss = engine.submit(query, "local").result()
            # The two covers of the 4 x 2 layout alternate with the
            # load, and a grouped response is keyed by its shard set:
            # the second miss stores the other cover's responses.
            engine.submit(query, "local").result()
            trips = len(miss.messages)
            stored = stored_documents(engine.cache)
            seqs = [doc.doc_seq for doc in stored]
            # Round trips replay their entries in cover order, a peer's
            # shards together: only the gather's renumbering puts
            # shard 3's documents after shards 1 and 2.
            replayed = []
            serve = ClusterRouter._serve_group

            def recording(router, spec, replica, group, *args):
                replayed.extend(outcome.shard.index for outcome in group)
                return serve(router, spec, replica, group, *args)

            monkeypatch.setattr(ClusterRouter, "_serve_group", recording)
            hit = engine.submit(query, "local").result()
            # The gather renumbered the hit's own documents only.
            assert [doc.doc_seq for doc in stored] == seqs
        assert replayed == [0, 3, 1, 2]
        ranks = document_ranks(hit.items)
        assert ranks == sorted(ranks) and len(set(ranks)) > 1
        assert hit.stats.cache_hits == trips > 1
        assert not {id(item.doc) for item in hit.items} & \
            {id(doc) for doc in stored}
        expected = serialize_sequence(plain.items)
        assert serialize_sequence(miss.items) == expected
        assert serialize_sequence(hit.items) == expected
        assert document_ranks(hit.items) == document_ranks(miss.items) \
            == document_ranks(plain.items)


def test_shared_columns_stay_as_stored_under_concurrency():
    """Four workers over interleaved repeats of three texts: every
    answer is the cache-off one, and no hit wrote to the columns it
    shares with the stored response."""
    jobs = [(Q2, "by-projection"), (Q2, "by-value"),
            (SORTED, "by-fragment")]
    expected = {job: serialize_sequence(make_federation().run(
        job[0], at="local", strategy=job[1]).items) for job in jobs}
    order = [jobs[(i * 7 + i // 3) % 3] for i in range(210)]
    cache = _Snapshotting()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with FederationEngine(make_federation(), max_workers=4,
                              cache=cache) as engine:
            futures = [engine.submit(text, "local", strategy)
                       for text, strategy in order]
            answers = [serialize_sequence(future.result(timeout=60).items)
                       for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert answers == [expected[job] for job in order]
    assert cache.stats.hits > len(order) // 2
    assert cache.stored
    for doc, snapshot in cache.stored:
        assert columns_of(doc) == snapshot


#: The grades of the exams whose ids the people of the originator's
#: ``{doc}`` hold: by value, each person travels as an element copy.
GRADES = ('declare function grades($p as node()*) as node()* '
          '{ doc("xrpc://B/course42.xml")/child::enroll/child::exam'
          '[attribute::id = $p/child::id]/child::grade }; '
          'let $p := doc("xrpc://local/{doc}")/child::people/child::person '
          'return execute at {"B"} { grades($p) }')


def grades(doc: str) -> str:
    return GRADES.replace("{doc}", doc)


class TestHitsReplayTheirMiss:
    """A hit is keyed by the marshalled request: it writes no request
    text, decodes and unmarshals nothing, and saves what its miss's
    round trips cost."""

    @staticmethod
    def _warm(monkeypatch) -> tuple:
        """A Q2 miss, then its hit with each encode, unmarshal and
        nodeid table counted, and the registry's saved bytes in
        between."""
        federation = make_federation()
        cache = ResultCache(federation.metrics)
        miss = federation.run(Q2, at="local", result_cache=cache)
        saved = federation.metrics.get("cache_saved_bytes_total")
        before = saved.value
        called = []

        def counting(owner, name):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: called.append(
                name) or original(*args))

        counting(RequestMessage, "to_xml")
        counting(federation_module, "unmarshal_result")
        counting(marshal_module, "unmarshal_result")
        counting(marshal_module, "_nodeid_pres")
        hit = federation.run(Q2, at="local", result_cache=cache)
        return miss, hit, called, saved.value - before

    def test_a_warm_run_writes_no_request_and_unmarshals_nothing(
            self, monkeypatch):
        miss, hit, called, _saved = self._warm(monkeypatch)
        assert hit.stats.cache_hits == len(miss.messages) > 0
        assert hit.stats.rpc_calls == 0 and hit.messages == []
        assert called == []
        assert serialize_sequence(hit.items) == \
            serialize_sequence(miss.items) != ""

    def test_a_warm_run_saves_its_miss_round_trips(self, monkeypatch):
        miss, hit, _called, saved = self._warm(monkeypatch)
        round_trips = sum(message.request_bytes + message.response_bytes
                          for message in miss.messages)
        assert hit.stats.cache_saved_bytes == saved == round_trips > 0

    def test_equal_content_from_another_document_hits(self):
        federation = make_federation()
        (federation.peer("local").store("students.xml", STUDENTS_XML)
         .store("copy.xml", STUDENTS_XML))
        cache = ResultCache()
        first, second = (federation.run(grades(doc), at="local",
                                        strategy="by-value",
                                        result_cache=cache)
                         for doc in ("students.xml", "copy.xml"))
        assert first.stats.cache_hits == 0 and first.stats.rpc_calls > 0
        assert second.stats.cache_hits > 0 and second.stats.rpc_calls == 0
        assert serialize_sequence(second.items) == \
            serialize_sequence(first.items) != ""

    def test_one_character_or_a_static_attribute_misses(self):
        federation = make_federation()
        (federation.peer("local").store("students.xml", STUDENTS_XML)
         .store("typo.xml",
                STUDENTS_XML.replace("<name>Dot<", "<name>Dog<")))
        cache = ResultCache()

        def run(doc: str):
            return federation.run(grades(doc), at="local",
                                  strategy="by-value", result_cache=cache)

        first = run("students.xml")
        typo = run("typo.xml")
        federation.static = StaticContext(
            current_datetime="2009-03-29T12:00:01Z")
        later = run("students.xml")
        for result in (first, typo, later):
            assert result.stats.cache_hits == 0
            assert result.stats.rpc_calls == first.stats.rpc_calls > 0
            assert serialize_sequence(result.items) == \
                serialize_sequence(first.items) != ""


#: The grade of each id, by a Bulk RPC whose parameters are strings.
GRADE_OF = ('declare function grade($id as xs:string) as node()* '
            '{ doc("xrpc://B/course42.xml")/child::enroll/child::exam'
            '[attribute::id = $id]/child::grade }; '
            'for $id in ("s1", "s3", "s9") '
            'return execute at {"B"} { grade($id) }')


class TestWhereTheShortcutStops:
    """A request whose parameters are all atomic values is looked up
    before anything is marshalled; one that ships a node is keyed by
    its marshalled form, whose text holds the node's serialization."""

    @staticmethod
    def _hit(monkeypatch, query: str, strategy: str) -> tuple:
        """A miss of ``query``, then its hit (returned) with each
        marshalling, request construction and request text counted."""
        federation = make_federation()
        federation.peer("local").store("students.xml", STUDENTS_XML)
        cache = ResultCache()
        miss = federation.run(query, at="local", strategy=strategy,
                              result_cache=cache)
        called = []

        def counting(owner, name):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, **kwargs: (
                called.append(name) or original(*args, **kwargs)))

        counting(federation_module, "marshal_calls")
        counting(RequestMessage, "__init__")
        counting(RequestMessage, "to_xml")
        hit = federation.run(query, at="local", strategy=strategy,
                             result_cache=cache)
        assert hit.stats.cache_hits > 0
        assert hit.stats.rpc_calls == 0 and hit.messages == []
        assert serialize_sequence(hit.items) == \
            serialize_sequence(miss.items) != ""
        return hit, called

    @pytest.mark.parametrize("strategy",
                             ["by-value", "by-fragment", "by-projection"])
    def test_an_atomic_hit_marshals_nothing(self, monkeypatch, strategy):
        _hit, called = self._hit(monkeypatch, GRADE_OF, strategy)
        assert called == []

    def test_a_by_value_hit_with_node_parameters_still_marshals(
            self, monkeypatch):
        hit, called = self._hit(monkeypatch, grades("students.xml"),
                                "by-value")
        assert called == ["marshal_calls", "__init__"] * hit.stats.cache_hits



def _observe(federation: Federation, text: str, strategy: str,
             cache: ResultCache | None) -> tuple:
    """The answer (or the error class) and each call site's Bulk RPC
    calls, cache hits and round trips. A hit answers one round trip,
    whatever its number of calls — as ``ResultCache``'s hit counter
    counts — so a repeat's hits are its first run's round trips."""
    trips = collections.Counter()
    call_peer = federation_module._Run._call_peer

    def counting(run, peer, calls, head, site, *args, **kwargs):
        trips[site.site_id] += 1
        return call_peer(run, peer, calls, head, site, *args, **kwargs)

    federation_module._Run._call_peer = counting
    try:
        result = federation.run(text, at="local", strategy=strategy,
                                result_cache=cache)
    except ReproError as error:
        return ("error", type(error).__name__), {}
    finally:
        federation_module._Run._call_peer = call_peer
    # A call site's actuals are keyed by its site id, a ship's by
    # (owner, local_name): only the call sites are compared.
    return serialize_sequence(result.items), {
        key: (op["calls"], op["cache_hits"], trips[key])
        for key, op in result.stats.per_op.items()
        if not isinstance(key, tuple)}


def _repeated(ops: dict) -> dict:
    """What a repeat of the run ``ops`` observed finds at each call
    site when every round trip hits: no call, one hit per round trip."""
    return {key: (0, trips, trips) for key, (_calls, _hits, trips)
            in ops.items()}


#: Two documents a loop binds twice: d1 is ``<a/>``, d2 ``<a><b/></a>``.
_ONE, _TWO = (parse_document(text, uri="prop.xml")
              for text in ("<a/>", "<a><b/></a>"))


@given(text=_queries(), documents=_documents)
# A two-call Bulk RPC: its hit is one round trip, not two calls.
@example(text='for $x in (doc("d2")/descendant::*, doc("d2")/descendant::*)'
              ' return doc("d1")/descendant::*', documents=(_ONE, _ONE))
@fuzz_settings(40)
def test_generated_queries_answer_the_same_from_the_cache(text, documents):
    """A generated query, run twice through one fresh cache under each
    decomposing strategy: the second run answers from the cache — each
    call site makes no call, and its hits are the first run's round
    trips — and its answer is the first run's and a cache-free run's."""
    text = _on_peers(text)
    for strategy in ("by-value", "by-fragment", "by-projection"):
        plain, _ops = _observe(_federation(documents), text, strategy, None)
        federation, cache = _federation(documents), ResultCache()
        first, first_ops = _observe(federation, text, strategy, cache)
        second, second_ops = _observe(federation, text, strategy, cache)
        assert second == first == plain, (strategy, text)
        assert second_ops == _repeated(first_ops), (strategy, text)


def _agrees_with(view, reference) -> bool:
    """Whether ``view`` answers every key it built as ``reference``."""
    return ((view.serialized_bytes, view.nodes)
            == (reference.serialized_bytes, reference.nodes)
            and all(view.tag(key) == reference.tag(key)
                    for key in view.keys_built()))


@given(text=_queries(), documents=_documents, replacement=_trees(),
       which=st.sampled_from([("A", "d1", 0), ("B", "d2", 1)]))
@fuzz_settings(25, hunt=2000)
def test_generated_queries_stay_current_across_a_store(
        text, documents, replacement, which):
    """A generated query through one cache under each decomposing
    strategy, one of its documents re-stored with another generated
    document, the query again: every answer is a cache-free run's over
    the documents stored at the time, and after the store each
    statistics view the planner reads is the stored document's and
    answers as a fresh catalog's."""
    text = _on_peers(text)
    peer, name, index = which
    restored = list(documents)
    restored[index] = replacement
    federation, cache = _federation(documents), ResultCache()
    strategies = ("by-value", "by-fragment", "by-projection")
    for strategy in strategies:
        plain, _ops = _observe(_federation(documents), text, strategy, None)
        answer, _ops = _observe(federation, text, strategy, cache)
        assert answer == plain, (strategy, text)
    federation.peer(peer).store(name, serialize(replacement))
    fresh = _federation(restored).planner.stats
    for strategy in strategies:
        plain, _ops = _observe(_federation(restored), text, strategy, None)
        answer, _ops = _observe(federation, text, strategy, cache)
        assert answer == plain, (strategy, text)
        for host, local_name in (("A", "d1"), ("B", "d2")):
            view = federation.planner.stats.document_stats(host, local_name)
            assert view.document is \
                federation.peer(host).documents[local_name]
            assert _agrees_with(
                view, fresh.document_stats(host, local_name)), \
                (strategy, host, text)


#: Where a store of the schedule lands: a peer and document the
#: generated queries read, or ``U``, a peer none of them reads.
_STORE_SITES = [("A", "d1", 0), ("B", "d2", 1), ("U", "u", None)]


@given(text=_queries(), documents=_documents,
       schedule=st.lists(st.tuples(st.sampled_from(_STORE_SITES),
                                   _trees()), min_size=2, max_size=4))
# A two-call Bulk RPC repeated after a store on the unread peer.
@example(text='for $x in doc("d2")/descendant-or-self::node()/child::*'
              ' return doc("d1")/descendant::*', documents=(_ONE, _TWO),
         schedule=[(("A", "d1", 0), _ONE), (("U", "u", None), _ONE)])
@fuzz_settings(15, hunt=1000)
def test_generated_queries_stay_current_across_stores(
        text, documents, schedule):
    """A generated query through one cache under each decomposing
    strategy after each store of a schedule over three peers, one of
    which no query reads: every answer is a cache-free run's over the
    documents stored at the time, and after a store on the unread peer
    each call site hits as a repeat would — its hits are the previous
    run's round trips."""
    text = _on_peers(text)
    strategies = ("by-value", "by-fragment", "by-projection")
    federation, cache = _federation(documents), ResultCache()
    federation.add_peer("U").store("u", "<u/>")
    stored = list(documents)
    previous = {}
    for strategy in strategies:
        plain, _ops = _observe(_federation(stored), text, strategy, None)
        answer, previous[strategy] = _observe(federation, text, strategy,
                                              cache)
        assert answer == plain, (strategy, text)
    for (peer, name, index), replacement in schedule:
        federation.peer(peer).store(name, serialize(replacement))
        if index is not None:
            stored[index] = replacement
        for strategy in strategies:
            plain, _ops = _observe(_federation(stored), text, strategy,
                                   None)
            answer, ops = _observe(federation, text, strategy, cache)
            assert answer == plain, (strategy, peer, text)
            if index is None:
                assert ops == _repeated(previous[strategy]), (strategy, text)
            previous[strategy] = ops


# ---------------------------------------------------------------------------
# A cached engine answers as a cache-free twin, whatever the fleet does
# ---------------------------------------------------------------------------

_NODES = ("node1", "node2", "node3")

#: (text, strategy): a scan and a count the originator scatters, and a
#: count B's body scatters (its exchange with B is cached whole).
_SCHEDULE_QUERIES = (
    (SHARDED_SCAN_QUERY, "by-projection"),
    ('count(doc("xrpc://people-c/people.xml")'
     "/child::site/child::people/child::person)", "by-projection"),
    (TestValidators.NESTED_COUNT, "data-shipping"),
)

_query = st.tuples(st.just("query"),
                   st.integers(0, len(_SCHEDULE_QUERIES) - 1))
_step = st.one_of(
    _query, _query,
    st.tuples(st.just("store"), st.integers(0, 2), st.integers(0, 3)),
    st.tuples(st.sampled_from(["kill", "revive"]),
              st.sampled_from([*_NODES, "B"])),
    st.tuples(st.sampled_from(["down", "up"]), st.sampled_from(_NODES)),
)


def _scheduled_federation(replication_factor: int = 2):
    federation = build_sharded_federation(
        0.002, shard_count=3, replication_factor=replication_factor,
        node_count=3)
    federation.add_peer("B")
    return federation


@functools.cache
def _original_shard(local_name: str) -> str:
    """A ``people-c`` shard's text as built (the same under either
    replication factor: it decides placement only)."""
    federation = _scheduled_federation()
    shard = next(shard for shard in federation.collection("people-c").shards
                 if shard.local_name == local_name)
    return serialize(federation.peer(shard.replicas[0]).documents[local_name])


def _aged(text: str, shift: int) -> str:
    """``text`` with every ``age`` ``shift`` × 17 years on (mod 100)."""
    return re.sub(r"<age>(\d+)</age>",
                  lambda m: f"<age>{(int(m[1]) + 17 * shift) % 100}</age>",
                  text)


def _apply(federation, step) -> None:
    kind, *args = step
    if kind == "store":
        # Every replica of the shard gets the same text: replicas hold
        # identical fragments, whichever serves.
        index, shift = args
        shard = federation.collection("people-c").shards[index]
        text = _aged(_original_shard(shard.local_name), shift)
        for replica in shard.replicas:
            federation.peer(replica).store(shard.local_name, text)
    elif kind in ("kill", "revive"):
        getattr(federation.transport, f"{kind}_peer")(args[0])
    elif kind == "down":
        federation.peer_view.mark_down(args[0])
    elif kind == "up":
        federation.peer_view.mark_up(args[0])


def _answer(run) -> tuple:
    """The items, or the type of the error raised."""
    try:
        result = run()
    except ReproError as error:
        return ("error", type(error).__name__)
    return ("items", serialize_sequence(result.items))


@given(replication_factor=st.integers(1, 2),
       schedule=st.lists(_step, min_size=4, max_size=14))
# A shard's one replica dies under B's scatter and comes back: the
# failed run is cached by no exchange, and the next run is whole.
@example(replication_factor=1,
         schedule=[("kill", "node1"), ("query", 2),
                   ("revive", "node1"), ("query", 2)])
# Both replicas of a shard die: a response cached while they lived
# answered whole where the wire raises.
@example(replication_factor=2,
         schedule=[("query", 0), ("kill", "node1"),
                   ("kill", "node2"), ("query", 0)])
# B dies: its response, which read no document of B's own, was
# served where the wire raises.
@example(replication_factor=2,
         schedule=[("query", 2), ("kill", "B"), ("query", 2)])
@fuzz_settings(25, hunt=2000)
def test_a_cached_engine_answers_as_a_cache_free_twin(replication_factor,
                                                      schedule):
    """A generated schedule of queries, stores, kills and revivals,
    down and up marks, given to an engine with its cache and to a
    cache-free twin federation: after every step each answers the same
    items, or raises the same type of error."""
    cached, twin = (_scheduled_federation(replication_factor)
                    for _ in range(2))
    with FederationEngine(cached, max_workers=1) as engine:
        for step in schedule:
            if step[0] != "query":
                _apply(cached, step)
                _apply(twin, step)
                continue
            text, strategy = _SCHEDULE_QUERIES[step[1]]
            assert _answer(lambda: engine.submit(
                text, "local", strategy).result()) == _answer(
                lambda: twin.run(text, at="local", strategy=strategy)), \
                (step, schedule)
