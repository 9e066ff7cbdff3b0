"""Result-cache correctness: keys, LRU bounds, counters, and — the
load-bearing part — invalidation by the store generation a
``Peer.store`` moves."""

import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.obs.events import EventLog
from repro.runtime.cache import (
    MAX_DOCUMENTS, MAX_RESPONSES, ResultCache, response_key,
)
from repro.runtime.engine import FederationEngine
from repro.system.federation import Federation
from repro.workloads import SHARDED_SCAN_QUERY, build_sharded_federation
from repro.xmldb.node import Node
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize
from repro.xquery.xdm import serialize_sequence
from repro.xrpc.messages import NodeCopy, ResponseMessage

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


class TestResponseKey:
    def test_identical_requests_share_a_key(self):
        assert response_key("B", "by-fragment", "<xml/>", None, None) == \
            response_key("B", "by-fragment", "<xml/>", None, None)

    def test_projection_signature_separates_entries(self):
        base = response_key("B", "by-fragment", "<xml/>", None, None)
        used = response_key("B", "by-fragment", "<xml/>", ["child::a"], None)
        returned = response_key("B", "by-fragment", "<xml/>", None, ["child::a"])
        assert len({base, used, returned}) == 3

    def test_dest_peer_separates_entries(self):
        assert response_key("A", "by-fragment", "<xml/>", None, None) != \
            response_key("B", "by-fragment", "<xml/>", None, None)

    def test_semantics_separates_entries(self):
        """By-value and by-fragment requests are byte-identical on the
        wire (semantics travels out-of-band), but their responses use
        different formats — they must never share a cache entry."""
        assert response_key("B", "by-value", "<xml/>", None, None) != \
            response_key("B", "by-fragment", "<xml/>", None, None)

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
        key = response_key("B", "by-fragment", "<req/>", None, None)
        assert cache.lookup_response(key) is None
        cache.store_response(key, "<resp/>")
        assert cache.lookup_response(key, request_bytes=10) == "<resp/>"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.saved_bytes == 10 + len("<resp/>")

    @staticmethod
    def _keys(count):
        return [response_key("B", "by-fragment", f"<req n='{i}'/>", None,
                             None) for i in range(count)]

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

    def test_document_entries_bounded(self):
        cache = ResultCache()
        doc = parse_document("<d/>", uri="d.xml")
        names = [f"{i}.xml" for i in range(MAX_DOCUMENTS + 1)]
        for name in names:
            cache.store_document("local", "A", name, doc, 4)
        assert cache.lookup_document("local", "A", names[0]) is None
        assert cache.lookup_document("local", "A", names[-1]) == (doc, 4)


#: A replacement ``course42.xml`` whose every grade is Z.
ALL_Z_COURSE = """<enroll>
 <exam id="s2"><grade>Z</grade></exam>
 <exam id="s1"><grade>Z</grade></exam>
</enroll>"""


class TestInvalidation:
    def test_newer_generation_drops_its_owners_documents_and_all_responses(
            self):
        cache = ResultCache()
        doc = parse_document("<d/>", uri="d.xml")
        key = response_key("B", "by-fragment", "<req/>", None, None)
        cache.store_document("local", "A", "students.xml", doc, 4, 1)
        cache.store_document("local", "B", "course42.xml", doc, 4, 1)
        cache.store_response(key, "<r/>", generation=2)
        # A store on A: A's generation 1 -> 2, the federation's 2 -> 3.
        # A's document gone; B's kept; responses dropped wholesale
        # (they may transitively depend on any peer's documents).
        assert cache.lookup_document("local", "A", "students.xml", 2) \
            is None
        assert cache.lookup_document("local", "B", "course42.xml", 1) \
            is not None
        assert cache.lookup_response(key, generation=3) is None
        assert cache.stats.invalidations == 2
        assert cache.stats.evictions == 0

    def test_a_sweep_emits_one_event(self):
        events = EventLog()
        cache = ResultCache(events=events)
        for n in range(3):
            cache.store_response(
                response_key("B", "by-fragment", f"<r n='{n}'/>", None,
                             None), "<x/>", generation=1)
        assert cache.lookup_response(
            response_key("B", "by-fragment", "<r/>", None, None),
            generation=2) is None
        cache.lookup_response(
            response_key("B", "by-fragment", "<r/>", None, None),
            generation=3)         # nothing left to drop: no event
        sweeps = [event for event in events.recent()
                  if event.kind == "cache_invalidation"]
        assert [event.attrs["dropped"] for event in sweeps] == [3]

    def test_peer_store_invalidates_serialized_text_cache(self):
        federation = make_federation()
        peer = federation.peer("A")
        before = peer.serialized("students.xml")
        peer.store("students.xml", "<people/>")
        after = peer.serialized("students.xml")
        assert before != after
        assert "<people/>" in after

    def test_peer_store_invalidates_runtime_fragment_cache(self):
        """A store reaches both the serialized-text cache and the
        engine's result cache, and later queries see the new data."""
        federation = make_federation()
        with FederationEngine(federation, max_workers=2,
                              batch_window_s=0.0) as engine:
            first = engine.submit(Q2, "local").result()
            assert engine.cache.snapshot()["responses"] > 0

            # Repeat: answered from cache, same answer.
            repeat = engine.submit(Q2, "local").result()
            assert repeat.stats.cache_hits > 0
            assert serialize_sequence(repeat.items) == \
                serialize_sequence(first.items)

            federation.peer("B").store("course42.xml", ALL_Z_COURSE)
            fresh = engine.submit(Q2, "local").result()
            assert fresh.stats.cache_hits == 0
            text = serialize_sequence(fresh.items)
            assert text != serialize_sequence(first.items)
            assert "Z" in text

    def test_peer_store_invalidates_a_cache_passed_to_run(self):
        """A cache handed straight to ``Federation.run`` registers
        nowhere, and a store still outdates what it holds."""
        federation, cache = make_federation(), ResultCache()
        first = federation.run(Q2, at="local", result_cache=cache)
        federation.peer("B").store("course42.xml", ALL_Z_COURSE)
        plain = make_federation()
        plain.peer("B").store("course42.xml", ALL_Z_COURSE)
        expected = serialize_sequence(plain.run(Q2, at="local").items)
        again = federation.run(Q2, at="local", result_cache=cache)
        assert again.stats.cache_hits == 0
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
        late = federation.add_peer("C").store("d.xml", "<d/>")
        assert (peer.generation, late.generation) == (3, 1)
        assert federation.generation() == 5

    def test_a_collection_document_lives_for_the_federation_generation(
            self):
        """A merged document reads every shard replica, so a store on
        any peer outdates it; a peer's own document outlives a store
        elsewhere."""
        query = f"count({SHARDED_SCAN_QUERY})"
        federation, cache = build_sharded_federation(0.003), ResultCache()
        federation.add_peer("plain").store("d.xml", "<d><e/></d>")

        def ships(text):
            result = federation.run(text, at="local",
                                    strategy="data-shipping",
                                    result_cache=cache)
            return result.items, result.stats.cache_hits

        both = f'({query}, count(doc("xrpc://plain/d.xml")//e))'
        first, hits = ships(both)
        assert hits == 0
        assert ships(both) == (first, 2)
        federation.peer("local").store("scratch.xml", "<s/>")
        assert ships(both) == (first, 1)     # only the peer's document

    def test_stale_generation_store_is_discarded(self):
        """A value computed before a store must not re-populate the
        cache after it (the store/compute race)."""
        cache = ResultCache()
        key = response_key("B", "by-fragment", "<req/>", None, None)
        cache.lookup_response(key, generation=1)     # computing under 1
        cache.lookup_response(key, generation=2)     # a store landed
        cache.store_response(key, "<stale/>", generation=1)
        assert cache.lookup_response(key, generation=2) is None

        doc = parse_document("<d/>", uri="d.xml")
        cache.lookup_document("local", "A", "d.xml", 2)
        cache.store_document("local", "A", "d.xml", doc, 4, 1)
        assert cache.lookup_document("local", "A", "d.xml", 2) is None

    def test_current_generation_store_is_kept(self):
        cache = ResultCache()
        key = response_key("B", "by-fragment", "<req/>", None, None)
        cache.lookup_response(key, generation=5)
        cache.store_response(key, "<fresh/>", generation=5)
        assert cache.lookup_response(key, generation=5) == "<fresh/>"


# ---------------------------------------------------------------------------
# Hits: a stored decoded response, new documents per hit
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


def payload_documents(message) -> list:
    """A decoded response's documents: its fragments', its copies'."""
    return [root.doc for root in message.fragments] + [
        item.content.doc for items in message.results for item in items
        if isinstance(item, NodeCopy)]


def stored_documents(cache: ResultCache) -> list:
    """Every payload document of every stored response."""
    return [doc for (message, _size), _bytes in cache._responses.values()
            for doc in payload_documents(message)]


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

    def store_response(self, key, response, response_bytes=None,
                       generation=0):
        message, _size = response
        self.stored.extend((doc, columns_of(doc))
                           for doc in payload_documents(message))
        super().store_response(key, response, response_bytes, generation)


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
        with FederationEngine(make_federation(), max_workers=1,
                              batch_window_s=0.0) as engine:
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
        # A wire that can wait: the scatter fans out over threads.
        federation.transport.extra_latency_s = 0.001
        with FederationEngine(federation, max_workers=2,
                              batch_window_s=0.0) as engine:
            miss = engine.submit(query, "local").result()
            # The two covers of the 4 x 2 layout alternate with the
            # load, and a grouped response is keyed by its shard set:
            # the second miss stores the other cover's responses.
            engine.submit(query, "local").result()
            trips = len(miss.messages)
            stored = stored_documents(engine.cache)
            seqs = [doc.doc_seq for doc in stored]
            # The round trip first to copy its entry copies it last:
            # only the gather's renumbering puts its documents first.
            fresh, lock, arrived, copied = (
                ResponseMessage.fresh, threading.Lock(), [], [])
            others_copied = threading.Event()

            def first_copies_last(message):
                with lock:
                    arrived.append(message)
                    first = len(arrived) == 1
                if first:
                    others_copied.wait(timeout=10)
                copy = fresh(message)
                with lock:
                    copied.append(message)
                    if not first and len(copied) == trips - 1:
                        others_copied.set()
                return copy

            monkeypatch.setattr(ResponseMessage, "fresh", first_copies_last)
            hit = engine.submit(query, "local").result()
            # The gather renumbered the hit's own documents only.
            assert [doc.doc_seq for doc in stored] == seqs
        assert others_copied.is_set()
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


def _observe(federation: Federation, text: str, strategy: str,
             cache: ResultCache | None) -> tuple:
    """The answer (or the error class) and each call site's calls and
    cache hits."""
    try:
        result = federation.run(text, at="local", strategy=strategy,
                                result_cache=cache)
    except ReproError as error:
        return ("error", type(error).__name__), {}
    # A call site's actuals are keyed by its site id, a ship's by
    # (owner, local_name): only the call sites are compared.
    return serialize_sequence(result.items), {
        key: (op["calls"], op["cache_hits"])
        for key, op in result.stats.per_op.items()
        if not isinstance(key, tuple)}


@given(text=_queries(), documents=_documents)
@fuzz_settings(40)
def test_generated_queries_answer_the_same_from_the_cache(text, documents):
    """A generated query, run twice through one fresh cache under each
    decomposing strategy: the second run answers from the cache — each
    call site makes no call, and its hits are the first run's calls (and
    hits) — and its answer is the first run's and a cache-free run's."""
    text = _on_peers(text)
    for strategy in ("by-value", "by-fragment", "by-projection"):
        plain, _ops = _observe(_federation(documents), text, strategy, None)
        federation, cache = _federation(documents), ResultCache()
        first, first_ops = _observe(federation, text, strategy, cache)
        second, second_ops = _observe(federation, text, strategy, cache)
        assert second == first == plain, (strategy, text)
        assert second_ops == {key: (0, calls + hits) for key, (calls, hits)
                              in first_ops.items()}, (strategy, text)


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
