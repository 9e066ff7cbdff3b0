"""StatsCatalog: tag buckets, laziness, and store invalidation."""

import gc
import sys
import threading
import weakref

from repro.cluster import LoadScorer
from repro.net.estimate import CostVector
from repro.planner.stats import (
    StatsCatalog, compute_document_stats, merge_document_stats,
)
from repro.system.federation import Federation
from repro.workloads import build_sharded_federation
from repro.xmark import generate_pair
from repro.xmldb import serializer
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize

from tests.oracle.stats_reference import reference_document_stats
from tests.planner.test_prepared import _ledger_workloads

DOC = ("<people><person><name>Ann</name><age>30</age></person>"
       '<person id="p2"><name>Bob</name></person></people>')


def make_federation() -> Federation:
    federation = Federation()
    federation.add_peer("A").store("people.xml", DOC)
    federation.add_peer("local")
    return federation


class TestComputeDocumentStats:
    def test_counts_and_exact_bytes(self):
        document = parse_document(DOC, uri="t.xml")
        exact = len(serialize(document).encode())
        stats = compute_document_stats(document, "t.xml",
                                       serialized_bytes=exact)
        assert stats.serialized_bytes == exact
        assert stats.elements == 6          # people, 2 person, 2 name, age
        assert stats.tag("person").count == 2
        assert stats.tag("name").count == 2
        assert stats.tag("@id").count == 1
        assert stats.tag("#text").count == 3

    def test_subtree_bytes_sum_to_document(self):
        document = parse_document(DOC, uri="t.xml")
        exact = len(serialize(document).encode())
        stats = compute_document_stats(document, "t.xml",
                                       serialized_bytes=exact)
        # The root element's subtree is the serialised document.
        root = stats.tag("people")
        assert root.subtree_bytes == exact
        # Children partition their parent.
        persons = stats.tag("person")
        assert persons.subtree_bytes < root.subtree_bytes

    def test_merge_aggregates(self):
        document = parse_document(DOC, uri="t.xml")
        stats = compute_document_stats(document, "t.xml",
                                       serialized_bytes=100)
        merged = merge_document_stats([stats, stats], uri="m.xml")
        assert merged.serialized_bytes == 200
        assert merged.tag("person").count == 4
        assert merged.elements == 12


class TestStatsCatalog:
    def test_lazy_lookup_and_caching(self):
        federation = make_federation()
        catalog = StatsCatalog(federation)
        stats = catalog.document_stats("A", "people.xml")
        assert stats is not None and stats.tag("person").count == 2
        assert catalog.document_stats("A", "people.xml") is stats

    def test_missing_document_and_peer(self):
        federation = make_federation()
        catalog = StatsCatalog(federation)
        assert catalog.document_stats("A", "nope.xml") is None
        assert catalog.document_stats("ghost", "people.xml") is None

    def test_store_invalidates_and_bumps_generation(self):
        federation = make_federation()
        catalog = StatsCatalog(federation)
        before = catalog.document_stats("A", "people.xml")
        generation = federation.generation()
        federation.peer("A").store(
            "people.xml", "<people><person/></people>")
        assert federation.generation() > generation
        after = catalog.document_stats("A", "people.xml")
        assert after is not before
        assert after.tag("person").count == 1

    def test_collection_stats_merge_shards(self):
        federation = build_sharded_federation(0.003, shard_count=3)
        catalog = StatsCatalog(federation)
        merged = catalog.document_stats("people-c", "people.xml")
        assert merged is not None
        # The merged view must cover every member of every shard.
        spec = federation.catalog.get("people-c")
        members = sum(shard.members for shard in spec.shards)
        assert merged.tag("person").count == members

    def test_federation_planner_exposes_stats(self):
        federation = make_federation()
        stats = federation.planner.stats
        assert stats.document_stats("A", "people.xml") is not None


class TestPerKeyViews:
    def _stats(self):
        document = parse_document(DOC, uri="t.xml")
        return compute_document_stats(document, "t.xml")

    def test_built_per_key_on_first_read(self):
        stats = self._stats()
        assert stats.keys_built() == []
        assert stats.tag("person").count == 2
        assert stats.tag("nope") is None
        assert stats.keys_built() == ["person"]

    def test_catalog_view_answers_each_key_once(self):
        federation = make_federation()
        catalog = StatsCatalog(federation)
        view = catalog.document_stats("A", "people.xml")
        assert view.tag("age") is view.tag("age")
        # One view per document, whatever was read off it first.
        assert catalog.document_stats("A", "people.xml") is view

    def test_keys_appearing_invalidate_nothing(self):
        """A lowering builds the keys it reads, and only those — so a
        query is priced the same whether or not another query's keys
        already exist, and their appearing re-lowers nothing."""
        built_by = {}

        no_values = 'doc("xrpc://A/people.xml")/child::people'
        with_values = ('doc("xrpc://A/people.xml")'
                       "//person[name = 'Ann']")

        def plan_in_order(*queries):
            planner = make_federation().planner
            reports = {query: planner.plan(query, at="local",
                                           strategy="auto")[1]
                       for query in queries}
            built_by[queries] = planner.stats.document_stats(
                "A", "people.xml").keys_built()
            for query in queries:
                _plan, replay = planner.plan(query, at="local",
                                             strategy="auto")
                assert replay.from_cache is True
            return reports

        before = plan_in_order(no_values, with_values)
        after = plan_in_order(with_values, no_values)
        for query in (no_values, with_values):
            assert before[query].candidates == after[query].candidates
        # Either order built the same keys: the paths' buckets.
        assert built_by[no_values, with_values] \
            == built_by[with_values, no_values] \
            == ["name", "people", "person"]


def attached(federation) -> StatsCatalog:
    return StatsCatalog(federation)


class TestInvalidatesWhatWasStored:
    def test_storing_one_document_keeps_its_peers_other_view(self):
        federation = make_federation()
        federation.peer("A").store("other.xml", "<o><p/></o>")
        catalog = attached(federation)
        people = catalog.document_stats("A", "people.xml")
        other = catalog.document_stats("A", "other.xml")
        generation = federation.generation()
        federation.peer("A").store("people.xml", "<people/>")
        assert federation.generation() == generation + 1
        assert catalog.document_stats("A", "other.xml") is other
        assert catalog.document_stats("A", "people.xml") is not people

    def test_collection_view_outlives_a_store_elsewhere(self):
        federation = build_sharded_federation(0.003, shard_count=2)
        catalog = attached(federation)
        merged = catalog.document_stats("people-c", "people.xml")
        generation = federation.generation()
        federation.peer("local").store("scratch.xml", "<s/>")
        assert federation.generation() == generation + 1
        assert catalog.document_stats("people-c", "people.xml") is merged

    def test_collection_view_goes_with_a_store_on_any_shard_replica(self):
        federation = build_sharded_federation(0.003, shard_count=2)
        catalog = attached(federation)
        merged = catalog.document_stats("people-c", "people.xml")
        auctions = catalog.document_stats("auctions-c", "auctions.xml")
        shard = federation.catalog.get("people-c").shards[1]
        replica = shard.replicas[-1]      # not the one the view read
        federation.peer(replica).store(
            shard.local_name,
            federation.peer(replica).serialized(shard.local_name))
        again = catalog.document_stats("people-c", "people.xml")
        assert again is not merged
        assert again.tag("person") == merged.tag("person")
        assert catalog.document_stats("auctions-c",
                                      "auctions.xml") is auctions

    def test_a_view_rides_on_its_document(self):
        federation = make_federation()
        view = attached(federation).document_stats("A", "people.xml")
        assert federation.peer("A").documents["people.xml"].stats_view \
            is view
        assert StatsCatalog(federation).document_stats(
            "A", "people.xml") is view

    def test_collection_view_goes_with_a_removal_on_a_shard_replica(self):
        federation = build_sharded_federation(0.003, shard_count=2)
        catalog = attached(federation)
        merged = catalog.document_stats("people-c", "people.xml")
        shard = federation.catalog.get("people-c").shards[0]
        assert federation.peer(shard.replicas[-1]).remove(shard.local_name)
        again = catalog.document_stats("people-c", "people.xml")
        assert again is not merged
        assert again.tag("person") == merged.tag("person")

    def test_collection_view_follows_its_catalog_spec(self):
        """A layout change replaces the (frozen) spec: the view merged
        under the old one is not served for the new one."""
        federation = build_sharded_federation(0.003, shard_count=2)
        catalog = attached(federation)
        merged = catalog.document_stats("people-c", "people.xml")
        federation.catalog.update(
            "people-c", lambda spec: spec.replace(shards=spec.shards[:1]))
        halved = catalog.document_stats("people-c", "people.xml")
        assert halved is not merged
        assert halved.tag("person").count < merged.tag("person").count

    def test_replaced_document_is_not_kept_alive(self):
        federation = make_federation()
        catalog = attached(federation)
        assert catalog.document_stats("A", "people.xml").tag("person")
        # ``Document`` has slots and no ``__weakref__``: watch what only
        # it holds — its kind column — and the view.
        documents = federation.peer("A").documents
        held = [weakref.ref(documents["people.xml"].kinds),
                weakref.ref(catalog.document_stats("A", "people.xml"))]
        federation.peer("A").store("people.xml", "<people/>")
        gc.collect()
        assert [ref() for ref in held] == [None, None]


def test_concurrent_first_reads_of_one_view_agree():
    """Eight threads ask one fresh view for the same keys at once:
    whichever publishes last, every thread reads the reference's
    answer (equal immutable values — last writer wins)."""
    document = generate_pair(0.01)[0]
    exact = len(serialize(document).encode())
    reference = reference_document_stats(document, exact)
    tag_keys = sorted(reference.tags) + ["nope", "@nope"]
    answers, errors = [], []

    def read(view, start):
        try:
            start.wait(timeout=10)
            answers.append(
                ([view.tag(key) for key in tag_keys], view.elements))
        except Exception as error:        # surfaced by the assert below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _round in range(5):
            view = compute_document_stats(document, "p.xml", exact)
            start = threading.Barrier(8)
            threads = [threading.Thread(target=read, args=(view, start))
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    expected = ([reference.tags.get(key) for key in tag_keys],
                reference.elements)
    assert answers == [expected] * 40


class TestCatalogExplainsItsRebuild:
    def test_snapshot_forces_nothing(self):
        federation = make_federation()
        catalog = attached(federation)
        view = catalog.document_stats("A", "people.xml")
        document = federation.peer("A").documents["people.xml"]
        snapshot = catalog.snapshot()
        assert snapshot["documents"]["A/people.xml"] == {
            "serialized_bytes": len(DOC), "nodes": len(document),
            "tag_keys": []}
        assert snapshot["keys_built"] == 0
        assert "elements" not in vars(view)
        assert document._structural_index is None

    def test_first_read_after_a_store_builds_only_what_its_plan_prices(self):
        """The read after the store has no result-cache hit (its
        auctions request carries the new version's persons), so its
        feedback prices its plan: that builds the four keys the plan
        prices, and nothing else."""
        ledger = _ledger_workloads()
        instance = ledger.WORKLOADS["store_churn"].build()
        try:
            for text in ledger.CHURN_TEXTS:
                instance.query(text)
            instance.store(1)
            instance.query(ledger.CHURN_TEXTS[0])
        finally:
            instance.close()
        snapshot = instance.federation.planner.snapshot()
        people = snapshot["stats"]["documents"]["peer1/people.xml"]
        assert people["tag_keys"] == ["age", "people", "person", "site"]
        assert snapshot["stats_keys_built"] \
            == snapshot["stats"]["keys_built"] >= 4

    def test_a_read_with_a_cache_hit_derives_nothing_from_a_store(
            self, monkeypatch):
        """Once each version's auctions response is cached, a store and
        a read whose auctions call hits: the feedback skips the run, so
        nothing re-prices the fixed plan, lays out the stored text or
        builds a key of the stored document's statistics. The report is
        priced when first read, once, as an eager pricing would."""
        ledger = _ledger_workloads()
        instance = ledger.WORKLOADS["store_churn"].build()
        text = ledger.CHURN_TEXTS[0]
        planner = instance.federation.planner
        try:
            for warm in ledger.CHURN_TEXTS:
                instance.query(warm)
            for version in (1, 2):
                instance.store(version)
                instance.query(text)
            calls = []
            reprice, layout = planner.estimator.reprice, serializer._layout
            monkeypatch.setattr(planner.estimator, "reprice", lambda plan: (
                calls.append("reprice"), reprice(plan))[1])
            monkeypatch.setattr(serializer, "_layout", lambda doc, text: (
                calls.append("layout"), layout(doc, text))[1])
            instance.store(1)
            result = instance.query(text)
        finally:
            instance.close()
        assert result.stats.cache_hits > 0
        assert calls == []
        documents = planner.snapshot()["stats"]["documents"]
        assert "peer1/people.xml" not in documents

        report = result.stats.plan
        estimated = report.estimated_bytes
        # The pricing reads the stored people's spans: that adopts it.
        assert calls == ["reprice", "layout"]
        eager = reprice(report.plan).priced()
        assert report.vectors == eager
        assert estimated == int(CostVector.total_of(eager).wire_bytes)
        assert report.candidates == (
            (report.strategy, CostVector.total_of(eager).total_s(
                report.plan.model)),)


def test_load_scorer_reads_fragment_bytes_without_forcing_a_key():
    federation = build_sharded_federation(0.003, shard_count=2)
    catalog = federation.planner.stats
    shard = federation.catalog.get("people-c").shards[0]
    replica = shard.replicas[0]
    held = [s.local_name for spec in federation.catalog.collections()
            for s in spec.shards if replica in s.replicas]
    documents = federation.peer(replica).documents
    exact = sum(len(serialize(documents[name]).encode()) for name in held)
    scores = LoadScorer(federation).snapshot()
    # Each placed fragment counts at its serialized length; a peer that
    # holds none counts nothing.
    assert scores[replica].fragment_bytes == exact
    assert scores["local"].fragment_bytes == scores["local"].fragments == 0
    assert catalog.document_stats(
        replica, shard.local_name).keys_built() == []
