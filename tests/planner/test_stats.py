"""StatsCatalog: histograms, laziness, and store invalidation."""

import gc
import sys
import threading
import weakref
from dataclasses import replace

from repro.cluster import LoadScorer
from repro.planner.stats import (
    StatsCatalog, compute_document_stats, merge_document_stats,
)
from repro.system.federation import Federation
from repro.workloads import build_sharded_federation
from repro.xmark import generate_pair
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
        catalog = StatsCatalog()
        catalog.attach(federation)
        stats = catalog.document_stats("A", "people.xml")
        assert stats is not None and stats.tag("person").count == 2
        assert catalog.document_stats("A", "people.xml") is stats

    def test_missing_document_and_peer(self):
        federation = make_federation()
        catalog = StatsCatalog()
        catalog.attach(federation)
        assert catalog.document_stats("A", "nope.xml") is None
        assert catalog.document_stats("ghost", "people.xml") is None

    def test_store_invalidates_and_bumps_version(self):
        federation = make_federation()
        catalog = StatsCatalog()
        catalog.attach(federation)
        before = catalog.document_stats("A", "people.xml")
        version = catalog.version()
        federation.peer("A").store(
            "people.xml", "<people><person/></people>")
        assert catalog.version() > version
        after = catalog.document_stats("A", "people.xml")
        assert after is not before
        assert after.tag("person").count == 1

    def test_collection_stats_merge_shards(self):
        federation = build_sharded_federation(0.003, shard_count=3)
        catalog = StatsCatalog()
        catalog.attach(federation)
        merged = catalog.document_stats("people-c", "people.xml")
        assert merged is not None
        # The merged view must cover every member of every shard.
        spec = federation.catalog.get("people-c")
        members = sum(shard.members for shard in spec.shards)
        assert merged.tag("person").count == members

    def test_federation_planner_exposes_stats(self):
        federation = make_federation()
        stats = federation.planner.stats
        stats.attach(federation)
        assert stats.document_stats("A", "people.xml") is not None


class TestValueHistograms:
    def _stats(self):
        document = parse_document(DOC, uri="t.xml")
        return compute_document_stats(document, "t.xml")

    def test_built_per_key_on_first_read(self):
        stats = self._stats()
        assert stats.keys_built() == ([], [])
        assert stats.value_histogram("age").count == 1
        assert stats.tag("person").count == 2
        assert stats.value_histogram("nope") is None
        assert stats.keys_built() == (["person"], ["age"])

    def test_histogram_fields(self):
        stats = self._stats()
        ages = stats.value_histogram("age")
        assert ages.count == 1 and ages.numeric_count == 1
        assert ages.numeric_min == ages.numeric_max == 30.0
        names = stats.value_histogram("name")
        assert names.count == 2 and names.distinct == 2
        assert names.numeric_count == 0
        assert stats.value_histogram("@id").count == 1
        # Container elements carry no value histogram.
        assert stats.value_histogram("people") is None

    def test_selectivity_equality_and_range(self):
        from repro.planner.stats import ValueHistogram

        hist = ValueHistogram(count=100, distinct=50, numeric_count=100,
                              numeric_min=0.0, numeric_max=100.0,
                              buckets=(25, 25, 0, 0, 25, 0, 0, 25))
        assert abs(hist.selectivity("=", "x") - 0.02) < 1e-9
        assert 0.35 < hist.selectivity("<", 50) < 0.65
        low = hist.selectivity("<", 10)
        high = hist.selectivity("<", 90)
        assert low < high
        assert abs(hist.selectivity(">", 50)
                   + hist.selectivity("<=", 50) - 1.0) < 0.01
        # String range comparisons have no ordering statistics.
        assert hist.selectivity("<", "x") is None

    def test_histogram_merge(self):
        from repro.planner.stats import ValueHistogram

        a = ValueHistogram(count=10, distinct=10, numeric_count=10,
                           numeric_min=0.0, numeric_max=9.0,
                           buckets=(2, 1, 1, 1, 1, 1, 1, 2))
        b = ValueHistogram(count=10, distinct=10, numeric_count=10,
                           numeric_min=10.0, numeric_max=19.0,
                           buckets=(2, 1, 1, 1, 1, 1, 1, 2))
        merged = a.merged(b)
        assert merged.count == 20 and merged.numeric_count == 20
        assert merged.numeric_min == 0.0 and merged.numeric_max == 19.0
        assert sum(merged.buckets) == 20
        # Roughly half the mass below the midpoint.
        assert 0.3 < merged.selectivity("<", 9.5) < 0.7

    def test_catalog_view_answers_tags_and_values_alike(self):
        federation = make_federation()
        catalog = StatsCatalog()
        catalog.attach(federation)
        view = catalog.document_stats("A", "people.xml")
        assert view.tag("age").count == 1
        assert view.value_histogram("age") is view.value_histogram("age")
        # One view per document, whatever was read off it first.
        assert catalog.document_stats("A", "people.xml") is view

    def test_sharded_collection_merges_value_histograms(self):
        federation = build_sharded_federation(0.004, shard_count=2)
        catalog = StatsCatalog()
        catalog.attach(federation)
        stats = catalog.document_stats("people-c", "people.xml")
        ages = stats.value_histogram("age")
        assert ages is not None
        assert ages.count == stats.tag("age").count
        assert 18.0 <= ages.numeric_min < ages.numeric_max <= 70.0


class TestMeasuredSelectivity:
    def test_age_filter_prices_with_measured_selectivity(self):
        """The benchmark condition (age < 40 over ages uniform in
        [18, 70]) must price near the measured ~0.42, not the 0.5
        default — visible as the if-condition selectivity applied to
        the estimated response volume."""
        from repro.workloads import BENCHMARK_QUERY, build_federation

        federation = build_federation(0.01)
        plan, _report = federation.planner.plan(
            BENCHMARK_QUERY, at="local", strategy="auto")
        catalog = federation.planner.stats
        stats = catalog.document_stats("peer1", "people.xml")
        ages = stats.value_histogram("age")
        measured = ages.selectivity("<", 40)
        assert 0.30 < measured < 0.55
        assert plan.estimated_s > 0.0

    def test_histograms_appearing_invalidate_nothing(self):
        """A lowering that compares values builds the histograms it
        reads, and one that does not never reads them — so a query is
        priced the same whether or not another query's histograms
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
        # Either order built the same keys: three buckets, one histogram.
        assert built_by[no_values, with_values] \
            == built_by[with_values, no_values] \
            == (["name", "people", "person"], ["name"])


def attached(federation) -> StatsCatalog:
    catalog = StatsCatalog()
    catalog.attach(federation)
    return catalog


class TestInvalidatesWhatWasStored:
    def test_storing_one_document_keeps_its_peers_other_view(self):
        federation = make_federation()
        federation.peer("A").store("other.xml", "<o><p/></o>")
        catalog = attached(federation)
        people = catalog.document_stats("A", "people.xml")
        other = catalog.document_stats("A", "other.xml")
        version = catalog.version()
        federation.peer("A").store("people.xml", "<people/>")
        assert catalog.version() == version + 1
        assert catalog.document_stats("A", "other.xml") is other
        assert catalog.document_stats("A", "people.xml") is not people

    def test_collection_view_outlives_a_store_elsewhere(self):
        federation = build_sharded_federation(0.003, shard_count=2)
        catalog = attached(federation)
        merged = catalog.document_stats("people-c", "people.xml")
        version = catalog.version()
        federation.peer("local").store("scratch.xml", "<s/>")
        assert catalog.version() == version + 1
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

    def test_collection_view_follows_its_catalog_spec(self):
        """A layout change replaces the (frozen) spec: the view merged
        under the old one is not served for the new one."""
        federation = build_sharded_federation(0.003, shard_count=2)
        catalog = attached(federation)
        merged = catalog.document_stats("people-c", "people.xml")
        federation.catalog.update(
            "people-c", lambda spec: replace(spec, shards=spec.shards[:1]))
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
    value_keys = sorted(reference.values) + ["people", "@nope"]
    answers, errors = [], []

    def read(view, start):
        try:
            start.wait(timeout=10)
            answers.append(
                ([view.tag(key) for key in tag_keys],
                 [view.value_histogram(key) for key in value_keys],
                 view.elements))
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
                [reference.values.get(key) for key in value_keys],
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
            "tag_keys": [], "value_keys": []}
        assert snapshot["keys_built"] == 0
        assert "elements" not in vars(view)
        assert document._structural_index is None

    def test_first_read_after_a_store_builds_only_what_its_plan_prices(self):
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
        assert people["value_keys"] == ["age"]
        assert snapshot["stats_keys_built"] \
            == snapshot["stats"]["keys_built"] >= 5


def test_load_scorer_reads_fragment_bytes_without_forcing_a_key():
    federation = build_sharded_federation(0.003, shard_count=2)
    catalog = federation.planner.stats
    shard = federation.catalog.get("people-c").shards[0]
    replica = shard.replicas[0]
    document = federation.peer(replica).documents[shard.local_name]
    exact = len(serialize(document).encode())
    scorer = LoadScorer(federation)
    # Unattached statistics answer nothing: the memoized length serves.
    assert scorer._fragment_bytes(catalog, replica, shard.local_name) \
        == scorer._fragment_bytes(None, replica, shard.local_name) == exact
    assert scorer._fragment_bytes(None, replica, "nope.xml") == 0
    catalog.attach(federation)
    assert scorer.snapshot()[replica].fragment_bytes >= exact
    assert catalog.document_stats(
        replica, shard.local_name).keys_built() == ([], [])
