"""StatsCatalog: histograms, laziness, and store invalidation."""

from repro.planner.stats import (
    StatsCatalog, compute_document_stats, merge_document_stats,
)
from repro.system.federation import Federation
from repro.workloads import build_sharded_federation
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize

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
        return compute_document_stats(document, "t.xml",
                                      with_values=True)

    def test_disabled_by_default(self):
        document = parse_document(DOC, uri="t.xml")
        assert compute_document_stats(document, "t.xml").values is None

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

    def test_catalog_upgrades_value_less_entry_in_place(self):
        federation = make_federation()
        catalog = StatsCatalog()
        catalog.attach(federation)
        plain = catalog.document_stats("A", "people.xml")
        assert plain.values is None
        upgraded = catalog.document_stats("A", "people.xml",
                                          with_values=True)
        assert upgraded.values is not None
        # Cached with values now; a value-less request reuses it.
        assert catalog.document_stats("A", "people.xml") is upgraded

    def test_sharded_collection_merges_value_histograms(self):
        federation = build_sharded_federation(0.004, shard_count=2)
        catalog = StatsCatalog()
        catalog.attach(federation)
        stats = catalog.document_stats("people-c", "people.xml",
                                       with_values=True)
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
        stats = catalog.document_stats("peer1", "people.xml",
                                       with_values=True)
        ages = stats.value_histogram("age")
        measured = ages.selectivity("<", 40)
        assert 0.30 < measured < 0.55
        assert plan.estimated_s > 0.0

    def test_histograms_appearing_invalidate_nothing(self):
        """A lowering that compares values builds the histograms it
        reads, and one that does not never reads them — so a query is
        priced the same whether or not another query's histograms
        already exist, and their appearing re-lowers nothing."""
        no_values = 'doc("xrpc://A/people.xml")/child::people'
        with_values = ('doc("xrpc://A/people.xml")'
                       "//person[name = 'Ann']")

        def plan_in_order(*queries):
            planner = make_federation().planner
            reports = {query: planner.plan(query, at="local",
                                           strategy="auto")[1]
                       for query in queries}
            assert planner.stats.document_stats(
                "A", "people.xml").values is not None
            for query in queries:
                _plan, replay = planner.plan(query, at="local",
                                             strategy="auto")
                assert replay.from_cache is True
            return reports

        before = plan_in_order(no_values, with_values)
        after = plan_in_order(with_values, no_values)
        for query in (no_values, with_values):
            assert before[query].candidates == after[query].candidates
