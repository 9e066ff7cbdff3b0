"""The columnar core: kernels, spill format, buffer pool.

Four layers:

* kernel properties — every batch kernel against its brute-force
  one-liner on random sorted columns;
* columnar vs. naive equivalence — on random trees, axis scans (all
  twelve axes) over an in-memory document and over the same document
  spilled and reopened through a tiny buffer pool all agree with the
  oracle's per-node walk;
* spill format — freeze → open → freeze round-trips byte-identically,
  sizing figures match the in-memory ColumnSet exactly, and eviction
  under a pathologically small budget never changes an answer;
* federation — the Section VII benchmark over a spilled XMark corpus
  gives deep-equal results under all four strategies plus ``auto``.
"""

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.decompose import Strategy
from repro.workloads import (BENCHMARK_QUERY, build_federation,
                             build_spilled_federation)
from repro.xmldb import kernels
from repro.xmldb.columns import ColumnSet, NameTable
from repro.xmldb.document import Document, DocumentBuilder
from repro.xmldb.axes import AXES
from repro.xmldb.index import structural_index
from repro.xmldb.kernels import pre_array
from repro.xmldb.node import Node
from repro.xmldb.parser import parse_document
from repro.xmldb.pool import (BufferPool, ColumnStore, POOL_PAGE_ITEMS,
                              freeze_to, open_document)
from repro.xmldb.serializer import serialize_node
from repro.xquery.ast import Step
from repro.xquery.context import DynamicContext
from repro.xquery.xdm import sequences_deep_equal

from tests.conftest import fuzz_settings
from tests.oracle.xquery_reference_walker import ReferenceEvaluator
from tests.xquery.test_indexed_equivalence import TESTS, xml_trees

# ---------------------------------------------------------------------------
# Kernels vs. brute force
# ---------------------------------------------------------------------------

_sorted_columns = st.lists(st.integers(0, 60), max_size=25).map(
    lambda xs: pre_array(sorted(set(xs))))


@given(column=_sorted_columns, low=st.integers(-5, 65),
       high=st.integers(-5, 65))
def test_interval_bounds_matches_filter(column, low, high):
    lo, hi = kernels.interval_bounds(column, low, high)
    assert list(column[lo:hi]) == [p for p in column if low < p <= high]


@given(column=_sorted_columns, low=st.integers(-5, 65),
       high=st.integers(-5, 65))
def test_any_in_interval_matches_filter(column, low, high):
    expected = any(low < p <= high for p in column)
    assert kernels.any_in_interval(column, low, high) == expected


@given(columns=st.lists(_sorted_columns, max_size=5))
def test_merge_sorted_is_sorted_union(columns):
    merged = kernels.merge_sorted(columns)
    assert list(merged) == sorted({p for col in columns for p in col})


@given(left=_sorted_columns, right=_sorted_columns)
def test_set_kernels_match_set_algebra(left, right):
    ls, rs = set(left), set(right)
    assert list(kernels.union_sorted(left, right)) == sorted(ls | rs)
    assert list(kernels.intersect_sorted(left, right)) == sorted(ls & rs)
    assert list(kernels.difference_sorted(left, right)) == sorted(ls - rs)


@given(values=st.lists(st.integers(0, 9), max_size=20),
       probe=st.integers(-1, 10))
def test_equal_bounds_matches_count(values, probe):
    ordered = sorted(values)
    lo, hi = kernels.equal_bounds(ordered, probe)
    assert hi - lo == values.count(probe)
    assert all(v == probe for v in ordered[lo:hi])


@given(doc=xml_trees(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_subtree_sweep_matches_interval_filter(doc, data):
    sizes = doc.sizes
    candidates = pre_array(sorted(data.draw(
        st.sets(st.integers(0, len(doc) - 1), max_size=10))))
    contexts = pre_array(sorted(data.draw(
        st.sets(st.integers(0, len(doc) - 1), max_size=6))))
    swept = kernels.subtree_sweep(candidates, contexts, sizes)
    expected = sorted({p for p in candidates for c in contexts
                       if c < p <= c + sizes[c]})
    assert list(swept) == expected


@given(doc=xml_trees(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_children_of_matches_parent_filter(doc, data):
    candidates = pre_array(sorted(data.draw(
        st.sets(st.integers(0, len(doc) - 1), max_size=10))))
    contexts = pre_array(sorted(data.draw(
        st.sets(st.integers(0, len(doc) - 1), max_size=6))))
    got = kernels.children_of(candidates, contexts, doc.sizes, doc.parents)
    wanted = set(contexts)
    expected = [p for p in candidates if doc.parents[p] in wanted]
    assert list(got) == expected


# ---------------------------------------------------------------------------
# ColumnSet / NameTable
# ---------------------------------------------------------------------------


def test_columnset_coerces_lists_to_typed_arrays():
    doc = parse_document("<a><b x='1'>t</b></a>", uri="c.xml")
    assert isinstance(doc.columns.kinds, array)
    assert doc.columns.kinds.typecode == "B"
    assert isinstance(doc.columns.sizes, array)
    assert doc.columns.sizes.typecode == "i"
    assert doc.count == len(doc.columns) == len(doc.kinds)


def test_nametable_assigns_dense_first_occurrence_ids():
    table = NameTable(["b", "a", "b", "", "c"])
    assert table.names == ["", "b", "a", "c"]
    assert table.id_of("a") == 2
    assert table.value(3) == "c"
    assert len(table) == 4


def test_column_byte_sizes_are_exact():
    doc = parse_document("<r><k>héllo</k><k a='v'/></r>", uri="s.xml")
    sizes = doc.column_byte_sizes()
    count = doc.count
    assert sizes["kinds"] == count
    assert sizes["sizes"] == sizes["levels"] == sizes["parents"] == count * 4
    blob = sum(len(v.encode()) for v in doc.values)
    assert sizes["values"] == (count + 1) * 8 + blob
    distinct = set(doc.names) | {""}
    assert sizes["names"] == count * 4 + sum(len(n.encode())
                                             for n in distinct)
    assert doc.column_bytes() == sum(sizes.values())


# ---------------------------------------------------------------------------
# Spill round trip
# ---------------------------------------------------------------------------


@given(doc=xml_trees())
@settings(max_examples=25, deadline=None)
def test_spill_reopen_preserves_every_column(doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("spill") / "doc.xcol"
    freeze_to(doc, path)
    with ColumnStore.open(path) as store:
        reopened = store.document
        assert reopened.uri == doc.uri
        assert reopened.count == doc.count
        for name in ("kinds", "names", "values", "sizes", "levels",
                     "parents"):
            assert list(getattr(reopened, name)) == \
                list(getattr(doc, name)), name
        assert serialize_node(reopened.root) == serialize_node(doc.root)


@given(doc=xml_trees())
@settings(max_examples=25, deadline=None)
def test_freeze_open_freeze_is_byte_identical(doc, tmp_path_factory):
    base = tmp_path_factory.mktemp("spill")
    first = base / "first.xcol"
    second = base / "second.xcol"
    freeze_to(doc, first)
    with ColumnStore.open(first) as store:
        freeze_to(store.document, second)
    assert first.read_bytes() == second.read_bytes()


def test_reopened_sizing_matches_in_memory(tmp_path):
    doc = parse_document("<a><b x='1'>txt</b><b/></a>", uri="z.xml")
    path = tmp_path / "doc.xcol"
    freeze_to(doc, path)
    with ColumnStore.open(path) as store:
        assert dict(store.document.column_byte_sizes()) == \
            dict(doc.column_byte_sizes())
        assert store.document.column_bytes() == doc.column_bytes()


def test_open_rejects_non_spill_file(tmp_path):
    path = tmp_path / "junk.xcol"
    path.write_bytes(b"definitely not a spill file" + b"\x00" * 4096)
    from repro.errors import XmlError
    with pytest.raises(XmlError):
        ColumnStore.open(path)


# ---------------------------------------------------------------------------
# Buffer pool
# ---------------------------------------------------------------------------


def _large_doc(nodes: int = 3 * POOL_PAGE_ITEMS) -> Document:
    rng = random.Random(7)
    builder = DocumentBuilder("large.xml")
    builder.start_document()
    builder.start_element("root")
    appended = 2
    while appended < nodes:
        builder.start_element(rng.choice(["item", "entry", "row"]))
        builder.attribute("id", str(appended))
        builder.text(f"value-{appended}")
        builder.end_element()
        appended += 3
    builder.end_element()
    builder.end_document()
    return builder.finish()


def test_eviction_under_tiny_budget_is_still_correct(tmp_path):
    doc = _large_doc()
    path = tmp_path / "large.xcol"
    freeze_to(doc, path)
    # A budget far below one column's footprint: every page fault
    # evicts another page, yet answers must not change.
    with ColumnStore.open(path, budget_bytes=4096) as store:
        reopened = store.document
        rng = random.Random(13)
        probes = [rng.randrange(doc.count) for _ in range(200)]
        for pre in probes:
            assert reopened.kinds[pre] == doc.kinds[pre]
            assert reopened.names[pre] == doc.names[pre]
            assert reopened.values[pre] == doc.values[pre]
            assert reopened.parents[pre] == doc.parents[pre]
        stats = store.pool.stats()
        assert stats["evictions"] > 0
        assert stats["cached_bytes"] <= 4096


def test_pool_caps_cached_bytes_and_counts_hits(tmp_path):
    doc = _large_doc()
    path = tmp_path / "large.xcol"
    freeze_to(doc, path)
    budget = 64 * 1024
    with ColumnStore.open(path, budget_bytes=budget) as store:
        reopened = store.document
        for _ in range(3):
            assert sum(1 for k in reopened.kinds if k == 1) == \
                sum(1 for k in doc.kinds if k == 1)
        stats = store.pool.stats()
        assert stats["cached_bytes"] <= budget
        assert stats["hits"] > 0 and stats["misses"] > 0


def test_shared_pool_across_stores_keeps_keys_distinct(tmp_path):
    first = parse_document("<a><b>one</b></a>", uri="one.xml")
    second = parse_document("<c><d>two</d></c>", uri="two.xml")
    freeze_to(first, tmp_path / "one.xcol")
    freeze_to(second, tmp_path / "two.xcol")
    pool = BufferPool(budget_bytes=1 << 20)
    with ColumnStore.open(tmp_path / "one.xcol", pool=pool) as s1, \
            ColumnStore.open(tmp_path / "two.xcol", pool=pool) as s2:
        assert list(s1.document.names) == list(first.names)
        assert list(s2.document.names) == list(second.names)
        assert s1.pool is s2.pool is pool


# ---------------------------------------------------------------------------
# Columnar vs. naive walker, in memory and spilled
# ---------------------------------------------------------------------------

@given(doc=xml_trees(), data=st.data())
@fuzz_settings(100)
def test_spilled_axis_scans_equal_in_memory_and_naive(
        doc, data, tmp_path_factory):
    path = tmp_path_factory.mktemp("equiv") / "doc.xcol"
    freeze_to(doc, path)
    axis = data.draw(st.sampled_from(sorted(AXES)))
    test = data.draw(st.sampled_from(TESTS))
    context_pres = sorted(data.draw(
        st.sets(st.integers(0, len(doc) - 1), max_size=6)))
    env = DynamicContext()
    step = Step(axis, test)
    naive = ReferenceEvaluator()._apply_step(
        step, [Node(doc, p) for p in context_pres], env)
    expected = [n.pre for n in naive]
    in_memory = structural_index(doc).axis_scan(axis, test, context_pres)
    assert list(in_memory) == expected
    with ColumnStore.open(path, budget_bytes=8192) as store:
        spilled = structural_index(store.document).axis_scan(
            axis, test, context_pres)
        assert list(spilled) == expected


# ---------------------------------------------------------------------------
# Federated end-to-end over a spilled corpus
# ---------------------------------------------------------------------------


def test_benchmark_over_spilled_corpus_all_strategies(tmp_path):
    baseline = build_federation(0.005).run(
        BENCHMARK_QUERY, at="local", strategy=Strategy.DATA_SHIPPING)
    spilled = build_spilled_federation(0.005, tmp_path,
                                       budget_bytes=256 * 1024)
    for strategy in list(Strategy) + ["auto"]:
        result = spilled.run(BENCHMARK_QUERY, at="local", strategy=strategy)
        assert sequences_deep_equal(result.items, baseline.items), strategy
    people = spilled.peer("peer1").documents["people.xml"]
    stats = people.columns.store.pool.stats()
    assert stats["misses"] > 0
    assert stats["cached_bytes"] <= 256 * 1024 or stats["evictions"] > 0


def test_spilled_pair_matches_generated_pair(tmp_path):
    from repro.xmark import generate_pair, spill_pair

    people_path, auctions_path = spill_pair(0.004, tmp_path, seed=11)
    people, auctions = generate_pair(0.004, seed=11)
    for path, doc in ((people_path, people), (auctions_path, auctions)):
        reopened = open_document(path)
        try:
            assert serialize_node(reopened.root) == serialize_node(doc.root)
        finally:
            reopened.columns.store.close()
