"""The columnar core: kernels and typed columns.

Four layers:

* kernel properties — every batch kernel against its brute-force
  one-liner on random sorted columns;
* ColumnSet — lists are coerced to typed arrays once, the builder
  accumulates typed arrays, names are interned;
* the one physical form — serialize → parse gives back every column,
  byte-identically, at any size, and a copied subtree is a column
  slice of its source;
* columnar vs. naive equivalence — on random trees, axis scans (all
  twelve axes) agree with the oracle's per-node walk.
"""

import random
from array import array

from hypothesis import given, settings, strategies as st

from repro.xmark.generator import XMarkConfig, generate_people
from repro.xmldb import axes, kernels
from repro.xmldb.axes import AXES
from repro.xmldb.document import Document, DocumentBuilder
from repro.xmldb.index import structural_index
from repro.xmldb.kernels import PRE_TYPECODE, pre_array
from repro.xmldb.node import Node, NodeKind
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.serializer import serialize_node
from repro.xmldb.values import value_index
from repro.xquery.ast import Step
from repro.xquery.context import DynamicContext

from tests.conftest import fuzz_settings
from tests.oracle import COLUMNS, columns
from tests.oracle.xquery_reference_walker import ReferenceEvaluator
from tests.oracle.xrpc_decoder import build_fragment_from_node
from tests.xmldb.test_parser_differential import documents, fragments
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


@given(column=_sorted_columns, low=st.integers(-5, 65),
       high=st.integers(-5, 65))
def test_range_scan_matches_filter(column, low, high):
    scanned = kernels.range_scan(column, low, high)
    assert isinstance(scanned, array)
    assert list(scanned) == [p for p in column if low < p <= high]


@given(values=st.lists(st.integers(0, 40), max_size=20))
def test_sorted_array_and_as_pre_array_are_typed(values):
    ordered = kernels.sorted_array(values)
    assert ordered.typecode == PRE_TYPECODE
    assert list(ordered) == sorted(values)
    kept = kernels.as_pre_array(values)
    assert kept.typecode == PRE_TYPECODE and list(kept) == values
    assert kernels.as_pre_array(ordered) is ordered


@given(doc=xml_trees(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_gather_matches_positional_reads(doc, data):
    pres = data.draw(st.lists(st.integers(0, len(doc) - 1), max_size=10))
    for name in COLUMNS:
        column = getattr(doc, name)
        assert kernels.gather(column, pres) == [column[p] for p in pres]


@given(doc=xml_trees(), data=st.data(), or_self=st.booleans())
@settings(max_examples=60, deadline=None)
def test_ancestors_of_matches_parent_walk(doc, data, or_self):
    contexts = data.draw(st.lists(st.integers(0, len(doc) - 1),
                                  max_size=6))
    expected = set()
    for context in contexts:
        cursor = context if or_self else doc.parents[context]
        while cursor >= 0:
            expected.add(cursor)
            cursor = doc.parents[cursor]
    got = kernels.ancestors_of(contexts, doc.parents, or_self)
    assert list(got) == sorted(expected)


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


def test_kernels_equal_per_node_scans_on_an_xmark_document():
    doc = generate_people(XMarkConfig(scale=0.2))
    tags, sizes, kinds = structural_index(doc).tag_pres, doc.sizes, doc.kinds
    contexts = kernels.merge_sorted([tags["regions"], tags["people"]])
    swept = kernels.subtree_sweep(tags["name"], contexts, sizes)
    assert list(swept) == [
        pre for context in contexts
        for pre in range(context + 1, context + sizes[context] + 1)
        if kinds[pre] == NodeKind.ELEMENT and doc.names[pre] == "name"]
    ages = kernels.children_of(tags["age"], tags["person"], sizes,
                               doc.parents)
    assert list(ages) == [child.pre for pre in tags["person"]
                          for child in axes.child(Node(doc, pre))
                          if child.name == "age"]
    young = value_index(doc).probe("age", "<", 40.0)
    assert list(young) == [pre for pre in ages
                           if float(doc.values[pre + 1]) < 40.0]
    columns = [tags[tag] for tag in ("person", "item", "category", "name",
                                     "text", "age")]
    merged = kernels.merge_sorted(columns)
    assert list(merged) == sorted({pre for column in columns
                                   for pre in column})
    assert [len(swept), len(ages), len(young), len(merged)] \
        == [998, 500, 217, 3054]


# ---------------------------------------------------------------------------
# ColumnSet
# ---------------------------------------------------------------------------


def test_columnset_coerces_lists_to_typed_arrays():
    doc = parse_document("<a><b x='1'>t</b></a>", uri="c.xml")
    assert isinstance(doc.columns.kinds, array)
    assert doc.columns.kinds.typecode == "B"
    assert isinstance(doc.columns.sizes, array)
    assert doc.columns.sizes.typecode == "i"
    assert doc.count == len(doc.columns) == len(doc.kinds)


@given(doc=xml_trees())
@settings(max_examples=40, deadline=None)
def test_builder_accumulates_typed_arrays(doc):
    assert doc.columns.kinds.typecode == "B"
    for name in ("sizes", "levels", "parents"):
        assert getattr(doc.columns, name).typecode == PRE_TYPECODE, name
    assert isinstance(doc.names, list) and isinstance(doc.values, list)
    wrapped = Document("again.xml", doc.columns)
    for name in COLUMNS:
        assert getattr(wrapped, name) is getattr(doc, name), name


@given(text=documents())
@settings(max_examples=40, deadline=None)
def test_parsed_and_built_names_share_interned_strings(text):
    parsed = parse_document(text)
    builder = DocumentBuilder("copy.xml")
    builder.start_document()
    for child in axes.child(parsed.root):
        builder.copy_subtree(child)
    builder.end_document()
    built = builder.finish()
    for doc in (parsed, built):
        by_value = {}
        for name in doc.names:
            assert by_value.setdefault(name, name) is name
    for left, right in zip(parsed.names, built.names):
        assert left is right


# ---------------------------------------------------------------------------
# One physical form: serialize → parse, subtree copies
# ---------------------------------------------------------------------------


@given(text=documents())
@settings(max_examples=40, deadline=None)
def test_reparse_preserves_every_column(text):
    doc = parse_document(text, uri="r.xml")
    reparsed = parse_document(serialize_node(doc.root), uri="r.xml")
    assert columns(reparsed) == columns(doc)


@given(text=fragments())
@settings(max_examples=40, deadline=None)
def test_serialize_parse_serialize_is_byte_identical(text):
    first = serialize_node(parse_fragment(text).root)
    second = serialize_node(parse_fragment(first).root)
    assert first == second


def test_large_built_document_survives_reparse():
    rng = random.Random(7)
    builder = DocumentBuilder("large.xml")
    builder.start_document()
    builder.start_element("root")
    for index in range(4000):
        builder.start_element(rng.choice(["item", "entry", "row"]))
        builder.attribute("id", str(index))
        builder.text(f"value-{index}")
        builder.end_element()
    builder.end_element()
    builder.end_document()
    doc = builder.finish()
    assert doc.count == 2 + 3 * 4000
    reparsed = parse_document(serialize_node(doc.root), uri="large.xml")
    assert columns(reparsed) == columns(doc)
    for pre in (rng.randrange(doc.count) for _ in range(200)):
        assert Node(reparsed, pre).string_value() == \
            Node(doc, pre).string_value()


@given(text=documents(), pick=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_copied_subtree_is_a_column_slice(text, pick):
    doc = parse_document(text)
    elements = [pre for pre in range(doc.count)
                if doc.kinds[pre] == NodeKind.ELEMENT]
    start = elements[pick % len(elements)]
    stop = start + doc.sizes[start] + 1
    copy = build_fragment_from_node("copy.xml", Node(doc, start))
    for name in ("kinds", "names", "values", "sizes"):
        assert list(getattr(copy, name)) == \
            list(getattr(doc, name)[start:stop]), name
    base = doc.levels[start]
    assert list(copy.levels) == [lv - base
                                 for lv in doc.levels[start:stop]]
    assert list(copy.parents) == [-1] + [p - start for p in
                                         doc.parents[start + 1:stop]]


# ---------------------------------------------------------------------------
# Columnar vs. naive walker
# ---------------------------------------------------------------------------

@given(doc=xml_trees(), data=st.data())
@fuzz_settings(100)
def test_axis_scans_equal_naive(doc, data):
    axis = data.draw(st.sampled_from(sorted(AXES)))
    test = data.draw(st.sampled_from(TESTS))
    context_pres = sorted(data.draw(
        st.sets(st.integers(0, len(doc) - 1), max_size=6)))
    env = DynamicContext()
    step = Step(axis, test)
    naive = ReferenceEvaluator()._apply_step(
        step, [Node(doc, p) for p in context_pres], env)
    expected = [n.pre for n in naive]
    scanned = structural_index(doc).axis_scan(axis, test, context_pres)
    assert list(scanned) == expected
