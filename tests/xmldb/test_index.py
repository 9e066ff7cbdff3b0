"""The structural index and the memoized serializer.

Covers the tag/kind arrays (each built on first read, also by two
threads at once), child / descendant chains from a tree root, nodeid
ranks, scan-vs-naive-axis agreement on a handcrafted document, cache
epochs (in-place invalidation, name postings included), and the
store-mutation safety the acceptance criteria require: after a
``Peer.store`` no stale index, serialisation, or statistic is ever
served.
"""

import sys
import threading

import pytest

from repro.xmark import generate_pair
from repro.xmldb.axes import AXES
from repro.xmldb.columns import ColumnSet
from repro.xmldb.document import Document
from repro.xmldb.index import structural_index
from repro.xmldb.node import Node, NodeKind
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import (
    serialize, serialize_node, serialized_byte_length, subtree_spans,
)

from tests.oracle import columns as oracle_columns
from tests.oracle import xquery_reference_walker as oracle
from tests.oracle.index_reference import ReferenceIndex
from tests.xmldb.test_index_differential import PARTS, plain
from tests.xquery.helpers import run

DOC_XML = ('<site><people><person id="p0"><name>Ann</name>'
           '<age>31</age></person><person id="p1"><name>Bob</name>'
           "<watches><watch/></watches></person></people>"
           "<regions><asia><item id=\"i0\"><name>thing</name></item>"
           "</asia></regions><!--note--></site>")


@pytest.fixture
def doc():
    return parse_document(DOC_XML, uri="index.xml")


class TestIndexStructures:
    def test_tag_index_sorted_and_complete(self, doc):
        index = structural_index(doc)
        for name, pres in index.tag_pres.items():
            assert list(pres) == sorted(pres)
            for pre in pres:
                assert doc.kinds[pre] == NodeKind.ELEMENT
                assert doc.names[pre] == name
        total = sum(len(pres) for pres in index.tag_pres.values())
        assert total == len(index.element_pres)

    def test_index_is_cached_on_document(self, doc):
        assert structural_index(doc) is structural_index(doc)

    def test_kind_arrays_partition_non_attributes(self, doc):
        index = structural_index(doc)
        kinds = {pre: doc.kinds[pre] for pre in range(len(doc))}
        assert list(index.text_pres) == [
            p for p, k in kinds.items() if k == NodeKind.TEXT]
        assert list(index.comment_pres) == [
            p for p, k in kinds.items() if k == NodeKind.COMMENT]
        assert list(index.non_attr_pres) == [
            p for p, k in kinds.items() if k != NodeKind.ATTRIBUTE]

    def test_nodeid_matches_enumeration(self, doc):
        index = structural_index(doc)
        root = 1  # the site element
        expected = 0
        for pre in range(root, len(doc)):
            if doc.kinds[pre] == NodeKind.ATTRIBUTE:
                continue
            expected += 1
            assert index.nodeid(root, pre) == expected

    def test_two_threads_reading_every_part_of_a_fresh_document(self):
        """Peers share documents across the engine's workers: a first
        read that races another must still see whole parts — with the
        scanner's postings (even rounds) and through the fallback pass
        (odd rounds: the same columns, no postings)."""
        people, _auctions = generate_pair(0.005)
        text = serialize(people)
        expected = ReferenceIndex(people)
        seen: list[tuple[dict, dict]] = []
        gate = threading.Barrier(2)

        def entries(part) -> int:
            if isinstance(part, dict):
                return sum(map(len, part.values()))
            return len(part)

        def read(doc, order):
            gate.wait(timeout=30)
            index = structural_index(doc)
            reading = {}
            size = {}
            for part in order:
                reading[part] = getattr(index, part)
                size[part] = entries(reading[part])  # whole when handed out
            seen.append((reading, size))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_ in range(20):
                fresh = (Document("bare.xml", ColumnSet(
                             *oracle_columns(people)))
                         if round_ % 2 else parse_document(text))
                threads = [threading.Thread(target=read, args=(fresh, order))
                           for order in (PARTS, PARTS[1::-1] + PARTS[:1:-1])]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 40
        for reading, size in seen:
            assert size == {part: entries(getattr(expected, part))
                            for part in PARTS}
            for part, got in reading.items():
                assert plain(got) == getattr(expected, part), part


class TestChainMatching:
    """A ``child`` / ``descendant`` chain from a tree root runs through
    ``axis_scan`` like every other step (query-level cases, held to the
    expectations the path summary's chain matcher was)."""

    def pres(self, doc, query):
        return [node.pre for node in run(query, {"index.xml": doc})]

    def expected(self, doc, names):
        return [pre for pre in range(len(doc))
                if doc.kinds[pre] == NodeKind.ELEMENT
                and doc.names[pre] in names]

    def test_root_paths_disjoint_and_exhaustive(self, doc):
        """Each distinct root-to-element tag path, run as a child chain
        from the document node, reaches its own elements and no others:
        together the paths reach every element exactly once."""
        paths: dict[str, list[int]] = {}
        for pre in structural_index(doc).element_pres:
            above = sorted(node.pre for node in oracle.axis_step(
                Node(doc, pre), "ancestor-or-self", "*"))
            paths.setdefault("/".join(f"child::{doc.names[step]}"
                                      for step in above), []).append(pre)
        assert len(paths) == 11
        for path, pres in paths.items():
            assert self.pres(doc, f'doc("index.xml")/{path}') == pres

    def test_descendant_chain(self, doc):
        assert self.pres(doc, 'doc("index.xml")/descendant::name') \
            == self.expected(doc, {"name"})

    def test_child_chain_distinguishes_paths(self, doc):
        # //person/name must not match the item's name.
        names = run('doc("index.xml")//person/name', {"index.xml": doc})
        assert [n.string_value() for n in names] == ["Ann", "Bob"]

    def test_anchored_child_chain(self, doc):
        assert len(self.pres(doc, 'doc("index.xml")/child::site'
                             "/child::people/child::person")) == 2

    def test_star_steps(self, doc):
        assert self.pres(doc, 'doc("index.xml")/descendant::*') \
            == list(structural_index(doc).element_pres)

    def test_fragment_root_is_anchor_not_match(self):
        # child::a from the fragment root: only the inner a.
        inner = run("(<a><a><b/></a></a>)/child::a")
        assert [node.pre for node in inner] == [1]
        # descendant::a likewise excludes the root itself.
        below = run("(<a><a><b/></a></a>)/descendant::a")
        assert [node.pre for node in below] == [1]

    def test_leaf_fragment_matches_nothing(self):
        assert run('(text {"hi"})/child::a') == []
        leaf = Document("leaf", ColumnSet([NodeKind.TEXT], [""], ["hi"],
                                          [0], [0], [-1]))
        assert list(structural_index(leaf).axis_scan(
            "child", "a", [0])) == []


class TestAxisScansAgainstNaive:
    @pytest.mark.parametrize("axis", sorted(AXES))
    @pytest.mark.parametrize("test", ["node()", "*", "name", "id",
                                      "text()", "comment()"])
    def test_scan_equals_axis_walk(self, doc, axis, test):
        index = structural_index(doc)
        for pre in range(len(doc)):
            naive = [n.pre for n in
                     oracle.axis_step(Node(doc, pre), axis, test)]
            assert list(index.axis_scan(axis, test, [pre])) == sorted(naive)

    def test_set_at_a_time_merges_nested_contexts(self, doc):
        index = structural_index(doc)
        context = index.tag_pres["site"] + index.tag_pres["person"]
        result = index.axis_scan("descendant", "name", sorted(context))
        assert list(result) == sorted(set(result))
        naive = set()
        for pre in context:
            naive.update(n.pre for n in
                         oracle.axis_step(Node(doc, pre), "descendant",
                                          "name"))
        assert list(result) == sorted(naive)


class TestSerializerMemoization:
    def test_full_serialization_is_memoized(self, doc):
        first = serialize(doc)
        assert serialize(doc) is first
        assert serialized_byte_length(doc) == len(first.encode())

    def test_subtree_slices_equal_walks(self, doc):
        fresh = parse_document(DOC_XML, uri="fresh.xml")
        walked = [serialize_node(Node(fresh, pre))
                  for pre in range(len(fresh))]
        serialize(doc)  # builds the span table
        for pre in range(len(doc)):
            assert serialize_node(Node(doc, pre)) == walked[pre]

    def test_subtree_memo_before_full(self, doc):
        person = structural_index(doc).tag_pres["person"][0]
        text = serialize_node(Node(doc, person))
        assert serialize_node(Node(doc, person)) is text
        assert "<name>Ann</name>" in text

    def test_spans_report_exact_subtree_lengths(self, doc):
        full = serialize(doc)
        starts, ends = subtree_spans(doc)
        assert ends[0] - starts[0] == len(full)
        for pre in range(len(doc)):
            assert ends[pre] - starts[pre] == len(serialize_node(
                Node(doc, pre)))

    def test_escaping_roundtrip_through_slices(self):
        doc = parse_document('<a b="x&amp;&quot;y"><t>1 &lt; 2 &amp; 3</t>'
                             "</a>", uri="esc.xml")
        serialize(doc)
        for pre in range(len(doc)):
            reference = parse_document(
                '<a b="x&amp;&quot;y"><t>1 &lt; 2 &amp; 3</t></a>')
            assert serialize_node(Node(doc, pre)) == serialize_node(
                Node(reference, pre))


def test_store_swap_serves_fresh_index_and_stats():
    """store() swaps the document object, so index, serialisation and
    statistics all reflect the new content with no explicit
    invalidation."""
    from repro.planner.stats import StatsCatalog
    from repro.system.federation import Federation

    federation = Federation()
    peer = federation.add_peer("A")
    peer.store("d.xml", "<people><person/><person/></people>")
    federation.add_peer("local")
    catalog = StatsCatalog(federation)

    query = 'count(doc("xrpc://A/d.xml")//person)'
    assert federation.run(query, at="local").items == [2]
    before = catalog.document_stats("A", "d.xml")
    assert before.tag("person").count == 2
    generation = federation.generation()

    peer.store("d.xml", "<people><person/></people>")
    assert federation.run(query, at="local").items == [1]
    after = catalog.document_stats("A", "d.xml")
    assert after.tag("person").count == 1
    assert federation.generation() > generation
    assert "person" in peer.serialized("d.xml")
