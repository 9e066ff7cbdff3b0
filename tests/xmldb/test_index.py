"""The structural index and the memoized serializer.

Covers the tag/kind arrays, the path-summary chain matcher, nodeid
ranks, scan-vs-naive-axis agreement on a handcrafted document, cache
epochs (in-place invalidation), and the store-mutation safety the
acceptance criteria require: after a ``Peer.store`` no stale index,
serialisation, or statistic is ever served.
"""

import pytest

from repro.xmldb.axes import AXES
from repro.xmldb.index import structural_index
from repro.xmldb.node import Node, NodeKind
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.serializer import (
    serialize, serialize_node, serialized_byte_length, subtree_spans,
)

from tests.oracle import xquery_reference_walker as oracle

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

    def test_path_summary_disjoint_and_exhaustive(self, doc):
        index = structural_index(doc)
        seen = []
        for pres in index.path_pres:
            seen.extend(pres)
        assert sorted(seen) == list(index.element_pres)


class TestChainMatching:
    def expected(self, doc, names):
        return [pre for pre in range(len(doc))
                if doc.kinds[pre] == NodeKind.ELEMENT
                and doc.names[pre] in names]

    def test_descendant_chain(self, doc):
        index = structural_index(doc)
        pres = index.match_chain([("descendant", "name")])
        assert list(pres) == self.expected(doc, {"name"})

    def test_child_chain_distinguishes_paths(self, doc):
        index = structural_index(doc)
        # //person/name must not match the item's name.
        pres = index.match_chain([("descendant", "person"),
                                  ("child", "name")])
        names = [Node(doc, pre) for pre in pres]
        assert [n.string_value() for n in names] == ["Ann", "Bob"]

    def test_anchored_child_chain(self, doc):
        index = structural_index(doc)
        pres = index.match_chain([("child", "site"), ("child", "people"),
                                  ("child", "person")])
        assert len(pres) == 2

    def test_star_steps(self, doc):
        index = structural_index(doc)
        everything = index.match_chain([("descendant", "*")])
        assert everything == index.element_pres

    def test_fragment_root_is_anchor_not_match(self):
        frag = parse_fragment("<a><a><b/></a></a>")
        index = structural_index(frag)
        # child::a from the fragment root: only the inner a.
        assert list(index.match_chain([("child", "a")])) == [1]
        # descendant::a likewise excludes the root itself.
        assert list(index.match_chain([("descendant", "a")])) == [1]

    def test_leaf_fragment_matches_nothing(self):
        from repro.xmldb.document import Document
        leaf = Document("leaf", [NodeKind.TEXT], [""], ["hi"], [0], [0], [-1])
        assert list(structural_index(leaf).match_chain([("child", "a")])) == []


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


class TestInvalidation:
    def test_invalidate_caches_bumps_epoch_and_rebuilds(self, doc):
        index = structural_index(doc)
        text = serialize(doc)
        # In-place mutation (not something the code base does, but the
        # contract the caches defend against): rename an element.
        person = index.tag_pres["person"][0]
        doc.names[person] = "ghost"
        doc.invalidate_caches()
        rebuilt = structural_index(doc)
        assert rebuilt is not index
        assert "ghost" in rebuilt.tag_pres
        assert "<ghost" in serialize(doc)
        assert text.startswith("<site>")

    def test_store_mutation_serves_fresh_index_and_stats(self):
        """The acceptance-criteria store-mutation test: store() swaps
        the document object, so index, serialisation and statistics
        all reflect the new content with no explicit invalidation."""
        from repro.planner.stats import StatsCatalog
        from repro.system.federation import Federation

        federation = Federation()
        peer = federation.add_peer("A")
        peer.store("d.xml", "<people><person/><person/></people>")
        federation.add_peer("local")
        catalog = StatsCatalog()
        catalog.attach(federation)

        query = 'count(doc("xrpc://A/d.xml")//person)'
        assert federation.run(query, at="local").items == [2]
        before = catalog.document_stats("A", "d.xml")
        assert before.tag("person").count == 2
        version = catalog.version()

        peer.store("d.xml", "<people><person/></people>")
        assert federation.run(query, at="local").items == [1]
        after = catalog.document_stats("A", "d.xml")
        assert after.tag("person").count == 1
        assert catalog.version() > version
        assert "person" in peer.serialized("d.xml")
