"""Unit tests for the pre/size/level store and its builder."""

import pytest

from repro.errors import XmlError
from repro.xmldb.columns import ColumnSet
from repro.xmldb.document import Document, DocumentBuilder
from repro.xmldb.node import Node, NodeKind
from repro.xmldb.parser import parse_document
from tests.oracle.xrpc_decoder import build_fragment_from_node


def build_simple():
    builder = DocumentBuilder("t.xml")
    builder.start_document()
    builder.start_element("a")
    builder.attribute("x", "1")
    builder.start_element("b")
    builder.text("hello")
    builder.end_element()
    builder.start_element("c")
    builder.end_element()
    builder.end_element()
    builder.end_document()
    return builder.finish()


class TestBuilder:
    def test_sizes_are_descendant_counts(self):
        doc = build_simple()
        # doc node spans everything below it
        assert doc.sizes[0] == len(doc) - 1
        a = doc.node(1)
        assert a.name == "a"
        assert a.size == len(doc) - 2  # everything except doc node + a

    def test_levels(self):
        doc = build_simple()
        assert doc.levels[0] == 0
        assert doc.node(1).level == 1      # a
        assert doc.node(2).level == 2      # @x
        assert doc.node(3).level == 2      # b

    def test_parents(self):
        doc = build_simple()
        assert doc.node(1).parent().kind == NodeKind.DOCUMENT
        assert doc.node(2).parent().name == "a"
        assert doc.root.parent() is None

    def test_attribute_after_content_rejected(self):
        builder = DocumentBuilder()
        builder.start_element("a")
        builder.text("x")
        with pytest.raises(XmlError):
            builder.attribute("late", "1")

    def test_attribute_outside_element_rejected(self):
        builder = DocumentBuilder()
        with pytest.raises(XmlError):
            builder.attribute("x", "1")

    def test_unbalanced_rejected(self):
        builder = DocumentBuilder()
        builder.start_element("a")
        with pytest.raises(XmlError):
            builder.finish()

    def test_double_finish_rejected(self):
        builder = DocumentBuilder()
        builder.start_element("a")
        builder.end_element()
        builder.finish()
        with pytest.raises(XmlError):
            builder.finish()

    def test_adjacent_text_merged(self):
        builder = DocumentBuilder()
        builder.start_element("a")
        builder.text("one")
        builder.text(" two")
        builder.end_element()
        doc = builder.finish()
        texts = [doc.values[p] for p in range(len(doc))
                 if doc.kinds[p] == NodeKind.TEXT]
        assert texts == ["one two"]

    def test_empty_text_skipped(self):
        builder = DocumentBuilder()
        builder.start_element("a")
        builder.text("")
        builder.end_element()
        assert len(builder.finish()) == 1

    def test_fragment_has_no_document_node(self):
        builder = DocumentBuilder()
        builder.start_element("a")
        builder.end_element()
        doc = builder.finish()
        assert doc.is_fragment
        assert doc.root.kind == NodeKind.ELEMENT

    def test_trees_built_one_after_another_are_cut_apart(self):
        builder = DocumentBuilder()
        source = build_simple()
        for name in ("r", "s"):
            builder.start_element(name)
            builder.attribute("n", name)
            builder.copy_subtree(source.node(3))  # <b>hello</b>
            builder.text("t")
            builder.end_element()
        builder.start_document()
        builder.text("u")
        builder.end_document()
        trees = builder.finish_trees()
        assert [list(tree.parents) for tree in trees] == [
            [-1, 0, 0, 2, 0], [-1, 0, 0, 2, 0], [-1, 0]]
        assert [list(tree.levels) for tree in trees] == [
            [0, 1, 1, 2, 1], [0, 1, 1, 2, 1], [0, 1]]
        assert [list(tree.sizes) for tree in trees] == [
            [4, 0, 1, 0, 0], [4, 0, 1, 0, 0], [1, 0]]
        assert [tree.names[0] for tree in trees] == ["r", "s", ""]

    def test_finish_wants_exactly_one_tree(self):
        builder = DocumentBuilder()
        for _ in range(2):
            builder.start_element("a")
            builder.end_element()
        with pytest.raises(XmlError):
            builder.finish()
        with pytest.raises(XmlError):
            DocumentBuilder().finish()


class TestCopySubtree:
    def test_copy_creates_fresh_identity(self):
        source = build_simple()
        b = next(n for n in source.nodes() if n.name == "b")
        builder = DocumentBuilder("copy")
        builder.copy_subtree(b)
        copy_doc = builder.finish()
        assert copy_doc.root.name == "b"
        assert copy_doc.root != b  # identity differs
        assert copy_doc.root.string_value() == b.string_value()

    def test_copy_preserves_structure(self):
        source = build_simple()
        a = source.node(1)
        builder = DocumentBuilder("copy")
        builder.copy_subtree(a)
        copy_doc = builder.finish()
        assert copy_doc.sizes[0] == a.size
        assert copy_doc.names[0] == "a"
        # Attribute came along.
        assert copy_doc.kinds[1] == NodeKind.ATTRIBUTE
        assert copy_doc.values[1] == "1"

    def test_copy_levels_rebased(self):
        source = build_simple()
        b = next(n for n in source.nodes() if n.name == "b")
        builder = DocumentBuilder("copy")
        builder.start_element("wrap")
        builder.copy_subtree(b)
        builder.end_element()
        doc = builder.finish()
        assert doc.levels[0] == 0   # wrap
        assert doc.levels[1] == 1   # b
        assert doc.levels[2] == 2   # text


class TestIdIndex:
    def test_element_by_id(self):
        doc = parse_document('<r><p id="p1"/><p id="p2"/></r>')
        assert doc.element_by_id("p1").name == "p"
        assert doc.element_by_id("missing") is None

    def test_idref_heuristic(self):
        doc = parse_document(
            '<r><a person="p1"/><p id="p1"/><b ref="p1"/></r>')
        owners = {n.name for n in doc.elements_by_idref("p1")}
        assert owners == {"a", "b"}


class TestFragmentFromNode:
    def test_element_becomes_root_of_a_fresh_document(self):
        doc = parse_document("<r><a><b/></a></r>")
        a = next(n for n in doc.nodes() if n.name == "a")
        frag = build_fragment_from_node("f", a)
        assert frag.is_fragment and frag.uri == "f"
        assert frag.root.name == "a" and frag.root.parent() is None
        assert list(frag.levels) == [0, 1] and list(frag.parents) == [-1, 0]
        assert frag is not doc and frag.doc_seq > doc.doc_seq


class TestNodeHandle:
    """A handle is two slots: no ``__dict__``, identity by document
    and pre, order by ``(doc_seq, pre)``."""

    def test_two_slots_and_no_dict(self):
        node = build_simple().node(1)
        assert Node.__slots__ == ("doc", "pre")
        assert not hasattr(node, "__dict__")
        with pytest.raises(AttributeError):
            node.other = 1

    def test_equal_handles_compare_and_hash_equal(self):
        doc = build_simple()
        assert Node(doc, 2) == doc.node(2) and Node(doc, 2) != Node(doc, 3)
        assert hash(Node(doc, 2)) == hash(doc.node(2))
        assert len({Node(doc, 2), doc.node(2), Node(doc, 3)}) == 2

    def test_same_pre_in_two_documents_differs(self):
        first, second = build_simple(), build_simple()
        assert Node(first, 1) != Node(second, 1)
        assert Node(first, 1) != "not a node"

    def test_order_is_doc_seq_then_pre(self):
        first, second = build_simple(), build_simple()
        assert Node(first, 3) < Node(first, 4) < Node(second, 0)
        assert not Node(second, 0) < Node(first, 4)
        assert Node(first, 3).order_key() == (first.doc_seq, 3)
        assert sorted([Node(second, 1), Node(first, 2), Node(first, 1)]) \
            == [Node(first, 1), Node(first, 2), Node(second, 1)]


class TestDocument:
    def test_empty_rejected(self):
        with pytest.raises(XmlError):
            Document("u", ColumnSet([], [], [], [], [], []))

    def test_node_range_checked(self):
        doc = build_simple()
        with pytest.raises(XmlError):
            doc.node(999)

    def test_doc_seq_monotonic(self):
        first = build_simple()
        second = build_simple()
        assert second.doc_seq > first.doc_seq
