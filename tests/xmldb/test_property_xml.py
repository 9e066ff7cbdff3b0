"""Property-based tests on the XML store (hypothesis).

Invariants checked on randomly generated trees:

* parse(serialize(doc)) is deep-equal to doc (round-trip);
* the pre/size/level encoding is self-consistent;
* parent/child are inverse axes;
* ancestor interval containment matches the axis walk;
* following/preceding/ancestor-or-self/descendant-or-self partition
  the non-attribute nodes of a document.
"""

from hypothesis import given, settings, strategies as st

from repro.xmldb import axes
from repro.xmldb.compare import deep_equal, sort_document_order
from repro.xmldb.document import DocumentBuilder
from repro.xmldb.index import structural_index
from repro.xmldb.node import Node, NodeKind
from repro.xmldb.parser import parse_fragment
from repro.xmldb.serializer import serialize_node

_names = st.sampled_from(["a", "b", "c", "data", "x1", "n-s.t"])
_texts = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                           whitelist_characters=" <>&\"'"),
    min_size=1, max_size=12)


@st.composite
def xml_trees(draw, depth=3):
    """Build a random fragment document directly with the builder."""
    builder = DocumentBuilder("prop.xml")

    def element(level: int) -> None:
        builder.start_element(draw(_names))
        for index in range(draw(st.integers(0, 2))):
            builder.attribute(f"at{index}", draw(_texts))
        for _ in range(draw(st.integers(0, 3 if level < depth else 0))):
            if draw(st.booleans()):
                element(level + 1)
            else:
                builder.text(draw(_texts))

        builder.end_element()

    element(0)
    return builder.finish()


@given(xml_trees())
@settings(max_examples=60, deadline=None)
def test_serialize_parse_roundtrip(doc):
    text = serialize_node(doc.root)
    reparsed = parse_fragment(text)
    assert deep_equal(doc.root, reparsed.root)
    assert serialize_node(reparsed.root) == text


@given(xml_trees())
@settings(max_examples=60, deadline=None)
def test_pre_size_level_consistency(doc):
    for pre in range(len(doc)):
        parent = doc.parents[pre]
        if parent < 0:
            assert doc.levels[pre] == 0
        else:
            assert doc.levels[pre] == doc.levels[parent] + 1
            assert parent < pre <= parent + doc.sizes[parent]
        # size covers exactly the contiguous subtree
        end = pre + doc.sizes[pre]
        assert end < len(doc)
        if end + 1 < len(doc):
            assert doc.levels[end + 1] <= doc.levels[pre]


def scan(node, axis):
    pres = structural_index(node.doc).axis_scan(axis, "node()", [node.pre])
    return [Node(node.doc, pre) for pre in pres]


@given(xml_trees())
@settings(max_examples=60, deadline=None)
def test_parent_child_inverse(doc):
    for node in doc.nodes():
        for child in axes.child(node):
            assert child.parent() == node
        for attr in axes.attribute(node):
            assert attr.parent() == node


@given(xml_trees())
@settings(max_examples=60, deadline=None)
def test_ancestor_matches_interval_test(doc):
    nodes = list(doc.nodes())
    for node in nodes:
        ancestors_by_axis = set(scan(node, "ancestor"))
        for other in nodes:
            if other.kind == NodeKind.ATTRIBUTE:
                continue
            expected = other.is_ancestor_of(node)
            assert (other in ancestors_by_axis) == expected


@given(xml_trees())
@settings(max_examples=40, deadline=None)
def test_axes_partition_document(doc):
    """self + ancestors + descendants + preceding + following covers
    every non-attribute node exactly once."""
    all_nodes = [n for n in doc.nodes() if n.kind != NodeKind.ATTRIBUTE]
    for node in all_nodes:
        if node.kind == NodeKind.ATTRIBUTE:
            continue
        parts = (
            [node]
            + scan(node, "ancestor")
            + scan(node, "descendant")
            + scan(node, "preceding")
            + scan(node, "following")
        )
        assert sorted(parts, key=lambda n: n.pre) == all_nodes


@given(xml_trees(), xml_trees())
@settings(max_examples=40, deadline=None)
def test_document_order_total(left, right):
    nodes = list(left.nodes()) + list(right.nodes())
    ordered = sort_document_order(nodes)
    keys = [n.order_key() for n in ordered]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
