"""Runtime XML projection (Algorithm 1), including the paper's
Figure 6 worked example."""

from repro.xmldb.node import NodeKind
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.projection import project
from repro.xmldb.serializer import serialize_node

from tests.conftest import FIG6_XML


def by_name(doc, name):
    return next(n for n in doc.nodes() if n.name == name)


def pre_of(doc, name):
    return by_name(doc, name).pre


class TestFigure6:
    """U = {i}, R = {d, k} on the Figure 6(a) tree must produce
    exactly the Figure 6(b) tree."""

    def test_exact_paper_example(self):
        doc = parse_fragment(FIG6_XML)
        result = project(doc, used=[pre_of(doc, "i")],
                         returned=[pre_of(doc, "d"), pre_of(doc, "k")])
        assert serialize_node(result.doc.root) == (
            "<b><c><d><e/><f/></d></c>"
            "<g><h><i/></h><j><k><l/><m/></k></j></g></b>")

    def test_post_processing_trims_to_lca(self):
        # 'a' has a single kept child and is not a projection node, so
        # the projected root is 'b' (lines 24-27 of Algorithm 1).
        doc = parse_fragment(FIG6_XML)
        result = project(doc, used=[pre_of(doc, "i")],
                         returned=[pre_of(doc, "d")])
        assert result.doc.root.name == "b"

    def test_precision_counts(self):
        doc = parse_fragment(FIG6_XML)
        result = project(doc, used=[pre_of(doc, "i")],
                         returned=[pre_of(doc, "d"), pre_of(doc, "k")])
        assert result.total == 15
        assert result.kept == 12


class TestBehaviour:
    def test_empty_inputs_give_none(self, fig6_doc):
        assert project(fig6_doc, [], []) is None

    def test_used_node_keeps_no_descendants(self):
        doc = parse_fragment("<a><b><c/><d/></b></a>")
        result = project(doc, used=[pre_of(doc, "b")], returned=[])
        assert serialize_node(result.doc.root) == "<b/>"

    def test_returned_node_keeps_subtree(self):
        doc = parse_fragment("<a><b><c/><d/></b></a>")
        result = project(doc, used=[], returned=[pre_of(doc, "b")])
        assert serialize_node(result.doc.root) == "<b><c/><d/></b>"

    def test_ancestors_preserved(self):
        doc = parse_fragment("<a><b><c><d/></c></b><e/></a>")
        result = project(doc, used=[pre_of(doc, "d")],
                         returned=[pre_of(doc, "e")])
        # LCA is 'a'; the chain down to d is kept without siblings.
        assert serialize_node(result.doc.root) == \
            "<a><b><c><d/></c></b><e/></a>"

    def test_pre_map_translates_kept_nodes(self):
        doc = parse_fragment(FIG6_XML)
        i = by_name(doc, "i")
        result = project(doc, used=[i.pre], returned=[])
        new_node = result.doc.node(result.pre_map[i.pre])
        assert new_node.name == "i"

    def test_single_node_projection(self):
        doc = parse_fragment("<a><b/></a>")
        result = project(doc, used=[pre_of(doc, "b")], returned=[])
        assert result.doc.root.name == "b"
        assert len(result.doc) == 1

    def test_attributes_dropped_by_default(self):
        doc = parse_fragment('<a q="1"><b r="2"><c/></b></a>')
        c = by_name(doc, "c")
        result = project(doc, used=[c.pre], returned=[])
        kinds = set(result.doc.kinds)
        assert NodeKind.ATTRIBUTE not in kinds

    def test_keep_attributes_variant(self):
        # Two projection nodes keep the ancestor b (it is the LCA), so
        # the schema-aware variant retains b's attribute.
        doc = parse_fragment('<a q="1"><b r="2"><c/><d/></b></a>')
        result = project(doc, used=[pre_of(doc, "c"), pre_of(doc, "d")],
                         returned=[], keep_attributes=True)
        assert result.doc.root.name == "b"
        assert any(result.doc.kinds[p] == NodeKind.ATTRIBUTE
                   for p in range(len(result.doc)))

    def test_keep_attributes_off_by_default(self):
        doc = parse_fragment('<a q="1"><b r="2"><c/><d/></b></a>')
        result = project(doc, used=[pre_of(doc, "c"), pre_of(doc, "d")],
                         returned=[])
        assert all(result.doc.kinds[p] != NodeKind.ATTRIBUTE
                   for p in range(len(result.doc)))

    def test_document_rooted_input(self):
        doc = parse_document("<a><b><c/></b></a>")
        result = project(doc, used=[pre_of(doc, "c")], returned=[])
        # The document node is never the projected root.
        assert result.doc.kinds[0] != NodeKind.DOCUMENT

    def test_sizes_and_levels_consistent(self):
        doc = parse_fragment(FIG6_XML)
        result = project(doc, used=[pre_of(doc, "i")],
                         returned=[pre_of(doc, "d"), pre_of(doc, "k")])
        out = result.doc
        for pre in range(len(out)):
            parent = out.parents[pre]
            if parent >= 0:
                assert out.levels[pre] == out.levels[parent] + 1
                assert parent < pre <= parent + out.sizes[parent]
