"""Marshalling semantics: exactly the behaviours Sections II, V and VI
attribute to pass-by-value, pass-by-fragment and pass-by-projection."""

import pytest

from repro.errors import XrpcMarshalError
from repro.paths.relpath import compile_paths, parse_rel_path
from repro.xmldb.compare import is_same_node, node_before
from repro.xmldb.node import NodeKind
from repro.xmldb.parser import parse_fragment
from repro.xrpc.marshal import (
    marshal_calls, unmarshal_atomic, unmarshal_calls, unmarshal_result,
)
from repro.xrpc.messages import (
    Atomic, NodeRef, RequestMessage, ResponseMessage,
)
from tests.conftest import element, over_the_wire, texts


def by_name(doc, name):
    return next(n for n in doc.nodes() if n.name == name)


def received(bundle):
    """Unmarshal ``bundle`` as its receiver does. Through the wire:
    fresh identity per message is what decoding the text gives, and
    ``unmarshal_calls`` hands out the decoded documents, copying
    nothing."""
    request = over_the_wire(RequestMessage(
        query="()", param_names=[name for name, _ in bundle.calls[0].params],
        calls=bundle.calls, fragments=bundle.fragments))
    return unmarshal_calls(request.calls, request.fragments, "msg")


def ship(calls, semantics, param_paths=None):
    """Marshal, encode, decode and unmarshal one request."""
    return received(marshal_calls(calls, semantics, param_paths))


class TestAtomics:
    """An atomic arrives from another peer in any lexical form its
    type allows (XML Schema's, whitespace collapsed)."""

    @pytest.mark.parametrize("lexical, value", [
        ("true", True), ("1", True), (" true ", True), ("\n1\t", True),
        ("false", False), ("0", False), (" false\r\n", False),
    ])
    def test_booleans_read_the_whole_lexical_space(self, lexical, value):
        assert unmarshal_atomic(Atomic("xs:boolean", lexical)) is value

    @pytest.mark.parametrize("lexical", [
        "yes", "", "TRUE", "tr ue", "2", "01", "\u00a0true"])
    def test_other_booleans_are_refused(self, lexical):
        with pytest.raises(XrpcMarshalError, match="malformed xs:boolean"):
            unmarshal_atomic(Atomic("xs:boolean", lexical))


class TestByValue:
    def test_nodes_become_independent_copies(self):
        doc = parse_fragment("<a><b><c/></b></a>")
        b = by_name(doc, "b")
        (call,) = ship([[("l", [b]), ("r", [b])]], "by-value")
        left = call[0][1][0]
        right = call[1][1][0]
        # Problem 2: the same node arrives as two distinct copies.
        assert not is_same_node(left, right)
        assert left.string_value() == right.string_value()

    def test_parent_lost(self):
        doc = parse_fragment("<a><b><c/></b></a>")
        (call,) = ship([[("p", [by_name(doc, "b")])]], "by-value")
        shipped = call[0][1][0]
        # Problem 1: only descendants travel.
        assert shipped.parent() is None

    def test_order_is_parameter_order(self):
        doc = parse_fragment("<a><b/></a>")
        a, b = by_name(doc, "a"), by_name(doc, "b")
        # Ship the *descendant* first: pass-by-value cannot preserve
        # the original order between parameters (Problem 3).
        (call,) = ship([[("l", [b]), ("r", [a])]], "by-value")
        assert node_before(call[0][1][0], call[1][1][0])

    def test_atomics_roundtrip(self):
        (call,) = ship([[("p", [1, "x", True, 2.5])]], "by-value")
        assert call[0][1] == [1, "x", True, 2.5]

    def test_attribute_copy(self):
        doc = parse_fragment('<a id="v"/>')
        attr = next(n for n in doc.nodes() if n.name == "id")
        (call,) = ship([[("p", [attr])]], "by-value")
        shipped = call[0][1][0]
        assert shipped.name == "id" and shipped.value == "v"

    def test_comment_and_processing_instruction_copies(self):
        doc = parse_fragment("<a><!--c--><?t d?></a>")
        (call,) = ship([[("p", list(doc.nodes())[1:])]], "by-value")
        assert [(node.kind, node.name, node.value, node.parent())
                for node in call[0][1]] == [
            (NodeKind.COMMENT, "", "c", None),
            (NodeKind.PROCESSING_INSTRUCTION, "t", "d", None)]


class TestByFragment:
    @pytest.mark.parametrize("fragid", [0, -1, 3])
    def test_fragid_outside_the_preamble_is_a_marshal_error(self, fragid):
        """A response is wire input: a fragid outside its preamble is
        refused, not read as ``fragments[-1]`` by negative indexing nor
        raised as a bare IndexError."""
        response = over_the_wire(ResponseMessage(
            results=[[NodeRef(fragid, 1)]],
            fragments=[element("<a/>"), element("<b/>")]))
        with pytest.raises(XrpcMarshalError, match="fragid"):
            unmarshal_result(response.results, response.fragments, "m")

    def test_identity_preserved_within_message(self):
        doc = parse_fragment("<a><b><c/></b></a>")
        b = by_name(doc, "b")
        (call,) = ship([[("l", [b]), ("r", [b])]], "by-fragment")
        assert is_same_node(call[0][1][0], call[1][1][0])

    def test_containment_not_serialized_twice(self):
        """Figure 4: $bc is inside $abc's fragment — one fragment."""
        doc = parse_fragment("<a><b><c/></b></a>")
        a, b = by_name(doc, "a"), by_name(doc, "b")
        bundle = marshal_calls([[("bc", [b]), ("abc", [a])]],
                               "by-fragment")
        assert texts(bundle.fragments) == ["<a><b><c/></b></a>"]
        # $bc references node 2 ($abc node 1), as in Figure 4.
        assert bundle.calls[0].params[0][1] == [NodeRef(1, 2)]
        assert bundle.calls[0].params[1][1] == [NodeRef(1, 1)]

    def test_order_and_ancestry_preserved(self):
        doc = parse_fragment("<a><b><c/></b></a>")
        a, b = by_name(doc, "a"), by_name(doc, "b")
        (call,) = ship([[("l", [b]), ("r", [a])]], "by-fragment")
        left, right = call[0][1][0], call[1][1][0]
        # Problem 3 fixed: the parent still precedes the child.
        assert node_before(right, left)
        assert right.is_ancestor_of(left)

    def test_disjoint_nodes_share_forest_fragment(self):
        doc = parse_fragment("<r><a/><b/></r>")
        a, b = by_name(doc, "a"), by_name(doc, "b")
        (call,) = ship([[("l", [a]), ("r", [b])]], "by-fragment")
        left, right = call[0][1][0], call[1][1][0]
        assert left.doc is right.doc  # one fragment space
        assert node_before(left, right)

    def test_attribute_referenced_via_owner(self):
        doc = parse_fragment('<a id="7"><b/></a>')
        attr = next(n for n in doc.nodes() if n.name == "id")
        (call,) = ship([[("p", [attr]), ("q", [by_name(doc, "a")])]],
                       "by-fragment")
        shipped = call[0][1][0]
        assert shipped.name == "id" and shipped.value == "7"
        assert shipped.parent() == call[1][1][0]

    def test_multiple_source_documents(self):
        left = parse_fragment("<l><x/></l>")
        right = parse_fragment("<r><y/></r>")
        bundle = marshal_calls(
            [[("a", [by_name(left, "x")]), ("b", [by_name(right, "y")])]],
            "by-fragment")
        assert len(bundle.fragments) == 2

    def test_bulk_calls_share_fragment_space(self):
        doc = parse_fragment("<a><b/><c/></a>")
        calls = [[("p", [by_name(doc, "b")])],
                 [("p", [by_name(doc, "c")])]]
        out = ship(calls, "by-fragment")
        assert out[0][0][1][0].doc is out[1][0][1][0].doc


class TestByProjection:
    def test_used_paths_keep_anchor_without_descendants(self):
        doc = parse_fragment("<a><p><id>1</id><big><x/><y/></big></p></a>")
        p = by_name(doc, "p")
        paths = {"t": compile_paths(
            used=[parse_rel_path("child::id"),
                  parse_rel_path("child::id/descendant::text()")])}
        bundle = marshal_calls([[("t", [p])]], "by-projection", paths)
        assert "<big>" not in texts(bundle.fragments)[0]
        assert "<id>1</id>" in texts(bundle.fragments)[0]

    def test_returned_paths_keep_subtrees(self):
        doc = parse_fragment("<a><p><keep><deep/></keep><drop/></p></a>")
        p = by_name(doc, "p")
        paths = {"t": compile_paths(returned=[parse_rel_path("child::keep")])}
        bundle = marshal_calls([[("t", [p])]], "by-projection", paths)
        assert "<deep/>" in texts(bundle.fragments)[0]
        assert "<drop/>" not in texts(bundle.fragments)[0]

    def test_ancestors_preserved_for_reverse_axes(self):
        """Figure 5: the b node travels with its enclosing a."""
        doc = parse_fragment("<a><b><c/></b></a>")
        b = by_name(doc, "b")
        paths = {"r": compile_paths(returned=[parse_rel_path("parent::a")])}
        bundle = marshal_calls([[("r", [b])]], "by-projection", paths)
        assert texts(bundle.fragments) == ["<a><b><c/></b></a>"]
        (call,) = received(bundle)
        shipped = call[0][1][0]
        assert shipped.name == "b"
        assert shipped.parent() is not None
        assert shipped.parent().name == "a"

    def test_projection_smaller_than_fragment(self):
        doc = parse_fragment(
            "<a><p><id>1</id>" + "<filler>x</filler>" * 50 + "</p></a>")
        p = by_name(doc, "p")
        fragment = marshal_calls([[("t", [p])]], "by-fragment")
        paths = {"t": compile_paths(used=[parse_rel_path("child::id")])}
        projected = marshal_calls([[("t", [p])]], "by-projection", paths)
        assert len(texts(projected.fragments)[0]) < len(texts(fragment.fragments)[0]) / 5

    def test_missing_paths_default_to_full_subtree(self):
        doc = parse_fragment("<a><p><x/></p></a>")
        p = by_name(doc, "p")
        bundle = marshal_calls([[("t", [p])]], "by-projection", {})
        assert "<x/>" in texts(bundle.fragments)[0]
