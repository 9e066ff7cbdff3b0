"""Property-based marshalling invariants (hypothesis).

For random trees and random parameter selections:

* by-value round-trips preserve deep-equality (values survive);
* by-fragment round-trips additionally preserve identity and relative
  document order *within* a message;
* fragments never serialise a shipped node twice (the dedup claim of
  Section V);
* projection round-trips preserve the anchors and everything reachable
  via the declared returned paths.
"""

from hypothesis import given, settings, strategies as st

from repro.paths.relpath import compile_paths, parse_rel_path
from repro.xmldb.compare import deep_equal, is_same_node, node_before
from repro.xmldb.document import DocumentBuilder
from repro.xmldb.node import NodeKind
from repro.xrpc.marshal import marshal_calls
from tests.xrpc.test_marshal import received

_names = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def trees(draw, max_depth=3):
    builder = DocumentBuilder("prop.xml")

    def element(depth: int) -> None:
        builder.start_element(draw(_names))
        if draw(st.booleans()):
            builder.attribute("id", str(draw(st.integers(0, 99))))
        for _ in range(draw(st.integers(0, 3 if depth < max_depth else 0))):
            if draw(st.booleans()):
                element(depth + 1)
            else:
                builder.text(draw(st.text("xyz ", min_size=1,
                                          max_size=5)))
        builder.end_element()

    element(0)
    return builder.finish()


@st.composite
def tree_with_picks(draw):
    doc = draw(trees())
    elements = [n for n in doc.nodes()
                if n.kind == NodeKind.ELEMENT]
    count = draw(st.integers(1, min(4, len(elements))))
    picks = [elements[draw(st.integers(0, len(elements) - 1))]
             for _ in range(count)]
    return doc, picks


@given(tree_with_picks())
@settings(max_examples=60, deadline=None)
def test_by_value_preserves_values(pair):
    doc, picks = pair
    calls = [[(f"p{i}", [node]) for i, node in enumerate(picks)]]
    bundle = marshal_calls(calls, "by-value")
    (out,) = received(bundle)
    for (name, shipped), original in zip(out, picks):
        assert deep_equal(shipped[0], original)


@given(tree_with_picks())
@settings(max_examples=60, deadline=None)
def test_by_fragment_preserves_identity_and_order(pair):
    doc, picks = pair
    calls = [[(f"p{i}", [node]) for i, node in enumerate(picks)]]
    bundle = marshal_calls(calls, "by-fragment")
    (out,) = received(bundle)
    shipped = [seq[0] for _name, seq in out]
    for i in range(len(picks)):
        assert deep_equal(shipped[i], picks[i])
        for j in range(len(picks)):
            assert is_same_node(shipped[i], shipped[j]) == \
                is_same_node(picks[i], picks[j])
            if picks[i].pre < picks[j].pre:
                assert node_before(shipped[i], shipped[j])
            # Containment relationships also survive.
            assert picks[i].is_ancestor_of(picks[j]) == \
                shipped[i].is_ancestor_of(shipped[j])


@given(tree_with_picks())
@settings(max_examples=60, deadline=None)
def test_by_fragment_never_ships_a_node_twice(pair):
    doc, picks = pair
    calls = [[(f"p{i}", [node]) for i, node in enumerate(picks)]]
    bundle = marshal_calls(calls, "by-fragment")
    total_fragment_nodes = 0
    from repro.xmldb.parser import parse_fragment
    from repro.xmldb.serializer import serialize_node

    for fragment in bundle.fragments:
        total_fragment_nodes += len(parse_fragment(serialize_node(fragment)))
    # The union of shipped subtrees (maximal roots) bounds the payload.
    maximal: list = []
    for node in sorted(picks, key=lambda n: n.pre):
        if any(m.is_ancestor_of(node) or m == node for m in maximal):
            continue
        maximal.append(node)
    union_size = sum(m.size + 1 for m in maximal)
    # A forest container may add one wrapper node per fragment.
    assert total_fragment_nodes <= union_size + len(bundle.fragments)


@given(tree_with_picks())
@settings(max_examples=60, deadline=None)
def test_projection_keeps_anchors_and_returned_paths(pair):
    doc, picks = pair
    paths = {"p0": compile_paths(returned=[parse_rel_path("child::a")])}
    calls = [[("p0", [picks[0]])]]
    bundle = marshal_calls(calls, "by-projection", paths)
    (out,) = received(bundle)
    shipped = out[0][1][0]
    # The anchor is addressable and has the right name.
    assert shipped.name == picks[0].name
    # Every child::a of the original is present with a deep-equal copy.
    from tests.oracle.xquery_reference_walker import axis_step

    original_as = list(axis_step(picks[0], "child", "a"))
    shipped_as = list(axis_step(shipped, "child", "a"))
    assert len(shipped_as) == len(original_as)
    for orig, got in zip(original_as, shipped_as):
        assert deep_equal(orig, got)
