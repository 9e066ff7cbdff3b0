"""A request's cache key is exact: two marshalled requests have equal
``RequestMessage.key``s if and only if their texts are equal.

Pairs are drawn part by part: each part of the second request is the
first's, the first's written another way that the text does not show
(see ``_aside``), or a new draw from the same small pools, so both
equal and unequal texts come up often. The pools hold lexicals that
need escaping, static-context names that the wire flattens (``a:b``
and ``a-b`` write the same attribute name), empty and absent
projection paths, and nodes that serialize alike from different
documents."""

from hypothesis import given, strategies as st

from repro.xmldb.node import KIND_ELEMENT, Node
from repro.xmldb.parser import parse_fragment
from repro.xmldb.serializer import serialize_node
from repro.xrpc.messages import (
    Atomic, AttrRef, Call, NodeCopy, NodeRef, RequestMessage,
)

from tests.conftest import fuzz_settings

#: Strings that escape differently in text and in attributes.
LEXICALS = ["", "a", "a b", "&", "<x/>", ">", '"', "'", "\t", "\n", "\r",
            "&amp;", "&#13;"]
TYPES = ["xs:string", "xs:integer", "xs:double", "xs:decimal", "xs:float",
         "xs:boolean", "xs:untypedAtomic"]
#: Element texts; ``<b><a/></b>``'s child serializes as ``<a/>`` does.
ELEMENTS = ['<a/>', '<a x="1&amp;2">t&lt;</a>', '<b><a/></b>', '<a>\r</a>']
NAMES = ["x", "y", "b:c", "b-c"]
PATHS = ["child::a", "descendant::b/attribute::c", "a<b"]
LEAVES = ["attribute", "text", "comment", "processing-instruction"]


def _nodes(text: str) -> list[Node]:
    """Every element of a fresh document parsed from ``text``."""
    document = parse_fragment(text)
    return [Node(document, pre) for pre in range(len(document))
            if document.kinds[pre] == KIND_ELEMENT]


@st.composite
def _element(draw) -> Node:
    text = draw(st.sampled_from(ELEMENTS))
    return draw(st.sampled_from(_nodes(text)))


def _item():
    return st.one_of(
        st.builds(Atomic, st.sampled_from(TYPES), st.sampled_from(LEXICALS)),
        st.builds(NodeCopy, st.just("element"), st.just(""), _element()),
        st.builds(NodeCopy, st.sampled_from(LEAVES), st.sampled_from(NAMES),
                  st.sampled_from(LEXICALS)),
        st.builds(NodeRef, st.integers(1, 2), st.integers(1, 3)),
        st.builds(AttrRef, st.integers(1, 2), st.integers(1, 3),
                  st.sampled_from(NAMES)))


def _paths():
    return st.none() | st.lists(st.sampled_from(PATHS), max_size=2)


#: Each part of a request, as a strategy.
PARTS = {
    "query": st.sampled_from(["f($x)", "$x < 2 and $y", "<r>{$x}</r>"]),
    "param_names": st.lists(st.sampled_from(NAMES), max_size=2),
    "calls": st.lists(st.lists(st.tuples(
        st.sampled_from(NAMES), st.lists(_item(), max_size=3)),
        max_size=2), min_size=1, max_size=3),
    "fragments": st.lists(_element(), max_size=2),
    "static_attrs": st.dictionaries(
        st.sampled_from(["xrpc:base-uri", "xrpc-base-uri", "xrpc:ns"]),
        st.sampled_from(LEXICALS), max_size=2),
    "used_paths": _paths(),
    "returned_paths": _paths(),
}


#: Swaps the two characters the wire writes alike in a static name.
_FLATTENED = str.maketrans(":-", "-:")


def _aside(value):
    """``value`` as another request carries it for the same text: each
    node re-parsed into a new document, and what the text does not tell
    apart changed — ``:`` and ``-`` in a static-context name, a
    parameter's name in a call, an unnamed leaf copy's name."""
    if isinstance(value, Node):
        return parse_fragment(serialize_node(value)).root
    if isinstance(value, NodeCopy):
        if isinstance(value.content, Node):
            return NodeCopy("element", "", _aside(value.content))
        if value.node_kind in ("text", "comment"):
            return NodeCopy(value.node_kind, value.name + "z", value.content)
        return value
    if isinstance(value, dict):
        return {name.translate(_FLATTENED): lexical
                for name, lexical in value.items()}
    if isinstance(value, tuple):                # a call's parameter
        name, items = value
        return name + "z", _aside(items)
    if isinstance(value, list):
        return [_aside(part) for part in value]
    return value


def _message(parts: dict) -> RequestMessage:
    return RequestMessage(
        query=parts["query"], param_names=parts["param_names"],
        calls=[Call(params) for params in parts["calls"]],
        fragments=parts["fragments"], static_attrs=parts["static_attrs"],
        used_paths=parts["used_paths"],
        returned_paths=parts["returned_paths"])


@given(st.data())
@fuzz_settings(300)
def test_keys_are_equal_exactly_when_texts_are(data):
    first = {name: data.draw(part, label=name)
             for name, part in PARTS.items()}
    second = {name: data.draw(st.sampled_from(["same", "aside", "new"]),
                              label=f"{name} of the second")
              for name in PARTS}
    second = {name: first[name] if how == "same"
              else _aside(first[name]) if how == "aside"
              else data.draw(PARTS[name], label=f"new {name}")
              for name, how in second.items()}
    one, other = _message(first), _message(second)
    assert (one.key == other.key) == (one.to_xml() == other.to_xml())
    if one.key == other.key:
        assert hash(one.key) == hash(other.key)

