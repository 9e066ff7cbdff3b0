"""Round-trip and robustness tests for the message codec.

The decoder (``xrpc/messages.py``) reads an envelope in one expat pass
and shreds each payload into a document of its own (its equivalence to
the column decoder it replaced is ``test_decoder_differential.py``),
and the codec (``xrpc/marshal.py``) takes nodeid ranks from a kind
column instead of a structural index. Properties, on the text
generators of ``tests/xmldb/test_parser_differential.py``:

* ``from_xml(to_xml(message))`` is the message — all four item kinds,
  copies of all five node kinds, atomics and copies holding markup
  characters, bulk calls, static attributes, projection paths; payload
  nodes compare by serialisation (the decoded ones sit in a document
  with no full text, the encoded ones in a document that has one, so
  the emitter's two modes meet), decoded leaf copies by string value;
* an envelope with any one element deleted or duplicated decodes, or
  is refused with ``XrpcMarshalError`` — never a bare ``IndexError`` /
  ``KeyError``, never a silently unbound parameter;
* the codec's ranks are ``StructuralIndex.non_attr_rank`` /
  ``non_attr_pres`` / ``nodeid`` on documents with attributes.

Tier-1 runs a small seeded sample; CI's ``fuzz`` job runs it under
``--hypothesis-profile=long``.
"""

from hypothesis import given, strategies as st

from repro.errors import XrpcMarshalError
from repro.xmldb.index import structural_index
from repro.xmldb.node import NodeKind
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.serializer import serialize, subtree_spans
from repro.xrpc.marshal import (
    _FragmentPlan, _nodeid_pres, _nodeid_ranks, unmarshal_calls,
    unmarshal_result,
)
from repro.xrpc.messages import (
    Atomic, AttrRef, Call, NodeCopy, NodeRef, RequestMessage,
    ResponseMessage,
)
from tests.conftest import element, fuzz_settings, texts
from tests.xmldb.test_parser_differential import _element, fragments

_strings = st.text(alphabet=st.sampled_from("ab <>&\"'\n\t;#é"), max_size=8)
_names = st.sampled_from(["p", "q", "n-s.t", "x:y", "_u"])
_payloads = _element().map(element)
_ids = st.integers(1, 3)
_items = st.one_of(
    st.builds(Atomic, st.sampled_from(["xs:string", "xs:integer",
                                       "xs:untypedAtomic"]), _strings),
    st.builds(NodeCopy, st.just("element"), st.just(""), _payloads),
    st.builds(NodeCopy, st.just("attribute"), _names, _strings),
    st.builds(NodeCopy, st.just("text"), st.just(""), _strings),
    st.builds(NodeCopy, st.just("comment"), st.just(""), _strings),
    st.builds(NodeCopy, st.just("processing-instruction"), _names,
              _strings),
    st.builds(NodeRef, _ids, _ids),
    st.builds(AttrRef, _ids, _ids, _names))
_sequences = st.lists(_items, max_size=4)
_paths = st.none() | st.lists(st.sampled_from(
    ["child::a", "descendant::b/attribute::x", "parent::a", "root()",
     "child::a[b < 1]"]), max_size=3)


@st.composite
def _requests(draw) -> RequestMessage:
    param_names = draw(st.lists(_names, max_size=3, unique=True))
    calls = [Call([(name, draw(_sequences)) for name in param_names])
             for _ in range(draw(st.integers(0, 3)))]
    static_attrs = draw(st.dictionaries(
        st.sampled_from(["xrpc:base-uri", "xrpc:current-dateTime",
                         "plain"]), _strings, max_size=3))
    return RequestMessage(
        query=draw(_strings), param_names=param_names, calls=calls,
        fragments=draw(st.lists(_payloads, max_size=2)),
        static_attrs=static_attrs, used_paths=draw(_paths),
        returned_paths=draw(_paths))


_responses = st.builds(ResponseMessage,
                       results=st.lists(_sequences, max_size=3),
                       fragments=st.lists(_payloads, max_size=2))


def _comparable(items):
    """Items with each copy's node replaced by its text (an element) or
    its string value (any other kind, which decodes to a node)."""
    return [item if not isinstance(item, NodeCopy) else NodeCopy(
        item.node_kind, item.name,
        texts([item.content])[0] if item.node_kind == "element"
        else item.content if isinstance(item.content, str)
        else item.content.value) for item in items]


@given(_requests())
@fuzz_settings(120)
def test_request_decodes_to_what_was_encoded(request):
    back = RequestMessage.from_xml(request.to_xml())
    assert (back.query, back.param_names, back.static_attrs) == \
        (request.query, request.param_names, request.static_attrs)
    assert texts(back.fragments) == texts(request.fragments)
    if request.used_paths is None and request.returned_paths is None:
        assert back.used_paths is None and back.returned_paths is None
    else:  # one element carries both lists
        assert back.used_paths == (request.used_paths or [])
        assert back.returned_paths == (request.returned_paths or [])
    assert len(back.calls) == len(request.calls)
    for decoded, encoded in zip(back.calls, request.calls):
        assert [(name, _comparable(items))
                for name, items in decoded.params] == \
            [(name, _comparable(items)) for name, items in encoded.params]


@given(_responses)
@fuzz_settings(120)
def test_response_decodes_to_what_was_encoded(response):
    back = ResponseMessage.from_xml(response.to_xml())
    assert texts(back.fragments) == texts(response.fragments)
    assert [_comparable(items) for items in back.results] == \
        [_comparable(items) for items in response.results]


def _one_element_edits(text: str):
    """``text`` with each element below the envelope deleted, then
    duplicated in place (both stay well-formed)."""
    doc = parse_document(text)
    canonical = serialize(doc)
    starts, ends = subtree_spans(doc)
    for pre in range(2, len(doc)):  # 0: document node, 1: env:Envelope
        if doc.kinds[pre] == NodeKind.ELEMENT:
            start, end = starts[pre], ends[pre]
            yield canonical[:start] + canonical[end:]
            yield canonical[:end] + canonical[start:]


@given(_requests() | _responses)
@fuzz_settings(30)
def test_envelope_missing_or_repeating_an_element_is_decoded_or_refused(
        message):
    for edited in _one_element_edits(message.to_xml()):
        try:
            back = type(message).from_xml(edited)
            if isinstance(back, RequestMessage):
                unmarshal_calls(back.calls, back.fragments, "m")
            else:
                unmarshal_result(back.results, back.fragments, "m")
        except XrpcMarshalError:
            pass  # refused, and typed; anything else propagates


@given(fragments())
@fuzz_settings(150)
def test_codec_ranks_are_the_structural_index(text):
    doc = parse_fragment(text)
    index = structural_index(doc)
    assert _nodeid_ranks(doc.kinds) == list(index.non_attr_rank)
    assert _nodeid_pres(doc.kinds) == list(index.non_attr_pres)
    for root in index.element_pres:
        plan = _FragmentPlan(1, root, doc, None, _nodeid_ranks(doc.kinds))
        subtree = [pre for pre in range(root, root + doc.sizes[root] + 1)
                   if doc.kinds[pre] != NodeKind.ATTRIBUTE]
        references = plan.references(doc, {pre: pre for pre in subtree})
        for pre in subtree:
            assert references[pre].nodeid == index.nodeid(root, pre)
