"""Differential test: message shredding by column slice against the
re-parse it replaced.

A receiver used to serialise every fragment and every by-value copy
out of the parsed envelope and hand the text to ``parse_fragment``;
now it slices the envelope's columns. Property: for any element the
scanner accepts — printed as *text* by the generators of
``tests/xmldb/test_parser_differential.py`` and spliced raw into a
request and a response envelope — the document the receive path builds
is the one ``parse_fragment(serialize_node(...))`` builds: same six
columns, same ``uri`` and ``is_fragment``, byte-equal ``serialize()``.

Tier-1 runs a small seeded sample; CI's ``fuzz`` job runs it under
``--hypothesis-profile=long``.
"""

from hypothesis import given

from repro.xmldb.parser import parse_fragment
from repro.xmldb.serializer import serialize, serialize_node
from repro.xrpc.marshal import unmarshal_calls, unmarshal_result
from repro.xrpc.messages import (
    Call, NodeCopy, NodeRef, RequestMessage, ResponseMessage,
)
from tests.conftest import element, fuzz_settings
from tests.oracle import columns
from tests.xmldb.test_parser_differential import _element

_SLOT = element("<slot/>")
#: One fragment referenced once, and the same element copied by value.
_ITEMS = [NodeRef(1, 1), NodeCopy("element", "", _SLOT)]
_REQUEST = RequestMessage(query="$p", param_names=["p"],
                          calls=[Call([("p", _ITEMS)])],
                          fragments=[_SLOT]).to_xml()
_RESPONSE = ResponseMessage(results=[_ITEMS], fragments=[_SLOT]).to_xml()


def _same_document(new, old) -> None:
    assert columns(new) == columns(old)
    assert (new.uri, new.is_fragment) == (old.uri, old.is_fragment)
    assert serialize(new) == serialize(old)


def _check(fragment, copied, shipped) -> None:
    """``fragment`` and ``copied`` are the envelope's payload nodes,
    ``shipped`` what unmarshalling handed out for ``_ITEMS``: compare
    both documents with the old path's."""
    by_reference, by_value = shipped
    _same_document(by_reference.doc, parse_fragment(
        serialize_node(fragment), uri="m#fragment1"))
    _same_document(by_value.doc, parse_fragment(
        serialize_node(copied), uri="m"))
    for node in shipped:
        assert node.pre == 0 and node.parent() is None
        assert node.doc is not fragment.doc


@given(_element())
@fuzz_settings(150)
def test_request_payload_slices_to_what_a_reparse_builds(element):
    assert _REQUEST.count("<slot/>") == 2
    request = RequestMessage.from_xml(_REQUEST.replace("<slot/>", element))
    ((_name, shipped),), = unmarshal_calls(request.calls, request.fragments,
                                           "m")
    _check(request.fragments[0], request.calls[0].params[0][1][1].content,
           shipped)


@given(_element())
@fuzz_settings(150)
def test_response_payload_slices_to_what_a_reparse_builds(element):
    assert _RESPONSE.count("<slot/>") == 2
    response = ResponseMessage.from_xml(
        _RESPONSE.replace("<slot/>", element))
    (shipped,) = unmarshal_result(response.results, response.fragments, "m")
    _check(response.fragments[0], response.results[0][1].content, shipped)
