"""Differential test: message shredding against ``parse_fragment``.

The decoder shreds each fragment and each by-value element copy with
the scanner's own handlers, installed mid-parse on the envelope's
parser for that element alone. Property: for any element the scanner
accepts — printed as *text* by the generators of
``tests/xmldb/test_parser_differential.py`` and spliced raw into a
request and a response envelope — the document unmarshalling hands out
is the one ``parse_fragment`` builds from the same element text: same
six columns, same name postings, same ``is_fragment``, byte-equal
``serialize()``, and the message's URI.

Tier-1 runs a small seeded sample; CI's ``fuzz`` job runs it under
``--hypothesis-profile=long``.
"""

from hypothesis import given

from repro.xmldb.parser import parse_fragment
from repro.xmldb.serializer import serialize
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


def postings(doc):
    """The scanner's name postings of ``doc``, as plain lists."""
    return [{name: list(pres) for name, pres in table.items()}
            for table in doc.columns.postings]


def _same_document(new, old) -> None:
    assert columns(new) == columns(old)
    assert postings(new) == postings(old)
    assert (new.uri, new.is_fragment) == (old.uri, old.is_fragment)
    assert serialize(new) == serialize(old)


def _check(text, shipped) -> None:
    """``shipped`` is what unmarshalling handed out for ``_ITEMS`` with
    ``text`` in both payload slots: compare both documents with
    ``parse_fragment(text)``."""
    by_reference, by_value = shipped
    _same_document(by_reference.doc, parse_fragment(text, uri="m#fragment1"))
    _same_document(by_value.doc, parse_fragment(text, uri="m"))
    assert by_reference.doc is not by_value.doc
    for node in shipped:
        assert node.pre == 0 and node.parent() is None


@given(_element())
@fuzz_settings(150)
def test_request_payload_shreds_to_what_parse_fragment_builds(element):
    assert _REQUEST.count("<slot/>") == 2
    request = RequestMessage.from_xml(_REQUEST.replace("<slot/>", element))
    ((_name, shipped),), = unmarshal_calls(request.calls, request.fragments,
                                           "m")
    _check(element, shipped)


@given(_element())
@fuzz_settings(150)
def test_response_payload_shreds_to_what_parse_fragment_builds(element):
    assert _RESPONSE.count("<slot/>") == 2
    response = ResponseMessage.from_xml(
        _RESPONSE.replace("<slot/>", element))
    (shipped,) = unmarshal_result(response.results, response.fragments, "m")
    _check(element, shipped)
