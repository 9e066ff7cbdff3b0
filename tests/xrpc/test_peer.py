"""Peer-side request handling, including failure injection."""

import pytest

from repro.errors import XrpcMarshalError, XQueryDynamicError
from repro.xmldb.parser import parse_document
from repro.xrpc.marshal import marshal_calls, unmarshal_result
from repro.xrpc.messages import Call, RequestMessage
from repro.xrpc.peer import RequestHandler
from tests.conftest import element, over_the_wire


def handler(semantics="by-fragment", docs=None):
    store = {uri: parse_document(text, uri=uri)
             for uri, text in (docs or {}).items()}

    def resolve(uri):
        try:
            return store[uri]
        except KeyError:
            raise XQueryDynamicError(f"no document {uri!r}") from None

    def no_xrpc(dest, params, body):
        raise XQueryDynamicError("nested XRPC not wired in this test")

    return RequestHandler("peer", resolve, no_xrpc, semantics)


def answers(response):
    """The results of ``response`` as its receiver unmarshals them:
    through the wire, where each delivery decodes fresh documents."""
    response = over_the_wire(response)
    return unmarshal_result(response.results, response.fragments, "m")


def make_request(query, params=None, calls=None, **kwargs):
    params = params or []
    calls = calls if calls is not None else [Call([])]
    return RequestMessage(query=query, param_names=params, calls=calls,
                          **kwargs)


class TestHandling:
    def test_evaluates_body_against_local_documents(self):
        h = handler(docs={"d.xml": "<a><b>7</b></a>"})
        request = make_request('doc("d.xml")/child::a/child::b')
        response = h.handle(request)
        results = answers(response)
        assert results[0][0].string_value() == "7"

    def test_bulk_calls_evaluated_independently(self):
        h = handler()
        bundle = marshal_calls([[("n", [i])] for i in (1, 2, 3)],
                               "by-fragment")
        request = make_request("$n * 10", params=["n"],
                               calls=bundle.calls,
                               fragments=bundle.fragments)
        response = h.handle(request)
        results = answers(response)
        assert results == [[10], [20], [30]]

    def test_static_context_installed_from_message(self):
        h = handler()
        request = make_request(
            "static-base-uri()",
            static_attrs={"xrpc:base-uri": "http://elsewhere/"})
        response = h.handle(request)
        results = answers(response)
        assert results == [["http://elsewhere/"]]

    def test_projection_request_without_paths_degrades_to_fragment(self):
        h = handler("by-projection", docs={"d.xml": "<a><b/></a>"})
        request = make_request('doc("d.xml")/child::a')
        response = h.handle(request)  # no projection-paths element
        results = answers(response)
        assert results[0][0].name == "a"


class TestFailureInjection:
    def test_syntax_error_in_shipped_query(self):
        from repro.errors import XQuerySyntaxError

        with pytest.raises(XQuerySyntaxError):
            handler().handle(make_request("let $x := return"))

    def test_unknown_document_on_peer(self):
        with pytest.raises(XQueryDynamicError):
            handler().handle(make_request('doc("ghost.xml")/child::a'))

    def test_undefined_parameter_reference(self):
        from repro.errors import UndefinedVariableError

        with pytest.raises(UndefinedVariableError):
            handler().handle(make_request("$missing"))

    def test_malformed_message_xml(self):
        from repro.errors import XmlParseError, XrpcMarshalError

        with pytest.raises((XmlParseError, XrpcMarshalError)):
            RequestMessage.from_xml("<env:Envelope>not closed")

    def test_call_missing_a_parameter_sequence(self):
        """Typed where the message is decoded — it used to reach the
        body and surface as ``UndefinedVariableError``."""
        xml = make_request("$p", params=["p"],
                           calls=[Call([("p", [])])]).to_xml()
        assert "<xrpc:sequence></xrpc:sequence>" in xml
        with pytest.raises(XrpcMarshalError):
            RequestMessage.from_xml(
                xml.replace("<xrpc:sequence></xrpc:sequence>", ""))

    def test_dangling_fragment_reference(self):
        from repro.xrpc.messages import NodeRef

        request = make_request(
            "$p", params=["p"],
            calls=[Call([("p", [NodeRef(1, 99)])])],
            fragments=[element("<a/>")])
        with pytest.raises(XrpcMarshalError):
            handler().handle(request)

    def test_reference_to_missing_fragment(self):
        from repro.xrpc.messages import NodeRef

        request = make_request(
            "$p", params=["p"],
            calls=[Call([("p", [NodeRef(3, 1)])])],
            fragments=[element("<a/>")])
        with pytest.raises(XrpcMarshalError):
            handler().handle(request)

    def test_missing_attribute_reference(self):
        from repro.xrpc.messages import AttrRef

        request = make_request(
            "$p", params=["p"],
            calls=[Call([("p", [AttrRef(1, 1, "nope")])])],
            fragments=[element("<a/>")])
        with pytest.raises(XrpcMarshalError):
            handler().handle(request)
