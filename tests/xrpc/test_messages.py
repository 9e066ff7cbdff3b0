"""Message wire format: Figures 4-5 shapes and XML round-trips."""

import pytest

from repro.errors import XrpcMarshalError
from repro.xmldb.node import Node
from repro.xmldb.serializer import serialize_node
from repro.xrpc.messages import (
    Atomic, AttrRef, Call, NodeCopy, NodeRef, RequestMessage,
    ResponseMessage,
)
from tests.conftest import element, texts


def roundtrip_request(request: RequestMessage) -> RequestMessage:
    return RequestMessage.from_xml(request.to_xml())


class TestRequestRoundTrip:
    def test_atomics(self):
        request = RequestMessage(
            query="$p", param_names=["p"],
            calls=[Call([("p", [Atomic("xs:integer", "42"),
                                Atomic("xs:string", "a<b&c")])])])
        back = roundtrip_request(request)
        assert back.query == "$p"
        assert back.calls[0].params[0][1] == [
            Atomic("xs:integer", "42"), Atomic("xs:string", "a<b&c")]

    def test_node_copy(self):
        request = RequestMessage(
            query="$p", param_names=["p"],
            calls=[Call([("p", [NodeCopy("element", "",
                                         element("<a x=\"1\"><b/></a>"))])])])
        back = roundtrip_request(request)
        (item,) = back.calls[0].params[0][1]
        assert isinstance(item, NodeCopy)
        assert isinstance(item.content, Node)
        assert serialize_node(item.content) == '<a x="1"><b/></a>'

    def test_attribute_copy(self):
        request = RequestMessage(
            query="$p", param_names=["p"],
            calls=[Call([("p", [NodeCopy("attribute", "id", "v&1")])])])
        (item,) = roundtrip_request(request).calls[0].params[0][1]
        # Decoded, a copy holds its node, in a document of its own (made
        # in text order with the other payload documents), not a string.
        assert item.name == "id" and item.content.value == "v&1"
        assert item.content.name == "id" and item.content.pre == 0

    def test_fragment_references(self):
        request = RequestMessage(
            query="($l, $r)", param_names=["l", "r"],
            calls=[Call([("l", [NodeRef(1, 2)]),
                         ("r", [AttrRef(1, 1, "id")])])],
            fragments=[element("<a><b/></a>")])
        back = roundtrip_request(request)
        assert texts(back.fragments) == ["<a><b/></a>"]
        assert back.calls[0].params[0][1] == [NodeRef(1, 2)]
        assert back.calls[0].params[1][1] == [AttrRef(1, 1, "id")]

    def test_bulk_calls(self):
        request = RequestMessage(
            query="$p", param_names=["p"],
            calls=[Call([("p", [Atomic("xs:integer", str(i))])])
                   for i in range(3)])
        assert len(roundtrip_request(request).calls) == 3

    def test_static_context_attributes(self):
        request = RequestMessage(
            query="1", param_names=[], calls=[Call([])],
            static_attrs={"xrpc:base-uri": "http://x/",
                          "xrpc:current-dateTime": "t"})
        back = roundtrip_request(request)
        assert back.static_attrs["xrpc:base-uri"] == "http://x/"

    def test_projection_paths_element(self):
        """Figure 5: the request for makenodes() carries parent::a as
        a returned path; presence selects by-projection responses."""
        request = RequestMessage(
            query="makenodes()", param_names=[], calls=[Call([])],
            used_paths=[], returned_paths=["parent::a"])
        xml = request.to_xml()
        assert "<xrpc:projection-paths>" in xml
        assert ("<xrpc:returned-path>parent::a"
                "</xrpc:returned-path>") in xml
        back = RequestMessage.from_xml(xml)
        assert back.returned_paths == ["parent::a"]

    def test_absent_projection_paths_is_none(self):
        request = RequestMessage(query="1", param_names=[],
                                 calls=[Call([])])
        back = roundtrip_request(request)
        assert back.used_paths is None
        assert back.returned_paths is None


class TestCallArity:
    """A call carries one sequence per declared parameter: pairing by
    ``zip`` used to leave a parameter unbound (fewer) or drop data
    (more) without a word."""

    SEQUENCE = ('<xrpc:sequence><xrpc:atomic type="xs:integer">2'
                '</xrpc:atomic></xrpc:sequence>')

    def request_xml(self) -> str:
        xml = RequestMessage(
            query="($l, $r)", param_names=["l", "r"],
            calls=[Call([("l", [Atomic("xs:integer", "1")]),
                         ("r", [Atomic("xs:integer", "2")])])]).to_xml()
        assert xml.count(self.SEQUENCE) == 1
        return xml

    def test_a_sequence_per_parameter_decodes(self):
        (call,) = RequestMessage.from_xml(self.request_xml()).calls
        assert [name for name, _items in call.params] == ["l", "r"]

    @pytest.mark.parametrize("sequences, found", [(0, 1), (2, 3)])
    def test_fewer_or_more_sequences_than_parameters(self, sequences,
                                                     found):
        xml = self.request_xml().replace(self.SEQUENCE,
                                         self.SEQUENCE * sequences)
        with pytest.raises(XrpcMarshalError,
                           match=f"{found} sequences for 2 parameters"):
            RequestMessage.from_xml(xml)

    def test_a_call_without_sequences_needs_no_parameters(self):
        request = RequestMessage(query="1", param_names=[],
                                 calls=[Call([]), Call([])])
        assert [call.params for call in
                roundtrip_request(request).calls] == [[], []]


class TestResponse:
    def test_roundtrip(self):
        response = ResponseMessage(
            results=[[NodeRef(1, 2)], [Atomic("xs:boolean", "true")]],
            fragments=[element("<a><b><c/></b></a>")])
        back = ResponseMessage.from_xml(response.to_xml())
        assert back.results == [[NodeRef(1, 2)],
                                [Atomic("xs:boolean", "true")]]
        assert texts(back.fragments) == ["<a><b><c/></b></a>"]

    def test_figure4_shape(self):
        """The pass-by-fragment response of Figure 4: one fragment,
        references carrying fragid/nodeid."""
        response = ResponseMessage(results=[[NodeRef(1, 2)]],
                                   fragments=[element("<a><b><c/></b></a>")])
        xml = response.to_xml()
        assert ("<xrpc:fragments><xrpc:fragment><a><b><c/></b></a>"
                "</xrpc:fragment></xrpc:fragments>") in xml
        assert '<xrpc:element fragid="1" nodeid="2"/>' in xml

    def test_envelope_is_soap(self):
        response = ResponseMessage(results=[[]])
        xml = response.to_xml()
        assert xml.startswith("<env:Envelope")
        assert "soap-envelope" in xml
