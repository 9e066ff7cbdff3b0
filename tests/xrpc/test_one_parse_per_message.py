"""One tree per message: an XRPC message is read once (one expat pass
over the envelope, shredding its payloads as they go by) and serialised
once (``to_xml``), and what is shredded out of it is its own document
every time.

The counting tests wrap the scanner and the serializer wherever a
``repro`` module holds them, the way ``benchmarks/e2e/spans.py`` does;
the identity tests state the paper's per-message semantics directly
over the wire path (``to_xml`` → ``from_xml`` → ``unmarshal_*``).
"""

import sys
import threading

import pytest

from repro.decompose.strategy import Strategy
from repro.workloads import (
    BENCHMARK_QUERY, SHARDED_BENCHMARK_QUERY, build_federation,
    build_sharded_federation,
)
from repro.xmldb import parser
from repro.xmldb.compare import is_same_node
from repro.xmldb.document import Document
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.serializer import serialize_node
from repro.xrpc import marshal
from repro.xrpc.marshal import unmarshal_calls, unmarshal_result
from repro.xrpc.messages import (
    Call, NodeCopy, NodeRef, RequestMessage, ResponseMessage,
)
from tests.conftest import element, over_the_wire
from tests.oracle import columns
from tests.xrpc.test_peer import handler


def _rebind(monkeypatch, original, replacement) -> None:
    """Replace ``original`` in every ``repro`` module that imported it."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "repro" or module_name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _count_codec_calls(monkeypatch) -> dict[str, list]:
    """Calls of ``parse_document`` / ``parse_fragment`` /
    ``serialize_node`` / ``from_xml`` / the expat pass (``parse``) from
    now on, the ``serialize_node`` calls made while a decoder
    (``from_xml``, ``unmarshal_*``) is on the calling thread's stack,
    and every document made that holds an ``env:Envelope`` row."""
    calls = {name: [] for name in ("parse_document", "parse_fragment",
                                   "serialize_node", "from_xml",
                                   "expat_pass", "decoding",
                                   "envelopes")}
    local = threading.local()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(1)  # list.append: safe on scatter threads
            if name == "serialize_node" and getattr(local, "depth", 0):
                calls["decoding"].append(1)
            return fn(*args, **kwargs)
        return wrapper

    def decoder(fn):
        def wrapper(*args, **kwargs):
            if fn.__name__ == "from_xml":
                calls["from_xml"].append(1)
            local.depth = getattr(local, "depth", 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                local.depth -= 1
        return wrapper

    for name, fn in (("parse_document", parse_document),
                     ("parse_fragment", parse_fragment),
                     ("serialize_node", serialize_node),
                     ("expat_pass", parser.parse)):
        _rebind(monkeypatch, fn, counted(name, fn))
    made = Document.__init__

    def init(self, *args, **kwargs):
        made(self, *args, **kwargs)
        if "env:Envelope" in self.names:
            calls["envelopes"].append(self)
    monkeypatch.setattr(Document, "__init__", init)
    for fn in (marshal.unmarshal_calls, marshal.unmarshal_result):
        _rebind(monkeypatch, fn, decoder(fn))
    for message_type in (RequestMessage, ResponseMessage):
        monkeypatch.setattr(message_type, "from_xml", classmethod(
            decoder(message_type.__dict__["from_xml"].__func__)))
    return calls


@pytest.mark.parametrize("build, query", [
    pytest.param(lambda: build_federation(0.01), BENCHMARK_QUERY,
                 id="by-projection"),
    pytest.param(lambda: build_sharded_federation(
        0.01, shard_count=4, replication_factor=2),
        SHARDED_BENCHMARK_QUERY, id="sharded-4x2"),
])
def test_a_message_is_read_in_one_pass_and_nothing_is_serialised_to_decode_it(
        monkeypatch, build, query):
    # Rewritten when the decoder became one expat pass: a message used
    # to be one ``parse_document`` of its envelope; now receiving it is
    # one ``from_xml``, one expat pass and no envelope document, and
    # a run that ships no document parses no text at all.
    federation = build()
    calls = _count_codec_calls(monkeypatch)
    stats = federation.run(query, at="local",
                           strategy=Strategy.BY_PROJECTION).stats
    assert stats.messages >= 4 and stats.documents_shipped == 0
    assert len(calls["from_xml"]) == stats.messages
    assert len(calls["expat_pass"]) == stats.messages
    assert calls["parse_document"] == calls["parse_fragment"] == []
    assert calls["envelopes"] == []
    assert calls["serialize_node"]  # the encoders' calls were seen
    assert calls["decoding"] == []


def test_two_references_into_one_fragment_are_one_node():
    response = over_the_wire(ResponseMessage(
        results=[[NodeRef(1, 2)], [NodeRef(1, 2), NodeRef(1, 1)]],
        fragments=[element("<a><b/></a>")]))
    (first,), (second, root) = unmarshal_result(
        response.results, response.fragments, "m")
    assert first.doc is second.doc is root.doc
    assert is_same_node(first, second) and first == second
    assert root.is_ancestor_of(first) and first.parent() == root


def test_the_same_text_decodes_to_new_documents_every_time():
    """A response replayed from the result cache, or a request sent
    twice, gets fresh node identity per delivery: each decoding of the
    text shreds its own documents."""
    # Was "unmarshalled twice": unmarshalling copied out of the parsed
    # envelope. Decoding makes the documents now, and unmarshalling
    # hands them out, so a delivery is a decoding.
    text = ResponseMessage(
        results=[[NodeRef(1, 1), NodeCopy("element", "", element("<v/>"))]],
        fragments=[element("<a/>")]).to_xml()
    docs = []
    for _delivery in range(3):
        response = ResponseMessage.from_xml(text)
        ((referenced, copied),) = unmarshal_result(
            response.results, response.fragments, "m")
        assert referenced.doc is response.fragments[0].doc
        docs += [referenced.doc, copied.doc]
    assert len({id(doc) for doc in docs}) == 6
    assert len({doc.doc_seq for doc in docs}) == 6


def test_shipped_roots_have_no_ancestors_above_them():
    """``parent::`` from a fragment root or a by-value copy finds
    nothing — not the ``xrpc:fragment`` / ``xrpc:element`` wrapper the
    node sat under in the envelope — and ``root()`` is the node."""
    request = over_the_wire(RequestMessage(
        query=("(count($f/parent::*), count($f/ancestor::node()), "
               "root($f) is $f, count($v/parent::*), "
               "count($v/ancestor::node()), root($v) is $v, "
               "count($v/child::c))"),
        param_names=["f", "v"],
        calls=[Call([("f", [NodeRef(1, 1)]),
                     ("v", [NodeCopy("element", "",
                                     element("<b><c/></b>"))])])],
        fragments=[element("<a><b/></a>")]))
    # Was: the root sat under its ``xrpc:fragment`` wrapper in the
    # parsed envelope. There is no envelope document now: the root's
    # document holds its payload and nothing else.
    assert request.fragments[0].parent() is None
    assert len(request.fragments[0].doc) == 2
    response = handler().handle(request)
    assert unmarshal_result(response.results, response.fragments, "m") == \
        [[0, 0, True, 0, 0, True, 1]]


def test_a_shipped_document_holds_only_its_payload():
    """Unmarshalling hands out the document decoding shredded for the
    fragment — its rows, its name postings, no envelope behind it —
    under the message's URI."""
    # Was "outlive the envelope": the shipped document was a column
    # copy of the parsed envelope; now there is nothing to copy from.
    request = over_the_wire(RequestMessage(
        query="$p", param_names=["p"],
        calls=[Call([("p", [NodeRef(1, 2)])])],
        fragments=[element("<a><b>t</b></a>")]))
    (((_name, (shipped,)),),) = unmarshal_calls(
        request.calls, request.fragments, "m")
    doc = shipped.doc
    assert doc is request.fragments[0].doc and doc.uri == "m#fragment1"
    assert columns(doc) == columns(parse_fragment("<a><b>t</b></a>"))
    assert doc.columns.postings is not None
    assert serialize_node(shipped) == "<b>t</b>"
