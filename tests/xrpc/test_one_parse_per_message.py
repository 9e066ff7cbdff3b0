"""One tree per message: an XRPC message is parsed once (the envelope)
and serialised once (``to_xml``), and what is shredded out of it is
still its own document every time.

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
from repro.xmldb.compare import is_same_node
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.serializer import serialize_node
from repro.xrpc import marshal
from repro.xrpc.marshal import unmarshal_calls, unmarshal_result
from repro.xrpc.messages import (
    Call, NodeCopy, NodeRef, RequestMessage, ResponseMessage,
)
from tests.conftest import element
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
    ``serialize_node`` from now on, and separately those
    ``serialize_node`` calls made while a decoder (``from_xml``,
    ``unmarshal_*``) is on the calling thread's stack."""
    calls = {name: [] for name in ("parse_document", "parse_fragment",
                                   "serialize_node", "decoding")}
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
            local.depth = getattr(local, "depth", 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                local.depth -= 1
        return wrapper

    for name, fn in (("parse_document", parse_document),
                     ("parse_fragment", parse_fragment),
                     ("serialize_node", serialize_node)):
        _rebind(monkeypatch, fn, counted(name, fn))
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
def test_a_message_is_parsed_once_and_nothing_is_serialised_to_decode_it(
        monkeypatch, build, query):
    federation = build()
    calls = _count_codec_calls(monkeypatch)
    stats = federation.run(query, at="local",
                           strategy=Strategy.BY_PROJECTION).stats
    assert stats.messages >= 4 and stats.documents_shipped == 0
    assert len(calls["parse_document"]) == stats.messages
    assert calls["parse_fragment"] == []
    assert calls["serialize_node"]  # the encoders' calls were seen
    assert calls["decoding"] == []


def _over_the_wire(message):
    return type(message).from_xml(message.to_xml())


def test_two_references_into_one_fragment_are_one_node():
    response = _over_the_wire(ResponseMessage(
        results=[[NodeRef(1, 2)], [NodeRef(1, 2), NodeRef(1, 1)]],
        fragments=[element("<a><b/></a>")]))
    (first,), (second, root) = unmarshal_result(
        response.results, response.fragments, "m")
    assert first.doc is second.doc is root.doc
    assert is_same_node(first, second) and first == second
    assert root.is_ancestor_of(first) and first.parent() == root


def test_the_same_text_shreds_to_new_documents_every_time():
    """A response replayed from the result cache, or a request sent
    twice, gets fresh node identity per delivery — and so does one
    parsed message unmarshalled twice."""
    text = ResponseMessage(
        results=[[NodeRef(1, 1), NodeCopy("element", "", element("<v/>"))]],
        fragments=[element("<a/>")]).to_xml()
    parsed = ResponseMessage.from_xml(text)
    docs = []
    for response in (parsed, parsed, ResponseMessage.from_xml(text)):
        ((referenced, copied),) = unmarshal_result(
            response.results, response.fragments, "m")
        docs += [referenced.doc, copied.doc]
    assert len({id(doc) for doc in docs}) == 6
    assert len({doc.doc_seq for doc in docs}) == 6
    assert parsed.fragments[0].doc not in docs


def test_shipped_roots_have_no_ancestors_above_them():
    """``parent::`` from a fragment root or a by-value copy finds
    nothing — not the ``xrpc:fragment`` / ``xrpc:element`` wrapper the
    node sat under in the envelope — and ``root()`` is the node."""
    request = _over_the_wire(RequestMessage(
        query=("(count($f/parent::*), count($f/ancestor::node()), "
               "root($f) is $f, count($v/parent::*), "
               "count($v/ancestor::node()), root($v) is $v, "
               "count($v/child::c))"),
        param_names=["f", "v"],
        calls=[Call([("f", [NodeRef(1, 1)]),
                     ("v", [NodeCopy("element", "",
                                     element("<b><c/></b>"))])])],
        fragments=[element("<a><b/></a>")]))
    assert request.fragments[0].parent().name == "xrpc:fragment"
    response = handler().handle(request)
    assert unmarshal_result(response.results, response.fragments, "m") == \
        [[0, 0, True, 0, 0, True, 1]]


def test_unmarshalled_documents_outlive_the_envelope():
    """The shredded documents are copies, not views: they hold no
    reference to the envelope document."""
    request = _over_the_wire(RequestMessage(
        query="$p", param_names=["p"],
        calls=[Call([("p", [NodeRef(1, 2)])])],
        fragments=[element("<a><b>t</b></a>")]))
    envelope = request.fragments[0].doc
    (((_name, (shipped,)),),) = unmarshal_calls(
        request.calls, request.fragments, "m")
    doc = shipped.doc
    assert doc is not envelope and len(doc) == 3
    for column in ("kinds", "names", "values", "sizes", "levels",
                   "parents"):
        assert getattr(doc, column) is not getattr(envelope, column)
    assert serialize_node(shipped) == "<b>t</b>"
