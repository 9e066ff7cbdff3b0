"""The column decoder that ``xrpc/messages.py`` replaced.

It parses the whole envelope with ``parse_document``, reads the parsed
envelope's columns by pre — children are ``cursor += sizes[cursor] +
1`` from ``pre + 1``, attributes the ATTRIBUTE rows right after the
element, a string value the TEXT rows — and unmarshalling then copies
each fragment and each by-value copy out of the envelope into a fresh
document (:func:`build_fragment_from_node`, a column slice). Kept as
the reference the one-pass decoder is checked against
(``tests/xrpc/test_decoder_differential.py``): ``decode_request`` /
``decode_response`` return a message whose payloads are those copies,
for ``unmarshal_*`` to hand out like a decoded message's — same fields,
same items, same payload documents, same refusals.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import XrpcMarshalError
from repro.xmldb.columns import ColumnSet
from repro.xmldb.document import Document, DocumentBuilder
from repro.xmldb.node import Node, NodeKind
from repro.xmldb.parser import parse_document
from repro.xrpc.messages import (
    Atomic, AttrRef, Call, Item, NodeCopy, NodeRef, RequestMessage,
    ResponseMessage,
)

_ELEMENT = int(NodeKind.ELEMENT)
_ATTRIBUTE = int(NodeKind.ATTRIBUTE)
_TEXT = int(NodeKind.TEXT)


def build_fragment_from_node(uri: str, root: Node) -> Document:
    """Copy one element's subtree into a fresh fragment document: a
    column slice that keeps no reference to the source, so the copy has
    new node identity and no ancestors."""
    builder = DocumentBuilder(uri)
    builder.copy_subtree(root)
    return builder.finish()


# -- decoding ----------------------------------------------------------------


def decode_request(text: str) -> RequestMessage:
    """The column decoder's reading of ``text``, payloads copied out."""
    doc = parse_document(text, uri="xrpc:request")
    request = _find_child(doc, _body(doc), "xrpc:request")
    static_attrs = {
        ("xrpc:" + name[len("xrpc-"):] if name.startswith("xrpc-")
         else name): value
        for name, value in _attributes(doc, request).items()}
    used_paths: list[str] | None = None
    returned_paths: list[str] | None = None
    paths = _elements(doc, request, "xrpc:projection-paths")
    if paths:
        used_paths = [_string_value(doc, pre) for pre in
                      _elements(doc, paths[0], "xrpc:used-path")]
        returned_paths = [_string_value(doc, pre) for pre in _elements(
            doc, paths[0], "xrpc:returned-path")]
    fragments = _fragments_from_xml(doc, request)
    query = _string_value(doc, _find_child(doc, request, "xrpc:query"))
    param_names = [_string_value(doc, pre) for pre in _elements(
        doc, _find_child(doc, request, "xrpc:params"), "xrpc:name")]
    calls = []
    for call in _elements(doc, request, "xrpc:call"):
        sequences = _elements(doc, call, "xrpc:sequence")
        if len(sequences) != len(param_names):
            raise XrpcMarshalError(
                f"call holds {len(sequences)} sequences for "
                f"{len(param_names)} parameters")
        calls.append(Call([(name, _sequence_from_xml(doc, pre))
                           for name, pre in zip(param_names, sequences)]))
    return _copied(RequestMessage(
        query=query, param_names=param_names, calls=calls,
        fragments=fragments, static_attrs=static_attrs,
        used_paths=used_paths, returned_paths=returned_paths))


def decode_response(text: str) -> ResponseMessage:
    """The column decoder's reading of ``text``, payloads copied out."""
    doc = parse_document(text, uri="xrpc:response")
    response = _find_child(doc, _body(doc), "xrpc:response")
    fragments = _fragments_from_xml(doc, response)
    results = []
    for call in _elements(doc, response, "xrpc:call"):
        sequences = _elements(doc, call, "xrpc:sequence")
        if len(sequences) != 1:
            raise XrpcMarshalError("response call must hold exactly "
                                   "one sequence")
        results.append(_sequence_from_xml(doc, sequences[0]))
    return _copied(ResponseMessage(results=results, fragments=fragments))


def _elements(doc: Document, pre: int, name: str | None = None) -> list[int]:
    """The element children of ``pre`` (named ``name``), in order."""
    kinds, names, sizes = doc.kinds, doc.names, doc.sizes
    found = []
    cursor = pre + 1
    end = pre + sizes[pre]
    while cursor <= end:
        if kinds[cursor] == _ELEMENT and (name is None
                                          or names[cursor] == name):
            found.append(cursor)
        cursor += sizes[cursor] + 1
    return found


def _find_child(doc: Document, pre: int, name: str) -> int:
    found = _elements(doc, pre, name)
    if not found:
        raise XrpcMarshalError(f"missing <{name}> in message")
    return found[0]


def _body(doc: Document) -> int:
    return _find_child(doc, _find_child(doc, 0, "env:Envelope"), "env:Body")


def _attributes(doc: Document, pre: int) -> dict[str, str]:
    kinds, names, values = doc.kinds, doc.names, doc.values
    attrs: dict[str, str] = {}
    cursor = pre + 1
    while cursor < doc.count and kinds[cursor] == _ATTRIBUTE:
        attrs[names[cursor]] = values[cursor]
        cursor += 1
    return attrs


def _string_value(doc: Document, pre: int) -> str:
    kinds, values = doc.kinds, doc.values
    return "".join([values[row]
                    for row in range(pre + 1, pre + doc.sizes[pre] + 1)
                    if kinds[row] == _TEXT])


def _fragments_from_xml(doc: Document, message: int) -> list[Node]:
    fragments = _find_child(doc, message, "xrpc:fragments")
    return [_only_element(doc, pre, "a fragment must hold one element")
            for pre in _elements(doc, fragments, "xrpc:fragment")]


def _only_element(doc: Document, wrapper: int, complaint: str) -> Node:
    """The single element child of a payload wrapper."""
    kinds, sizes = doc.kinds, doc.sizes
    end = wrapper + sizes[wrapper]
    content = wrapper + 1
    while content <= end and kinds[content] == _ATTRIBUTE:
        content += 1
    if content > end or kinds[content] != _ELEMENT \
            or content + sizes[content] != end:
        raise XrpcMarshalError(complaint)
    return Node(doc, content)


def _sequence_from_xml(doc: Document, sequence: int) -> list[Item]:
    return [_item_from_xml(doc, pre) for pre in _elements(doc, sequence)]


#: The copies that travel as their string value, by wrapper name.
_LEAVES = {"xrpc:text": "text", "xrpc:comment": "comment",
           "xrpc:processing-instruction": "processing-instruction"}


def _item_from_xml(doc: Document, pre: int) -> Item:
    name = doc.names[pre]
    attrs = _attributes(doc, pre)
    if name == "xrpc:atomic":
        return Atomic(attrs.get("type", "xs:string"),
                      _string_value(doc, pre))
    if name == "xrpc:element":
        if "fragid" in attrs:
            return NodeRef(*_reference_ids(attrs))
        return NodeCopy("element", "", _only_element(
            doc, pre, "element copy must hold one element"))
    if name == "xrpc:attribute":
        if "fragid" in attrs:
            return AttrRef(*_reference_ids(attrs), attrs.get("name", ""))
        return NodeCopy("attribute", attrs.get("name", ""),
                        _string_value(doc, pre))
    if name in _LEAVES:
        kind = _LEAVES[name]
        return NodeCopy(kind, attrs.get("name", "")
                        if kind == "processing-instruction" else "",
                        _string_value(doc, pre))
    raise XrpcMarshalError(f"unknown sequence item <{name}>")


def _reference_ids(attrs: dict[str, str]) -> tuple[int, int]:
    """The ``fragid``/``nodeid`` pair of a by-fragment reference."""
    try:
        return int(attrs["fragid"]), int(attrs["nodeid"])
    except (KeyError, ValueError):
        raise XrpcMarshalError("a node reference needs integer fragid "
                               "and nodeid attributes") from None


# -- the copy unmarshalling made ----------------------------------------------


_LEAF_KINDS = {"attribute": NodeKind.ATTRIBUTE, "text": NodeKind.TEXT,
               "comment": NodeKind.COMMENT,
               "processing-instruction": NodeKind.PROCESSING_INSTRUCTION}


def _copy(item: Item) -> Item:
    if not isinstance(item, NodeCopy):
        return item
    if item.node_kind == "element":
        root = build_fragment_from_node("", item.content).root
    else:
        root = Document("", ColumnSet([_LEAF_KINDS[item.node_kind]],
                                      [item.name], [item.content], [0], [0],
                                      [-1])).root
    return NodeCopy(item.node_kind, item.name, root)


def _copied(message):
    """``message`` with its payloads copied out of the envelope the way
    unmarshalling did: each fragment, then each by-value copy in item
    order, into a fresh document (named when it is unmarshalled)."""
    fragments = [build_fragment_from_node("", root).root
                 for root in message.fragments]
    if isinstance(message, RequestMessage):
        return replace(message, fragments=fragments, calls=[
            Call([(name, [_copy(item) for item in items])
                  for name, items in call.params])
            for call in message.calls])
    return replace(message, fragments=fragments, results=[
        [_copy(item) for item in items] for items in message.results])
