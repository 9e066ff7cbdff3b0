"""XRPC message structures and their XML wire format.

Follows Figures 4 and 5 of the paper: an ``env:Envelope``/``env:Body``
SOAP skeleton around an ``xrpc:request`` (or ``xrpc:response``) that
carries

* the static-context attributes (Problem 5 Class 1),
* an optional ``xrpc:projection-paths`` element with ``used-path`` /
  ``returned-path`` children (its presence selects pass-by-projection
  for the response, exactly as Section VI specifies),
* an ``xrpc:fragments`` preamble holding each XML fragment once,
  sorted in document order (pass-by-fragment / projection), and
* one ``xrpc:call`` per Bulk RPC call, each parameter a sequence of
  items: atomics, verbatim node copies (pass-by-value), or
  ``fragid``/``nodeid`` references into the fragments preamble.

The shipped function body travels as query text in ``xrpc:query`` —
XRPC is "a pure XQuery rewriter (not making any assumptions on the
system internals of the participating peers)", so shipping source text
is precisely the interoperability story of the paper.

A message holds its XML payload as **nodes**, never as text: a
fragment, or an element copied by value, is the :class:`Node` at the
root of its subtree — in the source (or projected) document on the
sending side, in the parsed envelope on the receiving side. So each
message is serialised once (``to_xml``, the only producer of message
text) and parsed once (``from_xml``: one ``parse_document`` of the
envelope, nothing serialised back out of it). Shredding a payload node
into its own fresh document is ``xrpc/marshal.py``'s half.

Decoding reads the parsed envelope's **columns** by pre, not node
handles: children are ``cursor += sizes[cursor] + 1`` from ``pre + 1``,
attributes the ATTRIBUTE rows right after the element, a string value
the TEXT rows. Only what leaves the decoder — a fragment root, an
element copied by value — becomes a ``Node``. A call must hold one
``xrpc:sequence`` per declared parameter, a response call exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import XrpcMarshalError
from repro.xmldb.document import Document
from repro.xmldb.node import Node, NodeKind
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import (
    escape_attribute, escape_text, serialize_node,
)


@dataclass(frozen=True)
class Atomic:
    """An atomic item: XML Schema type name plus lexical form."""

    type_name: str
    lexical: str


@dataclass(frozen=True)
class NodeCopy:
    """A pass-by-value node copy.

    ``node_kind`` distinguishes elements from attribute/text copies
    (standalone attributes have no XML syntax; XRPC wraps them, per
    footnote 2 of the paper). An element copy holds the element node
    whose subtree travels; attribute and text copies hold their string
    value.
    """

    node_kind: str       # "element" | "attribute" | "text"
    name: str            # attribute name (empty otherwise)
    content: Node | str  # the element node; else the string value


@dataclass(frozen=True)
class NodeRef:
    """A pass-by-fragment reference: fragid/nodeid per Figure 4."""

    fragid: int
    nodeid: int


@dataclass(frozen=True)
class AttrRef:
    """An attribute reference: owner nodeid plus attribute name."""

    fragid: int
    nodeid: int
    name: str


Item = Atomic | NodeCopy | NodeRef | AttrRef


@dataclass
class Call:
    """One function application: named parameter sequences."""

    params: list[tuple[str, list[Item]]] = field(default_factory=list)


@dataclass
class RequestMessage:
    """An XRPC request (possibly bulk: several calls, same function)."""

    query: str                       # shipped function body (XQuery text)
    param_names: list[str]
    calls: list[Call]
    #: Root element of each fragment, in fragid order.
    fragments: list[Node] = field(default_factory=list)
    static_attrs: dict[str, str] = field(default_factory=dict)
    #: Response projection paths (Urel/Rrel(vxrpc)); presence selects
    #: the pass-by-projection response format.
    used_paths: list[str] | None = None
    returned_paths: list[str] | None = None

    def to_xml(self) -> str:
        out = [_ENVELOPE_OPEN, "<xrpc:request"]
        out.extend(f' {key.replace(":", "-")}='
                   f'"{escape_attribute(self.static_attrs[key])}"'
                   for key in sorted(self.static_attrs))
        out.append(">")
        if self.used_paths is not None or self.returned_paths is not None:
            out.append("<xrpc:projection-paths>")
            out.extend(f"<xrpc:used-path>{escape_text(path)}"
                       f"</xrpc:used-path>"
                       for path in self.used_paths or [])
            out.extend(f"<xrpc:returned-path>{escape_text(path)}"
                       f"</xrpc:returned-path>"
                       for path in self.returned_paths or [])
            out.append("</xrpc:projection-paths>")
        _fragments_to_xml(self.fragments, out)
        out.append(f"<xrpc:query>{escape_text(self.query)}</xrpc:query>")
        out.append("<xrpc:params>")
        out.extend(f"<xrpc:name>{escape_text(name)}</xrpc:name>"
                   for name in self.param_names)
        out.append("</xrpc:params>")
        for call in self.calls:
            out.append("<xrpc:call>")
            for _name, items in call.params:
                _sequence_to_xml(items, out)
            out.append("</xrpc:call>")
        out.append("</xrpc:request>")
        out.append(_ENVELOPE_CLOSE)
        return "".join(out)

    @classmethod
    def from_xml(cls, text: str) -> "RequestMessage":
        doc = parse_document(text, uri="xrpc:request")
        request = _find_child(doc, _body(doc), "xrpc:request")
        # Attribute names were flattened ("xrpc:base-uri" ->
        # "xrpc-base-uri") on the wire; restore the prefix.
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
        return cls(query=query, param_names=param_names, calls=calls,
                   fragments=fragments, static_attrs=static_attrs,
                   used_paths=used_paths, returned_paths=returned_paths)


@dataclass
class ResponseMessage:
    """An XRPC response: one result sequence per request call."""

    results: list[list[Item]]
    #: Root element of each fragment, in fragid order.
    fragments: list[Node] = field(default_factory=list)

    def to_xml(self) -> str:
        out = [_ENVELOPE_OPEN, "<xrpc:response>"]
        _fragments_to_xml(self.fragments, out)
        for items in self.results:
            out.append("<xrpc:call>")
            _sequence_to_xml(items, out)
            out.append("</xrpc:call>")
        out.append("</xrpc:response>")
        out.append(_ENVELOPE_CLOSE)
        return "".join(out)

    @classmethod
    def from_xml(cls, text: str) -> "ResponseMessage":
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
        return cls(results=results, fragments=fragments)


# ---------------------------------------------------------------------------
# Wire helpers
# ---------------------------------------------------------------------------

_ENVELOPE_OPEN = ('<env:Envelope xmlns:env='
                  '"http://www.w3.org/2003/05/soap-envelope" '
                  'xmlns:xrpc="http://monetdb.cwi.nl/XQuery">'
                  "<env:Body>")
_ENVELOPE_CLOSE = "</env:Body></env:Envelope>"


def _fragments_to_xml(fragments: list[Node], out: list[str]) -> None:
    if not fragments:
        out.append("<xrpc:fragments/>")
        return
    out.append("<xrpc:fragments>")
    out.extend(f"<xrpc:fragment>{serialize_node(fragment)}</xrpc:fragment>"
               for fragment in fragments)
    out.append("</xrpc:fragments>")


# -- decoding: column reads by pre (see the module docstring) ---------------

_ELEMENT = int(NodeKind.ELEMENT)
_ATTRIBUTE = int(NodeKind.ATTRIBUTE)
_TEXT = int(NodeKind.TEXT)


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


def _sequence_to_xml(items: list[Item], out: list[str]) -> None:
    out.append("<xrpc:sequence>")
    for item in items:
        if isinstance(item, Atomic):
            out.append(f'<xrpc:atomic type="{item.type_name}">'
                       f"{escape_text(item.lexical)}</xrpc:atomic>")
        elif isinstance(item, NodeCopy):
            if item.node_kind == "element":
                out.append(f"<xrpc:element>{serialize_node(item.content)}"
                           f"</xrpc:element>")
            elif item.node_kind == "attribute":
                out.append(f'<xrpc:attribute name='
                           f'"{escape_attribute(item.name)}">'
                           f"{escape_text(item.content)}</xrpc:attribute>")
            else:
                out.append(f"<xrpc:text>{escape_text(item.content)}"
                           f"</xrpc:text>")
        elif isinstance(item, NodeRef):
            out.append(f'<xrpc:element fragid="{item.fragid}" '
                       f'nodeid="{item.nodeid}"/>')
        elif isinstance(item, AttrRef):
            out.append(f'<xrpc:attribute fragid="{item.fragid}" '
                       f'nodeid="{item.nodeid}" '
                       f'name="{escape_attribute(item.name)}"/>')
        else:  # pragma: no cover - exhaustive
            raise XrpcMarshalError(f"unknown item {item!r}")
    out.append("</xrpc:sequence>")


def _sequence_from_xml(doc: Document, sequence: int) -> list[Item]:
    return [_item_from_xml(doc, pre) for pre in _elements(doc, sequence)]


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
    if name == "xrpc:text":
        return NodeCopy("text", "", _string_value(doc, pre))
    raise XrpcMarshalError(f"unknown sequence item <{name}>")


def _reference_ids(attrs: dict[str, str]) -> tuple[int, int]:
    """The ``fragid``/``nodeid`` pair of a by-fragment reference."""
    try:
        return int(attrs["fragid"]), int(attrs["nodeid"])
    except (KeyError, ValueError):
        raise XrpcMarshalError("a node reference needs integer fragid "
                               "and nodeid attributes") from None
