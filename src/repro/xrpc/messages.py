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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import XrpcMarshalError
from repro.xmldb import axes as axes_mod
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
        request = _find_child(_body(doc), "xrpc:request")
        # Attribute names were flattened ("xrpc:base-uri" ->
        # "xrpc-base-uri") on the wire; restore the prefix.
        static_attrs = {}
        for attr in axes_mod.attribute(request):
            name = attr.name
            if name.startswith("xrpc-"):
                name = "xrpc:" + name[len("xrpc-"):]
            static_attrs[name] = attr.value
        used_paths: list[str] | None = None
        returned_paths: list[str] | None = None
        projection = next(axes_mod.axis_step(
            request, "child", "xrpc:projection-paths"), None)
        if projection is not None:
            used_paths = [n.string_value() for n in
                          axes_mod.axis_step(projection, "child",
                                             "xrpc:used-path")]
            returned_paths = [n.string_value() for n in
                              axes_mod.axis_step(projection, "child",
                                                 "xrpc:returned-path")]
        fragments = _fragments_from_xml(request)
        query = _find_child(request, "xrpc:query").string_value()
        params_elem = _find_child(request, "xrpc:params")
        param_names = [n.string_value() for n in
                       axes_mod.axis_step(params_elem, "child", "xrpc:name")]
        calls = []
        for call_elem in axes_mod.axis_step(request, "child", "xrpc:call"):
            sequences = [
                _sequence_from_xml(seq_elem)
                for seq_elem in axes_mod.axis_step(call_elem, "child",
                                                   "xrpc:sequence")
            ]
            calls.append(Call(list(zip(param_names, sequences))))
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
        response = _find_child(_body(doc), "xrpc:response")
        fragments = _fragments_from_xml(response)
        results = []
        for call_elem in axes_mod.axis_step(response, "child", "xrpc:call"):
            sequences = list(axes_mod.axis_step(call_elem, "child",
                                                "xrpc:sequence"))
            if len(sequences) != 1:
                raise XrpcMarshalError("response call must hold exactly "
                                       "one sequence")
            results.append(_sequence_from_xml(sequences[0]))
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


def _fragments_from_xml(request: Node) -> list[Node]:
    fragments_elem = _find_child(request, "xrpc:fragments")
    return [_only_element(fragment, "a fragment must hold one element")
            for fragment in axes_mod.axis_step(fragments_elem, "child",
                                               "xrpc:fragment")]


def _only_element(wrapper: Node, complaint: str) -> Node:
    """The single element child of a payload wrapper."""
    children = list(axes_mod.child(wrapper))
    if len(children) != 1 or children[0].kind != NodeKind.ELEMENT:
        raise XrpcMarshalError(complaint)
    return children[0]


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


def _sequence_from_xml(seq_elem: Node) -> list[Item]:
    items: list[Item] = []
    for child in axes_mod.child(seq_elem):
        if child.kind != NodeKind.ELEMENT:
            continue
        attrs = {a.name: a.value for a in axes_mod.attribute(child)}
        if child.name == "xrpc:atomic":
            items.append(Atomic(attrs.get("type", "xs:string"),
                                child.string_value()))
        elif child.name == "xrpc:element":
            if "fragid" in attrs:
                items.append(NodeRef(*_reference_ids(attrs)))
            else:
                items.append(NodeCopy("element", "", _only_element(
                    child, "element copy must hold one element")))
        elif child.name == "xrpc:attribute":
            if "fragid" in attrs:
                items.append(AttrRef(*_reference_ids(attrs),
                                     attrs.get("name", "")))
            else:
                items.append(NodeCopy("attribute", attrs.get("name", ""),
                                      child.string_value()))
        elif child.name == "xrpc:text":
            items.append(NodeCopy("text", "", child.string_value()))
        else:
            raise XrpcMarshalError(f"unknown sequence item <{child.name}>")
    return items


def _reference_ids(attrs: dict[str, str]) -> tuple[int, int]:
    """The ``fragid``/``nodeid`` pair of a by-fragment reference."""
    try:
        return int(attrs["fragid"]), int(attrs["nodeid"])
    except (KeyError, ValueError):
        raise XrpcMarshalError("a node reference needs integer fragid "
                               "and nodeid attributes") from None


def _body(doc: Document) -> Node:
    envelope = _find_child(doc.root, "env:Envelope")
    return _find_child(envelope, "env:Body")


def _find_child(node: Node, name: str) -> Node:
    for child in axes_mod.axis_step(node, "child", name):
        return child
    raise XrpcMarshalError(f"missing <{name}> in message")
