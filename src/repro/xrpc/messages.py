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
fragment, or a node copied by value, is the :class:`Node` at the root
of its subtree — in the source (or projected) document on the sending
side, in a document of its own on the receiving side. So each message
is serialised once (``to_xml``, the only producer of message text) and
read once (``from_xml``: one expat pass, nothing serialised back out).

Decoding builds no envelope document: its handlers (:class:`_Envelope`)
fill the message fields and call / sequence lists as the tags go by,
an envelope element's role given by its parent's and its name. When an
``xrpc:sequence`` opens they hand the parser to the item handlers,
which read each item in one step — a reference, atomic or leaf copy
straight from expat's ordered attribute list, no role or attribute
dictionary per item — and hand it back at the sequence's end tag.
Inside an ``xrpc:fragment`` or a by-value ``xrpc:element`` the parser
goes to the scanner's shredding handlers
(:func:`repro.xmldb.parser.shred`) for that payload alone, so payload
documents, leaf copies too, are made in text order. The first of each
singular part is read, later ones skipped; refusals
(:class:`XrpcMarshalError`) wait until expat has read the whole text,
so malformed text is ``parse_document``'s ``XmlParseError``. A call
holds one ``xrpc:sequence`` per parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import XrpcMarshalError
from repro.xmldb.columns import ColumnSet
from repro.xmldb.document import Document
from repro.xmldb.node import Node, NodeKind
from repro.xmldb.parser import parse, shred
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

    ``node_kind`` is the copied node's kind (a standalone attribute,
    text, comment or PI has no XML syntax of its own; XRPC wraps each,
    per footnote 2 of the paper). An element copy holds the element
    node whose subtree travels; any other copy holds its string value
    when encoded, and once decoded every copy holds its node, the root
    of a document of its own.
    """

    node_kind: str       # "element" | "attribute" | "text" | "comment"
                         # | "processing-instruction"
    name: str            # attribute name or PI target (empty otherwise)
    content: Node | str  # the node; or, encoding, its string value


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
        envelope = _Envelope(text, "xrpc:request")
        strings, paths = envelope.strings, "paths" in envelope.seen
        # Attribute names were flattened ("xrpc:base-uri" ->
        # "xrpc-base-uri") on the wire; restore the prefix.
        static_attrs = {
            ("xrpc:" + name[len("xrpc-"):] if name.startswith("xrpc-")
             else name): value
            for name, value in envelope.attrs.items()}
        return cls(query=strings["query"][0], param_names=strings["name"],
                   calls=[Call(list(zip(strings["name"], sequences)))
                          for sequences in envelope.calls],
                   fragments=envelope.fragments, static_attrs=static_attrs,
                   used_paths=strings["used-path"] if paths else None,
                   returned_paths=strings["returned-path"] if paths else None)


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
        envelope = _Envelope(text, "xrpc:response")
        return cls(results=[sequence for sequence, in envelope.calls],
                   fragments=envelope.fragments)

    def fresh(self) -> "ResponseMessage":
        """This decoded message as a new decoding would give it: each
        payload's columns in a new document, made in ``from_xml``'s
        order (fragments, then copies by item), the items shared."""
        def wrap(node: Node) -> Node:
            return Document(node.doc.uri, node.doc.columns).root
        fragments = [wrap(root) for root in self.fragments]
        return ResponseMessage(
            results=[[NodeCopy(item.node_kind, item.name, wrap(item.content))
                      if isinstance(item, NodeCopy) else item
                      for item in items] for items in self.results],
            fragments=fragments)


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


def _sequence_to_xml(items: list[Item], out: list[str]) -> None:
    out.append("<xrpc:sequence>")
    for item in items:
        if isinstance(item, Atomic):
            out.append(f'<xrpc:atomic type="{item.type_name}">'
                       f"{escape_text(item.lexical)}</xrpc:atomic>")
        elif isinstance(item, NodeCopy):
            kind, content = item.node_kind, item.content
            if kind == "element":
                out.append(f"<xrpc:element>{serialize_node(content)}"
                           f"</xrpc:element>")
            else:
                named = (f' name="{escape_attribute(item.name)}"'
                         if kind in _NAMED else "")
                value = content if isinstance(content, str) else content.value
                out.append(f"<xrpc:{kind}{named}>{escape_text(value)}"
                           f"</xrpc:{kind}>")
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


# -- decoding: one expat pass (see the module docstring) ---------------------

#: (parent's role, element name) → the element's role; an element with
#: no role is skipped, content and all.
_ROLES = {
    ("document", "env:Envelope"): "envelope", ("envelope", "env:Body"): "body",
    ("body", "xrpc:request"): "message", ("body", "xrpc:response"): "message",
    ("message", "xrpc:projection-paths"): "paths",
    ("paths", "xrpc:used-path"): "used-path",
    ("paths", "xrpc:returned-path"): "returned-path",
    ("message", "xrpc:fragments"): "fragments",
    ("fragments", "xrpc:fragment"): "fragment",
    ("message", "xrpc:query"): "query", ("message", "xrpc:params"): "params",
    ("params", "xrpc:name"): "name", ("message", "xrpc:call"): "call",
    ("call", "xrpc:sequence"): "sequence",
}
#: The parts a message must have (a response, the first four).
_PARTS = [("envelope", "env:Envelope"), ("body", "env:Body"),
          ("message", None), ("fragments", "xrpc:fragments"),
          ("query", "xrpc:query"), ("params", "xrpc:params")]
#: Roles only the first such element takes.
_ONCE = frozenset([role for role, _element in _PARTS] + ["paths"])
#: Roles read for their string value.
_STRINGS = frozenset({"used-path", "returned-path", "query", "name"})
#: The copies that travel as their string value (kind → node kind), and
#: those whose wrapper carries a ``name`` attribute.
LEAF_KINDS = {"attribute": NodeKind.ATTRIBUTE, "text": NodeKind.TEXT,
              "comment": NodeKind.COMMENT,
              "processing-instruction": NodeKind.PROCESSING_INSTRUCTION}
_NAMED = frozenset({"attribute", "processing-instruction"})
#: A sequence's items by element name: the kind, and for one read for
#: its string value the attribute labelling it (an atomic's type, a
#: named copy's name) and the label's default.
_ITEMS = {"xrpc:atomic": ("atomic", "type", "xs:string"),
          "xrpc:element": ("element", None, ""),
          **{f"xrpc:{kind}": (kind, "name" if kind in _NAMED else None, "")
             for kind in LEAF_KINDS}}
_FRAGMENT = "a fragment must hold one element"
_COPY = "element copy must hold one element"


def _attribute(attrs: list[str], name: str) -> str | None:
    """Attribute ``name``'s value in expat's ordered list, or None."""
    index = -1
    try:
        while True:
            index = attrs.index(name, index + 1)
            if not index & 1:        # a name, not a value
                return attrs[index + 1]
    except ValueError:
        return None


class _Envelope:
    """The parts of one message text, read in one expat pass: the
    envelope by a role machine (a role per open element), a sequence's
    items by the item handlers, from its start tag to its end tag."""

    def __init__(self, text: str, message: str):
        self.message, self.seen = message, set()
        self.stack: list[str | None] = ["document"]  # open elements' roles
        self.refusals: list[str] = []  # the first is raised after parsing
        self.sink: list[str] | None = None  # the open string's text
        self.payload: Node | None = None    # the open wrapper's element
        self.attrs: dict[str, str] = {}     # the message element's
        #: The string values of the message's own parts, by role.
        self.strings: dict[str, list[str]] = {
            "query": [], "name": [], "used-path": [], "returned-path": []}
        self.fragments: list[Node] = []
        self.calls: list[list[list[Item]]] = []  # call → sequence → items
        #: The open sequence's items (None outside one), the depth below
        #: it, and the open item's kind (None: content skipped) and label.
        self.items: list[Item] | None = None
        self.depth, self.kind, self.label = 0, None, ""
        try:
            parse(text, True, self._listen)
        finally:
            del self.parser  # it holds this reader's bound handlers
        request = message == "xrpc:request"
        for role, element in _PARTS if request else _PARTS[:4]:
            if role not in self.seen:
                raise XrpcMarshalError(
                    f"missing <{element or message}> in message")
        arity = len(self.strings["name"]) if request else 1
        for sequences in self.calls:
            if len(sequences) != arity:
                raise XrpcMarshalError(f"call holds {len(sequences)} "
                                       f"sequences for {arity} parameters")
        if self.refusals:
            raise XrpcMarshalError(self.refusals[0])

    def _listen(self, parser) -> None:
        """The envelope's handlers on ``parser``, or in a sequence the
        item reader's."""
        self.parser = parser
        reading = self.items is not None
        parser.StartElementHandler = self.item if reading else self.start
        parser.EndElementHandler = self.item_end if reading else self.end
        parser.CharacterDataHandler = self.text
        parser.CommentHandler = parser.ProcessingInstructionHandler = self.misc

    def _landed(self, document: Document) -> None:
        self.payload = document.root
        self._listen(self.parser)

    def start(self, name: str, attrs: list[str]) -> None:
        parent = self.stack[-1]
        if parent == "fragment":
            if self.payload is None:
                shred(self.parser, False, self._landed)(name, attrs)
                return  # the shredder has the element up to its end tag
            self.refusals.append(_FRAGMENT)
        role = _ROLES.get((parent, name))
        if role in self.seen or role == "message" and name != self.message:
            role = None  # a later singular part, or the other message
        elif role in _ONCE:
            self.seen.add(role)
        if role == "message":
            self.attrs = dict(zip(attrs[::2], attrs[1::2]))
        elif role == "call":
            self.calls.append([])
        elif role == "sequence":
            self.items = []
            self.calls[-1].append(self.items)
            self._listen(self.parser)
        elif role in _STRINGS:
            self.sink = []
        elif role == "fragment":
            self.payload = None
        self.stack.append(role)

    def end(self, _name: str) -> None:
        role = self.stack.pop()
        if role in _STRINGS:
            self.strings[role].append("".join(self.sink))
            self.sink = None
        elif role == "fragment":
            if self.payload is None:
                self.refusals.append(_FRAGMENT)
            else:
                self.fragments.append(self.payload)

    def item(self, name: str, attrs: list[str]) -> None:
        """A start tag in a sequence: an item read in one step, or what
        an item holds."""
        depth, self.depth = self.depth, self.depth + 1
        if depth:
            if depth == 1 and self.kind == "element":  # a copy's payload
                if self.payload is None:
                    self.depth = 1  # the shredder has it up to its end tag
                    shred(self.parser, False, self._landed)(name, attrs)
                else:
                    self.refusals.append(_COPY)
            return
        self.kind, label, default = _ITEMS.get(name, (None, None, ""))
        if self.kind is None:
            self.refusals.append(f"unknown sequence item <{name}>")
        elif self.kind in ("element", "attribute") and (
                fragid := _attribute(attrs, "fragid")) is not None:
            kind, self.kind = self.kind, None  # a reference: no content
            try:
                ids = int(fragid), int(_attribute(attrs, "nodeid"))
            except (TypeError, ValueError):
                self.refusals.append("a node reference needs integer "
                                     "fragid and nodeid attributes")
            else:
                self.items.append(NodeRef(*ids) if kind == "element" else
                                  AttrRef(*ids, _attribute(attrs, "name")
                                          or ""))
        elif self.kind == "element":
            self.payload = None
        else:
            label = label and _attribute(attrs, label)
            self.label = default if label is None else label
            self.sink = []

    def item_end(self, name: str) -> None:
        self.depth -= 1
        if self.depth < 0:  # the sequence's own end tag
            self.depth, self.items = 0, None
            self._listen(self.parser)
            self.end(name)
        elif self.depth == 0 and self.sink is not None:
            value, self.sink, kind, label = ("".join(self.sink), None,
                                             self.kind, self.label)
            self.items.append(
                Atomic(label, value) if kind == "atomic"
                else NodeCopy(kind, label, Document("", ColumnSet(
                    [LEAF_KINDS[kind]], [label], [value], [0], [0],
                    [-1])).root))
        elif self.depth == 0 and self.kind == "element":
            if self.payload is None:
                self.refusals.append(_COPY)
            else:
                self.items.append(NodeCopy("element", "", self.payload))

    def text(self, data: str) -> None:
        if self.sink is None:
            self.misc()
        else:
            self.sink.append(data)

    def misc(self, *_args) -> None:
        """A payload wrapper holds one element and nothing beside it."""
        if self.stack[-1] == "fragment":
            self.refusals.append(_FRAGMENT)
        elif self.depth == 1 and self.kind == "element":
            self.refusals.append(_COPY)
