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
A request's text is written from its :attr:`RequestMessage.key`, the
text's parts before escaping, each payload serialized once. Its first
part is the request's head (everything but the fragments and the
calls), which the sender keeps as a :class:`RequestHead` per call site,
literal binding and static context: the result cache keys a request by
its head and its atomic parameters before anything is marshalled, or by
its key when it ships a node (``runtime/cache.py``), so a hit writes no
text.

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

from functools import cached_property

from repro.errors import XrpcMarshalError
from repro.records import Record
from repro.xmldb.columns import ColumnSet
from repro.xmldb.document import Document
from repro.xmldb.node import Node, NodeKind
from repro.xmldb.parser import parse, shred
from repro.xmldb.serializer import (
    escape_attribute, escape_text, serialize_node,
)


class Atomic(Record):
    """An atomic item: XML Schema type name plus lexical form."""

    __slots__ = _fields = ("type_name", "lexical")

    def __init__(self, type_name: str, lexical: str) -> None:
        self.type_name, self.lexical = type_name, lexical


class NodeCopy(Record):
    """A pass-by-value node copy.

    ``node_kind`` is the copied node's kind (a standalone attribute,
    text, comment or PI has no XML syntax of its own; XRPC wraps each,
    per footnote 2 of the paper). An element copy holds the element
    node whose subtree travels; any other copy holds its string value
    when encoded, and once decoded every copy holds its node, the root
    of a document of its own.
    """

    __slots__ = _fields = ("node_kind", "name", "content")

    def __init__(self, node_kind: str, name: str, content: Node | str) -> None:
        # element, attribute, text, comment or processing-instruction
        self.node_kind = node_kind
        self.name = name  # attribute name or PI target (empty otherwise)
        self.content = content  # the node; or, encoding, its string value


class NodeRef(Record):
    """A pass-by-fragment reference: fragid/nodeid per Figure 4."""

    __slots__ = _fields = ("fragid", "nodeid")

    def __init__(self, fragid: int, nodeid: int) -> None:
        self.fragid, self.nodeid = fragid, nodeid


class AttrRef(Record):
    """An attribute reference: owner nodeid plus attribute name."""

    __slots__ = _fields = ("fragid", "nodeid", "name")

    def __init__(self, fragid: int, nodeid: int, name: str) -> None:
        self.fragid, self.nodeid, self.name = fragid, nodeid, name


Item = Atomic | NodeCopy | NodeRef | AttrRef


class Call:
    """One function application: named parameter sequences."""

    __slots__ = ("params",)

    def __init__(self,
                 params: list[tuple[str, list[Item]]] | None = None) -> None:
        self.params = [] if params is None else params


class RequestMessage(Record):
    """An XRPC request (possibly bulk: several calls, same function)."""

    _fields = ("query", "param_names", "calls", "fragments", "static_attrs",
               "used_paths", "returned_paths")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, query: str, param_names: list[str], calls: list[Call],
                 fragments: list[Node] | None = None,
                 static_attrs: dict[str, str] | None = None,
                 used_paths: list[str] | None = None,
                 returned_paths: list[str] | None = None) -> None:
        self.query = query  # shipped function body (XQuery text)
        self.param_names, self.calls = param_names, calls
        #: Root element of each fragment, in fragid order.
        self.fragments = [] if fragments is None else fragments
        self.static_attrs = {} if static_attrs is None else static_attrs
        #: Response projection paths (Urel/Rrel(vxrpc)); presence selects
        #: the pass-by-projection response format.
        self.used_paths, self.returned_paths = used_paths, returned_paths

    @cached_property
    def key(self) -> tuple:
        """The parts of this request's text, unescaped: its head's
        (:func:`head_parts`), its fragments' serializations and its
        calls' items — equal for two requests exactly when their texts
        are, so a cache keys a round trip by it without writing the
        text. :meth:`to_xml` writes from here: a request is not changed
        once its key is read."""
        return (head_parts(self.query, self.param_names, self.static_attrs,
                           self.used_paths, self.returned_paths),
                tuple(map(serialize_node, self.fragments)),
                tuple([tuple([_item_keys(items) for _name, items
                              in call.params]) for call in self.calls]))

    def to_xml(self) -> str:
        (attrs, paths, query, names), fragments, calls = self.key
        out = [_ENVELOPE_OPEN, "<xrpc:request"]
        out.extend(f' {name}="{escape_attribute(value)}"'
                   for name, value in attrs)
        out.append(">")
        if paths is not None:
            out.append("<xrpc:projection-paths>")
            out.extend(f"<xrpc:used-path>{escape_text(path)}"
                       f"</xrpc:used-path>" for path in paths[0])
            out.extend(f"<xrpc:returned-path>{escape_text(path)}"
                       f"</xrpc:returned-path>" for path in paths[1])
            out.append("</xrpc:projection-paths>")
        _fragments_to_xml(fragments, out)
        out.append(f"<xrpc:query>{escape_text(query)}</xrpc:query>")
        out.append("<xrpc:params>")
        out.extend(f"<xrpc:name>{escape_text(name)}</xrpc:name>"
                   for name in names)
        out.append("</xrpc:params>")
        for call in calls:
            out.append("<xrpc:call>")
            for keys in call:
                _sequence_to_xml(keys, out)
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


def head_parts(query: str, param_names: list[str],
               static_attrs: dict[str, str], used_paths: list[str] | None,
               returned_paths: list[str] | None) -> tuple:
    """The parts of a request's text besides its fragments and calls,
    unescaped, in text order: the static-context attributes as the wire
    names them, the projection paths (None: no element), the shipped
    body and the parameter names."""
    return (tuple([(name.replace(":", "-"), static_attrs[name])
                   for name in sorted(static_attrs)]),
            None if used_paths is None and returned_paths is None
            else (tuple(used_paths or ()), tuple(returned_paths or ())),
            query, tuple(param_names))


class RequestHead:
    """A request's parts besides its fragments and calls, with their
    :func:`head_parts` hashed once: it heads a cache key made per round
    trip, and equals another head of the same content."""

    __slots__ = ("query", "param_names", "static_attrs", "used_paths",
                 "returned_paths", "parts", "_hash")

    def __init__(self, query: str, param_names: list[str],
                 static_attrs: dict[str, str],
                 used_paths: list[str] | None = None,
                 returned_paths: list[str] | None = None) -> None:
        self.query, self.param_names = query, param_names
        self.static_attrs = static_attrs
        self.used_paths, self.returned_paths = used_paths, returned_paths
        self.parts = head_parts(query, param_names, static_attrs,
                                used_paths, returned_paths)
        self._hash = hash(self.parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, RequestHead)
                                 and self.parts == other.parts)

    def message(self, calls: list[Call],
                fragments: list[Node]) -> RequestMessage:
        """The request of ``calls`` under this head."""
        return RequestMessage(self.query, self.param_names, calls,
                              fragments, self.static_attrs,
                              self.used_paths, self.returned_paths)


class ResponseMessage(Record):
    """An XRPC response: one result sequence per request call."""

    __slots__ = _fields = ("results", "fragments")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, results: list[list[Item]],
                 fragments: list[Node] | None = None) -> None:
        self.results = results
        #: Root element of each fragment, in fragid order.
        self.fragments = [] if fragments is None else fragments

    def to_xml(self) -> str:
        out = [_ENVELOPE_OPEN, "<xrpc:response>"]
        _fragments_to_xml(list(map(serialize_node, self.fragments)), out)
        for items in self.results:
            out.append("<xrpc:call>")
            _sequence_to_xml(_item_keys(items), out)
            out.append("</xrpc:call>")
        out.append("</xrpc:response>")
        out.append(_ENVELOPE_CLOSE)
        return "".join(out)

    @classmethod
    def from_xml(cls, text: str) -> "ResponseMessage":
        envelope = _Envelope(text, "xrpc:response")
        return cls(results=[sequence for sequence, in envelope.calls],
                   fragments=envelope.fragments)


# ---------------------------------------------------------------------------
# Wire helpers
# ---------------------------------------------------------------------------

_ENVELOPE_OPEN = ('<env:Envelope xmlns:env='
                  '"http://www.w3.org/2003/05/soap-envelope" '
                  'xmlns:xrpc="http://monetdb.cwi.nl/XQuery">'
                  "<env:Body>")
_ENVELOPE_CLOSE = "</env:Body></env:Envelope>"


def _fragments_to_xml(fragments: list[str], out: list[str]) -> None:
    """The preamble around the fragments' serializations."""
    if not fragments:
        out.append("<xrpc:fragments/>")
        return
    out.append("<xrpc:fragments>")
    out.extend(f"<xrpc:fragment>{fragment}</xrpc:fragment>"
               for fragment in fragments)
    out.append("</xrpc:fragments>")


def _item_keys(items: list[Item]) -> tuple[tuple, ...]:
    """Each item as the parts of its text, tagged by its kind: an
    atomic's type and lexical, a reference's ids (and name), a copy's
    name and value — an element copy's its serialization."""
    keys = []
    for item in items:
        if isinstance(item, Atomic):
            keys.append(("atomic", item.type_name, item.lexical))
        elif isinstance(item, NodeRef):
            keys.append(("node-ref", item.fragid, item.nodeid))
        elif isinstance(item, AttrRef):
            keys.append(("attribute-ref", item.fragid, item.nodeid,
                         item.name))
        elif isinstance(item, NodeCopy):
            kind, content = item.node_kind, item.content
            if kind == "element":
                keys.append((kind, serialize_node(content)))
            else:
                keys.append((kind, item.name if kind in _NAMED else "",
                             content if isinstance(content, str)
                             else content.value))
        else:  # pragma: no cover - exhaustive
            raise XrpcMarshalError(f"unknown item {item!r}")
    return tuple(keys)


def _sequence_to_xml(keys: tuple[tuple, ...], out: list[str]) -> None:
    """A sequence's text, written from its items' keys."""
    out.append("<xrpc:sequence>")
    for key in keys:
        kind = key[0]
        if kind == "atomic":
            out.append(f'<xrpc:atomic type="{key[1]}">'
                       f"{escape_text(key[2])}</xrpc:atomic>")
        elif kind == "node-ref":
            out.append(f'<xrpc:element fragid="{key[1]}" '
                       f'nodeid="{key[2]}"/>')
        elif kind == "attribute-ref":
            out.append(f'<xrpc:attribute fragid="{key[1]}" '
                       f'nodeid="{key[2]}" '
                       f'name="{escape_attribute(key[3])}"/>')
        elif kind == "element":
            out.append(f"<xrpc:element>{key[1]}</xrpc:element>")
        else:
            named = (f' name="{escape_attribute(key[1])}"'
                     if kind in _NAMED else "")
            out.append(f"<xrpc:{kind}{named}>{escape_text(key[2])}"
                       f"</xrpc:{kind}>")
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
