"""Shred XML text into columns on the standard library's C tokenizer.

Expat (:mod:`pyexpat`) does the reading: tokenizing, well-formedness,
the five predefined entities and character references, CDATA sections,
comments, PIs, the XML declaration, and XML 1.0's end-of-line (§2.11)
and attribute-value (§3.3.3) normalization. A DOCTYPE in the prolog is
skipped before expat sees it, so no entity is ever declared, expanded
or resolved: ``&name;`` for anything but the five predefined entities
is an unknown entity, and a billion-laughs text fails on its first
reference. Prefixes stay part of the QName (no namespace processing),
matching the paper's prefix-level treatment of names.

Five handlers append each node straight into the six columns of a
:class:`ColumnSet`; the ``parents`` column doubles as the open-element
stack and ``sizes`` is back-patched through it on the end tag. Text in
or beside a CDATA section is one text node (XDM merges adjacent text);
comments and PIs outside the root element are dropped. The start-tag
handler also emits the name postings — element name → pres, attribute
name → pres — and hands them over on the :class:`ColumnSet`: the lookup
that finds a name's bucket also yields the interned name, so a parsed
document needs no second pass before it answers a name test
(:mod:`repro.xmldb.index`). The XRPC message decoder installs the same
five (:func:`shred`) mid-parse, for each payload element of an envelope.

Error contract: every rejection is an :class:`XmlParseError`, never a
bare ``ExpatError``; its message is expat's, and its ``offset`` is a
``str`` index (expat counts UTF-8 bytes) — for a bad entity or
character reference, the index of its ``&``.
"""

from __future__ import annotations

import re
from array import array
from pyexpat import ExpatError, ParserCreate, XMLParserType, errors
from sys import intern
from typing import Callable

from repro.errors import XmlParseError
from repro.xmldb.columns import ColumnSet
from repro.xmldb.document import Document
from repro.xmldb.kernels import pre_array
from repro.xmldb.node import (
    KIND_ATTRIBUTE, KIND_COMMENT, KIND_DOCUMENT, KIND_ELEMENT, KIND_PI,
    KIND_TEXT,
)

# XMLDecl? Misc* before a DOCTYPE, each construct matched one way only
# so a refused prolog fails in linear time.
_PROLOG = re.compile("\ufeff?" r"(?:<\?xml(?:[^?]|\?(?!>))*\?>)?"
                     r"(?:[ \t\r\n]|<!--(?:[^-]|-(?!->))*-->"
                     r"|<\?(?:[^?]|\?(?!>))*\?>)*<!DOCTYPE")
_DOCTYPE_BRACKET = re.compile(r"[\[\]>]")
#: A reference the text has, but no entity backs.
_UNKNOWN = re.compile(r"&(?!lt;|gt;|amp;|quot;|apos;|#)[^;]*;")
#: What may precede a fault inside a reference, from its ``&`` on.
_REFERENCE_HEAD = re.compile(r"&#?[\w.:\-]*")


def _error(message: str, offset: int) -> XmlParseError:
    return XmlParseError(f"{message} at offset {offset}", offset)


def _offset(text: str, index: int) -> int:
    """The ``str`` index of byte ``index`` of ``text``'s UTF-8 (expat
    counts bytes); past the end if expat names none."""
    return (len(text.encode()[:index].decode(errors="ignore"))
            if index >= 0 else len(text))


def _fault(text: str, err: ExpatError, index: int) -> XmlParseError:
    """``err``, raised at byte ``index`` of ``text``'s UTF-8, typed and
    placed at a ``str`` index."""
    offset = _offset(text, index)
    if err.code == errors.codes[errors.XML_ERROR_UNDEFINED_ENTITY]:
        # In an attribute value expat points at the tag; name the
        # reference instead.
        reference = _UNKNOWN.search(text, offset)
        return _error(f"unknown entity {reference[0]}", reference.start())
    amp = text.rfind("&", 0, offset + 1)
    if amp >= 0 and (amp == offset
                     or _REFERENCE_HEAD.fullmatch(text, amp, offset)):
        offset = amp
    return _error(errors.messages[err.code], offset)


def _without_doctype(text: str) -> str:
    """``text`` with its prolog's DOCTYPE, if any, blanked to spaces:
    skipped whole (brackets balanced), so offsets stay put."""
    prolog = _PROLOG.match(text) if "<!DOCTYPE" in text else None
    if prolog is None:
        return text
    start, depth = prolog.end() - len("<!DOCTYPE"), 0
    for bracket in _DOCTYPE_BRACKET.finditer(text, start):
        if bracket[0] == "[":
            depth += 1
        elif bracket[0] == "]":
            depth -= 1
        elif depth == 0:
            return text[:start] + " " * (bracket.end() - start) \
                + text[bracket.end():]
    raise _error("unterminated DOCTYPE", len(text))


def _posting(table: dict[str, tuple[str, array]],
             raw: str) -> tuple[str, array]:
    """``raw``'s ``(interned name, pres)`` entry in a posting table,
    made on first sight: one lookup interns the name and finds its
    bucket."""
    entry = table.get(raw)
    if entry is None:
        raw = intern(raw)
        entry = table[raw] = (raw, pre_array())
    return entry


def shred(parser: XMLParserType, document: bool, closed: Callable,
          uri: str = "") -> Callable:
    """Install on ``parser`` the handlers that shred one element (under
    a document node if asked); ``closed`` gets the :class:`Document` at
    its end tag. Returns the start-tag handler, for a caller installing
    them mid-parse to hand the element's own start tag to."""
    # Lists while scanning; ColumnSet packs the integer columns once.
    columns = kinds, names, values, sizes, levels, parents = (
        [], [], [], [], [], [])
    kind_, name_, value_, size_, level_, parent_ = (
        column.append for column in columns)
    # The name postings, emitted as the columns grow: raw name →
    # (interned name, pres).
    tags: dict[str, tuple[str, array]] = {}
    attributes: dict[str, tuple[str, array]] = {}
    get_tag, get_attribute = tags.get, attributes.get

    # ``parent`` is the innermost open element, ``top`` outside the
    # root element; ``level`` is the depth of ``parent``'s children.
    top, level = -1, 0
    if document:
        kind_(KIND_DOCUMENT)
        name_("")
        value_("")
        size_(0)
        level_(0)
        parent_(-1)
        top, level = 0, 1
    parent = top

    def start(name: str, attrs: list[str]) -> None:
        nonlocal parent, level
        pre = len(kinds)
        name, pres = get_tag(name) or _posting(tags, name)
        pres.append(pre)
        kind_(KIND_ELEMENT)
        name_(name)
        value_("")
        size_(0)
        level_(level)
        parent_(parent)
        if attrs:
            pairs = iter(attrs)
            for name, value in zip(pairs, pairs):
                name, pres = get_attribute(name) or _posting(attributes,
                                                             name)
                pres.append(len(kinds))
                kind_(KIND_ATTRIBUTE)
                name_(name)
                value_(value)
                size_(0)
                level_(level + 1)
                parent_(pre)
        parent = pre
        level += 1

    def end(_name: str) -> None:
        nonlocal parent, level
        sizes[parent] = len(kinds) - parent - 1
        parent = parents[parent]
        level -= 1
        if parent == top:  # the element is whole
            sizes[0] = len(kinds) - 1
            postings = dict(tags.values()), dict(attributes.values())
            closed(Document(uri, ColumnSet(*columns, postings)))

    def character_data(data: str) -> None:
        # Split only around a CDATA section or a full text buffer.
        if kinds[-1] == KIND_TEXT and parents[-1] == parent:
            values[-1] += data
        else:
            kind_(KIND_TEXT)
            name_("")
            value_(data)
            size_(0)
            level_(level)
            parent_(parent)

    def node(kind: int, name: str, value: str) -> None:
        if parent != top:  # misc around the root element is dropped
            kind_(kind)
            name_(name)
            value_(value)
            size_(0)
            level_(level)
            parent_(parent)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = character_data
    parser.CommentHandler = lambda data: node(KIND_COMMENT, "", data)
    parser.ProcessingInstructionHandler = lambda target, data: node(
        KIND_PI, intern(target), data.strip())
    return start


def parse(text: str, document: bool, install: Callable) -> None:
    """Run a fresh expat parser, its handlers set by ``install``, over
    all of ``text`` (a prolog allowed if it is a ``document``); every
    fault is an :class:`XmlParseError`."""
    parser = ParserCreate()
    parser.buffer_text = parser.ordered_attributes = True
    install(parser)

    def refuse(*_args) -> None:
        # A fragment has no prolog, and expat never reads a document's
        # DOCTYPE: it is blanked first.
        raise _error("expected an element",
                     _offset(text, parser.CurrentByteIndex))

    parser.StartDoctypeDeclHandler = refuse
    if document:
        text = _without_doctype(text)
    else:
        parser.XmlDeclHandler = refuse
    try:
        parser.Parse(text, True)
    except ExpatError as err:
        raise _fault(text, err, parser.ErrorByteIndex) from None
    except UnicodeEncodeError as err:  # a lone surrogate is no XML Char
        raise _error("not well-formed (invalid token)", err.start) from None
    finally:
        # ``refuse`` holds the parser that holds ``refuse``: break the
        # cycle, or the parser, the handlers and the scan lists wait
        # for the cyclic collector.
        del parser


def _scan(text: str, uri: str, document: bool) -> Document:
    """Shred ``text``: one element, under a document node if asked."""
    shredded: list[Document] = []
    parse(text, document, lambda parser: shred(parser, document,
                                                shredded.append, uri))
    return shredded[0]


def parse_document(text: str, uri: str = "") -> Document:
    """Parse a full XML document (with document node at ``pre == 0``)."""
    return _scan(text, uri, document=True)


def parse_fragment(text: str, uri: str = "") -> Document:
    """Parse one element as a parentless fragment document."""
    return _scan(text, uri, document=False)
