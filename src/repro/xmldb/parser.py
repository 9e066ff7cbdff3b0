"""A small, dependency-free XML scanner that shreds text into columns.

One loop per parse: ``str.find`` jumps to the next ``<``, one compiled
token regex (:data:`_TAG`) recognises what starts there — a close tag,
an open tag with its whole attribute list and optional ``/``, or the
opener of a comment, CDATA section or processing instruction — and the
node is appended straight into the six columns of a :class:`ColumnSet`.
The open-element stack is the ``parents`` column itself (a close tag
pops with ``parents[parent]``) and ``sizes`` is back-patched through it.
The same loop emits the name postings — element name → pres, attribute
name → pres — and hands them over on the :class:`ColumnSet`: the lookup
that finds a name's bucket also yields the interned name, so a parsed
document needs no second pass before it answers a name test
(:mod:`repro.xmldb.index`).

Supports the XML the paper's workloads need: elements, attributes in
either quote, text, the five predefined entities and numeric character
references, CDATA (merged with adjacent text), comments, PIs and a
skipped prolog/DOCTYPE. Prefixes stay part of the QName, matching the
paper's prefix-level treatment of names; names are interned, once.

Error contract: every rejection is an :class:`XmlParseError` whose
``offset`` is where a left-to-right reader stops — for a bad reference,
its ``&``. ``_TAG`` only ever *accepts*: a tag it refuses goes to
:func:`_diagnose`, which re-reads that one tag step by step to name the
offset and never returns, so there is a single accept path.
"""

from __future__ import annotations

import re
from array import array
from sys import intern
from typing import NoReturn

from repro.errors import XmlParseError
from repro.xmldb.columns import ColumnSet
from repro.xmldb.document import Document
from repro.xmldb.kernels import pre_array
from repro.xmldb.node import NodeKind

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

# Patterns run on Python 3.10 (no possessive quantifiers or atomic
# groups). Name characters, the four whitespace characters, ``=`` and
# the quotes are pairwise disjoint, so no quantifier nests over classes
# that overlap and a refused tag fails in linear time.
_S = "[ \t\r\n]*"
_N = r"[\w.:\-]+"  # exactly ``isalnum() or in "-._:"``
_WS = re.compile(_S)
_NAME = re.compile(_N)
_B = r"(?<![\w.:\-])"  # an attribute name starts afresh, not inside a name
_ATTR = re.compile(rf"{_S}{_B}({_N}){_S}={_S}(?:\"([^\"]*)\"|'([^']*)')")
_TAG = re.compile(
    rf"<(?:/({_N}){_S}>"
    rf"|({_N})((?:{_S}{_B}{_N}{_S}={_S}(?:\"[^\"]*\"|'[^']*'))*){_S}(/?)>"
    rf"|(!--)|(!\[CDATA\[)|\?({_N}))")
#: ``_TAG``'s ``lastindex`` per alternative; a PI (group 7) is the rest.
_CLOSE, _OPEN, _COMMENT, _CDATA = 1, 4, 5, 6
_REFERENCE = re.compile("&([^;]*)(;?)")
_DOCTYPE_BRACKET = re.compile(r"[\[\]>]")
#: What a refused tag still needs after its last whole attribute, in
#: order (``_diagnose`` names the first one missing).
_EXPECTED = ((_NAME, "a name"), (re.compile("="), "'='"),
             (re.compile("[\"']"), "quoted attribute value"))

_K_DOC, _K_ELEM, _K_ATTR, _K_TEXT, _K_COMMENT, _K_PI = map(int, NodeKind)


def _error(message: str, offset: int) -> XmlParseError:
    return XmlParseError(f"{message} at offset {offset}", offset)


def _end_of(text: str, token: str, start: int, what: str) -> int:
    """Where ``token`` closes the ``what`` whose body starts at ``start``."""
    end = text.find(token, start)
    if end < 0:
        raise _error(f"unterminated {what}", start)
    return end


def _decode(raw: str, base: int) -> str:
    """``raw``, found at offset ``base``, with its references substituted."""

    def reference(match: re.Match) -> str:
        body, semicolon = match.group(1, 2)
        offset = base + match.start()
        if not semicolon:
            raise _error("unterminated entity reference", offset)
        if body in _ENTITIES:
            return _ENTITIES[body]
        if body[:1] != "#":
            raise _error(f"unknown entity &{body};", offset)
        try:
            hexadecimal = body[1:2] in ("x", "X")
            return chr(int(body[2:], 16) if hexadecimal else int(body[1:]))
        except (ValueError, OverflowError):
            raise _error(f"malformed character reference &{body};",
                         offset) from None

    return _REFERENCE.sub(reference, raw)


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


def _attribute(attr: re.Match, seen: set[str],
               table: dict[str, tuple[str, array]]) -> tuple[str, str, array]:
    """``(name, value, pres of the name)`` of one ``_ATTR`` match,
    checked against ``seen``."""
    name, pres = _posting(table, attr[1])
    value = attr[attr.lastindex]
    if "&" in value:
        value = _decode(value, attr.start(attr.lastindex))
    if name in seen:
        raise _error(f"duplicate attribute {name!r}", attr.end())
    seen.add(name)
    return name, value, pres


def _diagnose(text: str, pos: int, open_name: str) -> NoReturn:
    """Raise for the tag at ``pos`` that ``_TAG`` refused, naming the
    first offending offset. Raise-only: it never yields a parse."""
    if text.startswith("</", pos):
        name = _NAME.match(text, pos + 2)
        if name is None:
            raise _error("expected a name", pos + 2)
        if name[0] != open_name:
            raise _error(f"mismatched end tag </{name[0]}> for <{open_name}>",
                         name.end())
        raise _error("expected '>'", _WS.match(text, name.end()).end())
    pos += 2 if text.startswith("<?", pos) else 1
    name = _NAME.match(text, pos)
    if name is None:
        raise _error("expected a name", pos)
    pos = name.end()
    seen: set[str] = set()
    while (attr := _ATTR.match(text, pos)) is not None:
        _attribute(attr, seen, {})
        pos = attr.end()
    for part, what in _EXPECTED:
        pos = _WS.match(text, pos).end()
        step = part.match(text, pos)
        if step is None:
            raise _error(f"expected {what}", pos)
        pos = step.end()
    raise _error("unterminated attribute value", pos)


def _skip_misc(text: str, pos: int) -> int:
    """Skip whitespace, comments and PIs between top-level constructs."""
    while True:
        pos = _WS.match(text, pos).end()
        if text.startswith("<!--", pos):
            pos = _end_of(text, "-->", pos + 4, "comment") + 3
        elif text.startswith("<?", pos) and not text.startswith("<?xml", pos):
            target = _NAME.match(text, pos + 2) or _diagnose(text, pos, "")
            pos = _end_of(text, "?>", target.end(),
                          "processing instruction") + 2
        else:
            return pos


def _skip_prolog(text: str) -> int:
    """Skip the XML declaration, a DOCTYPE and the misc around them."""
    pos = _WS.match(text).end()
    if text.startswith("<?xml", pos):
        pos = _end_of(text, "?>", pos, "XML declaration") + 2
    pos = _skip_misc(text, pos)
    if text.startswith("<!DOCTYPE", pos):
        depth = 0
        for bracket in _DOCTYPE_BRACKET.finditer(text, pos):
            if bracket[0] == "[":
                depth += 1
            elif bracket[0] == "]":
                depth -= 1
            elif depth == 0:
                return _skip_misc(text, bracket.end())
        raise _error("unterminated DOCTYPE", len(text))
    return pos


def _scan(text: str, uri: str, document: bool) -> Document:
    """Shred ``text``: one element, under a document node if asked."""
    pos = _skip_prolog(text) if document else _skip_misc(text, 0)
    if not text.startswith("<", pos):
        raise _error("expected root element" if document
                     else "expected an element", pos)
    if _NAME.match(text, pos + 1) is None:
        raise _error("expected a name", pos + 1)

    # Lists while scanning; ColumnSet packs the integer columns once.
    columns = kinds, names, values, sizes, levels, parents = (
        [], [], [], [], [], [])
    kind_, name_, value_, size_, level_, parent_ = (
        column.append for column in columns)
    # The name postings, emitted as the columns grow: raw name →
    # (interned name, pres).
    tags: dict[str, tuple[str, array]] = {}
    attributes: dict[str, tuple[str, array]] = {}

    def node(kind: int, name: str, value: str, level: int, parent: int):
        """Append one node of a rare kind; elements, attributes and
        plain text are appended inline."""
        kind_(kind)
        name_(name)
        value_(value)
        size_(0)
        level_(level)
        parent_(parent)

    # ``parent`` is the innermost open element, ``top`` outside the
    # root element; ``level`` is the depth of ``parent``'s children.
    top, level = -1, 0
    if document:
        node(_K_DOC, "", "", 0, -1)
        top, level = 0, 1
    parent = top
    find, tag, get_tag = text.find, _TAG.match, tags.get
    while True:
        token = tag(text, pos)
        if token is None:
            _diagnose(text, pos, names[parent] if parent != top else "")
        which = token.lastindex
        end = token.end()
        if which == _OPEN:
            pre = len(kinds)
            name, pres = get_tag(token[2]) or _posting(tags, token[2])
            pres.append(pre)
            kind_(_K_ELEM)
            name_(name)
            value_("")
            size_(0)
            level_(level)
            parent_(parent)
            if token[3]:
                seen: set[str] = set()
                for attr in _ATTR.finditer(text, *token.span(3)):
                    name, value, pres = _attribute(attr, seen, attributes)
                    pres.append(len(kinds))
                    kind_(_K_ATTR)
                    name_(name)
                    value_(value)
                    size_(0)
                    level_(level + 1)
                    parent_(pre)
            if not token[4]:
                parent = pre
                level += 1
            else:
                sizes[pre] = len(kinds) - pre - 1
                if parent == top:
                    break
        elif which == _CLOSE:
            if token[1] != names[parent]:
                _diagnose(text, pos, names[parent])
            sizes[parent] = len(kinds) - parent - 1
            parent = parents[parent]
            level -= 1
            if parent == top:
                break
        elif which == _COMMENT:
            close = _end_of(text, "-->", end, "comment")
            node(_K_COMMENT, "", text[end:close], level, parent)
            end = close + 3
        elif which == _CDATA:
            close = _end_of(text, "]]>", end, "CDATA section")
            if kinds[-1] == _K_TEXT and parents[-1] == parent:
                values[-1] += text[end:close]
            elif close > end:
                node(_K_TEXT, "", text[end:close], level, parent)
            end = close + 3
        else:
            close = _end_of(text, "?>", end, "processing instruction")
            value = text[end:close].strip()
            node(_K_PI, intern(token[7]), value, level, parent)
            end = close + 2
        pos = find("<", end)
        if pos < 0:
            raise _error(f"unterminated element <{names[parent]}>", end)
        if pos > end:
            raw = text[end:pos]
            if "&" in raw:
                raw = _decode(raw, end)
            # Only across a CDATA section: XDM merges adjacent text.
            if kinds[-1] == _K_TEXT and parents[-1] == parent:
                values[-1] += raw
            else:
                kind_(_K_TEXT)
                name_("")
                value_(raw)
                size_(0)
                level_(level)
                parent_(parent)
    if document:
        sizes[0] = len(kinds) - 1
    end = _skip_misc(text, end)
    if end < len(text):
        raise _error("content after root element" if document
                     else "content after fragment element", end)
    postings = dict(tags.values()), dict(attributes.values())
    return Document.from_columns(uri, ColumnSet(*columns, postings))


def parse_document(text: str, uri: str = "") -> Document:
    """Parse a full XML document (with document node at ``pre == 0``)."""
    return _scan(text, uri, document=True)


def parse_fragment(text: str, uri: str = "") -> Document:
    """Parse one element as a parentless fragment document."""
    return _scan(text, uri, document=False)
