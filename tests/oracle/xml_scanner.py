"""The regex scanner ``src/repro/xmldb/parser.py`` held before it moved
onto expat, kept as the differential oracle for it
(``tests/xmldb/test_parser_differential.py``, ``test_parser_malformed.py``).

One ``str.find`` loop: it jumps to the next ``<``, one compiled token
regex (:data:`_TAG`) recognises what starts there — a close tag, an
open tag with its whole attribute list and optional ``/``, or the
opener of a comment, CDATA section or processing instruction — and the
node is appended straight into the six columns. The open-element stack
is the ``parents`` column itself and ``sizes`` is back-patched through
it. A DOCTYPE in the prolog is skipped whole, brackets balanced.

On the texts the differential generates (and their corruptions) it
accepts what expat accepts, and yields the same columns. The
XML 1.0 rules expat brought (each pinned by a plain case in
``tests/xmldb/test_parser.py``) are the marked "XML 1.0" lines:
end-of-line and attribute-value normalization, the Name and Char
productions (``<1st/>``, ``&#0;`` and raw C0 controls are errors),
whitespace between attributes, no ``<`` in an attribute value, no
``]]>`` in text, no ``--`` in a comment, a lowercase ``&#x``, the XML
declaration at offset 0 only and no other PI target ``xml``.

Messages and offsets are not the library's (they are expat's there):
every rejection here is an :class:`XmlParseError` with some offset.
"""

from __future__ import annotations

import re
from sys import intern

from repro.errors import XmlParseError
from repro.xmldb.columns import ColumnSet
from repro.xmldb.document import Document
from repro.xmldb.node import NodeKind

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

_S = "[ \t\n]*"  # XML 1.0: "\r" is normalized away before the scan
_N = r"(?:[^\W\d]|:)[\w.:\-]*"  # XML 1.0: no digit, "-" or "." first
_WS = re.compile(_S)
_NAME = re.compile(_N)
_VALUE = "\"([^\"<]*)\"|'([^'<]*)'"  # XML 1.0: no "<" in a value
_ATTR = re.compile(rf"[ \t\n]+({_N}){_S}={_S}(?:{_VALUE})")
_TAG = re.compile(
    rf"<(?:/({_N}){_S}>"
    rf"|({_N})((?:[ \t\n]+{_N}{_S}={_S}(?:\"[^\"<]*\"|'[^'<]*'))*){_S}(/?)>"
    rf"|(!--)|(!\[CDATA\[)|\?({_N}))")
#: ``_TAG``'s ``lastindex`` per alternative; a PI (group 7) is the rest.
_CLOSE, _OPEN, _COMMENT, _CDATA = 1, 4, 5, 6
_REFERENCE = re.compile("&([^;]*)(;?)")
#: XML 1.0: the character reference forms and the Char production.
_CHARACTER = re.compile("#([0-9]+)|#x([0-9a-fA-F]+)")
_NOT_CHAR = re.compile(
    r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_DECLARATION = re.compile(
    rf"<\?xml[ \t\n]+version{_S}={_S}"
    r"(?:\"[A-Za-z0-9._\-]+\"|'[A-Za-z0-9._\-]+')"
    rf"(?:[ \t\n]+encoding{_S}={_S}"
    r"(?:\"[A-Za-z][A-Za-z0-9._\-]*\"|'[A-Za-z][A-Za-z0-9._\-]*'))?"
    rf"(?:[ \t\n]+standalone{_S}={_S}(?:\"(?:yes|no)\"|'(?:yes|no)'))?"
    rf"{_S}\?>")
_DOCTYPE_BRACKET = re.compile(r"[\[\]>]")
_SPACE = str.maketrans("\t\n", "  ")  # XML 1.0: attribute values

_K_DOC, _K_ELEM, _K_ATTR, _K_TEXT, _K_COMMENT, _K_PI = map(int, NodeKind)


def _error(message: str, offset: int) -> XmlParseError:
    return XmlParseError(f"{message} at offset {offset}", offset)


def _refuse(pos: int):
    raise _error("not well-formed", pos)


def _end_of(text: str, token: str, start: int, what: str) -> int:
    """Where ``token`` closes the ``what`` whose body starts at ``start``."""
    end = text.find(token, start)
    if end < 0:
        raise _error(f"unterminated {what}", start)
    return end


def _chars(text: str, start: int, end: int) -> None:
    """XML 1.0: every character of ``text[start:end]`` is a Char."""
    bad = _NOT_CHAR.search(text, start, end)
    if bad is not None:
        _refuse(bad.start())


def _decode(raw: str, base: int) -> str:
    """``raw``, found at offset ``base``, with its references substituted."""

    def reference(match: re.Match) -> str:
        body, semicolon = match.group(1, 2)
        offset = base + match.start()
        if not semicolon:
            raise _error("unterminated entity reference", offset)
        if body in _ENTITIES:
            return _ENTITIES[body]
        character = _CHARACTER.fullmatch(body)
        if character is None:
            raise _error(f"unknown entity &{body};", offset)
        code = (int(character[1]) if character[1]
                else int(character[2], 16))
        if code > 0x10FFFF or _NOT_CHAR.match(chr(code)):
            _refuse(offset)
        return chr(code)

    return _REFERENCE.sub(reference, raw)


def _comment(text: str, start: int) -> tuple[str, int]:
    """The body of the comment opened before ``start``, and its end."""
    close = _end_of(text, "-->", start, "comment")
    body = text[start:close]
    if "--" in body or body.endswith("-"):  # XML 1.0
        _refuse(start)
    return body, close + 3


def _pi(text: str, start: int) -> tuple[str, str, int]:
    """``(target, content, end)`` of the PI whose target starts at
    ``start``."""
    target = _NAME.match(text, start) or _refuse(start)
    if target[0].lower() == "xml":  # XML 1.0: a reserved target
        _refuse(start)
    close = _end_of(text, "?>", target.end(), "processing instruction")
    if close > target.end() and text[target.end()] not in " \t\n":
        _refuse(target.end())  # XML 1.0: whitespace after the target
    return target[0], text[target.end():close].strip(), close + 2


def _skip_misc(text: str, pos: int) -> int:
    """Skip whitespace, comments and PIs between top-level constructs."""
    while True:
        pos = _WS.match(text, pos).end()
        if text.startswith("<!--", pos):
            pos = _comment(text, pos + 4)[1]
        elif text.startswith("<?", pos):
            pos = _pi(text, pos + 2)[2]
        else:
            return pos


def _skip_prolog(text: str) -> int:
    """Skip the XML declaration, a DOCTYPE and the misc around them."""
    pos = 0
    if text.startswith("<?xml") and text[5:6] in (" ", "\t", "\n"):
        pos = (_DECLARATION.match(text) or _refuse(0)).end()  # XML 1.0
    pos = _skip_misc(text, pos)
    if not text.startswith("<!DOCTYPE", pos):
        _chars(text, 0, len(text))
        return pos
    depth = 0
    for bracket in _DOCTYPE_BRACKET.finditer(text, pos):
        if bracket[0] == "[":
            depth += 1
        elif bracket[0] == "]":
            depth -= 1
        elif depth == 0:
            _chars(text, 0, pos)  # the DOCTYPE itself is never read
            _chars(text, bracket.end(), len(text))
            return _skip_misc(text, bracket.end())
    raise _error("unterminated DOCTYPE", len(text))


def _attributes(text: str, span: tuple[int, int]):
    """``(name, value)`` per attribute of one open tag."""
    seen: set[str] = set()
    for attr in _ATTR.finditer(text, *span):
        name = intern(attr[1])
        if name in seen:
            _refuse(attr.start(1))
        seen.add(name)
        value = attr[attr.lastindex].translate(_SPACE)
        yield name, _decode(value, attr.start(attr.lastindex))


def _scan(text: str, uri: str, document: bool) -> Document:
    """Shred ``text``: one element, under a document node if asked."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # XML 1.0
    if document:
        pos = _skip_prolog(text)
    else:
        _chars(text, 0, len(text))
        pos = _skip_misc(text, 0)
    if not text.startswith("<", pos) or _NAME.match(text, pos + 1) is None:
        _refuse(pos)

    columns = kinds, names, values, sizes, levels, parents = (
        [], [], [], [], [], [])

    def node(kind: int, name: str, value: str, level: int, parent: int):
        kinds.append(kind)
        names.append(name)
        values.append(value)
        sizes.append(0)
        levels.append(level)
        parents.append(parent)

    # ``parent`` is the innermost open element, ``top`` outside the
    # root element; ``level`` is the depth of ``parent``'s children.
    top, level = -1, 0
    if document:
        node(_K_DOC, "", "", 0, -1)
        top, level = 0, 1
    parent = top
    while True:
        token = _TAG.match(text, pos) or _refuse(pos)
        which = token.lastindex
        end = token.end()
        if which == _OPEN:
            pre = len(kinds)
            node(_K_ELEM, intern(token[2]), "", level, parent)
            for name, value in _attributes(text, token.span(3)):
                node(_K_ATTR, name, value, level + 1, pre)
            if not token[4]:
                parent = pre
                level += 1
            else:
                sizes[pre] = len(kinds) - pre - 1
                if parent == top:
                    break
        elif which == _CLOSE:
            if token[1] != names[parent]:
                _refuse(pos)
            sizes[parent] = len(kinds) - parent - 1
            parent = parents[parent]
            level -= 1
            if parent == top:
                break
        elif which == _COMMENT:
            body, end = _comment(text, end)
            node(_K_COMMENT, "", body, level, parent)
        elif which == _CDATA:
            close = _end_of(text, "]]>", end, "CDATA section")
            if kinds[-1] == _K_TEXT and parents[-1] == parent:
                values[-1] += text[end:close]
            elif close > end:
                node(_K_TEXT, "", text[end:close], level, parent)
            end = close + 3
        else:
            target, content, end = _pi(text, pos + 2)
            node(_K_PI, intern(target), content, level, parent)
        pos = text.find("<", end)
        if pos < 0:
            raise _error(f"unterminated element <{names[parent]}>", end)
        if pos > end:
            raw = text[end:pos]
            if "]]>" in raw:  # XML 1.0
                _refuse(end + raw.index("]]>"))
            if "&" in raw:
                raw = _decode(raw, end)
            # Only across a CDATA section: XDM merges adjacent text.
            if kinds[-1] == _K_TEXT and parents[-1] == parent:
                values[-1] += raw
            else:
                node(_K_TEXT, "", raw, level, parent)
    if document:
        sizes[0] = len(kinds) - 1
    end = _skip_misc(text, end)
    if end < len(text):
        raise _error("content after root element" if document
                     else "content after fragment element", end)
    return Document(uri, ColumnSet(*columns))


def parse_document(text: str, uri: str = "") -> Document:
    """Parse a full XML document (with document node at ``pre == 0``)."""
    return _scan(text, uri, document=True)


def parse_fragment(text: str, uri: str = "") -> Document:
    """Parse one element as a parentless fragment document."""
    return _scan(text, uri, document=False)
