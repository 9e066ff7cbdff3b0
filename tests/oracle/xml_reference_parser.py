"""The character-at-a-time XML parser ``src/repro/xmldb/parser.py`` held
until PR 13, kept verbatim as the differential oracle for its scanner
(``tests/xmldb/test_parser_differential.py``, ``test_parser_malformed.py``).

Known, intended differences of the scanner: malformed character
references raise :class:`XmlParseError` (here: bare ``ValueError`` /
``OverflowError``), entity errors report the offset of the ``&`` (here:
the start of the text run or attribute value), and nesting depth is not
bounded by the interpreter's recursion limit.

The original module docstring follows.

A small, dependency-free XML parser feeding :class:`DocumentBuilder`.

Supports the subset of XML needed by the paper's workloads: elements,
attributes (single or double quoted), character data, the five
predefined entities plus numeric character references, CDATA sections,
comments, processing instructions, and a skipped DOCTYPE. Namespace
prefixes are kept as part of the QName (no URI resolution), matching
the paper's prefix-level treatment of names.
"""

from __future__ import annotations

from sys import intern

from repro.errors import XmlParseError
from repro.xmldb.document import Document, DocumentBuilder

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}

_NAME_EXTRA = set("-._:")


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


class _Parser:
    """Single-pass recursive-descent XML reader."""

    def __init__(self, text: str, builder: DocumentBuilder):
        self.text = text
        self.pos = 0
        self.builder = builder

    # -- small helpers -------------------------------------------------------

    def error(self, message: str) -> XmlParseError:
        return XmlParseError(f"{message} at offset {self.pos}", self.pos)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, ahead: int = 0) -> str:
        index = self.pos + ahead
        return self.text[index] if index < len(self.text) else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        while not self.at_end() and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def read_name(self) -> str:
        start = self.pos
        while not self.at_end() and _is_name_char(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        # Interned: a parsed document's tag/attribute names collapse to
        # one string per distinct name (identity-comparable, and the
        # substrings don't pin the whole source text alive).
        return intern(self.text[start:self.pos])

    def decode_entities(self, raw: str) -> str:
        if "&" not in raw:
            return raw
        out: list[str] = []
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch != "&":
                out.append(ch)
                i += 1
                continue
            end = raw.find(";", i + 1)
            if end < 0:
                raise self.error("unterminated entity reference")
            entity = raw[i + 1:end]
            if entity.startswith("#x") or entity.startswith("#X"):
                out.append(chr(int(entity[2:], 16)))
            elif entity.startswith("#"):
                out.append(chr(int(entity[1:])))
            elif entity in _PREDEFINED_ENTITIES:
                out.append(_PREDEFINED_ENTITIES[entity])
            else:
                raise self.error(f"unknown entity &{entity};")
            i = end + 1
        return "".join(out)

    # -- grammar -------------------------------------------------------------

    def parse_prolog(self) -> None:
        self.skip_whitespace()
        if self.startswith("<?xml"):
            end = self.text.find("?>", self.pos)
            if end < 0:
                raise self.error("unterminated XML declaration")
            self.pos = end + 2
        self.skip_misc()
        if self.startswith("<!DOCTYPE"):
            # Skip to the matching '>' allowing a bracketed subset.
            depth = 0
            while not self.at_end():
                ch = self.text[self.pos]
                self.pos += 1
                if ch == "[":
                    depth += 1
                elif ch == "]":
                    depth -= 1
                elif ch == ">" and depth == 0:
                    break
            else:
                raise self.error("unterminated DOCTYPE")
        self.skip_misc()

    def skip_misc(self) -> None:
        """Skip whitespace, comments and PIs between top-level constructs."""
        while True:
            self.skip_whitespace()
            if self.startswith("<!--"):
                self.parse_comment(emit=False)
            elif self.startswith("<?") and not self.startswith("<?xml"):
                self.parse_pi(emit=False)
            else:
                return

    def parse_comment(self, emit: bool = True) -> None:
        self.expect("<!--")
        end = self.text.find("-->", self.pos)
        if end < 0:
            raise self.error("unterminated comment")
        if emit:
            self.builder.comment(self.text[self.pos:end])
        self.pos = end + 3

    def parse_pi(self, emit: bool = True) -> None:
        self.expect("<?")
        target = self.read_name()
        end = self.text.find("?>", self.pos)
        if end < 0:
            raise self.error("unterminated processing instruction")
        content = self.text[self.pos:end].strip()
        if emit:
            self.builder.processing_instruction(target, content)
        self.pos = end + 2

    def parse_cdata(self) -> str:
        self.expect("<![CDATA[")
        end = self.text.find("]]>", self.pos)
        if end < 0:
            raise self.error("unterminated CDATA section")
        content = self.text[self.pos:end]
        self.pos = end + 3
        return content

    def parse_attribute(self) -> tuple[str, str]:
        name = self.read_name()
        self.skip_whitespace()
        self.expect("=")
        self.skip_whitespace()
        quote = self.peek()
        if quote not in ("'", '"'):
            raise self.error("expected quoted attribute value")
        self.pos += 1
        end = self.text.find(quote, self.pos)
        if end < 0:
            raise self.error("unterminated attribute value")
        value = self.decode_entities(self.text[self.pos:end])
        self.pos = end + 1
        return name, value

    def parse_element(self) -> None:
        self.expect("<")
        name = self.read_name()
        self.builder.start_element(name)
        seen: set[str] = set()
        while True:
            self.skip_whitespace()
            ch = self.peek()
            if ch == ">":
                self.pos += 1
                break
            if self.startswith("/>"):
                self.pos += 2
                self.builder.end_element()
                return
            attr_name, attr_value = self.parse_attribute()
            if attr_name in seen:
                raise self.error(f"duplicate attribute {attr_name!r}")
            seen.add(attr_name)
            self.builder.attribute(attr_name, attr_value)
        self.parse_content(name)

    def parse_content(self, open_name: str) -> None:
        text_start = self.pos
        while True:
            if self.at_end():
                raise self.error(f"unterminated element <{open_name}>")
            lt = self.text.find("<", self.pos)
            if lt < 0:
                raise self.error(f"unterminated element <{open_name}>")
            if lt > self.pos:
                raw = self.text[self.pos:lt]
                self.builder.text(self.decode_entities(raw))
                self.pos = lt
            if self.startswith("</"):
                self.pos += 2
                name = self.read_name()
                if name != open_name:
                    raise self.error(
                        f"mismatched end tag </{name}> for <{open_name}>")
                self.skip_whitespace()
                self.expect(">")
                self.builder.end_element()
                return
            if self.startswith("<!--"):
                self.parse_comment()
            elif self.startswith("<![CDATA["):
                self.builder.text(self.parse_cdata())
            elif self.startswith("<?"):
                self.parse_pi()
            else:
                self.parse_element()
        del text_start  # single loop exit above

    def run_document(self) -> None:
        self.parse_prolog()
        if not self.startswith("<"):
            raise self.error("expected root element")
        self.builder.start_document()
        self.parse_element()
        self.skip_misc()
        if not self.at_end():
            raise self.error("content after root element")
        self.builder.end_document()

    def run_fragment(self) -> None:
        """Parse a single parentless element (no document node)."""
        self.skip_misc()
        if not self.startswith("<"):
            raise self.error("expected an element")
        self.parse_element()
        self.skip_misc()
        if not self.at_end():
            raise self.error("content after fragment element")


def parse_document(text: str, uri: str = "") -> Document:
    """Parse a full XML document (with document node at ``pre == 0``)."""
    builder = DocumentBuilder(uri)
    _Parser(text, builder).run_document()
    return builder.finish()


def parse_fragment(text: str, uri: str = "") -> Document:
    """Parse one element as a parentless fragment document."""
    builder = DocumentBuilder(uri)
    _Parser(text, builder).run_fragment()
    return builder.finish()
