"""Tokenizer for the XQuery subset.

XQuery has no reserved words — keywords are contextual — so the lexer
emits generic ``NAME`` tokens and the parser decides. Direct element
constructors switch the *parser* into raw-scanning mode; to support
that, the lexer exposes its input text and can be repositioned with
:meth:`Lexer.reset`.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple

from repro.errors import XQuerySyntaxError


class TokenType(Enum):
    NAME = auto()      # QName (possibly prefixed, possibly dotted axes)
    VARIABLE = auto()  # $name
    STRING = auto()    # quoted literal (value already unescaped)
    INTEGER = auto()
    DOUBLE = auto()
    SYMBOL = auto()    # punctuation / operators
    END = auto()


class Token(NamedTuple):
    type: TokenType
    text: str
    value: object
    offset: int

    def is_symbol(self, *symbols: str) -> bool:
        return self.type == TokenType.SYMBOL and self.text in symbols

    def is_name(self, *names: str) -> bool:
        return self.type == TokenType.NAME and self.text in names


# Longest-match-first multi-character symbols.
_SYMBOLS = [
    "<<", ">>", "!=", "<=", ">=", ":=", "//", "::", "..",
    "(", ")", "{", "}", "[", "]", ",", ";", "/", "@", "*", "=",
    "<", ">", "+", "-", "$", "|", ".", "?",
]

_NAME_EXTRA = set("-._:")


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


class Lexer:
    """Produces one token at a time; supports arbitrary lookahead via
    :meth:`peek` and repositioning via :meth:`reset`."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._buffer: list[Token] = []

    # -- public API --------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        while len(self._buffer) <= ahead:
            self._buffer.append(self._scan())
        return self._buffer[ahead]

    def next(self) -> Token:
        token = self.peek()
        self._buffer.pop(0)
        return token

    def reset(self, offset: int) -> None:
        """Reposition raw scanning at ``offset`` (constructor support)."""
        self.pos = offset
        self._buffer.clear()

    def error(self, message: str, offset: int | None = None) -> XQuerySyntaxError:
        at = self.pos if offset is None else offset
        context = self.text[max(0, at - 20):at + 20].replace("\n", " ")
        return XQuerySyntaxError(f"{message} at offset {at}: ...{context}...", at)

    # -- scanning ------------------------------------------------------------

    def _skip_trivia(self) -> None:
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif text.startswith("(:", self.pos):
                depth = 1
                self.pos += 2
                while self.pos < len(text) and depth:
                    if text.startswith("(:", self.pos):
                        depth += 1
                        self.pos += 2
                    elif text.startswith(":)", self.pos):
                        depth -= 1
                        self.pos += 2
                    else:
                        self.pos += 1
                if depth:
                    raise self.error("unterminated comment")
            else:
                return

    def _scan(self) -> Token:
        self._skip_trivia()
        text = self.text
        if self.pos >= len(text):
            return Token(TokenType.END, "", None, self.pos)
        start = self.pos
        ch = text[start]

        if ch in "\"'":
            return self._scan_string(ch)

        if ch.isdigit() or (ch == "." and start + 1 < len(text)
                            and text[start + 1].isdigit()):
            return self._scan_number()

        if ch == "$":
            self.pos += 1
            name_start = self.pos
            if self.pos >= len(text) or not _is_name_start(text[self.pos]):
                raise self.error("expected variable name after '$'")
            while self.pos < len(text) and _is_name_char(text[self.pos]):
                self.pos += 1
            name = text[name_start:self.pos]
            return Token(TokenType.VARIABLE, name, name, start)

        if _is_name_start(ch):
            while self.pos < len(text):
                current = text[self.pos]
                if current == ":":
                    # "::" is the axis separator, never part of a name;
                    # a single ":" is a QName prefix separator only when
                    # followed by a name character.
                    nxt = text[self.pos + 1] if self.pos + 1 < len(text) else ""
                    if nxt == ":" or not _is_name_start(nxt):
                        break
                    self.pos += 1
                elif _is_name_char(current):
                    self.pos += 1
                else:
                    break
            name = text[start:self.pos]
            # A trailing '.' belongs to following syntax, not the name.
            while name.endswith("."):
                name = name[:-1]
                self.pos -= 1
            return Token(TokenType.NAME, name, name, start)

        for symbol in _SYMBOLS:
            if text.startswith(symbol, start):
                self.pos = start + len(symbol)
                return Token(TokenType.SYMBOL, symbol, symbol, start)

        raise self.error(f"unexpected character {ch!r}")

    def _scan_string(self, quote: str) -> Token:
        text = self.text
        start = self.pos
        self.pos += 1
        parts: list[str] = []
        while True:
            if self.pos >= len(text):
                raise self.error("unterminated string literal", start)
            ch = text[self.pos]
            if ch == quote:
                if text.startswith(quote * 2, self.pos):
                    parts.append(quote)  # doubled quote escape
                    self.pos += 2
                    continue
                self.pos += 1
                break
            parts.append(ch)
            self.pos += 1
        value = "".join(parts)
        return Token(TokenType.STRING, value, value, start)

    def _scan_number(self) -> Token:
        text = self.text
        start = self.pos
        seen_dot = False
        seen_exp = False
        while self.pos < len(text):
            ch = text[self.pos]
            if ch.isdigit():
                self.pos += 1
            elif ch == "." and not seen_dot and not seen_exp:
                # Don't swallow ".." or ". " following an integer.
                nxt = text[self.pos + 1] if self.pos + 1 < len(text) else ""
                if not nxt.isdigit():
                    break
                seen_dot = True
                self.pos += 1
            elif ch in "eE" and not seen_exp:
                nxt = text[self.pos + 1] if self.pos + 1 < len(text) else ""
                if nxt.isdigit() or (nxt in "+-"):
                    seen_exp = True
                    self.pos += 2 if nxt in "+-" else 1
                else:
                    break
            else:
                break
        raw = text[start:self.pos]
        if seen_dot or seen_exp:
            return Token(TokenType.DOUBLE, raw, float(raw), start)
        return Token(TokenType.INTEGER, raw, int(raw), start)
