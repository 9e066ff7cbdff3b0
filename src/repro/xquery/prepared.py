"""Prepared queries, keyed by *shape*: a literal is a parameter.

XRPC ships a function and its parameters; a tenant's threshold is a
parameter too. :func:`scan` maps a query text to its shape — the text
with every numeric or string literal that is an operand of a value /
general comparison replaced by a typed slot — and the literals the text
binds to those slots. Everything derived from the text alone is derived
once per shape and kept in a :class:`PreparedTable`: the planner's
:class:`~repro.planner.planner.PreparedQuery` (its candidates and their
prices too: a literal moves no estimate), and a peer's
:class:`~repro.xquery.evaluator.Evaluator` per function body it is
shipped (XRPC ships the body as text in *every* request). What a
literal decides — the body text as shipped — hangs off a
:class:`Binding`, kept in a small LRU on the shape.

The scan is one pass over the text (memoized per text), not a parse,
so it only proposes:
the first-sight parse puts a :class:`~repro.xquery.ast.LiteralSlot`
leaf where the scan saw a slot, and unless every slot turns out to be a
non-positional comparison operand the text is prepared as it stands, a
shape of its own with no slot (as is a text the scan does not vouch
for: direct constructors, comments). Everything else stays in the
shape: ``doc()`` URIs, ``execute at`` destinations, positional
predicates (``[1]``, ``position() = k``), function arguments, ``-5``
(a unary minus over ``5``).
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from functools import lru_cache
from typing import Callable, Hashable, NamedTuple

from repro.xquery.ast import (
    VALUE_COMPARISONS, ComparisonExpr, Expr, FunCall, LiteralSlot, Module,
    walk,
)
from repro.xquery.parser import parse_expr, parse_query

#: Entries kept per table, and literal bindings kept per shape. (The
#: end-to-end ledger's ``tenant_mix`` workload — one shape bound to 200
#: thresholds — is defined against the second use.)
PLAN_CACHE_SIZE = 128

# -- the scan -----------------------------------------------------------------

#: A literal token as ``xquery/lexer.py`` scans it, or what makes the
#: scan decline: a comment, a direct constructor (whose content the
#: lexer does not tokenize). No groups and a literal first character
#: per alternative: ``re`` then skips to candidates by character set.
_TOKEN = re.compile(
    r""""(?:[^"]|"")*"|'(?:[^']|'')*'"""
    r"""|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?(?![\w.])"""
    r"""|\(:|<[A-Za-z_!?]""")
_COMPARE = r"(?:!=|<=|>=|[=<>]|\b(?:eq|ne|lt|le|gt|ge)\b)"
#: ``head`` ends in a comparison operator (not ``<<``, ``>>``, ``:=``).
_COMPARED = re.compile(rf"(?<![<>:!=]){_COMPARE}\Z")
_POSITIONAL = re.compile(r"(?:position|last)\s*\(\s*\)\Z")
#: What follows makes the literal part of a larger operand, or makes
#: the operator before it something else.
_CONTINUES = re.compile(
    r"\s*(?:[-+*/|\[(=<>!]"
    r"|(?:to|div|idiv|mod|union|intersect|except|is|eq|ne|lt|le|gt|ge)\b)")
#: A comparison follows (the literal is its left operand).
_COMPARES = re.compile(
    rf"\s*{_COMPARE}(?![=<>])(?!\s*(?:fn:)?(?:position|last)\s*\()")
#: What a left operand may follow: it starts the expression.
_OPENERS = ("(", "[", "{", ",", "and", "or", "if", "where", "return",
            "then", "else", "satisfies")
_MARK = "\x00"


class Shape(NamedTuple):
    """A text as the table sees it."""

    #: The text with each slot's span replaced by a typed marker; two
    #: texts with one key differ inside their slots and nowhere else.
    key: str
    #: The values the text binds to the slots, in text order.
    literals: tuple
    #: ``(token offset, kind)`` per slot, for the first-sight parse.
    slots: tuple[tuple[int, str], ...]


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def scan(text: str) -> Shape:
    """``text``'s shape and the literals it binds (see the module
    docstring for what becomes a slot and what makes the scan decline).
    Memoized: a text met again — the one query of a fixed workload, on
    both sides of the wire — pays a dictionary lookup."""
    unslotted = Shape(text, (), ())
    if _MARK in text:
        return unslotted
    pieces: list[str] = []
    literals: list = []
    slots: list[tuple[int, str]] = []
    copied = 0
    for match in _TOKEN.finditer(text):
        start, end = match.span()
        first = text[start]
        if first in "(<":
            return unslotted
        if first not in "\"'" and start and (
                text[start - 1].isalnum() or text[start - 1] in "_.$:-"):
            continue                     # digits inside a name
        head = text[:start].rstrip()
        operator = _COMPARED.search(head, max(len(head) - 3, 0))
        if operator is not None:
            if _CONTINUES.match(text, end) or _POSITIONAL.search(
                    head[:operator.start()].rstrip()[-24:]):
                continue
        elif not (_COMPARES.match(text, end)
                  and (not head or head.endswith(_OPENERS))):
            continue
        raw = text[start:end]
        if first in "\"'":
            kind, value = "string", raw[1:-1].replace(first * 2, first)
        elif raw.isdigit():
            kind, value = "integer", int(raw)
        else:
            kind, value = "double", float(raw)
        pieces += text[copied:start], _MARK, kind[0]
        copied = end
        literals.append(value)
        slots.append((start, kind))
    if not slots:
        return unslotted
    pieces.append(text[copied:])
    return Shape("".join(pieces), tuple(literals), tuple(slots))


def _slots_hold(root: Expr | Module, count: int) -> bool:
    """The parse put all ``count`` slots, and each where a slot may
    be: an operand of a value comparison whose other operand reads no
    ``position()`` / ``last()`` (those shapes are compiled into slices
    that read the literal when they are built)."""
    bodies = ([decl.body for decl in root.functions] + [root.body]
              if isinstance(root, Module) else [root])
    seen: set[int] = set()
    held: set[int] = set()
    for body in bodies:
        for node in walk(body):
            if isinstance(node, LiteralSlot):
                seen.add(node.index)
            elif isinstance(node, ComparisonExpr) \
                    and node.op in VALUE_COMPARISONS:
                for side, other in ((node.left, node.right),
                                    (node.right, node.left)):
                    if isinstance(side, LiteralSlot) and not any(
                            isinstance(call, FunCall)
                            and call.name in ("position", "last")
                            for call in walk(other)):
                        held.add(side.index)
    return len(seen) == count and seen == held


# -- the table ----------------------------------------------------------------


def _lru(entries: OrderedDict, key: Hashable, make: Callable[[], object]):
    """``entries[key]``, made on first sight and now the most recently
    used of at most ``PLAN_CACHE_SIZE`` (the caller holds the lock)."""
    entry = entries.get(key)
    if entry is None:
        entry = entries[key] = make()
        while len(entries) > PLAN_CACHE_SIZE:
            entries.popitem(last=False)
    else:
        entries.move_to_end(key)
    return entry


class Binding:
    """One tuple of literals bound to a shape's slots, and what only
    the literals decide (a body's text as shipped, a scatter's shard
    probes), each made once per binding: :meth:`once` keys it by the
    object it was made for and keeps that object, so no address is
    reused under a live entry."""

    __slots__ = ("literals", "memo", "_lock")

    def __init__(self, literals: tuple = ()):
        self.literals = literals
        self.memo: dict[object, object] = {}
        self._lock = threading.Lock()

    def once(self, key: object, build: Callable[[], object]):
        value = self.memo.get(key)
        if value is None:
            with self._lock:         # racing first uses share one build
                value = self.memo.get(key)
                if value is None:
                    value = self.memo[key] = build()
        return value


class Prepared:
    """What was built from one shape, and the bindings seen of it."""

    __slots__ = ("value", "lock", "_bindings")

    def __init__(self, value: object):
        self.value = value
        #: Serialises whoever completes ``value`` lazily (the planner's
        #: lowering: concurrent runs of a shape share one).
        self.lock = threading.Lock()
        self._bindings: OrderedDict[tuple, Binding] = OrderedDict()

    def bind(self, literals: tuple) -> Binding:
        """The binding of ``literals``, least recently used dropped."""
        with self.lock:
            return _lru(self._bindings, literals, lambda: Binding(literals))


class _Cell:
    __slots__ = ("lock", "entry")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entry: object = None


#: The entry of a shape whose first-sight parse refused its slots.
_DECLINED = object()


class PreparedTable:
    """Thread-safe LRU interning: one entry per key, built once."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cells: OrderedDict[Hashable, _Cell] = OrderedDict()

    def intern(self, key: Hashable, build: Callable[[], object]):
        """The entry under ``key``, built on first sight — under the
        entry's own lock, so threads racing on one key share one build
        and a slow build never blocks the lookup of another key."""
        with self._lock:
            cell = _lru(self._cells, key, _Cell)
        if cell.entry is None:
            with cell.lock:
                if cell.entry is None:
                    try:
                        cell.entry = build()
                    except BaseException:
                        with self._lock:     # a failed build leaves nothing
                            if self._cells.get(key) is cell:
                                del self._cells[key]
                        raise
        return cell.entry

    def intern_text(self, text: str, scope: Hashable,
                    build: Callable[[object], object],
                    prolog: bool = False) -> tuple[Prepared, Binding]:
        """The :class:`Prepared` of ``text``'s shape within ``scope``
        (whatever else the compiled form depends on) and ``text``'s
        :class:`Binding` of it. On first sight of the shape ``text`` is
        parsed (a main module when ``prolog``, else one expression) and
        ``build(parsed)`` makes the value."""
        parse = parse_query if prolog else parse_expr
        shape = scan(text)

        def first_sight():
            parsed = parse(text, {
                offset: LiteralSlot(index, kind)
                for index, (offset, kind) in enumerate(shape.slots)})
            if not _slots_hold(parsed, len(shape.slots)):
                return _DECLINED
            return Prepared(build(parsed))

        prepared = _DECLINED
        if shape.slots:
            prepared = self.intern((shape.key, scope), first_sight)
        if prepared is _DECLINED:
            shape = Shape(text, (), ())
            prepared = self.intern(
                (text, scope), lambda: Prepared(build(parse(text))))
        return prepared, prepared.bind(shape.literals)

    def __len__(self) -> int:
        with self._lock:
            return len(self._cells)
