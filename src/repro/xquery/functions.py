"""The built-in function library, and the one declaration of what each
built-in does to the nodes it is given.

Builtins receive the evaluator (for context access and to keep all
counting in one place), the dynamic context, and the already-evaluated
argument sequences. Each is registered once, by :func:`_register`,
under its name and arities, with the classes of :data:`CLASSES` it
belongs to. Every analysis that treats a built-in specially — where a
query may be cut (Section II's Problem 5, condition iv), what a
projected fragment keeps (Section VI), what code motion may move, how
the planner prices a call, how shard results combine — reads its set
of names from :func:`builtins_in`, derived once when it is imported.

Problem 5's classes: the static context (``static-base-uri``,
``default-collation``, ``current-dateTime``) is safe remotely because
XRPC ships it in the message envelope; the dynamic node context
(``base-uri``, ``document-uri`` and their ``xrpc:`` wrappers) because
fragment documents record the originating URI (not yet here: ROADMAP
item 19(d)); non-descendant access
(``root``, ``id``, ``idref``) is what condition iv guards, supported
remotely only under pass-by-projection.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.errors import XQueryDynamicError, XQueryTypeError
from repro.xmldb.compare import sort_document_order
from repro.xmldb.node import Node, NodeKind
from repro.xquery import xdm
from repro.xquery.xdm import (
    atomize, effective_boolean_value, string_value, to_number,
)

BuiltinImpl = Callable[..., list]

#: (name, arity) -> implementation. Populated by :func:`_register`.
BUILTINS: dict[tuple[str, int], BuiltinImpl] = {}

#: (name, arity) of the built-ins that read the focus (context item,
#: position, size): the evaluator hands each row its own. Populated by
#: :func:`_register`'s ``focus``.
FOCUS_FUNCTIONS: set[tuple[str, int]] = set()

#: The classes a built-in may be in. Each analysis that reads one says
#: so where it calls :func:`builtins_in`.
CLASSES = {
    "document": "opens the document its URI names (rules DOC1/DOC2)",
    "collection": "opens any document: its D(v) is * (resolved as doc)",
    "root": "reaches its node argument's root (rule ROOT, condition iv)",
    "id": "reaches elements by ID from its node (rule ID, condition iv)",
    "transparent": "returns its argument nodes unchanged",
    "value": "only atomizes or inspects its argument nodes",
    "atom": "answers one number or boolean",
    "data-safe": "f(data(p)) = f(p): code motion may ship p atomized",
    "boolean": "answers a boolean",
    "additive": "per-shard answers add up to the whole",
    "positional": "reads the context position or size",
}

#: name -> the classes it was registered with.
_CLASSES_OF: dict[str, frozenset[str]] = {}


def _known(classes) -> frozenset[str]:
    unknown = set(classes) - CLASSES.keys()
    if unknown:
        raise ValueError(f"unknown built-in classes {sorted(unknown)}")
    return frozenset(classes)


def _register(name: str, *arities: int, focus: int | None = None,
              classes: str = ""):
    """Register the decorated built-in under ``name`` at each arity;
    ``focus`` is the arity at which it reads the focus instead of an
    argument, ``classes`` the space-separated :data:`CLASSES` it is in
    (at every arity)."""
    _CLASSES_OF[name] = _known(classes.split())

    def decorator(fn: BuiltinImpl) -> BuiltinImpl:
        for arity in arities:
            BUILTINS[(name, arity)] = fn
        if focus is not None:
            FOCUS_FUNCTIONS.add((name, focus))
        return fn
    return decorator


def builtins_in(*classes: str) -> frozenset[str]:
    """The names of the built-ins in any of ``classes``."""
    wanted = _known(classes)
    return frozenset(name for name, declared in _CLASSES_OF.items()
                     if not declared.isdisjoint(wanted))


def _single_node(seq: list, who: str) -> Node:
    if len(seq) != 1 or not isinstance(seq[0], Node):
        raise XQueryTypeError(f"{who} requires exactly one node")
    return seq[0]


def _context_or_single(env, seq: list | None, who: str) -> Node:
    """The node argument, or the context node where there is none."""
    if seq is None:
        item = env.context_item
        if not isinstance(item, Node):
            raise XQueryDynamicError(f"{who} requires a context node")
        return item
    return _single_node(seq, who)


def _optional_atom(seq: list, who: str) -> Any:
    if not seq:
        return None
    if len(seq) > 1:
        raise XQueryTypeError(f"{who} requires at most one item")
    return xdm.atomize_item(seq[0])


def _strings(who: str, *seqs: list) -> list[str]:
    """Each argument's optional atom as a string ("" for none)."""
    return [str(_optional_atom(seq, who) or "") for seq in seqs]


# ---------------------------------------------------------------------------
# Documents and node context (Problem 5 Classes 1-4)
# ---------------------------------------------------------------------------


@_register("doc", 1, classes="document")
@_register("collection", 1, classes="collection")
def fn_doc(evaluator, env, uri_seq):
    atom = _optional_atom(uri_seq, "fn:doc")
    if atom is None:
        return []
    env.counter.docs_opened += 1
    return [env.resolve_doc(str(atom)).root]


@_register("root", 1, classes="root")
def fn_root(evaluator, env, node_seq):
    if not node_seq:
        return []
    return [_single_node(node_seq, "fn:root").root()]


@_register("id", 1, 2, focus=1, classes="id")
def fn_id(evaluator, env, values, node_seq=None):
    doc = _context_or_single(env, node_seq, "fn:id").doc
    hits = (doc.element_by_id(token) for value in atomize(values)
            for token in str(value).split())
    return sort_document_order([hit for hit in hits if hit is not None])


@_register("idref", 1, 2, focus=1, classes="id")
def fn_idref(evaluator, env, values, node_seq=None):
    doc = _context_or_single(env, node_seq, "fn:idref").doc
    return sort_document_order([hit for value in atomize(values)
                                for token in str(value).split()
                                for hit in doc.elements_by_idref(token)])


@_register("base-uri", 1, classes="value")
@_register("xrpc:base-uri", 1, classes="value")
def fn_base_uri(evaluator, env, node_seq):
    if not node_seq:
        return []
    uri = _single_node(node_seq, "fn:base-uri").doc.uri
    return [uri] if uri else []


@_register("document-uri", 1, classes="value")
@_register("xrpc:document-uri", 1, classes="value")
def fn_document_uri(evaluator, env, node_seq):
    if not node_seq:
        return []
    node = _single_node(node_seq, "fn:document-uri")
    if node.kind != NodeKind.DOCUMENT:
        return []
    return [node.doc.uri] if node.doc.uri else []


@_register("static-base-uri", 0)
def fn_static_base_uri(evaluator, env):
    return [evaluator.static.base_uri]


@_register("default-collation", 0)
def fn_default_collation(evaluator, env):
    return [evaluator.static.default_collation]


@_register("current-dateTime", 0)
def fn_current_datetime(evaluator, env):
    return [evaluator.static.current_datetime]


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


@_register("count", 1, classes="value atom data-safe additive")
def fn_count(evaluator, env, seq):
    return [len(seq)]


@_register("empty", 1, classes="value atom data-safe boolean")
def fn_empty(evaluator, env, seq):
    return [len(seq) == 0]


@_register("exists", 1, classes="value atom data-safe boolean")
def fn_exists(evaluator, env, seq):
    return [len(seq) > 0]


@_register("distinct-values", 1, classes="value data-safe")
def fn_distinct_values(evaluator, env, seq):
    seen: list = []
    for atom in atomize(seq):
        if not any(xdm.items_equal(atom, s) for s in seen):
            seen.append(atom)
    return seen


@_register("reverse", 1, classes="transparent")
def fn_reverse(evaluator, env, seq):
    return list(reversed(seq))


@_register("subsequence", 2, 3, classes="transparent")
def fn_subsequence(evaluator, env, seq, start_seq, length_seq=None):
    return _window(seq, start_seq, length_seq, "fn:subsequence")


def _window(items, start_seq: list, length_seq: list | None, who: str):
    """``items`` at the 1-based positions p with round(start) <= p <
    round(start) + round(length), rounding half up; a NaN bound selects
    nothing (fn:subsequence, fn:substring)."""
    start = _rounded(start_seq, who)
    end = math.inf if length_seq is None else start + _rounded(
        length_seq, who)
    if not start < end:
        return items[:0]
    first, stop = max(1, start), min(len(items) + 1, end)
    return items[int(first) - 1:int(stop) - 1] if first < stop else items[:0]


def _rounded(seq: list, who: str) -> float:
    value = to_number(_optional_atom(seq, who))
    return math.floor(value + 0.5) if math.isfinite(value) else value


@_register("index-of", 2, classes="value data-safe")
def fn_index_of(evaluator, env, seq, target_seq):
    target = _optional_atom(target_seq, "fn:index-of")
    out = []
    for position, item in enumerate(atomize(seq), start=1):
        try:
            if xdm.value_compare("=", item, target):
                out.append(position)
        except XQueryTypeError:
            continue
    return out


@_register("insert-before", 3, classes="transparent")
def fn_insert_before(evaluator, env, seq, pos_seq, inserts):
    position = round(to_number(_optional_atom(pos_seq, "fn:insert-before")))
    position = max(1, min(position, len(seq) + 1))
    return seq[:position - 1] + list(inserts) + seq[position - 1:]


@_register("remove", 2, classes="transparent")
def fn_remove(evaluator, env, seq, pos_seq):
    position = round(to_number(_optional_atom(pos_seq, "fn:remove")))
    if 1 <= position <= len(seq):
        return seq[:position - 1] + seq[position:]
    return list(seq)


@_register("exactly-one", 1, classes="transparent")
def fn_exactly_one(evaluator, env, seq):
    if len(seq) != 1:
        raise XQueryDynamicError("fn:exactly-one: sequence length "
                                 f"{len(seq)}")
    return list(seq)


@_register("zero-or-one", 1, classes="transparent")
def fn_zero_or_one(evaluator, env, seq):
    if len(seq) > 1:
        raise XQueryDynamicError("fn:zero-or-one: sequence length "
                                 f"{len(seq)}")
    return list(seq)


@_register("one-or-more", 1, classes="transparent")
def fn_one_or_more(evaluator, env, seq):
    if not seq:
        raise XQueryDynamicError("fn:one-or-more: empty sequence")
    return list(seq)


@_register("unordered", 1, classes="transparent")
def fn_unordered(evaluator, env, seq):
    return list(seq)


# ---------------------------------------------------------------------------
# Booleans
# ---------------------------------------------------------------------------


@_register("not", 1, classes="value atom boolean")
def fn_not(evaluator, env, seq):
    return [not effective_boolean_value(seq)]


@_register("boolean", 1, classes="value atom boolean")
def fn_boolean(evaluator, env, seq):
    return [effective_boolean_value(seq)]


@_register("true", 0, classes="boolean")
def fn_true(evaluator, env):
    return [True]


@_register("false", 0, classes="boolean")
def fn_false(evaluator, env):
    return [False]


@_register("deep-equal", 2, classes="boolean")
def fn_deep_equal(evaluator, env, left, right):
    return [xdm.sequences_deep_equal(left, right)]


# ---------------------------------------------------------------------------
# Strings
# ---------------------------------------------------------------------------


@_register("string", 0, 1, focus=0, classes="value data-safe")
def fn_string(evaluator, env, seq=None):
    if seq is None:
        item = env.context_item
        if item is None:
            raise XQueryDynamicError("fn:string: no context item")
        return [string_value(item)]
    if not seq:
        return [""]
    if len(seq) > 1:
        raise XQueryTypeError("fn:string requires at most one item")
    return [string_value(seq[0])]


@_register("data", 1, classes="value data-safe")
def fn_data(evaluator, env, seq):
    return atomize(seq)


@_register("number", 0, 1, focus=0, classes="value atom data-safe")
def fn_number(evaluator, env, seq=None):
    if seq is None:
        item = env.context_item
        if item is None:
            raise XQueryDynamicError("fn:number: no context item")
        return [to_number(xdm.atomize_item(item))]
    atom = _optional_atom(seq, "fn:number")
    if atom is None:
        return [float("nan")]
    return [to_number(atom)]


@_register("concat", 2, 3, 4, 5, 6, 7, 8, classes="value data-safe")
def fn_concat(evaluator, env, *arg_seqs):
    parts = []
    for seq in arg_seqs:
        atom = _optional_atom(seq, "fn:concat")
        parts.append("" if atom is None else string_value(atom))
    return ["".join(parts)]


@_register("string-join", 2, classes="value data-safe")
def fn_string_join(evaluator, env, seq, sep_seq):
    separator = _optional_atom(sep_seq, "fn:string-join")
    separator = "" if separator is None else str(separator)
    return [separator.join(string_value(item) for item in atomize(seq))]


@_register("string-length", 0, 1, focus=0, classes="value atom")
def fn_string_length(evaluator, env, seq=None):
    return [len(fn_string(evaluator, env, seq)[0])]


@_register("contains", 2, classes="value data-safe boolean")
def fn_contains(evaluator, env, haystack, needle):
    text, part = _strings("fn:contains", haystack, needle)
    return [part in text]


@_register("starts-with", 2, classes="value data-safe boolean")
def fn_starts_with(evaluator, env, haystack, needle):
    text, part = _strings("fn:starts-with", haystack, needle)
    return [text.startswith(part)]


@_register("ends-with", 2, classes="value data-safe boolean")
def fn_ends_with(evaluator, env, haystack, needle):
    text, part = _strings("fn:ends-with", haystack, needle)
    return [text.endswith(part)]


@_register("substring", 2, 3, classes="value data-safe")
def fn_substring(evaluator, env, source, start_seq, length_seq=None):
    (text,) = _strings("fn:substring", source)
    return [_window(text, start_seq, length_seq, "fn:substring")]


@_register("substring-before", 2, classes="value data-safe")
def fn_substring_before(evaluator, env, source, sep):
    text, needle = _strings("fn:substring-before", source, sep)
    return [text[:max(text.find(needle), 0)]]


@_register("substring-after", 2, classes="value data-safe")
def fn_substring_after(evaluator, env, source, sep):
    text, needle = _strings("fn:substring-after", source, sep)
    index = text.find(needle)      # "" is found at 0: the whole text
    return [text[index + len(needle):] if index >= 0 else ""]


@_register("normalize-space", 0, 1, focus=0, classes="value data-safe")
def fn_normalize_space(evaluator, env, seq=None):
    return [" ".join(fn_string(evaluator, env, seq)[0].split())]


@_register("upper-case", 1, classes="value data-safe")
def fn_upper_case(evaluator, env, seq):
    return [_strings("fn:upper-case", seq)[0].upper()]


@_register("lower-case", 1, classes="value data-safe")
def fn_lower_case(evaluator, env, seq):
    return [_strings("fn:lower-case", seq)[0].lower()]


@_register("translate", 3, classes="value")
def fn_translate(evaluator, env, source, map_from, map_to):
    text, source_chars, target_chars = _strings(
        "fn:translate", source, map_from, map_to)
    table: dict[int, str | None] = {}
    for index, ch in enumerate(source_chars):   # the first mapping wins
        table.setdefault(ord(ch), target_chars[index]
                         if index < len(target_chars) else None)
    return [text.translate(table)]


# ---------------------------------------------------------------------------
# Numbers and aggregates
# ---------------------------------------------------------------------------


@_register("sum", 1, 2, classes="value atom data-safe additive")
def fn_sum(evaluator, env, seq, zero_seq=None):
    atoms = atomize(seq)
    if not atoms:
        if zero_seq is not None:
            return list(zero_seq)
        return [0]
    return [math.fsum(to_number(a) for a in atoms)]


@_register("avg", 1, classes="value atom data-safe")
def fn_avg(evaluator, env, seq):
    numbers = [to_number(atom) for atom in atomize(seq)]
    return [math.fsum(numbers) / len(numbers)] if numbers else []


@_register("max", 1, classes="value atom data-safe")
def fn_max(evaluator, env, seq):
    numbers = [to_number(atom) for atom in atomize(seq)]
    return [max(numbers)] if numbers else []


@_register("min", 1, classes="value atom data-safe")
def fn_min(evaluator, env, seq):
    numbers = [to_number(atom) for atom in atomize(seq)]
    return [min(numbers)] if numbers else []


@_register("abs", 1)
def fn_abs(evaluator, env, seq):
    atom = _optional_atom(seq, "fn:abs")
    if atom is None:
        return []
    value = to_number(atom)
    result = abs(value)
    return [int(result) if isinstance(atom, int) else result]


def _integral(seq: list, who: str, to_int: Callable[[float], int]) -> list:
    """``to_int`` of one number; NaN and the infinities stay as they are
    (F&O 6.4.3-6.4.5)."""
    atom = _optional_atom(seq, who)
    if atom is None:
        return []
    value = to_number(atom)
    return [to_int(value) if math.isfinite(value) else value]


@_register("floor", 1)
def fn_floor(evaluator, env, seq):
    return _integral(seq, "fn:floor", math.floor)


@_register("ceiling", 1)
def fn_ceiling(evaluator, env, seq):
    return _integral(seq, "fn:ceiling", math.ceil)


@_register("round", 1)
def fn_round(evaluator, env, seq):
    return _integral(seq, "fn:round", lambda value: math.floor(value + 0.5))


# ---------------------------------------------------------------------------
# Node names
# ---------------------------------------------------------------------------


@_register("local-name", 0, 1, focus=0, classes="value")
def fn_local_name(evaluator, env, seq=None):
    return [_node_name(env, seq, "fn:local-name").split(":", 1)[-1]]


@_register("name", 0, 1, focus=0, classes="value")
def fn_name(evaluator, env, seq=None):
    return [_node_name(env, seq, "fn:name")]


def _node_name(env, seq: list | None, who: str) -> str:
    """The name of the node argument or the context node; "" for ()."""
    if seq == []:
        return ""
    return _context_or_single(env, seq, who).name


# ---------------------------------------------------------------------------
# Positional context
# ---------------------------------------------------------------------------


@_register("position", 0, focus=0, classes="positional")
def fn_position(evaluator, env):
    if not env.context_position:
        raise XQueryDynamicError("fn:position: no context")
    return [env.context_position]


@_register("last", 0, focus=0, classes="positional")
def fn_last(evaluator, env):
    if not env.context_size:
        raise XQueryDynamicError("fn:last: no context")
    return [env.context_size]


@_register("error", 0, 1)
def fn_error(evaluator, env, seq=None):
    message = "fn:error"
    if seq:
        message = string_value(seq[0])
    raise XQueryDynamicError(message)
