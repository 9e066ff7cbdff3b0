"""The built-in function library.

Builtins receive the evaluator (for context access and to keep all
counting in one place), the dynamic context, and the already-evaluated
argument sequences. The classification of Section II's Problem 5 is
annotated per function:

* Class 1 (static context): ``static-base-uri``, ``default-collation``,
  ``current-dateTime`` — safe remotely because XRPC ships the static
  context in the message envelope.
* Class 2 (dynamic node context): ``base-uri``, ``document-uri`` and
  their ``xrpc:`` wrappers — safe because fragment documents record the
  originating base URI.
* Classes 3-4 (non-descendant access): ``root``, ``id``, ``idref`` —
  the functions Conditions iv guards, supported remotely only under
  pass-by-projection.
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

#: The built-ins of Problem 5 Classes 3-4 (paper Condition iv).
NON_DESCENDANT_FUNCTIONS = frozenset({"root", "id", "idref"})

#: (name, arity) of the built-ins that read the focus (context item,
#: position, size): the evaluator hands each row its own. Populated by
#: :func:`_register`'s ``focus``.
FOCUS_FUNCTIONS: set[tuple[str, int]] = set()


def _register(name: str, *arities: int, focus: int | None = None):
    """Register the decorated built-in under ``name`` at each arity;
    ``focus`` is the arity at which it reads the focus instead of an
    argument."""
    def decorator(fn: BuiltinImpl) -> BuiltinImpl:
        for arity in arities:
            BUILTINS[(name, arity)] = fn
        if focus is not None:
            FOCUS_FUNCTIONS.add((name, focus))
        return fn
    return decorator


def _single_node(seq: list, who: str) -> Node:
    if len(seq) != 1 or not isinstance(seq[0], Node):
        raise XQueryTypeError(f"{who} requires exactly one node")
    return seq[0]


def _optional_atom(seq: list, who: str) -> Any:
    if not seq:
        return None
    if len(seq) > 1:
        raise XQueryTypeError(f"{who} requires at most one item")
    return xdm.atomize_item(seq[0])


# ---------------------------------------------------------------------------
# Documents and node context (Problem 5 Classes 1-4)
# ---------------------------------------------------------------------------


@_register("doc", 1)
def fn_doc(evaluator, env, uri_seq):
    atom = _optional_atom(uri_seq, "fn:doc")
    if atom is None:
        return []
    env.counter.docs_opened += 1
    return [env.resolve_doc(str(atom)).root]


@_register("collection", 1)
def fn_collection(evaluator, env, uri_seq):
    # Treated as doc(*) by the decomposition analysis; at runtime we
    # resolve it like a document.
    return fn_doc(evaluator, env, uri_seq)


@_register("root", 1)
def fn_root(evaluator, env, node_seq):
    if not node_seq:
        return []
    return [_single_node(node_seq, "fn:root").root()]


@_register("id", 1, 2, focus=1)
def fn_id(evaluator, env, values, node_seq=None):
    if node_seq is None:
        node = env.context_item
        if not isinstance(node, Node):
            raise XQueryDynamicError("fn:id requires a context node")
    else:
        node = _single_node(node_seq, "fn:id")
    out = []
    for value in atomize(values):
        for token in str(value).split():
            hit = node.doc.element_by_id(token)
            if hit is not None:
                out.append(hit)
    return sort_document_order(out)


@_register("idref", 1, 2, focus=1)
def fn_idref(evaluator, env, values, node_seq=None):
    if node_seq is None:
        node = env.context_item
        if not isinstance(node, Node):
            raise XQueryDynamicError("fn:idref requires a context node")
    else:
        node = _single_node(node_seq, "fn:idref")
    out = []
    for value in atomize(values):
        for token in str(value).split():
            out.extend(node.doc.elements_by_idref(token))
    return sort_document_order(out)


@_register("base-uri", 1)
@_register("xrpc:base-uri", 1)
def fn_base_uri(evaluator, env, node_seq):
    if not node_seq:
        return []
    node = _single_node(node_seq, "fn:base-uri")
    uri = node.doc.uri
    return [uri] if uri else []


@_register("document-uri", 1)
@_register("xrpc:document-uri", 1)
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


@_register("count", 1)
def fn_count(evaluator, env, seq):
    return [len(seq)]


@_register("empty", 1)
def fn_empty(evaluator, env, seq):
    return [len(seq) == 0]


@_register("exists", 1)
def fn_exists(evaluator, env, seq):
    return [len(seq) > 0]


@_register("distinct-values", 1)
def fn_distinct_values(evaluator, env, seq):
    seen: list = []
    for atom in atomize(seq):
        if any(xdm.items_equal(atom, s) for s in seen):
            continue
        seen.append(atom)
    return seen


@_register("reverse", 1)
def fn_reverse(evaluator, env, seq):
    return list(reversed(seq))


@_register("subsequence", 2, 3)
def fn_subsequence(evaluator, env, seq, start_seq, length_seq=None):
    start = round(to_number(_optional_atom(start_seq, "fn:subsequence")))
    if length_seq is None:
        return seq[max(0, start - 1):]
    length = round(to_number(_optional_atom(length_seq, "fn:subsequence")))
    begin = max(1, start)
    end = start + length
    return seq[begin - 1:max(begin - 1, end - 1)]


@_register("index-of", 2)
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


@_register("insert-before", 3)
def fn_insert_before(evaluator, env, seq, pos_seq, inserts):
    position = round(to_number(_optional_atom(pos_seq, "fn:insert-before")))
    position = max(1, min(position, len(seq) + 1))
    return seq[:position - 1] + list(inserts) + seq[position - 1:]


@_register("remove", 2)
def fn_remove(evaluator, env, seq, pos_seq):
    position = round(to_number(_optional_atom(pos_seq, "fn:remove")))
    if 1 <= position <= len(seq):
        return seq[:position - 1] + seq[position:]
    return list(seq)


@_register("exactly-one", 1)
def fn_exactly_one(evaluator, env, seq):
    if len(seq) != 1:
        raise XQueryDynamicError("fn:exactly-one: sequence length "
                                 f"{len(seq)}")
    return list(seq)


@_register("zero-or-one", 1)
def fn_zero_or_one(evaluator, env, seq):
    if len(seq) > 1:
        raise XQueryDynamicError("fn:zero-or-one: sequence length "
                                 f"{len(seq)}")
    return list(seq)


@_register("one-or-more", 1)
def fn_one_or_more(evaluator, env, seq):
    if not seq:
        raise XQueryDynamicError("fn:one-or-more: empty sequence")
    return list(seq)


@_register("unordered", 1)
def fn_unordered(evaluator, env, seq):
    return list(seq)


# ---------------------------------------------------------------------------
# Booleans
# ---------------------------------------------------------------------------


@_register("not", 1)
def fn_not(evaluator, env, seq):
    return [not effective_boolean_value(seq)]


@_register("boolean", 1)
def fn_boolean(evaluator, env, seq):
    return [effective_boolean_value(seq)]


@_register("true", 0)
def fn_true(evaluator, env):
    return [True]


@_register("false", 0)
def fn_false(evaluator, env):
    return [False]


@_register("deep-equal", 2)
def fn_deep_equal(evaluator, env, left, right):
    return [xdm.sequences_deep_equal(left, right)]


# ---------------------------------------------------------------------------
# Strings
# ---------------------------------------------------------------------------


@_register("string", 0, 1, focus=0)
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


@_register("data", 1)
def fn_data(evaluator, env, seq):
    return atomize(seq)


@_register("number", 0, 1, focus=0)
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


@_register("concat", 2, 3, 4, 5, 6, 7, 8)
def fn_concat(evaluator, env, *arg_seqs):
    parts = []
    for seq in arg_seqs:
        atom = _optional_atom(seq, "fn:concat")
        parts.append("" if atom is None else string_value(atom))
    return ["".join(parts)]


@_register("string-join", 2)
def fn_string_join(evaluator, env, seq, sep_seq):
    separator = _optional_atom(sep_seq, "fn:string-join")
    separator = "" if separator is None else str(separator)
    return [separator.join(string_value(item) for item in atomize(seq))]


@_register("string-length", 0, 1, focus=0)
def fn_string_length(evaluator, env, seq=None):
    text = fn_string(evaluator, env, seq)[0]
    return [len(text)]


@_register("contains", 2)
def fn_contains(evaluator, env, haystack, needle):
    h = _optional_atom(haystack, "fn:contains")
    n = _optional_atom(needle, "fn:contains")
    return [str(n or "") in str(h or "")]


@_register("starts-with", 2)
def fn_starts_with(evaluator, env, haystack, needle):
    h = _optional_atom(haystack, "fn:starts-with")
    n = _optional_atom(needle, "fn:starts-with")
    return [str(h or "").startswith(str(n or ""))]


@_register("ends-with", 2)
def fn_ends_with(evaluator, env, haystack, needle):
    h = _optional_atom(haystack, "fn:ends-with")
    n = _optional_atom(needle, "fn:ends-with")
    return [str(h or "").endswith(str(n or ""))]


@_register("substring", 2, 3)
def fn_substring(evaluator, env, source, start_seq, length_seq=None):
    text = str(_optional_atom(source, "fn:substring") or "")
    start = round(to_number(_optional_atom(start_seq, "fn:substring")))
    if length_seq is None:
        return [text[max(0, start - 1):]]
    length = round(to_number(_optional_atom(length_seq, "fn:substring")))
    begin = max(1, start)
    end = start + length
    return [text[begin - 1:max(begin - 1, end - 1)]]


@_register("substring-before", 2)
def fn_substring_before(evaluator, env, source, sep):
    text = str(_optional_atom(source, "fn:substring-before") or "")
    needle = str(_optional_atom(sep, "fn:substring-before") or "")
    index = text.find(needle) if needle else -1
    return [text[:index] if index >= 0 else ""]


@_register("substring-after", 2)
def fn_substring_after(evaluator, env, source, sep):
    text = str(_optional_atom(source, "fn:substring-after") or "")
    needle = str(_optional_atom(sep, "fn:substring-after") or "")
    index = text.find(needle) if needle else -1
    return [text[index + len(needle):] if index >= 0 else ""]


@_register("normalize-space", 0, 1, focus=0)
def fn_normalize_space(evaluator, env, seq=None):
    text = fn_string(evaluator, env, seq)[0]
    return [" ".join(text.split())]


@_register("upper-case", 1)
def fn_upper_case(evaluator, env, seq):
    return [str(_optional_atom(seq, "fn:upper-case") or "").upper()]


@_register("lower-case", 1)
def fn_lower_case(evaluator, env, seq):
    return [str(_optional_atom(seq, "fn:lower-case") or "").lower()]


@_register("translate", 3)
def fn_translate(evaluator, env, source, map_from, map_to):
    text = str(_optional_atom(source, "fn:translate") or "")
    source_chars = str(_optional_atom(map_from, "fn:translate") or "")
    target_chars = str(_optional_atom(map_to, "fn:translate") or "")
    table = {}
    for index, ch in enumerate(source_chars):
        table[ord(ch)] = (target_chars[index]
                          if index < len(target_chars) else None)
    return [text.translate(table)]


# ---------------------------------------------------------------------------
# Numbers and aggregates
# ---------------------------------------------------------------------------


@_register("sum", 1, 2)
def fn_sum(evaluator, env, seq, zero_seq=None):
    atoms = atomize(seq)
    if not atoms:
        if zero_seq is not None:
            return list(zero_seq)
        return [0]
    return [math.fsum(to_number(a) for a in atoms)]


@_register("avg", 1)
def fn_avg(evaluator, env, seq):
    atoms = atomize(seq)
    if not atoms:
        return []
    return [math.fsum(to_number(a) for a in atoms) / len(atoms)]


@_register("max", 1)
def fn_max(evaluator, env, seq):
    atoms = atomize(seq)
    if not atoms:
        return []
    return [max(to_number(a) for a in atoms)]


@_register("min", 1)
def fn_min(evaluator, env, seq):
    atoms = atomize(seq)
    if not atoms:
        return []
    return [min(to_number(a) for a in atoms)]


@_register("abs", 1)
def fn_abs(evaluator, env, seq):
    atom = _optional_atom(seq, "fn:abs")
    if atom is None:
        return []
    value = to_number(atom)
    result = abs(value)
    return [int(result) if isinstance(atom, int) else result]


@_register("floor", 1)
def fn_floor(evaluator, env, seq):
    atom = _optional_atom(seq, "fn:floor")
    if atom is None:
        return []
    return [math.floor(to_number(atom))]


@_register("ceiling", 1)
def fn_ceiling(evaluator, env, seq):
    atom = _optional_atom(seq, "fn:ceiling")
    if atom is None:
        return []
    return [math.ceil(to_number(atom))]


@_register("round", 1)
def fn_round(evaluator, env, seq):
    atom = _optional_atom(seq, "fn:round")
    if atom is None:
        return []
    return [math.floor(to_number(atom) + 0.5)]


# ---------------------------------------------------------------------------
# Node names
# ---------------------------------------------------------------------------


@_register("local-name", 0, 1, focus=0)
def fn_local_name(evaluator, env, seq=None):
    node = _context_or_single(env, seq, "fn:local-name")
    if node is None:
        return [""]
    name = node.name
    if ":" in name:
        name = name.split(":", 1)[1]
    return [name]


@_register("name", 0, 1, focus=0)
def fn_name(evaluator, env, seq=None):
    node = _context_or_single(env, seq, "fn:name")
    if node is None:
        return [""]
    return [node.name]


def _context_or_single(env, seq, who: str) -> Node | None:
    if seq is None:
        item = env.context_item
        if not isinstance(item, Node):
            raise XQueryDynamicError(f"{who} requires a context node")
        return item
    if not seq:
        return None
    return _single_node(seq, who)


# ---------------------------------------------------------------------------
# Positional context
# ---------------------------------------------------------------------------


@_register("position", 0, focus=0)
def fn_position(evaluator, env):
    if not env.context_position:
        raise XQueryDynamicError("fn:position: no context")
    return [env.context_position]


@_register("last", 0, focus=0)
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
