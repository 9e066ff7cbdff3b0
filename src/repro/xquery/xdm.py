"""XDM value semantics: items, atomization, EBV, comparisons.

An XQuery value is a Python list of *items*; an item is either a
:class:`~repro.xmldb.node.Node` or an atomic value: ``str``, ``int``,
``float``, ``bool``, or :class:`UntypedAtomic` (the type of values
atomized from schema-less nodes, which general comparisons coerce by
the *other* operand's type — the behaviour the benchmark query's
``$x/descendant::age < 40`` relies on).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import XQueryTypeError
from repro.xmldb.compare import deep_equal
from repro.xmldb.node import Node, NodeKind

Item = Any  # Node | str | int | float | bool | UntypedAtomic
Sequence = list


class UntypedAtomic(str):
    """A string atomized from a node, carrying untyped semantics."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"untyped({str.__repr__(self)})"


def string_value(item: Item) -> str:
    """fn:string of a single item."""
    if isinstance(item, Node):
        return item.string_value()
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, float):
        return format_double(item)
    return str(item)


def format_double(value: float) -> str:
    """Serialise a double roughly per the XQuery rules (no trailing .0
    for integral values)."""
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "INF"
    if value == float("-inf"):
        return "-INF"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def atomize_item(item: Item) -> Item:
    if isinstance(item, Node):
        return UntypedAtomic(item.string_value())
    return item


def atomize(seq: Iterable[Item]) -> list[Item]:
    """fn:data on a sequence."""
    return [atomize_item(item) for item in seq]


def effective_boolean_value(seq: Sequence) -> bool:
    """The EBV rules of XQuery 1.0 (section 2.4.3)."""
    if not seq:
        return False
    first = seq[0]
    if isinstance(first, Node):
        return True
    if len(seq) > 1:
        raise XQueryTypeError(
            "effective boolean value of a multi-item atomic sequence")
    if isinstance(first, bool):
        return first
    if isinstance(first, (int, float)):
        return bool(first) and first == first  # NaN is false
    if isinstance(first, str):  # includes UntypedAtomic
        return len(first) > 0
    raise XQueryTypeError(f"no EBV for {type(first).__name__}")


def to_number(item: Item) -> float:
    """Cast an atomic item to xs:double (fn:number semantics)."""
    if isinstance(item, bool):
        return 1.0 if item else 0.0
    if isinstance(item, (int, float)):
        return float(item)
    if isinstance(item, str):
        text = item.strip()
        try:
            return float(text)
        except ValueError:
            return float("nan")
    raise XQueryTypeError(f"cannot cast {type(item).__name__} to number")


def _comparable_pair(left: Item, right: Item) -> tuple[Any, Any]:
    """Apply the general-comparison coercion rules to one atom pair.

    * untypedAtomic vs numeric -> both double
    * untypedAtomic vs string/untyped -> both string
    * untypedAtomic vs boolean -> both boolean
    * numeric vs numeric -> double
    * otherwise types must match
    """
    lu = isinstance(left, UntypedAtomic)
    ru = isinstance(right, UntypedAtomic)
    if lu and ru:
        return str(left), str(right)
    if lu:
        if isinstance(right, bool):
            return effective_boolean_value([str(left)]), right
        if isinstance(right, (int, float)):
            return to_number(left), float(right)
        return str(left), str(right)
    if ru:
        if isinstance(left, bool):
            return left, effective_boolean_value([str(right)])
        if isinstance(left, (int, float)):
            return float(left), to_number(right)
        return str(left), str(right)
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, bool) and isinstance(right, bool):
            return left, right
        raise XQueryTypeError("cannot compare boolean with non-boolean")
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left), float(right)
    if isinstance(left, str) and isinstance(right, str):
        return str(left), str(right)
    raise XQueryTypeError(
        f"cannot compare {type(left).__name__} with {type(right).__name__}")


#: The comparison operators over one coerced atom pair.
COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def value_compare(op: str, left: Item, right: Item) -> bool:
    """Compare one coerced atom pair."""
    a, b = _comparable_pair(atomize_item(left), atomize_item(right))
    return COMPARATORS[op](a, b)


def general_compare(op: str, left_seq: Sequence, right_seq: Sequence) -> bool:
    """Existentially quantified general comparison (rule CompExpr)."""
    left_atoms = atomize(left_seq)
    right_atoms = atomize(right_seq)
    for left in left_atoms:
        for right in right_atoms:
            a, b = _comparable_pair(left, right)
            if COMPARATORS[op](a, b):
                return True
    return False


def items_equal(left: Item, right: Item) -> bool:
    """fn:deep-equal on one item pair."""
    left_node = isinstance(left, Node)
    right_node = isinstance(right, Node)
    if left_node != right_node:
        return False
    if left_node:
        return deep_equal(left, right)
    try:
        a, b = _comparable_pair(left, right)
    except XQueryTypeError:
        return False
    return a == b


def sequences_deep_equal(left_seq: Sequence, right_seq: Sequence) -> bool:
    """fn:deep-equal on two sequences — the paper's Q(D) = Q'(D)
    equivalence criterion."""
    if len(left_seq) != len(right_seq):
        return False
    return all(items_equal(a, b) for a, b in zip(left_seq, right_seq))


def serialize_sequence(seq: Sequence) -> str:
    """Human/bench-facing serialisation of a result sequence."""
    from repro.xmldb.node import NodeKind
    from repro.xmldb.serializer import serialize_node

    parts = []
    for item in seq:
        if isinstance(item, Node):
            if item.kind == NodeKind.ATTRIBUTE:
                parts.append(f'{item.name}="{item.value}"')
            else:
                parts.append(serialize_node(item))
        else:
            parts.append(string_value(item))
    return " ".join(parts)


def require_nodes(seq: Sequence, operation: str) -> list[Node]:
    """Assert a sequence contains only nodes (path/set-op inputs)."""
    for item in seq:
        if not isinstance(item, Node):
            raise XQueryTypeError(
                f"{operation} requires nodes, got {type(item).__name__}")
    return seq
