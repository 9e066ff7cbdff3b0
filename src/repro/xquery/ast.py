"""AST node classes for the extended XCore grammar (paper Table II).

Design notes:

* Path expressions keep consecutive steps together in one
  :class:`PathExpr` (a list of :class:`Step`), exactly as the paper's
  grammar does, "rather than nesting each step in a separate for-loop".
* The XRPC extension (grammar rules 27-28) is represented by
  :class:`XRPCExpr` with a destination expression, a parameter list of
  :class:`XRPCParam` bindings, and a body. The decomposer *inserts*
  these nodes; the parser also accepts the paper's
  ``execute at {uri} {expr}`` presentation syntax so tests can write
  decomposed queries literally.
* Every node supports uniform child traversal
  (:meth:`Expr.child_exprs`) and functional reconstruction
  (:meth:`Expr.replace_children`), which the d-graph builder,
  normaliser and decomposer rely on. Nodes are mutable dataclasses but
  rewrites always build new nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterator

# ---------------------------------------------------------------------------
# Base class
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class of all expression AST nodes."""

    def child_exprs(self) -> list["Expr"]:
        """All direct sub-expressions, in syntactic order."""
        out: list[Expr] = []
        for f in fields(self):
            value = getattr(self, f.name)
            _collect_exprs(value, out)
        return out

    def replace_children(self, mapper: Callable[["Expr"], "Expr"]) -> "Expr":
        """Rebuild this node with every direct child passed through
        ``mapper``. Non-expression fields are copied untouched."""
        updates: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            new_value, changed = _map_exprs(value, mapper)
            if changed:
                updates[f.name] = new_value
        if not updates:
            return self
        return replace(self, **updates)

    @property
    def rule(self) -> str:
        """The grammar-rule name this node represents (d-graph labels)."""
        return type(self).__name__


def _collect_exprs(value: Any, out: list[Expr]) -> None:
    if isinstance(value, Expr):
        out.append(value)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _collect_exprs(item, out)


def _map_exprs(value: Any, mapper: Callable[[Expr], Expr]) -> tuple[Any, bool]:
    if isinstance(value, Expr):
        new = mapper(value)
        return new, new is not value
    if isinstance(value, list):
        changed = False
        items = []
        for item in value:
            new_item, item_changed = _map_exprs(item, mapper)
            items.append(new_item)
            changed = changed or item_changed
        return (items, True) if changed else (value, False)
    if isinstance(value, tuple):
        changed = False
        items = []
        for item in value:
            new_item, item_changed = _map_exprs(item, mapper)
            items.append(new_item)
            changed = changed or item_changed
        return (tuple(items), True) if changed else (value, False)
    return value, False


def walk(expr: Expr) -> Iterator[Expr]:
    """Preorder traversal of an expression tree."""
    yield expr
    for child in expr.child_exprs():
        yield from walk(child)


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


@dataclass
class Literal(Expr):
    """A string, integer, double or boolean literal."""

    value: str | int | float | bool

    def bound(self, literals: tuple = ()) -> str | int | float | bool:
        """The value this leaf stands for (whatever the binding)."""
        return self.value


@dataclass
class LiteralSlot(Expr):
    """A comparison operand literal of a *prepared* query: the shape
    keeps the slot, each text of the shape binds its own value to it
    (see :func:`repro.xquery.prepared.scan`). Deliberately without a
    ``value``: code that reads a literal's value without a binding at
    hand fails here instead of reusing the first text's."""

    index: int
    #: ``"integer"``, ``"double"`` or ``"string"`` — part of the shape.
    kind: str

    def bound(self, literals: tuple) -> str | int | float:
        return literals[self.index]


#: The two leaves that stand for an atomic constant.
LITERALS = (Literal, LiteralSlot)


@dataclass
class EmptySequence(Expr):
    """The literal ``()``."""


@dataclass
class VarRef(Expr):
    """A variable reference ``$name``."""

    name: str


# ---------------------------------------------------------------------------
# Structured expressions
# ---------------------------------------------------------------------------


@dataclass
class SequenceExpr(Expr):
    """Comma sequence construction ``(e1, e2, ...)`` (rule ExprSeq)."""

    items: list[Expr]


@dataclass
class ForExpr(Expr):
    """Core ``for $var (at $pos)? in seq return body``."""

    var: str
    seq: Expr
    body: Expr
    pos_var: str | None = None


@dataclass
class LetExpr(Expr):
    """Core ``let $var := value return body``."""

    var: str
    value: Expr
    body: Expr


@dataclass
class IfExpr(Expr):
    """``if (cond) then then_branch else else_branch``."""

    cond: Expr
    then_branch: Expr
    else_branch: Expr


@dataclass
class TypeswitchCase:
    """One ``case $var as SequenceType return expr`` clause."""

    var: str | None
    seq_type: str
    body: Expr


@dataclass
class TypeswitchExpr(Expr):
    """``typeswitch (operand) case ... default $var return expr``."""

    operand: Expr
    cases: list[TypeswitchCase]
    default_var: str | None
    default_body: Expr

    def child_exprs(self) -> list[Expr]:
        out: list[Expr] = [self.operand]
        out.extend(case.body for case in self.cases)
        out.append(self.default_body)
        return out

    def replace_children(self, mapper: Callable[[Expr], Expr]) -> "Expr":
        new_operand = mapper(self.operand)
        new_cases = [TypeswitchCase(c.var, c.seq_type, mapper(c.body))
                     for c in self.cases]
        new_default = mapper(self.default_body)
        return TypeswitchExpr(new_operand, new_cases, self.default_var,
                              new_default)


#: Value-comparison operators (rule ValueComp, general comparisons).
VALUE_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")

#: Node-comparison operators (rule NodeCmp).
NODE_COMPARISONS = ("is", "<<", ">>")


@dataclass
class ComparisonExpr(Expr):
    """A general or node comparison (rules 12-14)."""

    op: str
    left: Expr
    right: Expr

    @property
    def is_node_comparison(self) -> bool:
        return self.op in NODE_COMPARISONS


@dataclass
class ArithmeticExpr(Expr):
    """Binary arithmetic: ``+ - * div idiv mod``."""

    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryExpr(Expr):
    """Unary minus/plus."""

    op: str
    operand: Expr


@dataclass
class LogicalExpr(Expr):
    """``and`` / ``or``."""

    op: str
    left: Expr
    right: Expr


@dataclass
class RangeExpr(Expr):
    """``start to end`` integer range."""

    start: Expr
    end: Expr


@dataclass
class QuantifiedExpr(Expr):
    """``some/every $var in seq satisfies cond``."""

    quantifier: str  # "some" | "every"
    var: str
    seq: Expr
    cond: Expr


@dataclass
class OrderSpec:
    """One ordering key of an ``order by`` clause."""

    key: Expr
    ascending: bool = True
    #: ``empty greatest``: the empty sequence sorts above every value
    #: (and NaN just below it); the default is ``empty least``.
    empty_greatest: bool = False


@dataclass
class OrderByExpr(Expr):
    """Core form of ``for $var in seq order by keys return body``.

    The key expressions see ``var`` bound to the current item (rule 15
    OrderExpr, FLWOR-desugared).
    """

    var: str
    seq: Expr
    specs: list[OrderSpec]
    body: Expr

    def child_exprs(self) -> list[Expr]:
        out: list[Expr] = [self.seq]
        out.extend(spec.key for spec in self.specs)
        out.append(self.body)
        return out

    def replace_children(self, mapper: Callable[[Expr], Expr]) -> "Expr":
        return OrderByExpr(
            self.var,
            mapper(self.seq),
            [OrderSpec(mapper(s.key), s.ascending, s.empty_greatest)
             for s in self.specs],
            mapper(self.body),
        )


#: Node-set operators (rule 18).
NODE_SET_OPS = ("union", "intersect", "except")


@dataclass
class NodeSetExpr(Expr):
    """``union`` / ``intersect`` / ``except`` on node sequences."""

    op: str
    left: Expr
    right: Expr


@dataclass
class Step:
    """One axis step ``axis::test`` with optional predicates."""

    axis: str
    test: str
    predicates: list[Expr] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        preds = "".join(f"[...]" for _ in self.predicates)
        return f"{self.axis}::{self.test}{preds}"


@dataclass
class PathExpr(Expr):
    """``input/step/step...`` with consecutive steps kept together."""

    input: Expr
    steps: list[Step]

    def child_exprs(self) -> list[Expr]:
        out: list[Expr] = [self.input]
        for step in self.steps:
            out.extend(step.predicates)
        return out

    def replace_children(self, mapper: Callable[[Expr], Expr]) -> "Expr":
        return PathExpr(
            mapper(self.input),
            [Step(s.axis, s.test, [mapper(p) for p in s.predicates])
             for s in self.steps],
        )


@dataclass
class ContextItemExpr(Expr):
    """The context item ``.`` (inside predicates)."""


@dataclass
class ConstructorExpr(Expr):
    """Computed/direct constructor (rule 19).

    ``kind`` is one of ``element``, ``attribute``, ``document``,
    ``text``. ``name`` is a constant QName or None when ``name_expr``
    computes the name. ``content`` is the content expression (None for
    empty content).
    """

    kind: str
    name: str | None
    name_expr: Expr | None
    content: Expr | None


@dataclass
class FunCall(Expr):
    """A function application ``QName(args...)`` (rule 26)."""

    name: str
    args: list[Expr]


@dataclass
class XRPCParam:
    """One XRPC parameter binding ``$param := $outer`` (rule 28).

    The decomposer only ever generates variable-to-variable bindings
    (the insertion procedure of Section III-B), but after distributed
    code motion a parameter may bind an arbitrary expression, so
    ``value`` is an :class:`Expr`.
    """

    name: str
    value: Expr


@dataclass
class XRPCExpr(Expr):
    """``execute at {dest} { body }`` with parameters (rules 27-28).

    ``body`` is the remote function body; it may reference only its
    parameters and sees the remote peer's document space.
    """

    dest: Expr
    params: list[XRPCParam]
    body: Expr

    def child_exprs(self) -> list[Expr]:
        out: list[Expr] = [self.dest]
        out.extend(p.value for p in self.params)
        out.append(self.body)
        return out

    def replace_children(self, mapper: Callable[[Expr], Expr]) -> "Expr":
        return XRPCExpr(
            mapper(self.dest),
            [XRPCParam(p.name, mapper(p.value)) for p in self.params],
            mapper(self.body),
        )


# ---------------------------------------------------------------------------
# Modules and function declarations
# ---------------------------------------------------------------------------


@dataclass
class Param:
    """A declared function parameter ``$name as type``."""

    name: str
    seq_type: str = "item()*"


@dataclass
class FunctionDecl:
    """``declare function name(params) as type { body };``"""

    name: str
    params: list[Param]
    return_type: str
    body: Expr


@dataclass
class Module:
    """A main module: function declarations plus the query body."""

    functions: list[FunctionDecl]
    body: Expr

    def function(self, name: str, arity: int) -> FunctionDecl | None:
        for decl in self.functions:
            if decl.name == name and len(decl.params) == arity:
                return decl
        return None


def bind(node: "Expr | Module", literals: tuple) -> "Expr | Module":
    """``node`` as one text of its shape reads: every
    :class:`LiteralSlot` replaced by the :class:`Literal` ``literals``
    binds to it (rendering, and showing a run its own query). An empty
    binding has no slot to fill and returns ``node`` itself."""
    if not literals:
        return node

    def visit(expr: Expr) -> Expr:
        if isinstance(expr, LiteralSlot):
            return Literal(literals[expr.index])
        return expr.replace_children(visit)

    if isinstance(node, Module):
        return Module([replace(decl, body=visit(decl.body))
                       for decl in node.functions], visit(node.body))
    return visit(node)
