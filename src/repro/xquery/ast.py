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
  normaliser and decomposer rely on: both read each class's
  ``_fields``. Rewrites always build new nodes.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.records import Record

# ---------------------------------------------------------------------------
# Base class
# ---------------------------------------------------------------------------


class _Node(Record):
    """An AST node or auxiliary: equal by its fields, unhashable."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]


class Expr(_Node):
    """Base class of all expression AST nodes."""

    __slots__ = ()

    def child_exprs(self) -> list["Expr"]:
        """All direct sub-expressions, in syntactic order."""
        out: list[Expr] = []
        for name in self._fields:
            _collect_exprs(getattr(self, name), out)
        return out

    def replace_children(self, mapper: Callable[["Expr"], "Expr"]) -> "Expr":
        """Rebuild this node with every direct child passed through
        ``mapper``. Non-expression fields are copied untouched."""
        values, changed = [], False
        for name in self._fields:
            value, value_changed = _map_exprs(getattr(self, name), mapper)
            values.append(value)
            changed = changed or value_changed
        return type(self)(*values) if changed else self


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


class Literal(Expr):
    """A string, integer, double or boolean literal."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: str | int | float | bool) -> None:
        self.value = value


class LiteralSlot(Expr):
    """A comparison operand literal of a *prepared* query: the shape
    keeps the slot, each text of the shape binds its own value to it
    (see :func:`repro.xquery.prepared.scan`). Deliberately without a
    ``value``: code that reads a literal's value without a binding at
    hand fails here instead of reusing the first text's."""

    __slots__ = _fields = ("index", "kind")

    def __init__(self, index: int, kind: str) -> None:
        self.index = index
        #: ``"integer"``, ``"double"`` or ``"string"`` — part of the shape.
        self.kind = kind


#: The two leaves that stand for an atomic constant.
LITERALS = (Literal, LiteralSlot)


class EmptySequence(Expr):
    """The literal ``()``."""

    __slots__ = _fields = ()


class VarRef(Expr):
    """A variable reference ``$name``."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


# ---------------------------------------------------------------------------
# Structured expressions
# ---------------------------------------------------------------------------


class SequenceExpr(Expr):
    """Comma sequence construction ``(e1, e2, ...)`` (rule ExprSeq)."""

    __slots__ = _fields = ("items",)

    def __init__(self, items: list[Expr]) -> None:
        self.items = items


class ForExpr(Expr):
    """Core ``for $var (at $pos)? in seq return body``."""

    __slots__ = _fields = ("var", "seq", "body", "pos_var")

    def __init__(self, var: str, seq: Expr, body: Expr,
                 pos_var: str | None = None) -> None:
        self.var, self.seq = var, seq
        self.body, self.pos_var = body, pos_var


class LetExpr(Expr):
    """Core ``let $var := value return body``."""

    __slots__ = _fields = ("var", "value", "body")

    def __init__(self, var: str, value: Expr, body: Expr) -> None:
        self.var, self.value, self.body = var, value, body


class IfExpr(Expr):
    """``if (cond) then then_branch else else_branch``."""

    __slots__ = _fields = ("cond", "then_branch", "else_branch")

    def __init__(self, cond: Expr, then_branch: Expr,
                 else_branch: Expr) -> None:
        self.cond, self.then_branch = cond, then_branch
        self.else_branch = else_branch


class TypeswitchCase(_Node):
    """One ``case $var as SequenceType return expr`` clause."""

    __slots__ = _fields = ("var", "seq_type", "body")

    def __init__(self, var: str | None, seq_type: str, body: Expr) -> None:
        self.var, self.seq_type, self.body = var, seq_type, body


class TypeswitchExpr(Expr):
    """``typeswitch (operand) case ... default $var return expr``."""

    __slots__ = _fields = ("operand", "cases", "default_var", "default_body")

    def __init__(self, operand: Expr, cases: list[TypeswitchCase],
                 default_var: str | None, default_body: Expr) -> None:
        self.operand, self.cases = operand, cases
        self.default_var, self.default_body = default_var, default_body

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


class ComparisonExpr(Expr):
    """A general or node comparison (rules 12-14)."""

    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op, self.left, self.right = op, left, right

    @property
    def is_node_comparison(self) -> bool:
        return self.op in NODE_COMPARISONS


class ArithmeticExpr(Expr):
    """Binary arithmetic: ``+ - * div idiv mod``."""

    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op, self.left, self.right = op, left, right


class UnaryExpr(Expr):
    """Unary minus/plus."""

    __slots__ = _fields = ("op", "operand")

    def __init__(self, op: str, operand: Expr) -> None:
        self.op, self.operand = op, operand


class LogicalExpr(Expr):
    """``and`` / ``or``."""

    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op, self.left, self.right = op, left, right


class RangeExpr(Expr):
    """``start to end`` integer range."""

    __slots__ = _fields = ("start", "end")

    def __init__(self, start: Expr, end: Expr) -> None:
        self.start, self.end = start, end


class QuantifiedExpr(Expr):
    """``some/every $var in seq satisfies cond``."""

    __slots__ = _fields = ("quantifier", "var", "seq", "cond")

    def __init__(self, quantifier: str, var: str, seq: Expr,
                 cond: Expr) -> None:
        self.quantifier = quantifier  # "some" | "every"
        self.var, self.seq, self.cond = var, seq, cond


class OrderSpec(_Node):
    """One ordering key of an ``order by`` clause."""

    __slots__ = _fields = ("key", "ascending", "empty_greatest")

    def __init__(self, key: Expr, ascending: bool = True,
                 empty_greatest: bool = False) -> None:
        self.key, self.ascending = key, ascending
        #: ``empty greatest``: the empty sequence sorts above every value
        #: (and NaN just below it); the default is ``empty least``.
        self.empty_greatest = empty_greatest


class OrderByExpr(Expr):
    """Core form of ``for $var in seq order by keys return body``.

    The key expressions see ``var`` bound to the current item (rule 15
    OrderExpr, FLWOR-desugared).
    """

    __slots__ = _fields = ("var", "seq", "specs", "body")

    def __init__(self, var: str, seq: Expr, specs: list[OrderSpec],
                 body: Expr) -> None:
        self.var, self.seq = var, seq
        self.specs, self.body = specs, body

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


class NodeSetExpr(Expr):
    """``union`` / ``intersect`` / ``except`` on node sequences."""

    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op, self.left, self.right = op, left, right


class Step(_Node):
    """One axis step ``axis::test`` with optional predicates."""

    __slots__ = _fields = ("axis", "test", "predicates")

    def __init__(self, axis: str, test: str,
                 predicates: list[Expr] | None = None) -> None:
        self.axis, self.test = axis, test
        self.predicates = [] if predicates is None else predicates

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        preds = "".join(f"[...]" for _ in self.predicates)
        return f"{self.axis}::{self.test}{preds}"


class PathExpr(Expr):
    """``input/step/step...`` with consecutive steps kept together."""

    __slots__ = _fields = ("input", "steps")

    def __init__(self, input: Expr, steps: list[Step]) -> None:
        self.input, self.steps = input, steps

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


class ContextItemExpr(Expr):
    """The context item ``.`` (inside predicates)."""

    __slots__ = _fields = ()


class ConstructorExpr(Expr):
    """Computed/direct constructor (rule 19).

    ``kind`` is one of ``element``, ``attribute``, ``document``,
    ``text``. ``name`` is a constant QName or None when ``name_expr``
    computes the name. ``content`` lists the content parts, each of
    which joins its own atoms into a text node (XQuery 1.0 §3.7.1.3):
    none for empty content, one for a computed constructor, and for a
    direct element (``<a>…</a>``) one per attribute, text run, nested
    element and enclosed expression.
    """

    __slots__ = _fields = ("kind", "name", "name_expr", "content")

    def __init__(self, kind: str, name: str | None, name_expr: Expr | None,
                 content: list[Expr]) -> None:
        self.kind, self.name, self.name_expr = kind, name, name_expr
        self.content = content


class FunCall(Expr):
    """A function application ``QName(args...)`` (rule 26)."""

    __slots__ = _fields = ("name", "args")

    def __init__(self, name: str, args: list[Expr]) -> None:
        self.name, self.args = name, args


class XRPCParam(_Node):
    """One XRPC parameter binding ``$param := $outer`` (rule 28).

    The decomposer only ever generates variable-to-variable bindings
    (the insertion procedure of Section III-B), but after distributed
    code motion a parameter may bind an arbitrary expression, so
    ``value`` is an :class:`Expr`.
    """

    __slots__ = _fields = ("name", "value")

    def __init__(self, name: str, value: Expr) -> None:
        self.name, self.value = name, value


class XRPCExpr(Expr):
    """``execute at {dest} { body }`` with parameters (rules 27-28).

    ``body`` is the remote function body; it may reference only its
    parameters and sees the remote peer's document space.
    """

    __slots__ = _fields = ("dest", "params", "body")

    def __init__(self, dest: Expr, params: list[XRPCParam],
                 body: Expr) -> None:
        self.dest, self.params, self.body = dest, params, body

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


class Param(_Node):
    """A declared function parameter ``$name as type``."""

    __slots__ = _fields = ("name", "seq_type")

    def __init__(self, name: str, seq_type: str = "item()*") -> None:
        self.name, self.seq_type = name, seq_type


class FunctionDecl(_Node):
    """``declare function name(params) as type { body };``"""

    __slots__ = _fields = ("name", "params", "return_type", "body")

    def __init__(self, name: str, params: list[Param], return_type: str,
                 body: Expr) -> None:
        self.name, self.params, self.return_type = name, params, return_type
        self.body = body


class Module(_Node):
    """A main module: function declarations plus the query body."""

    __slots__ = _fields = ("functions", "body")

    def __init__(self, functions: list[FunctionDecl], body: Expr) -> None:
        self.functions, self.body = functions, body

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
        return Module([decl.replace(body=visit(decl.body))
                       for decl in node.functions], visit(node.body))
    return visit(node)
