"""One evaluator: every expression over an iteration table.

The evaluator is deliberately strict about the three properties whose
preservation under distribution is the paper's subject:

* **node identity** — ``is`` compares identity, constructors and
  message shredding create fresh identity;
* **document order** — every path step result is sorted into document
  order with duplicates removed (the behaviour Problem 4 shows is lost
  when results of different remote calls are intermixed);
* **structural relationships** — axes run over the pre/size/level
  store, so reverse/horizontal steps genuinely fail to find parents
  that a message did not ship (Problem 1), rather than accidentally
  working.

Cost accounting: each expression evaluation and each axis candidate
visited bumps the :class:`~repro.xquery.context.CostCounter`; the
network simulator turns those ticks into the "local exec"/"remote
exec" components of the paper's Figure 8 breakdown.

**Frames.** Every rule evaluates its expression for all rows of a
:class:`_Frame` at once — loop-lifting, as the paper's MonetDB/XQuery
substrate evaluates every expression over an iteration table. A row's
own variables are the frame's columns; what all rows share (resolvers,
counter, the run's binding, shared variables) is its one ``env``.
:meth:`Evaluator.evaluate` is a one-row frame: there are no scalar
rules. Two constructs make wider frames, nesting freely (a loop in a
loop is tagged by the pair): a binding loop (a row per row × binding)
and a predicate — a loop over its candidates, each the focus of its row
(item, position in its context's group, group size). Within a frame a
sub-expression that reads no column (nor a focus the rows differ in)
and builds no node is evaluated once and charged once per row; ``if`` /
``and`` / ``or`` / ``typeswitch`` partition the rows, so a branch sees
only the rows that reach it; comparisons, calls and text / attribute
constructors apply per row; element constructors build all rows' trees
in one pass, one document per row.

**Paths** run set-at-a-time on the per-document
:class:`~repro.xmldb.index.StructuralIndex`: a step is one
``axis_scan`` over the union of every row's contexts, the rows carried
per pre (any axis in a one-row frame; else child, attribute and self
by the parent column, any other axis one scan per group of rows with
equal contexts), in document order because pres ascend. ``Node``
objects are built only at path exits. A position-free predicate
(:func:`~repro.xquery.predicates.position_free`) filters the union
of all contexts' candidates, by a value-index probe for a recognised
comparison (:class:`~repro.xquery.predicates.Probe`); ``//T[p]`` then
runs as one ``descendant::T[p]`` scan. Any other predicate is lifted
over every context's candidates in the order the axis numbers them.

**Binding loops** pick one operator per loop from its shape
(:meth:`Evaluator._loop_plan`): Bulk RPC (a remote call as the whole
body ships all iterations in one message), join (``if ($dep op
$invariant)``: the invariant side once, then one value-index probe
answering every iteration, or for ``=`` in a body that sends messages
the general comparison per iteration), or lifted. ``some`` / ``every``
run their bindings one at a time and stop at the deciding one.
Whatever may send a message runs row by row in the nested loop's order
(counted in ``evaluator_loop_fallbacks_total{reason}``), and a lifted
attempt that raises is undone on the cost counter and rerun row by
row, so the error raised is the one the nested loop meets first.

Bulk RPC and the lifted operator charge the cost counter what the
nested loop charges. The join charges less where a value-index
probe answers it (:meth:`Evaluator._chain_verdicts`): only the nodes
the probe matched, not the dependent side per binding. So simulated
time does depend on the operator there; the exec cells of Figures 8 / 9
in ``benchmarks/figures.json`` pin what the join charges. The scalar
rules, the per-node walker and the nested loops this engine replaced
are the test oracle (``tests/oracle/xquery_reference_walker.py``); the
two return identical items and differ only in tick totals (scans count
results, probes don't re-dispatch the AST).
"""

from __future__ import annotations

import itertools
import math
from itertools import chain as _chain
from typing import NamedTuple

from repro.errors import (
    UndefinedFunctionError, XQueryDynamicError, XQueryError, XQueryTypeError,
)
from repro.obs.metrics import GLOBAL_REGISTRY
from repro.xmldb.axes import REVERSE_AXES, child
from repro.xmldb.compare import (
    is_same_node, node_after, node_before, sort_document_order,
)
from repro.xmldb.columns import ColumnSet
from repro.xmldb.document import Document, DocumentBuilder
from repro.xmldb.index import group_by_document, structural_index
from repro.xmldb.node import KIND_ATTRIBUTE, KIND_DOCUMENT, KIND_TEXT, Node
from repro.xquery import functions as fn_mod
from repro.xquery import xdm
from repro.xquery.ast import (
    VALUE_COMPARISONS, ArithmeticExpr, ComparisonExpr, ConstructorExpr,
    ContextItemExpr, EmptySequence, Expr, ForExpr, FunCall, FunctionDecl,
    IfExpr, LetExpr, Literal, LiteralSlot, LogicalExpr, Module, NodeSetExpr,
    OrderByExpr, PathExpr, QuantifiedExpr, RangeExpr, SequenceExpr, Step,
    TypeswitchExpr, UnaryExpr, VarRef, XRPCExpr, walk,
)
from repro.xmldb.values import value_index
from repro.xquery.context import DynamicContext, StaticContext
from repro.xquery.predicates import (
    FLIPPED_OPS, chain_candidates, compile_predicate,
    dependent_chain, focus_nodes, position_free, probe_atoms,
)
from repro.xquery.scopes import free_variables
from repro.xquery.types import matches_sequence_type
from repro.xquery.xdm import (
    atomize, effective_boolean_value, general_compare, to_number,
)

_fragment_counter = itertools.count(1)

#: Axes whose candidates a positional predicate numbers in reverse
#: document order (``ancestor::*[1]`` is the nearest ancestor).
_REVERSE_ORDER_AXES = REVERSE_AXES | {"preceding", "preceding-sibling"}

#: Axes on which every candidate has exactly one context node (itself,
#: or its ``parents`` entry): one scan serves all contexts, and a
#: candidate's rows are its context's.
_GROUPED_AXES = frozenset({"child", "attribute", "self"})

#: The rows of every pre in a one-row frame.
_ROW_ZERO = (0,)

_sides = lambda expr: (expr.left, expr.right)  # noqa: E731

#: Operators that evaluate every operand and then combine the values
#: (``_apply_<Type>``), row by row. The value reads the operand
#: expressions.
_STRICT = {
    SequenceExpr: lambda expr: expr.items,
    ComparisonExpr: _sides, ArithmeticExpr: _sides, NodeSetExpr: _sides,
    UnaryExpr: lambda expr: (expr.operand,),
    RangeExpr: lambda expr: (expr.start, expr.end),
}


class _Unliftable(Exception):
    """A loop operator met something it cannot answer with the nested
    loop's parity; the loop runs per binding."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Traits(NamedTuple):
    """What evaluating an expression depends on and does."""

    free: frozenset        # variables it reads
    fresh: bool            # builds nodes (a declared function might)
    focus: bool            # reads the focus (outside nested predicates)
    calls_out: bool        # may send a message


class _Frame(NamedTuple):
    """An iteration table: ``size`` rows over one shared ``env``.
    ``columns[name][row]`` is the value of a variable that differs per
    row; ``focus[row]`` is a row's ``(doc, pre, position, size)`` when
    the rows differ in it (None: the env's context serves every row)."""

    env: DynamicContext
    size: int
    columns: dict[str, list]
    focus: list | None = None

    def pick(self, rows) -> "_Frame":
        """The rows ``rows``, in that order."""
        return _Frame(self.env, len(rows), {
            name: [column[row] for row in rows]
            for name, column in self.columns.items()},
            None if self.focus is None else [self.focus[row] for row in rows])

    def env_at(self, row: int) -> DynamicContext:
        """One row as a dynamic context."""
        env = self.env
        if self.columns:
            env = env.bind_many({name: column[row] for name, column
                                 in self.columns.items()})
        return env if self.focus is None else _with_focus(env,
                                                          self.focus[row])

    def expand(self, owners: list[int], columns: dict[str, list],
               focus: list | None = None) -> "_Frame":
        """The frame of a construct evaluated in every row: its row
        ``i`` belongs to row ``owners[i]`` of this one and sees that
        row's columns, plus ``columns``; ``focus`` replaces the focus
        (a predicate's candidates), else a row keeps its owner's. A
        one-row frame hands its row to the shared env."""
        if self.size == 1:
            return _Frame(self.env_at(0), len(owners), columns, focus)
        inherited = {name: [column[owner] for owner in owners]
                     for name, column in self.columns.items()}
        if focus is None and self.focus is not None:
            focus = [self.focus[owner] for owner in owners]
        return _Frame(self.env, len(owners), {**inherited, **columns}, focus)


class Evaluator:
    """Evaluates expressions of one module against a dynamic context."""

    def __init__(self, module: Module | None = None,
                 static: StaticContext | None = None):
        self.module = module if module is not None else Module([], EmptySequence())
        self.static = static if static is not None else StaticContext()
        self._functions: dict[tuple[str, int], FunctionDecl] = {
            (decl.name, len(decl.params)): decl
            for decl in self.module.functions
        }
        # Per-query compiled artifacts keyed by AST object identity,
        # each stored beside its node (so an id is never reused while
        # its entry lives): predicate plans per Step, collapsed steps
        # per PathExpr, the operator per binding loop, operands per
        # constructor; and each sub-expression's traits. Builds are
        # idempotent and land in one dict assignment: a plan's
        # evaluator is shared by engine workers.
        self._plans: dict[int, tuple[object, object]] = {}
        self._traits_of: dict[int, tuple[Expr, _Traits]] = {}
        self._rules: dict[type, object] = {}
        self._remote_functions = any(
            isinstance(node, XRPCExpr) for decl in self.module.functions
            for node in walk(decl.body))

    def _plan(self, node, build):
        entry = self._plans.get(id(node))
        if entry is None or entry[0] is not node:
            entry = self._plans[id(node)] = (node, build(node))
        return entry[1]

    # -- public API ---------------------------------------------------------

    def evaluate(self, expr: Expr, env: DynamicContext) -> list:
        """``expr`` in ``env``: a one-row frame."""
        return self._lift(expr, _Frame(env, 1, {}))[0]

    def run(self, env: DynamicContext) -> list:
        """Evaluate the module body."""
        return self.evaluate(self.module.body, env)

    def evaluate_calls(self, body: Expr, env: DynamicContext,
                       calls: list[list[tuple[str, list]]]) -> list[list]:
        """``body`` once per call of a Bulk RPC request, its parameters
        bound."""
        return [self.evaluate(body, env.bind_many(dict(params)))
                for params in calls]

    def call_function(self, name: str, arity: int, args,
                      env: DynamicContext) -> list:
        """Apply a declared or built-in function to evaluated arguments."""
        decl = self._functions.get((name, arity))
        if decl is not None:
            body_env = env.fresh_scope().bind_many({
                param.name: value
                for param, value in zip(decl.params, args)
            })
            return self.evaluate(decl.body, body_env)
        builtin = fn_mod.BUILTINS.get((name, arity))
        if builtin is not None:
            return builtin(self, env, *args)
        raise UndefinedFunctionError(name, arity)

    # -- the frame --------------------------------------------------------------

    def _lift(self, expr: Expr, frame: _Frame) -> list[list]:
        """``expr`` for every row of ``frame``: one value per row,
        charged as the nested loop charges (one tick per row per
        expression)."""
        if frame.size > 1 and self._invariant(expr, frame):
            return [self._once(expr, frame)] * frame.size
        kind = type(expr)
        rule = self._rules.get(kind)
        if rule is None:
            rule = getattr(self, f"_lift_{kind.__name__}", None)
            if rule is None:
                raise XQueryDynamicError(
                    f"no evaluation rule for {kind.__name__}")
            self._rules[kind] = rule
        frame.env.counter.ticks += frame.size
        return rule(expr, frame)

    def _each(self, expr: Expr, frame: _Frame) -> list[list]:
        """``expr`` over a frame a construct made: lifted — unless it
        may send a message (then row by row, in the nested loop's
        order), or raises (undone on the cost counter and rerun row by
        row, so the error is the one the nested loop meets first)."""
        if frame.size < 2:
            return self._lift(expr, frame)
        if not self._traits(expr).calls_out:
            mark = frame.env.counter.mark()
            try:
                return self._lift(expr, frame)
            except XQueryError:
                frame.env.counter.charge_since(mark, 0)
        return [self._lift(expr, frame.pick((row,)))[0]
                for row in range(frame.size)]

    def _traits(self, expr: Expr) -> _Traits:
        entry = self._traits_of.get(id(expr))
        if entry is None or entry[0] is not expr:
            nodes = list(walk(expr))
            declared = any(isinstance(node, FunCall) and (
                node.name, len(node.args)) in self._functions
                for node in nodes)
            entry = self._traits_of[id(expr)] = (expr, _Traits(
                frozenset(free_variables(expr)),
                declared or any(isinstance(node, ConstructorExpr)
                                for node in nodes),
                any(isinstance(node, ContextItemExpr) or (
                    isinstance(node, FunCall)
                    and (node.name, len(node.args)) in fn_mod.FOCUS_FUNCTIONS)
                    for node in focus_nodes(expr)),
                any(isinstance(node, XRPCExpr) for node in nodes)
                or (self._remote_functions and declared)))
        return entry[1]

    def _invariant(self, expr: Expr, frame: _Frame) -> bool:
        """True when ``expr`` reads no column (nor the focus, where the
        rows differ in it) and builds no node: one evaluation serves
        every row. (A frame of several rows holds no remote call.)"""
        traits = self._traits(expr)
        return not traits.fresh and traits.free.isdisjoint(frame.columns) \
            and not (traits.focus and frame.focus is not None)

    def _once(self, expr: Expr, frame: _Frame) -> list:
        """A value every row shares: evaluated once, charged once per
        row it serves."""
        mark = frame.env.counter.mark()
        value = self.evaluate(expr, frame.env)
        frame.env.counter.charge_since(mark, frame.size)
        return value

    # -- leaves -----------------------------------------------------------------

    def _lift_Literal(self, expr: Literal, frame: _Frame) -> list[list]:
        return [[expr.value]] * frame.size

    def _lift_LiteralSlot(self, expr: LiteralSlot,
                          frame: _Frame) -> list[list]:
        return [[frame.env.binding.literals[expr.index]]] * frame.size

    def _lift_EmptySequence(self, expr: EmptySequence,
                            frame: _Frame) -> list[list]:
        return [[]] * frame.size

    def _lift_VarRef(self, expr: VarRef, frame: _Frame) -> list[list]:
        column = frame.columns.get(expr.name)
        if column is not None:
            return column
        return [frame.env.lookup(expr.name)] * frame.size

    def _lift_ContextItemExpr(self, expr: ContextItemExpr,
                              frame: _Frame) -> list[list]:
        if frame.focus is not None:
            return [[Node(doc, pre)] for doc, pre, _position, _size
                    in frame.focus]
        if frame.env.context_item is None:
            raise XQueryDynamicError("context item is undefined")
        return [[frame.env.context_item]] * frame.size

    # -- structure --------------------------------------------------------------

    def _lift_strict(self, expr: Expr, frame: _Frame) -> list[list]:
        operands = [self._lift(operand, frame)
                    for operand in _STRICT[type(expr)](expr)]
        apply = getattr(self, f"_apply_{type(expr).__name__}")
        env = frame.env
        if not operands:
            return [apply(expr, env, ()) for _row in range(frame.size)]
        return [apply(expr, env, values) for values in zip(*operands)]

    _lift_SequenceExpr = _lift_ComparisonExpr = _lift_ArithmeticExpr = \
        _lift_NodeSetExpr = _lift_UnaryExpr = _lift_RangeExpr = _lift_strict

    def _lift_FunCall(self, expr: FunCall, frame: _Frame) -> list[list]:
        """Per row over evaluated arguments; a built-in that reads the
        focus gets each row's, where the rows differ in it."""
        name, arity = expr.name, len(expr.args)
        args = [self._lift(arg, frame) for arg in expr.args]
        rows = zip(*args) if args else [()] * frame.size
        env = frame.env
        if frame.focus is not None \
                and (name, arity) in fn_mod.FOCUS_FUNCTIONS:
            return [self.call_function(name, arity, values,
                                       _with_focus(env, focus))
                    for values, focus in zip(rows, frame.focus)]
        return [self.call_function(name, arity, values, env)
                for values in rows]

    def _lift_LetExpr(self, expr: LetExpr, frame: _Frame) -> list[list]:
        """A value every row shares joins the env (in a one-row frame,
        so does the row); any other is a column."""
        value = self._lift(expr.value, frame)
        if frame.size == 1:
            return self._lift(expr.body, _Frame(
                frame.env_at(0).bind(expr.var, value[0]), 1, {}))
        if self._invariant(expr.value, frame):
            return self._lift(expr.body, frame._replace(
                env=frame.env.bind(expr.var, value[0]),
                columns={name: column for name, column
                         in frame.columns.items() if name != expr.var}))
        return self._lift(expr.body, frame._replace(columns={
            **frame.columns, expr.var: value}))

    def _lift_over(self, expr: Expr, frame: _Frame, rows: list[int],
                   out: list, column: tuple | None = None) -> None:
        """``expr`` for the rows ``rows`` only, into ``out``;
        ``column`` binds one more ``(name, values per row)``."""
        if rows:
            part = frame if len(rows) == frame.size else frame.pick(rows)
            if column is not None:
                name, values = column
                part = part._replace(columns={
                    **part.columns, name: [values[row] for row in rows]})
            for row, value in zip(rows, self._lift(expr, part)):
                out[row] = value

    def _lift_branches(self, verdicts: list, then_branch: Expr,
                       else_branch: Expr, frame: _Frame) -> list[list]:
        """Partition the rows by verdict and lift each branch over its
        own partition: nothing is evaluated for a row the nested loop
        would not have evaluated it for."""
        out: list = [None] * frame.size
        for branch, wanted in ((then_branch, True), (else_branch, False)):
            self._lift_over(branch, frame,
                            [row for row, verdict in enumerate(verdicts)
                             if bool(verdict) is wanted], out)
        return out

    def _lift_IfExpr(self, expr: IfExpr, frame: _Frame) -> list[list]:
        return self._lift_branches(
            [effective_boolean_value(value)
             for value in self._lift(expr.cond, frame)],
            expr.then_branch, expr.else_branch, frame)

    def _lift_LogicalExpr(self, expr: LogicalExpr,
                          frame: _Frame) -> list[list]:
        decided = expr.op == "or"  # the left verdict that settles it
        out = [[decided] if effective_boolean_value(value) is decided
               else None for value in self._lift(expr.left, frame)]
        rest = [row for row, value in enumerate(out) if value is None]
        self._lift_over(expr.right, frame, rest, out)
        for row in rest:
            out[row] = [effective_boolean_value(out[row])]
        return out

    def _lift_TypeswitchExpr(self, expr: TypeswitchExpr,
                             frame: _Frame) -> list[list]:
        operands = self._lift(expr.operand, frame)
        branches = [(case.var, case.body) for case in expr.cases] \
            + [(expr.default_var, expr.default_body)]
        chosen = [next((index for index, case in enumerate(expr.cases)
                        if matches_sequence_type(operand, case.seq_type)),
                       len(expr.cases)) for operand in operands]
        out: list = [None] * frame.size
        for index, (var, body) in enumerate(branches):
            self._lift_over(body, frame,
                            [row for row, pick in enumerate(chosen)
                             if pick == index], out,
                            None if var is None else (var, operands))
        return out

    # -- binding loops: one plan, three operators -------------------------------

    def _lift_loop(self, expr, frame: _Frame) -> list[list]:
        """``for`` / ``order by`` / ``some`` / ``every`` in every row:
        the bindings of all rows become one frame, a row per (row,
        binding), and the loop's planned operator runs over it. A
        lifted attempt that raises (the loop decides which binding's
        error comes first) or cannot keep the nested loop's parity is
        undone on the cost counter, and the loop reruns per binding."""
        if frame.size > 1 and self._traits(expr).calls_out:
            return self._each(expr, frame)
        seqs = self._lift(expr.seq, frame)
        owners = [row for row, seq in enumerate(seqs) for _item in seq]
        columns = {expr.var: [[item] for seq in seqs for item in seq]}
        if getattr(expr, "pos_var", None) is not None:
            columns[expr.pos_var] = [[position] for seq in seqs
                                     for position in range(1, len(seq) + 1)]
        inner = frame.expand(owners, columns)
        if isinstance(expr, QuantifiedExpr):
            return self._quantify(expr, inner, owners, frame.size)
        operator, detail, nested = self._plan(expr, self._loop_plan)
        if operator == "_loop_bulk" and inner.env.xrpc_execute_bulk is None:
            operator, detail = None, "remote-call"
        done = None
        if operator is not None and owners:
            mark = inner.env.counter.mark()
            try:
                done = getattr(self, operator)(expr, inner, owners, detail)
            except (_Unliftable, XQueryError) as failure:
                if nested and isinstance(failure, XQueryError):
                    raise  # raised per binding: the nested loop's own
                inner.env.counter.charge_since(mark, 0)
                detail = getattr(failure, "reason", None)
            else:
                if operator == "_loop_bulk":
                    # The one message goes out after the attempt: a
                    # fault of the call itself is not a reason to call
                    # again per binding.
                    done = range(len(owners)), inner.env.xrpc_execute_bulk(
                        *done, expr.body.body, inner.env.binding)
        if done is None:
            if detail is not None and owners:
                _count_fallback(detail)
            done = self._loop_per_binding(expr, inner, owners)
        order, values = done
        if frame.size == 1:
            return [list(_chain.from_iterable(values))]
        out: list[list] = [[] for _row in range(frame.size)]
        for row, value in zip(order, values):
            out[owners[row]].extend(value)
        return out

    _lift_ForExpr = _lift_OrderByExpr = _lift_QuantifiedExpr = _lift_loop

    def _loop_plan(self, expr) -> tuple[str | None, object, bool]:
        """``(operator method, detail, nested)`` for a ``for`` / ``order
        by``, from its shape: Bulk RPC, join (detail: the join
        shape), lifted, or None — per binding, detail the reason.
        ``nested``: whatever may send a message is evaluated binding by
        binding, in the nested loop's order (what it raises is final)."""
        body = expr.body
        if isinstance(expr, ForExpr):
            if expr.pos_var is None and isinstance(body, XRPCExpr):
                nested = any(self._traits(operand).calls_out
                             for operand in _call_operands(body))
                return "_loop_bulk", nested, nested
            shape = self._join_shape(expr)
            if shape is not None:
                nested = self._traits(body).calls_out
                return "_loop_join", (*shape, nested), nested
        if any(self._traits(part).calls_out for part in [body] + [
                spec.key for spec in getattr(expr, "specs", ())]):
            return None, "remote-call", True
        return "_loop_lifted", None, False

    def _loop_lifted(self, expr, inner: _Frame, owners: list[int],
                     _detail=None) -> tuple:
        """``(order, values)``: the body over the loop's frame, rows
        sorted first for an ``order by``."""
        order = range(inner.size)
        if isinstance(expr, OrderByExpr):
            order = _order_rows([[order_key(value) for value
                                  in self._lift(spec.key, inner)]
                                 for spec in expr.specs], expr.specs, owners)
            inner = inner.pick(order)
        return order, self._lift(expr.body, inner)

    def _loop_per_binding(self, expr, inner: _Frame,
                          owners: list[int]) -> tuple:
        """The nested loop: one row at a time, every key before any
        body (what may send a message keeps its order)."""
        rows = [inner.pick((row,)) for row in range(inner.size)]
        order = range(inner.size)
        if isinstance(expr, OrderByExpr):
            keys = [[order_key(self._lift(spec.key, one)[0])
                     for spec in expr.specs] for one in rows]
            order = _order_rows([list(column) for column in zip(*keys)],
                                expr.specs, owners)
        return order, [self._lift(expr.body, rows[row])[0] for row in order]

    def _quantify(self, expr: QuantifiedExpr, inner: _Frame,
                  owners: list[int], size: int) -> list[list]:
        """``some`` / ``every``: each row's bindings one at a time (a
        one-row frame each), stopping at the deciding binding."""
        decided = expr.quantifier == "some"
        out = [[not decided]] * size
        for owner, group in itertools.groupby(range(inner.size),
                                              owners.__getitem__):
            if any(effective_boolean_value(self._lift(
                    expr.cond, inner.pick((row,)))[0]) is decided
                   for row in group):
                out[owner] = [decided]
        return out

    # -- join operator -----------------------------------------------------------

    def _join_shape(self, expr: ForExpr) -> tuple | None:
        """Analysis of a loop body shaped ``if ($dep-side op
        $invariant-side) then ... else ...``: one comparison operand
        varies with the loop variable and the other does not, so the
        invariant side can be evaluated once and compared with each
        iteration's dependent side (``=``, in a body that sends
        messages) or, when the dependent side is a named step chain off
        the loop variable, turned into one value-index probe whose
        inverse image answers the filter for *all* iterations at once
        — replacing the nested-loop value joins of the Figure 7-9
        workloads. Returns
        ``(left_dependent, cond, then, else, chain)``.
        """
        body = expr.body
        if isinstance(body, IfExpr) and isinstance(body.cond,
                                                   ComparisonExpr) \
                and body.cond.op in VALUE_COMPARISONS:
            loop_vars = {expr.var}
            if expr.pos_var is not None:
                loop_vars.add(expr.pos_var)
            left_dep = bool(free_variables(body.cond.left) & loop_vars)
            right_dep = bool(free_variables(body.cond.right) & loop_vars)
            if left_dep != right_dep:
                dependent = body.cond.left if left_dep else body.cond.right
                chain = dependent_chain(dependent, expr.var)
                if chain is not None or body.cond.op == "=":
                    return (left_dep, body.cond, body.then_branch,
                            body.else_branch, chain)
        return None

    def _loop_join(self, expr: ForExpr, inner: _Frame, owners: list[int],
                   shape: tuple) -> tuple:
        left_dep, cond, then_branch, else_branch, chain, nested = shape
        dependent_expr, invariant_expr = (
            _sides(cond) if left_dep else reversed(_sides(cond)))

        mark = inner.env.counter.mark()

        def no_join(reason: str):
            if nested:
                raise _Unliftable(reason)
            inner.env.counter.charge_since(mark, 0)  # the invariant side
            return self._loop_lifted(expr, inner, owners)

        if inner.size < 2:
            return no_join("one-binding")
        traits = self._traits(invariant_expr)
        if not traits.free.isdisjoint(inner.columns) \
                or traits.focus and inner.focus is not None:
            # The invariant side reads an enclosing row's values (an
            # outer loop's variable, a candidate's focus): one join per
            # enclosing row.
            values: list = []
            loop = {expr.var, expr.pos_var}
            for _owner, group in itertools.groupby(range(inner.size),
                                                   owners.__getitem__):
                part = inner.pick(list(group))
                env = part.env.bind_many({
                    name: column[0] for name, column in part.columns.items()
                    if name not in loop})
                if part.focus is not None:
                    env = _with_focus(env, part.focus[0])
                values.extend(self._loop_join(expr, _Frame(
                    env, part.size, {name: part.columns[name]
                                     for name in loop & part.columns.keys()}),
                    [0] * part.size, shape)[1])
            return range(inner.size), values
        env = inner.env
        invariant = self.evaluate(invariant_expr, env)
        seq = [value[0] for value in inner.columns[expr.var]]
        verdicts = None
        if chain is not None and all(isinstance(item, Node)
                                     for item in seq):
            verdicts = self._chain_verdicts(
                chain, cond.op if left_dep else FLIPPED_OPS[cond.op],
                atomize(invariant), seq, env)
        if verdicts is None and (cond.op != "=" or not nested):
            return no_join("join-bailed")

        def verdict_of(dependent: list) -> bool:
            left, right = ((dependent, invariant) if left_dep
                           else (invariant, dependent))
            return general_compare(cond.op, left, right)

        order = range(inner.size)
        if not nested:
            return order, self._lift_branches(
                verdicts, then_branch, else_branch, inner)
        # The body may send a message: the invariant was evaluated
        # once, the rest binding by binding in the nested loop's order.
        out: list = []
        for row in order:
            one = inner.pick((row,))
            verdict = (verdicts[row] if verdicts is not None else
                       verdict_of(self._lift(dependent_expr, one)[0]))
            out.append(self._lift(then_branch if verdict else else_branch,
                                  one)[0])
        return order, out

    def _chain_verdicts(self, chain, op: str, invariant_atoms: list,
                        seq: list, env: DynamicContext) -> list | None:
        """Per-item filter verdicts computed set-at-a-time: probe the
        value index once per document with the invariant atoms, map
        the matches up the dependent chain, and answer each iteration
        with a set-membership test. None when an atom type forces the
        per-iteration path."""
        steps, probe_key = chain
        candidate_sets: dict[int, set[int]] = {}
        for item in seq:
            doc_key = id(item.doc)
            if doc_key in candidate_sets:
                continue
            matched = probe_atoms(value_index(item.doc), probe_key, op,
                                  invariant_atoms)
            if matched is None:
                return None
            env.counter.nodes_visited += len(matched)
            candidate_sets[doc_key] = chain_candidates(item.doc, steps,
                                                       matched)
        return [item.pre in candidate_sets[id(item.doc)] for item in seq]

    # -- Bulk RPC operator -------------------------------------------------------

    def _loop_bulk(self, expr: ForExpr, inner: _Frame, owners: list[int],
                   nested: bool):
        """Bulk RPC: a remote call nested directly in a for-loop is
        shipped as one message carrying all iterations' parameters
        instead of one synchronous interaction per iteration. Returns
        the destination and the calls; mixed destinations leave the
        loop to per-call RPC. Operands that send messages themselves
        (``nested``) are evaluated binding by binding."""
        xrpc = expr.body
        operands = _call_operands(xrpc)
        rows = ([[self._lift(operand, one)[0] for operand in operands]
                 for one in map(inner.pick, ((row,) for row
                                             in range(inner.size)))]
                if nested else list(zip(*(self._lift(operand, inner)
                                          for operand in operands))))
        if any(len(row[0]) != 1 for row in rows):
            raise _Unliftable("destination")
        destinations = {xdm.string_value(row[0][0]) for row in rows}
        if len(destinations) != 1:
            raise _Unliftable("mixed-destinations")
        return destinations.pop(), [
            [(param.name, value) for param, value
             in zip(xrpc.params, row[1:])] for row in rows]

    # -- paths ---------------------------------------------------------------------

    def _path_plan(self, expr: PathExpr) -> list[Step]:
        """The steps as they run (``//T`` pairs collapsed)."""
        return _collapse_steps(expr.steps, lambda step: self._plan(
            step, self._step_plan)[0] is not None)

    def _lift_PathExpr(self, expr: PathExpr, frame: _Frame) -> list[list]:
        """Every row's path in one pass per document: each step runs
        once over the union of all rows' contexts, ``tags`` carrying
        the rows each pre belongs to (in a one-row frame, ``tags`` is
        just the pres), then the result is zipped back per row —
        documents in document order, pres ascending."""
        contexts = self._lift(expr.input, frame)
        steps = self._plan(expr, self._path_plan)
        out: list[list] = [[] for _row in range(frame.size)]
        for doc, tags in _tag_rows(contexts, steps[0]):
            index = structural_index(doc)
            for step in steps:
                tags = self._lift_step(step, doc, index, tags, frame)
                if not tags:
                    break
            if frame.size == 1:
                out[0].extend([Node(doc, pre) for pre in tags])
                continue
            for pre, rows in tags.items():
                node = Node(doc, pre)
                for row in rows:
                    out[row].append(node)
        return out

    def _lift_step(self, step: Step, doc: Document, index,
                   tags, frame: _Frame):
        """One step for every row: ``tags`` maps each context pre
        (ascending) to the rows holding it; so does the result."""
        plans, variables = self._plan(step, self._step_plan)
        if plans is None:
            return self._positional_step(step, doc, index, tags, frame)
        result = self._scan(step.axis, step.test, doc, index, tags,
                            frame.size)
        frame.env.counter.nodes_visited += (
            len(result) if frame.size == 1
            else sum(map(len, result.values())))
        for predicate, plan in zip(step.predicates, plans):
            if not result:
                break
            result = self._filter(predicate, plan, variables, step, doc,
                                  result, frame)
        return result

    def _scan(self, axis: str, test: str, doc: Document, index,
              tags, size: int):
        """The axis from every row's contexts: child, attribute and
        self read a result's rows from its one context; any other axis
        scans once per group of rows with equal contexts."""
        if size == 1:
            return index.axis_scan(axis, test, tags)
        if axis in _GROUPED_AXES:
            parents = doc.parents
            return {pre: tags[pre if axis == "self" else parents[pre]]
                    for pre in index.axis_scan(axis, test, list(tags))}
        per_row: dict[int, list[int]] = {}
        for pre, rows in tags.items():
            for row in rows:
                per_row.setdefault(row, []).append(pre)
        groups: dict[tuple, list[int]] = {}
        for row, pres in per_row.items():
            groups.setdefault(tuple(pres), []).append(row)
        result: dict[int, list[int]] = {}
        for pres, rows in groups.items():
            for pre in index.axis_scan(axis, test, pres):
                result.setdefault(pre, []).extend(rows)
        return {pre: sorted(result[pre]) for pre in sorted(result)}

    def _step_plan(self, step: Step) -> tuple:
        """``(plans, variables)`` for a step: when every predicate is
        position-free, per predicate its probe (None: lifted over
        the candidates); else None — all-or-nothing, since a later
        positional predicate numbers the candidates an earlier one
        kept *per context*. Plus the variables the predicates read."""
        variables = frozenset().union(
            *(free_variables(predicate) for predicate in step.predicates))
        if all(map(position_free, step.predicates)):
            return [compile_predicate(predicate)
                    for predicate in step.predicates], variables
        return None, variables

    def _filter(self, predicate: Expr, plan, variables: frozenset,
                step: Step, doc: Document, result, frame: _Frame):
        """A position-free predicate over the union of every context's
        candidates (``result``: candidate pre → rows): its probe when it
        needs no value that differs per row, else lifted over a row per
        (row, candidate)."""
        one = frame.size == 1
        dependent = not variables.isdisjoint(frame.columns)
        if plan is not None and (one or not dependent):
            kept = plan.filter(doc, result if one else list(result),
                               step.axis, step.test, frame.env_at(0)
                               if dependent else frame.env)
            if kept is not None:  # None: a value type probes can't take
                return kept if one else {pre: result[pre] for pre in kept}
        pairs = ([(pre, 0) for pre in result] if one else
                 [(pre, row) for pre, rows in result.items() for row in rows])
        verdicts = self._predicate(predicate, frame,
                                   [row for _pre, row in pairs],
                                   [(doc, pre, 1, 1) for pre, _row in pairs])
        if one:
            return [pre for pre, verdict in zip(result, verdicts) if verdict]
        kept: dict[int, list[int]] = {}
        for (pre, row), verdict in zip(pairs, verdicts):
            if verdict:
                kept.setdefault(pre, []).append(row)
        return kept

    def _positional_step(self, step: Step, doc: Document, index,
                         tags, frame: _Frame):
        """A step whose predicates may read the focus position: the
        candidates of each (row, context) in the order the axis numbers
        them — one scan for an axis where a candidate has one context,
        one per context otherwise — and each predicate lifted over all
        groups at once, positions counted per group."""
        axis, test = step.axis, step.test
        one = frame.size == 1
        by_context: dict[int, list[int]] = {}
        if axis in _GROUPED_AXES:
            parents = doc.parents
            for pre in index.axis_scan(axis, test,
                                       tags if one else list(tags)):
                by_context.setdefault(pre if axis == "self" else parents[pre],
                                      []).append(pre)
        else:
            reverse = axis in _REVERSE_ORDER_AXES
            for context in tags:
                found = index.axis_scan(axis, test, (context,))
                if found:
                    by_context[context] = list(reversed(found) if reverse
                                               else found)
        groups = [(row, candidates)
                  for context, candidates in by_context.items()
                  for row in (_ROW_ZERO if one else tags[context])]
        frame.env.counter.nodes_visited += sum(
            len(candidates) for _row, candidates in groups)
        for predicate in step.predicates:
            if not groups:  # no candidate left: nothing is evaluated
                break
            count = sum(len(candidates) for _row, candidates in groups)
            traits = self._traits(predicate)
            if not (traits.fresh or traits.focus) \
                    and traits.free.isdisjoint(frame.columns):
                # One value for every candidate (``[2]``): it keeps a
                # position, or all or none of each group.
                value = self._once(predicate, frame._replace(size=count))
                groups = [(row, kept) for row, candidates in groups
                          if (kept := _keep(candidates, value))]
                continue
            owners = [row for row, candidates in groups for _pre in candidates]
            focus = [(doc, pre, position, len(candidates))
                     for _row, candidates in groups
                     for position, pre in enumerate(candidates, start=1)]
            verdicts = iter(self._predicate(predicate, frame, owners, focus))
            groups = [(row, kept) for row, candidates in groups
                      if (kept := [pre for pre in candidates
                                   if next(verdicts)])]
        if one:  # a candidate of several contexts is in each group
            kept = [pre for _row, candidates in groups for pre in candidates]
            return sorted(kept if axis in _GROUPED_AXES else set(kept))
        result: dict[int, set[int]] = {}
        for row, candidates in groups:
            for pre in candidates:
                result.setdefault(pre, set()).add(row)
        return {pre: sorted(result[pre]) for pre in sorted(result)}

    def _predicate(self, predicate: Expr, frame: _Frame, owners: list[int],
                   focus: list) -> list[bool]:
        """A predicate as a loop over its candidates: a row per
        candidate (of row ``owners[i]``), the candidate its focus; a
        number keeps the candidate at that position, any other value
        by its effective boolean value."""
        values = self._each(predicate, frame.expand(owners, {}, focus))
        return [value[0] == position if _is_number(value)
                else effective_boolean_value(value)
                for value, (_doc, _pre, position, _size)
                in zip(values, focus)]

    # -- operators -------------------------------------------------------------

    def _apply_ComparisonExpr(self, expr: ComparisonExpr,
                              env: DynamicContext, values) -> list:
        left, right = values
        if expr.is_node_comparison:
            if not left or not right:
                return []
            if len(left) != 1 or len(right) != 1 or \
                    not isinstance(left[0], Node) or \
                    not isinstance(right[0], Node):
                raise XQueryTypeError(
                    f"operands of {expr.op!r} must be single nodes")
            if expr.op == "is":
                return [is_same_node(left[0], right[0])]
            if expr.op == "<<":
                return [node_before(left[0], right[0])]
            return [node_after(left[0], right[0])]
        return [general_compare(expr.op, left, right)]

    def _apply_ArithmeticExpr(self, expr: ArithmeticExpr,
                              env: DynamicContext, values) -> list:
        left, right = atomize(values[0]), atomize(values[1])
        if not left or not right:
            return []
        if len(left) > 1 or len(right) > 1:
            raise XQueryTypeError("arithmetic on multi-item sequence")
        a, b = left[0], right[0]
        both_int = (isinstance(a, int) and not isinstance(a, bool)
                    and isinstance(b, int) and not isinstance(b, bool))
        x, y = to_number(a), to_number(b)
        op = expr.op
        if op == "+":
            result = x + y
        elif op == "-":
            result = x - y
        elif op == "*":
            result = x * y
        elif op == "div":
            if y == 0:
                raise XQueryDynamicError("division by zero")
            return [x / y]
        elif op == "idiv":
            if y == 0:
                raise XQueryDynamicError("integer division by zero")
            return [int(x // y) if (x < 0) == (y < 0) or x % y == 0
                    else -int(abs(x) // abs(y))]
        elif op == "mod":
            if y == 0:
                raise XQueryDynamicError("modulo by zero")
            # XQuery mod keeps the sign of the dividend.
            result = math.fmod(x, y)
        else:  # pragma: no cover - parser restricts ops
            raise XQueryDynamicError(f"unknown operator {op!r}")
        if both_int and result == int(result):
            return [int(result)]
        return [result]

    def _apply_UnaryExpr(self, expr: UnaryExpr, env: DynamicContext,
                         values) -> list:
        operand = atomize(values[0])
        if not operand:
            return []
        if len(operand) > 1:
            raise XQueryTypeError("unary operator on multi-item sequence")
        value = to_number(operand[0])
        result = -value if expr.op == "-" else value
        if isinstance(operand[0], int) and not isinstance(operand[0], bool):
            return [int(result)]
        return [result]

    def _apply_RangeExpr(self, expr: RangeExpr, env: DynamicContext,
                         values) -> list:
        start, end = atomize(values[0]), atomize(values[1])
        if not start or not end:
            return []
        if len(start) > 1 or len(end) > 1:
            raise XQueryTypeError("range over a multi-item sequence")
        lo = int(to_number(start[0]))
        hi = int(to_number(end[0]))
        return list(range(lo, hi + 1))

    def _apply_NodeSetExpr(self, expr: NodeSetExpr, env: DynamicContext,
                           values) -> list:
        left = xdm.require_nodes(values[0], expr.op)
        right = xdm.require_nodes(values[1], expr.op)
        right_keys = {(id(n.doc), n.pre) for n in right}
        if expr.op == "union":
            return sort_document_order(left + right)
        if expr.op == "intersect":
            return sort_document_order(
                [n for n in left if (id(n.doc), n.pre) in right_keys])
        return sort_document_order(
            [n for n in left if (id(n.doc), n.pre) not in right_keys])

    def _apply_SequenceExpr(self, expr: SequenceExpr, env: DynamicContext,
                            values) -> list:
        return list(_chain.from_iterable(values))

    # -- constructors -----------------------------------------------------------------

    def _constructor_plan(self, expr: ConstructorExpr) -> tuple:
        """``(operand expressions, inline)``: the content parts, then
        the name expression if any. Planning an element marks the
        attribute constructors directly inside its content inline:
        they hand the tree builder a ``(name, value)`` pair instead of
        building a one-row document for it to read them from."""
        if expr.kind == "element":
            for part in expr.content:
                for item in getattr(part, "items", (part,)):
                    if isinstance(item, ConstructorExpr) \
                            and item.kind == "attribute":
                        self._plans[id(item)] = (
                            item, (self._constructor_plan(item)[0], True))
        return expr.content + ([] if expr.name_expr is None
                               else [expr.name_expr]), False

    def _lift_ConstructorExpr(self, expr: ConstructorExpr,
                              frame: _Frame) -> list[list]:
        """Text and attribute constructors apply per row. An element or
        document constructor builds every row's tree in one pass of one
        builder, cut into a parentless document per row (fragment URIs
        and document order taken in row order). Attribute items become
        attributes; other nodes are deep-copied (a document node's
        children stand in for it); adjacent atomics of one content part
        join into one text node, separated by spaces; adjacent text
        nodes merge and empty ones are dropped (XQuery 1.0 §3.7.1.3)."""
        parts = [self._lift(operand, frame) for operand
                 in self._plan(expr, self._constructor_plan)[0]]
        computed = parts.pop() if expr.name_expr is not None else None
        names = [xdm.string_value(seq[0]) if seq else ""
                 for seq in computed] \
            if expr.name is None and computed is not None \
            else [expr.name] * frame.size
        if expr.kind in ("text", "attribute"):
            return [self._leaf(expr, name, content)
                    for name, content in zip(
                        names, parts[0] if parts else [()] * frame.size)]
        builder = DocumentBuilder()
        document = expr.kind == "document"
        for row, name in enumerate(names):
            if document:
                builder.start_document()
            else:
                builder.start_element(name or "element")
            for part in parts:
                atoms: list[str] = []
                for item in part[row]:
                    if type(item) is tuple:  # an inline attribute's
                        builder.attribute(*item)
                        continue
                    if type(item) is not Node:
                        atoms.append(xdm.string_value(item))
                        continue
                    kind = item.doc.kinds[item.pre]
                    if kind == KIND_ATTRIBUTE:
                        builder.attribute(item.name, item.value)
                        continue
                    if atoms:
                        builder.text(" ".join(atoms))
                        atoms = []
                    for top in child(item) if kind == KIND_DOCUMENT \
                            else (item,):
                        if top.doc.kinds[top.pre] == KIND_TEXT:
                            builder.text(top.value)
                        else:
                            builder.copy_subtree(top)
                builder.text(" ".join(atoms))
            if document:
                builder.end_document()
            else:
                builder.end_element()
        return [[Document(_fragment_uri(), columns).root]
                for columns in builder.finish_trees()]

    def _leaf(self, expr: ConstructorExpr, name: str | None,
              content: list) -> list:
        """A text or attribute constructor in one row: the string values
        of its content's atoms, joined by spaces."""
        value = " ".join([xdm.string_value(item) for item in content])
        if expr.kind == "text":
            if not content:
                return []
            kind, name = KIND_TEXT, ""
        else:
            kind, name = KIND_ATTRIBUTE, name or "attr"
            if self._plan(expr, self._constructor_plan)[1]:
                return [(name, value)]
        return [Document(_fragment_uri(), ColumnSet(
            [kind], [name], [value], [0], [0], [-1])).root]

    # -- XRPC ---------------------------------------------------------------------------

    def _lift_XRPCExpr(self, expr: XRPCExpr, frame: _Frame) -> list[list]:
        """One remote call per row (a frame of several rows holds no
        remote call: every construct that makes one runs what may send
        a message row by row, or ships it as one Bulk RPC)."""
        dests = self._lift(expr.dest, frame)
        params = [self._lift(param.value, frame) for param in expr.params]
        out = []
        for row, dest_seq in enumerate(dests):
            if len(dest_seq) != 1:
                raise XQueryDynamicError("execute at destination must be a "
                                         "single URI")
            out.append(frame.env.xrpc_execute(
                xdm.string_value(dest_seq[0]),
                [(param.name, values[row])
                 for param, values in zip(expr.params, params)],
                expr.body, frame.env.binding))
        return out


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _is_number(value: list) -> bool:
    return len(value) == 1 and isinstance(value[0], (int, float)) \
        and not isinstance(value[0], bool)


def _keep(candidates: list[int], value: list) -> list[int]:
    """The candidates of one context group a predicate whose value is
    ``value`` for each of them keeps."""
    if _is_number(value):
        position = value[0]
        return candidates[int(position) - 1:int(position)] \
            if 1 <= position <= len(candidates) \
            and position == int(position) else []
    return candidates if effective_boolean_value(value) else []


def _tag_rows(contexts: list[list], step: Step) -> list[tuple]:
    """The contexts of every row per document, documents in document
    order: ``(doc, tags)`` with ``tags`` ascending context pre → the
    rows holding it — or, for one row, the ascending pres."""
    label = f"axis step {step.axis}::{step.test}"
    if len(contexts) == 1:
        try:
            return group_by_document(contexts[0])
        except AttributeError:  # an item with no document: not a node
            xdm.require_nodes(contexts[0], label)
            raise
    by_doc: dict[int, tuple[Document, dict[int, list[int]]]] = {}
    for row, items in enumerate(contexts):
        for item in items:
            if not isinstance(item, Node):
                xdm.require_nodes(items, label)
            entry = by_doc.get(id(item.doc))
            if entry is None:
                entry = by_doc[id(item.doc)] = (item.doc, {})
            rows = entry[1].get(item.pre)
            if rows is None:
                entry[1][item.pre] = [row]
            elif rows[-1] != row:
                rows.append(row)
    return [(doc, dict(sorted(tags.items()))) for doc, tags in sorted(
        by_doc.values(), key=lambda entry: entry[0].doc_seq)]


def _with_focus(env: DynamicContext, focus: tuple) -> DynamicContext:
    doc, pre, position, size = focus
    return env.with_context(Node(doc, pre), position, size)


def _call_operands(xrpc: XRPCExpr) -> list[Expr]:
    return [xrpc.dest] + [param.value for param in xrpc.params]


def _count_fallback(reason: str) -> None:
    GLOBAL_REGISTRY.counter(
        "evaluator_loop_fallbacks_total",
        "binding loops run per binding (whatever may send a message)",
        ("reason",)).labels(reason).inc()


def _collapse_steps(steps: list[Step], compiles) -> list[Step]:
    """Rewrite ``descendant-or-self::node()/child::T[p]`` pairs into
    ``descendant::T[p]`` (the desugared ``//T[p]``). Sound whenever
    every predicate of the child step ``compiles`` to a position-free
    plan — a positional predicate is relative to one context node's
    child list, which the collapse would change."""
    out: list[Step] = []
    index = 0
    while index < len(steps):
        step = steps[index]
        if (step.axis == "descendant-or-self" and step.test == "node()"
                and not step.predicates and index + 1 < len(steps)):
            following = steps[index + 1]
            if following.axis == "child" and compiles(following):
                out.append(Step("descendant", following.test,
                                following.predicates))
                index += 2
                continue
        out.append(step)
        index += 1
    return out


#: The order-by key of a NaN: between the values and the empty
#: sequence, equal to itself (XQuery 1.0 §3.8.3).
_NAN_KEY = object()


def order_key(key_seq: list):
    """One evaluated order-by key, as the sort compares it — the one
    place keys are built: None for the empty sequence, NaN (which
    ``=`` and ``<`` both answer false for, so it would not sort)
    folded to its marker."""
    atoms = atomize(key_seq)
    if len(atoms) > 1:
        raise XQueryTypeError("order by key must be a singleton")
    if not atoms:
        return None
    return _NAN_KEY if atoms[0] != atoms[0] else atoms[0]


def _order_rows(keys: list, specs: list, owners: list[int]) -> list[int]:
    """The rows of an ``order by`` in sorted order, each enclosing
    row's (``owners``) bindings together; ``keys`` is one column of
    :func:`order_key` values per spec. A column of plain strings, or
    of numbers, sorts on the keys themselves — one stable pass per
    spec, last spec first; any other mix compares through
    :class:`_OrderKey`."""
    order = list(range(len(owners)))
    if not all(all(isinstance(key, str) for key in column)
               or all(type(key) is int or type(key) is float
                      for key in column) for column in keys):
        order.sort(key=lambda row: _OrderKey(
            [(column[row], spec) for column, spec in zip(keys, specs)],
            row))
    else:
        for column, spec in zip(reversed(keys), reversed(specs)):
            order.sort(key=column.__getitem__, reverse=not spec.ascending)
    if owners and owners[0] != owners[-1]:
        order.sort(key=owners.__getitem__)
    return order


class _OrderKey:
    """Comparison wrapper implementing order-by semantics: per key
    ``(value, OrderSpec)``, ascending / descending with empty least or
    greatest, stable by input position."""

    __slots__ = ("keys", "index")

    def __init__(self, keys: list, index: int):
        self.keys = keys
        self.index = index

    def __lt__(self, other: "_OrderKey") -> bool:
        for (a, spec), (b, _spec) in zip(self.keys, other.keys):
            if _order_equal(a, b):
                continue
            before = _order_less(a, b, spec.empty_greatest)
            return before if spec.ascending else not before
        return self.index < other.index


def _order_equal(a, b) -> bool:
    if a is None or b is None or a is _NAN_KEY or b is _NAN_KEY:
        return a is b
    return xdm.value_compare("=", a, b)


def _order_less(a, b, empty_greatest: bool) -> bool:
    # Empty least: () < NaN < values; empty greatest: values < NaN < ().
    if a is None or b is None:
        return (a is None) is not empty_greatest
    if a is _NAN_KEY or b is _NAN_KEY:
        return (a is _NAN_KEY) is not empty_greatest
    return xdm.value_compare("<", a, b)


def _fragment_uri() -> str:
    return f"fragment:{next(_fragment_counter)}"
