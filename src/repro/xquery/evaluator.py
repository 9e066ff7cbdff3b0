"""Tree-walking evaluator with faithful XDM semantics.

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

Path execution is *set-at-a-time*: steps run over sorted pre arrays
grouped by document, every axis answered by the per-document
:class:`~repro.xmldb.index.StructuralIndex` (name-posting and
kind-array scans through :func:`~repro.xmldb.index.scan_groups`, from
a tree root as from any other context), and no step
sorts its result because the scans provably yield document order.
``Node`` objects are built only at pipeline exits — predicates,
constructors, results. A path's steps are planned once: the desugared
``//T[p]`` pair ``descendant-or-self::node()/child::T[p]`` collapses
to one ``descendant::T[p]`` scan whenever ``p`` is position-free.

Predicates are *compiled* once per query (see
:mod:`repro.xquery.predicates`): recognised comparison shapes become
value-index probes intersected with the step's candidate pre array,
residual general predicates become per-node Python closures. A
positional predicate on a child / attribute / self step is a slice of
one scan: every candidate has exactly one context there (its parent
column entry), so the step scans once, groups the candidates by
context and takes ``[k]`` / ``[last()]`` / ``[position() op k]`` per
group; other axes keep one scan per context node, candidates in the
order the axis numbers them.

A binding loop (``for``, ``order by``, ``some`` / ``every``) is *one
operator over its bindings*, chosen once per loop from its shape
(:meth:`Evaluator._loop_plan`):

* **Bulk RPC** — a remote call as the whole body ships all iterations
  in one message;
* **hash join** — ``if ($dep = $invariant) then .. else ..`` evaluates
  the invariant side once (a remote one sends one message) and answers
  every iteration from a hash set or one value-index probe;
* **lifted** — the body runs once for *all* iterations (loop-lifting,
  as the paper's MonetDB/XQuery substrate does): sub-expressions with
  no loop variable are evaluated once, paths rooted at a loop or
  ``let`` variable run each step once over the union of every
  iteration's contexts with the iterations carried per pre, ``if`` /
  ``and`` / ``or`` partition the iterations so a branch only sees the
  bindings that reach it, ``order by`` sorts plain keys once, and
  comparisons, calls and constructors are applied per iteration to
  operands already computed;
* **per-binding** — the nested loop (:meth:`Evaluator._rows`, the one
  such loop in ``src/``): quantifiers (they stop at the deciding
  binding), whatever may send a message (a body holding a remote call;
  the branches of such a join, the operands of such a Bulk RPC), and
  what a lifted operator cannot answer with the nested loop's parity —
  non-node or multi-document bindings, nested contexts under a
  descendant step, other axes, a predicate reading a loop variable, an
  error (the rerun raises it at the binding the loop would). A loop run
  this way counts itself in ``evaluator_loop_fallbacks_total{reason}``;
  so does a loop nested in a lifted body, lifted per outer binding.

The operators charge the cost counter what the nested loop charges, so
simulated time does not depend on the operator. The per-node tree
walker and the nested loops this engine replaced are the test oracle
(``tests/oracle/xquery_reference_walker.py``); the two return
identical items and differ only in cost-counter tick totals (scans
count results, compiled filters don't re-dispatch the AST).
"""

from __future__ import annotations

import itertools
import math
from itertools import chain as _chain, pairwise
from typing import NamedTuple

from repro.errors import (
    UndefinedFunctionError, XQueryDynamicError, XQueryError, XQueryTypeError,
)
from repro.obs.metrics import GLOBAL_REGISTRY
from repro.xmldb.axes import REVERSE_AXES, child
from repro.xmldb.compare import (
    is_same_node, node_after, node_before, sort_document_order,
)
from repro.xmldb.document import Document, DocumentBuilder
from repro.xmldb.index import (
    Groups, group_by_document, group_nodes, scan_groups, structural_index,
)
from repro.xmldb.node import Node, NodeKind
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
    FLIPPED_OPS, EqualityMatcher, chain_candidates, compile_predicate,
    dependent_chain, positional_slice, probe_atoms, take_slice,
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
#: positional predicate is a slice of the candidates grouped by it.
_GROUPED_AXES = frozenset({"child", "attribute", "self"})

_LOOPS = (ForExpr, OrderByExpr, QuantifiedExpr)

_sides = lambda expr: (expr.left, expr.right)  # noqa: E731

#: Operators that evaluate every operand and then combine the values
#: (``_apply_<Type>``): the per-binding residue of a lifted body. The
#: value reads the operand expressions; a constructor's come from its
#: plan.
_STRICT = {
    SequenceExpr: lambda expr: expr.items,
    FunCall: lambda expr: expr.args,
    ComparisonExpr: _sides, ArithmeticExpr: _sides, NodeSetExpr: _sides,
    UnaryExpr: lambda expr: (expr.operand,),
    RangeExpr: lambda expr: (expr.start, expr.end),
    ConstructorExpr: None,
}


class _Unliftable(Exception):
    """A lifted operator met something it cannot answer with the nested
    loop's parity; the loop reruns per binding. ``static`` reasons
    follow from the body's shape, so the plan stops trying."""

    def __init__(self, reason: str, static: bool = False):
        super().__init__(reason)
        self.reason = reason
        self.static = static


class _Frame(NamedTuple):
    """The bindings of one loop as columns: ``size`` iterations over
    one shared ``env``; ``columns[name][row]`` is the value of a
    variable that differs per iteration."""

    env: DynamicContext
    size: int
    columns: dict[str, list]

    def pick(self, rows) -> "_Frame":
        """The sub-loop over ``rows``, in that order."""
        return _Frame(self.env, len(rows), {
            name: [column[row] for row in rows]
            for name, column in self.columns.items()})

    def env_at(self, row: int) -> DynamicContext:
        return self.env.bind_many({name: column[row] for name, column
                                   in self.columns.items()})


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
        # constructor; and which sub-expressions of a lifted body are
        # loop-invariant. Builds are idempotent and land in one dict
        # assignment: a plan's evaluator is shared by engine workers.
        self._plans: dict[int, tuple[object, object]] = {}
        self._invariants: dict[int, tuple[Expr, frozenset | None]] = {}
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
        env.counter.ticks += 1
        kind = type(expr)
        if kind in _STRICT:
            values = [self.evaluate(operand, env)
                      for operand in self._operands(expr)]
            return getattr(self, f"_apply_{kind.__name__}")(expr, env, values)
        method = getattr(self, f"_eval_{kind.__name__}", None)
        if method is None:
            raise XQueryDynamicError(
                f"no evaluation rule for {kind.__name__}")
        return method(expr, env)

    def run(self, env: DynamicContext) -> list:
        """Evaluate the module body."""
        return self.evaluate(self.module.body, env)

    def call_function(self, name: str, arity: int, args: list[list],
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

    def _operands(self, expr: Expr):
        reader = _STRICT[type(expr)]
        if reader is not None:
            return reader(expr)
        return self._plan(expr, self._constructor_plan)[0]

    # -- leaves -----------------------------------------------------------------

    def _eval_Literal(self, expr: Literal, env: DynamicContext) -> list:
        return [expr.value]

    def _eval_LiteralSlot(self, expr: LiteralSlot,
                          env: DynamicContext) -> list:
        return [env.binding.literals[expr.index]]

    def _eval_EmptySequence(self, expr: EmptySequence,
                            env: DynamicContext) -> list:
        return []

    def _eval_VarRef(self, expr: VarRef, env: DynamicContext) -> list:
        return env.lookup(expr.name)

    def _eval_ContextItemExpr(self, expr: ContextItemExpr,
                              env: DynamicContext) -> list:
        if env.context_item is None:
            raise XQueryDynamicError("context item is undefined")
        return [env.context_item]

    # -- structure --------------------------------------------------------------

    def _apply_SequenceExpr(self, expr: SequenceExpr, env: DynamicContext,
                            values: list) -> list:
        return list(_chain.from_iterable(values))

    def _eval_LetExpr(self, expr: LetExpr, env: DynamicContext) -> list:
        value = self.evaluate(expr.value, env)
        return self.evaluate(expr.body, env.bind(expr.var, value))

    def _eval_IfExpr(self, expr: IfExpr, env: DynamicContext) -> list:
        if effective_boolean_value(self.evaluate(expr.cond, env)):
            return self.evaluate(expr.then_branch, env)
        return self.evaluate(expr.else_branch, env)

    def _eval_TypeswitchExpr(self, expr: TypeswitchExpr,
                             env: DynamicContext) -> list:
        operand = self.evaluate(expr.operand, env)
        for case in expr.cases:
            if matches_sequence_type(operand, case.seq_type):
                case_env = env.bind(case.var, operand) if case.var else env
                return self.evaluate(case.body, case_env)
        default_env = (env.bind(expr.default_var, operand)
                       if expr.default_var else env)
        return self.evaluate(expr.default_body, default_env)

    # -- the binding loop: one plan, four operators -----------------------------

    def _eval_loop(self, expr, env: DynamicContext) -> list:
        """``for`` / ``order by`` / ``some`` / ``every``: the bindings
        become the columns of a :class:`_Frame` and the loop's planned
        operator runs over all of them. A lifted attempt that cannot
        keep the nested loop's parity (or raises: the loop decides
        which binding's error comes first) is undone on the cost
        counter and the loop reruns per binding, counted."""
        seq = self.evaluate(expr.seq, env)
        operator, detail, nested = self._plan(expr, self._loop_plan)
        columns = {expr.var: [[item] for item in seq]}
        if getattr(expr, "pos_var", None) is not None:
            columns[expr.pos_var] = [[position] for position
                                     in range(1, len(seq) + 1)]
        frame = _Frame(env, len(seq), columns)
        if operator == "_loop_bulk" and env.xrpc_execute_bulk is None:
            operator, detail = None, "remote-call"
        if operator is not None and seq:
            mark = env.counter.mark()
            try:
                result = getattr(self, operator)(expr, frame, detail)
            except (_Unliftable, XQueryError) as failure:
                if nested and isinstance(failure, XQueryError):
                    raise  # raised per binding: the nested loop's own
                env.counter.charge_since(mark, 0)
                detail = getattr(failure, "reason", "error")
                if getattr(failure, "static", False):
                    self._plans[id(expr)] = (expr, (None, detail, True))
            else:
                if operator == "_loop_bulk":
                    # The one message goes out after the attempt: a
                    # fault of the call itself is not a reason to call
                    # again per binding.
                    result = _chain.from_iterable(env.xrpc_execute_bulk(
                        *result, expr.body.body, env.binding))
                return list(result)
        if seq:
            _count_fallback(detail)
        return self._loop_per_binding(expr, frame)

    _eval_ForExpr = _eval_OrderByExpr = _eval_QuantifiedExpr = _eval_loop

    def _loop_plan(self, expr) -> tuple[str | None, object, bool]:
        """``(operator method, detail, nested)`` for a binding loop,
        from its shape: Bulk RPC, hash join (detail: the join shape),
        lifted, or None — per binding, detail the reason. ``nested``:
        whatever may send a message is evaluated binding by binding,
        in the nested loop's order (what it raises is final). A
        quantifier stops at the deciding binding, so lifting it would
        evaluate bindings the loop never reaches."""
        if isinstance(expr, QuantifiedExpr):
            return None, "quantifier", True
        body = expr.body
        if isinstance(expr, ForExpr):
            if expr.pos_var is None and isinstance(body, XRPCExpr):
                nested = any(map(self._calls_out, _call_operands(body)))
                return "_loop_bulk", nested, nested
            shape = self._join_shape(expr)
            if shape is not None:
                nested = self._calls_out(body)
                return "_loop_join", (*shape, nested), nested
        if any(map(self._calls_out, [body] + [
                spec.key for spec in getattr(expr, "specs", ())])):
            return None, "remote-call", True
        return "_loop_lifted", None, False

    def _calls_out(self, expr: Expr) -> bool:
        """True when evaluating ``expr`` may send a message — work whose
        order and count the nested loop fixes."""
        return any(
            isinstance(node, XRPCExpr)
            or (self._remote_functions and isinstance(node, FunCall)
                and (node.name, len(node.args)) in self._functions)
            for node in walk(expr))

    def _rows(self, frame: _Frame):
        """The per-binding loop, the only one in ``src/``: each
        iteration's bindings as a dynamic context, one iteration at a
        time (lazily: a quantifier stops at the deciding binding)."""
        for row in range(frame.size):
            yield frame.env_at(row)

    def _loop_per_binding(self, expr, frame: _Frame) -> list:
        if isinstance(expr, QuantifiedExpr):
            verdicts = (effective_boolean_value(self.evaluate(expr.cond, env))
                        for env in self._rows(frame))
            return [any(verdicts) if expr.quantifier == "some"
                    else all(verdicts)]
        if isinstance(expr, OrderByExpr):
            keys = [[order_key(self.evaluate(spec.key, env))
                     for spec in expr.specs] for env in self._rows(frame)]
            frame = frame.pick(_order_rows(list(zip(*keys)), expr.specs))
        return [item for env in self._rows(frame)
                for item in self.evaluate(expr.body, env)]

    def _loop_lifted(self, expr, frame: _Frame, _detail=None):
        if isinstance(expr, OrderByExpr):
            keys = [[order_key(value) for value in self._lift(spec.key, frame)]
                    for spec in expr.specs]
            frame = frame.pick(_order_rows(keys, expr.specs))
        return _chain.from_iterable(self._lift(expr.body, frame))

    # -- hash-join operator ------------------------------------------------------

    def _join_shape(self, expr: ForExpr) -> tuple | None:
        """Analysis of a loop body shaped ``if ($dep-side op
        $invariant-side) then ... else ...``: one comparison operand
        varies with the loop variable and the other does not, so the
        invariant side can be evaluated once and turned into a hash
        set (``=``) or, when the dependent side is a named step chain
        off the loop variable, one value-index probe whose inverse
        image answers the filter for *all* iterations at once —
        replacing the nested-loop value joins of the Figure 7-9
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

    def _loop_join(self, expr: ForExpr, frame: _Frame, shape: tuple):
        left_dep, cond, then_branch, else_branch, chain, nested = shape

        def no_join(reason: str):
            if nested:
                raise _Unliftable(reason)
            return self._loop_lifted(expr, frame)

        if frame.size < 2:
            return no_join("one-binding")
        env = frame.env
        op = cond.op if left_dep else FLIPPED_OPS[cond.op]
        dependent_expr, invariant_expr = (
            _sides(cond) if left_dep else reversed(_sides(cond)))
        invariant = self.evaluate(invariant_expr, env)
        invariant_atoms = atomize(invariant)

        seq = [value[0] for value in frame.columns[expr.var]]
        verdicts = matcher = None
        if chain is not None and all(isinstance(item, Node)
                                     for item in seq):
            verdicts = self._chain_verdicts(chain, op, invariant_atoms,
                                            seq, env)
        if verdicts is None:
            if cond.op == "=":
                matcher = EqualityMatcher.build(invariant_atoms)
            if matcher is None:
                return no_join("join-bailed")

        def verdict_of(dependent: list) -> bool:
            verdict = matcher.match_atoms(atomize(dependent))
            if verdict is None:
                # Type mix the hash sets can't answer with exact
                # raise-or-match parity: run the exact nested scan
                # for this iteration, operands in original order.
                left, right = ((dependent, invariant) if left_dep
                               else (invariant, dependent))
                verdict = general_compare(cond.op, left, right)
            return verdict

        if not nested:
            if verdicts is None:
                verdicts = map(verdict_of, self._lift(dependent_expr, frame))
            return _chain.from_iterable(self._lift_branches(
                list(verdicts), then_branch, else_branch, frame))
        # The body may send a message: the invariant was evaluated
        # once, the rest binding by binding in the nested loop's order.
        out: list = []
        for row, row_env in enumerate(self._rows(frame)):
            verdict = (verdicts[row] if verdicts is not None else
                       verdict_of(self.evaluate(dependent_expr, row_env)))
            out.extend(self.evaluate(
                then_branch if verdict else else_branch, row_env))
        return out

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

    def _loop_bulk(self, expr: ForExpr, frame: _Frame, nested: bool):
        """Bulk RPC: a remote call nested directly in a for-loop is
        shipped as one message carrying all iterations' parameters
        instead of one synchronous interaction per iteration. Returns
        the destination and the calls; mixed destinations leave the
        loop to per-call RPC. Operands that send messages themselves
        (``nested``) are evaluated binding by binding."""
        xrpc = expr.body
        operands = _call_operands(xrpc)
        rows = ([[self.evaluate(operand, env) for operand in operands]
                 for env in self._rows(frame)] if nested else
                list(zip(*(self._lift(operand, frame)
                           for operand in operands))))
        if any(len(row[0]) != 1 for row in rows):
            raise _Unliftable("destination")
        destinations = {xdm.string_value(row[0][0]) for row in rows}
        if len(destinations) != 1:
            raise _Unliftable("mixed-destinations")
        return destinations.pop(), [
            [(param.name, value) for param, value
             in zip(xrpc.params, row[1:])] for row in rows]

    # -- lifted evaluation -------------------------------------------------------

    def _lift(self, expr: Expr, frame: _Frame) -> list[list]:
        """``expr`` for every iteration of ``frame`` at once: one value
        per row, charged as the nested loop charges (one tick per
        binding per expression)."""
        kind = type(expr)
        size = frame.size
        if kind is VarRef and expr.name in frame.columns:
            frame.env.counter.ticks += size
            return frame.columns[expr.name]
        if self._invariant(expr, frame):
            return [self._once(expr, frame)] * size
        rule = getattr(self, f"_lift_{kind.__name__}", None)
        if rule is not None:
            frame.env.counter.ticks += size
            return rule(expr, frame)
        if kind not in _STRICT:
            # A loop nested in the body is lifted per outer binding;
            # anything else the classifier does not know runs as is.
            _count_fallback("nested-loop" if isinstance(expr, _LOOPS)
                            else "unclassified")
            return [self.evaluate(expr, env) for env in self._rows(frame)]
        frame.env.counter.ticks += size
        operands = [self._lift(operand, frame)
                    for operand in self._operands(expr)]
        apply = getattr(self, f"_apply_{kind.__name__}")
        env = frame.env
        if not operands:
            return [apply(expr, env, []) for _row in range(size)]
        return [apply(expr, env, values) for values in zip(*operands)]

    def _invariant(self, expr: Expr, frame: _Frame) -> bool:
        """True when ``expr`` reads no per-iteration variable and
        builds no node (a declared function might): one evaluation
        serves the loop. (A lifted body holds no remote call.)"""
        entry = self._invariants.get(id(expr))
        if entry is None or entry[0] is not expr:
            fresh = any(
                isinstance(node, ConstructorExpr)
                or (isinstance(node, FunCall)
                    and (node.name, len(node.args)) in self._functions)
                for node in walk(expr))
            entry = self._invariants[id(expr)] = (
                expr, None if fresh else frozenset(free_variables(expr)))
        return entry[1] is not None and not (entry[1] & frame.columns.keys())

    def _once(self, expr: Expr, frame: _Frame) -> list:
        """A loop-invariant value: evaluated once, charged once per
        binding it serves."""
        mark = frame.env.counter.mark()
        value = self.evaluate(expr, frame.env)
        frame.env.counter.charge_since(mark, frame.size)
        return value

    def _lift_over(self, expr: Expr, frame: _Frame, rows: list[int],
                   out: list) -> None:
        """``expr`` for the iterations ``rows`` only, into ``out``."""
        if rows:
            part = frame if len(rows) == frame.size else frame.pick(rows)
            for row, value in zip(rows, self._lift(expr, part)):
                out[row] = value

    def _lift_branches(self, verdicts: list, then_branch: Expr,
                       else_branch: Expr, frame: _Frame) -> list[list]:
        """Partition the iterations by verdict and lift each branch
        over its own partition: nothing is evaluated for a binding the
        loop would not have evaluated it for."""
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

    def _lift_LetExpr(self, expr: LetExpr, frame: _Frame) -> list[list]:
        return self._lift(expr.body, frame._replace(columns={
            **frame.columns, expr.var: self._lift(expr.value, frame)}))

    def _lift_PathExpr(self, expr: PathExpr, frame: _Frame) -> list[list]:
        """Every iteration's path in one pass: each step runs once over
        the union of all iterations' contexts, ``tags`` carrying the
        iterations (rows) each pre belongs to, then the result is
        zipped back per row — in document order, since pres ascend."""
        contexts = self._lift(expr.input, frame)
        steps = self._plan(expr, self._path_plan)
        doc = None
        tags: dict[int, list[int]] = {}
        for row, items in enumerate(contexts):
            for item in items:
                if not isinstance(item, Node):
                    raise _Unliftable("non-node-binding")
                if item.doc is not doc:
                    if doc is not None:
                        raise _Unliftable("multi-document")
                    doc = item.doc
                rows = tags.get(item.pre)
                if rows is None:
                    tags[item.pre] = [row]
                elif rows[-1] != row:
                    rows.append(row)
        out: list[list] = [[] for _row in range(frame.size)]
        if doc is None:
            return out
        index = structural_index(doc)
        tags = dict(sorted(tags.items()))
        for step in steps:
            tags = self._lift_step(step, doc, index, tags, frame)
            if not tags:
                return out
        for pre, rows in tags.items():
            node = Node(doc, pre)
            for row in rows:
                out[row].append(node)
        return out

    def _lift_step(self, step: Step, doc: Document, index,
                   tags: dict[int, list[int]],
                   frame: _Frame) -> dict[int, list[int]]:
        """One step over the union of all iterations' contexts
        (``tags``: ascending context pre → its rows): child, attribute
        and self read a result's rows from its one context, parent
        unions its contexts' rows, descendant(-or-self) go by subtree
        interval when no context lies inside another."""
        axis, test = step.axis, step.test
        plans, _slices, variables = self._plan(step, self._step_plan)
        if variables & frame.columns.keys():
            raise _Unliftable("dependent-predicate", static=True)
        env = frame.env
        parents = doc.parents
        contexts = list(tags)
        result: dict[int, list[int]] = {}
        if axis in _GROUPED_AXES:
            result = {pre: tags[pre if axis == "self" else parents[pre]]
                      for pre in index.axis_scan(axis, test, contexts)}
        elif axis == "parent" and not step.predicates:
            for pre, rows in tags.items():
                above = parents[pre]
                if above >= 0 and index.matches(above, test):
                    seen = result.get(above)
                    result[above] = (rows if seen is None
                                     else sorted({*seen, *rows}))
            result = dict(sorted(result.items()))
        elif axis in ("descendant", "descendant-or-self") \
                and plans is not None:
            sizes = doc.sizes
            if any(low + sizes[low] >= high
                   for low, high in pairwise(contexts)):
                raise _Unliftable("nested-contexts")
            cursor = 0
            for pre in index.axis_scan(axis, test, contexts):
                while pre > contexts[cursor] + sizes[contexts[cursor]]:
                    cursor += 1
                result[pre] = tags[contexts[cursor]]
        else:
            raise _Unliftable("axis", static=True)
        weight = sum(map(len, result.values()))
        env.counter.nodes_visited += weight
        if step.predicates and result:
            if plans is None and weight != len(result):
                # A positional predicate's ticks are per context; two
                # iterations sharing one would each owe them.
                raise _Unliftable("shared-context")
            kept = self._filter_candidates(step, doc, index, list(result),
                                           env)
            if kept is None:
                raise _Unliftable("predicate-bailed")
            result = {pre: result[pre] for pre in kept}
        return result

    # -- operators -------------------------------------------------------------

    def _apply_ComparisonExpr(self, expr: ComparisonExpr,
                              env: DynamicContext, values: list) -> list:
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

    def _eval_LogicalExpr(self, expr: LogicalExpr,
                          env: DynamicContext) -> list:
        decided = expr.op == "or"  # the left verdict that settles it
        if effective_boolean_value(self.evaluate(expr.left, env)) is decided:
            return [decided]
        return [effective_boolean_value(self.evaluate(expr.right, env))]

    def _apply_ArithmeticExpr(self, expr: ArithmeticExpr,
                              env: DynamicContext, values: list) -> list:
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
            result = math_fmod(x, y)
        else:  # pragma: no cover - parser restricts ops
            raise XQueryDynamicError(f"unknown operator {op!r}")
        if both_int and result == int(result):
            return [int(result)]
        return [result]

    def _apply_UnaryExpr(self, expr: UnaryExpr, env: DynamicContext,
                         values: list) -> list:
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
                         values: list) -> list:
        start, end = atomize(values[0]), atomize(values[1])
        if not start or not end:
            return []
        if len(start) > 1 or len(end) > 1:
            raise XQueryTypeError("range over a multi-item sequence")
        lo = int(to_number(start[0]))
        hi = int(to_number(end[0]))
        return list(range(lo, hi + 1))

    def _apply_NodeSetExpr(self, expr: NodeSetExpr, env: DynamicContext,
                           values: list) -> list:
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

    # -- paths ---------------------------------------------------------------------

    def _path_plan(self, expr: PathExpr) -> list[Step]:
        """The steps as they run (``//T`` pairs collapsed)."""
        return _collapse_steps(expr.steps, lambda step: self._plan(
            step, self._step_plan)[0] is not None)

    def _eval_PathExpr(self, expr: PathExpr, env: DynamicContext) -> list:
        context = self.evaluate(expr.input, env)
        steps = self._plan(expr, self._path_plan)
        xdm.require_nodes(context,
                          f"axis step {steps[0].axis}::{steps[0].test}")
        groups = group_by_document(context)
        for step in steps:
            groups = self._apply_step_groups(step, groups, env)
        return group_nodes(groups)

    def _apply_step_groups(self, step: Step, groups: Groups,
                           env: DynamicContext) -> Groups:
        """One set-at-a-time step over per-document sorted pre arrays.

        Every axis runs on the structural index and comes out in
        document order, so no post-step sort happens.
        """
        if not step.predicates:
            out = scan_groups(step.axis, step.test, groups)
            env.counter.nodes_visited += sum(len(pres) for _doc, pres in out)
            return out
        plans = self._plan(step, self._step_plan)[0]
        out = []
        for doc, pres in groups:
            index = structural_index(doc)
            kept = None
            if plans is not None or step.axis in _GROUPED_AXES:
                candidates = index.axis_scan(step.axis, step.test, pres)
                env.counter.nodes_visited += len(candidates)
                kept = self._filter_candidates(step, doc, index,
                                               candidates, env)
            if kept is None:
                kept = self._filter_per_context(step, doc, index, pres, env)
            if kept:
                out.append((doc, kept))
        return out

    def _step_plan(self, step: Step) -> tuple:
        """``(plans, slices, variables)`` for a predicated step:
        compiled plans for every predicate, or None when any must keep
        per-context semantics — all-or-nothing, since a later
        positional predicate filters the candidate list an earlier one
        produced *per context* — and then, per predicate, the slice a
        positional shape takes of its group (None: evaluate it); plus
        the variables the predicates read."""
        plans = [compile_predicate(predicate)
                 for predicate in step.predicates]
        variables = frozenset().union(
            *(free_variables(predicate) for predicate in step.predicates))
        if None not in plans:
            return plans, None, variables
        shadowed = bool(self._functions.keys()
                        & {("position", 0), ("last", 0)})
        return None, [None if shadowed else positional_slice(predicate)
                      for predicate in step.predicates], variables

    def _filter_candidates(self, step: Step, doc: Document, index,
                           candidates, env: DynamicContext):
        """The step's predicates over one scan's candidates (all
        contexts at once). Compiled plans are position-free, so
        filtering the union equals the per-context definition; None
        when a plan bails at runtime (probe value types the index
        can't answer). Uncompiled predicates — on an axis where each
        candidate has one context — run per context group: candidates
        in axis order, a positional shape as a slice charged the ticks
        its evaluation per candidate would have cost, anything else
        evaluated with ``(rank in group, group size)``."""
        plans, slices, _variables = self._plan(step, self._step_plan)
        if plans is not None:
            kept = candidates
            for plan in plans:
                if not kept:
                    break
                kept = plan.filter(doc, index, kept, step.axis, step.test,
                                   env)
                if kept is None:
                    return None
            return kept
        parents = doc.parents
        groups: dict[int, list[int]] = {}
        for pre in candidates:
            groups.setdefault(pre if step.axis == "self" else parents[pre],
                              []).append(pre)
        kept = []
        for _context, group in sorted(groups.items()):
            for predicate, shape in zip(step.predicates, slices):
                if not group:
                    break
                if shape is None:
                    group = [node.pre for node in self._filter_predicate(
                        predicate, [Node(doc, pre) for pre in group], env)]
                else:
                    env.counter.ticks += shape[2] * len(group)
                    group = take_slice(group, shape)
            kept.extend(group)
        kept.sort()
        return kept

    def _filter_per_context(self, step: Step, doc: Document, index,
                            pres, env: DynamicContext) -> list[int]:
        """Predicates with per-context semantics on an axis where a
        candidate may have several contexts: candidates are produced
        one context node at a time, in the order the axis numbers
        them; the kept pres are merged and re-sorted."""
        reverse = step.axis in _REVERSE_ORDER_AXES
        kept: set[int] = set()
        single = [0]
        for context_pre in pres:
            single[0] = context_pre
            candidate_pres = index.axis_scan(step.axis, step.test, single)
            env.counter.nodes_visited += len(candidate_pres)
            candidates = [Node(doc, pre) for pre in
                          (reversed(candidate_pres) if reverse
                           else candidate_pres)]
            for predicate in step.predicates:
                candidates = self._filter_predicate(predicate, candidates,
                                                    env)
            kept.update(node.pre for node in candidates)
        return sorted(kept)

    def _filter_predicate(self, predicate: Expr, candidates: list,
                          env: DynamicContext) -> list:
        size = len(candidates)
        kept = []
        for position, item in enumerate(candidates, start=1):
            pred_env = env.with_context(item, position, size)
            value = self.evaluate(predicate, pred_env)
            if len(value) == 1 and isinstance(value[0], (int, float)) \
                    and not isinstance(value[0], bool):
                if value[0] == position:
                    kept.append(item)
            elif effective_boolean_value(value):
                kept.append(item)
        return kept

    # -- constructors -----------------------------------------------------------------

    def _constructor_plan(self, expr: ConstructorExpr) -> tuple:
        """``(operand expressions, inline)``. Planning an element marks
        the attribute constructors directly inside its content inline:
        they hand ``_build_content`` a ``(name, value)`` pair instead
        of building a one-row document for it to read them from."""
        if expr.kind == "element" and expr.content is not None:
            for item in getattr(expr.content, "items", (expr.content,)):
                if isinstance(item, ConstructorExpr) \
                        and item.kind == "attribute":
                    self._plans[id(item)] = (
                        item, (self._constructor_plan(item)[0], True))
        return [operand for operand in (expr.content, expr.name_expr)
                if operand is not None], False

    def _apply_ConstructorExpr(self, expr: ConstructorExpr,
                               env: DynamicContext, values: list) -> list:
        operands = iter(values)
        content = [] if expr.content is None else next(operands)
        name = expr.name
        if name is None and expr.name_expr is not None:
            name_seq = next(operands)
            name = xdm.string_value(name_seq[0]) if name_seq else ""

        if expr.kind == "text":
            text = " ".join(xdm.string_value(i) for i in atomize(content))
            return [_make_leaf_fragment(NodeKind.TEXT, "", text)]
        if expr.kind == "attribute":
            value = " ".join(xdm.string_value(i) for i in atomize(content))
            if self._plan(expr, self._constructor_plan)[1]:
                return [(name or "attr", value)]
            return [_make_leaf_fragment(NodeKind.ATTRIBUTE, name or "attr",
                                        value)]
        if expr.kind == "document":
            builder = DocumentBuilder(_fragment_uri())
            builder.start_document()
            _build_content(builder, content)
            builder.end_document()
            return [builder.finish().root]
        # element
        builder = DocumentBuilder(_fragment_uri())
        builder.start_element(name or "element")
        _build_content(builder, content)
        builder.end_element()
        return [builder.finish().root]

    # -- functions and XRPC ----------------------------------------------------------------

    def _apply_FunCall(self, expr: FunCall, env: DynamicContext,
                       values: list) -> list:
        return self.call_function(expr.name, len(values), values, env)

    def _eval_XRPCExpr(self, expr: XRPCExpr, env: DynamicContext) -> list:
        dest_seq = self.evaluate(expr.dest, env)
        if len(dest_seq) != 1:
            raise XQueryDynamicError("execute at destination must be a "
                                     "single URI")
        dest = xdm.string_value(dest_seq[0])
        params = [(param.name, self.evaluate(param.value, env))
                  for param in expr.params]
        return env.xrpc_execute(dest, params, expr.body, env.binding)


def evaluate_module(module: Module, env: DynamicContext,
                    static: StaticContext | None = None) -> list:
    """Convenience one-shot: evaluate a parsed module's body."""
    return Evaluator(module, static).run(env)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _call_operands(xrpc: XRPCExpr) -> list[Expr]:
    return [xrpc.dest] + [param.value for param in xrpc.params]


def _count_fallback(reason: str) -> None:
    GLOBAL_REGISTRY.counter(
        "evaluator_loop_fallbacks_total",
        "binding loops (or loops nested in a lifted body) run per binding",
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


def math_fmod(x: float, y: float) -> float:
    """XQuery mod keeps the sign of the dividend (like math.fmod)."""
    return math.fmod(x, y)


#: The order-by key of a NaN: below every value, above the empty
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


def _order_rows(keys: list, specs: list) -> list[int]:
    """The iterations of an ``order by`` in sorted order; ``keys`` is
    one column of :func:`order_key` values per spec. A column of plain
    strings, or of numbers, sorts on the keys themselves — one stable
    pass per spec, last spec first; any other mix compares through
    :class:`_OrderKey`."""
    order = list(range(len(keys[0]) if keys else 0))
    if not all(all(isinstance(key, str) for key in column)
               or all(type(key) is int or type(key) is float
                      for key in column) for column in keys):
        return sorted(order, key=lambda row: _OrderKey(
            [(column[row], spec.ascending)
             for column, spec in zip(keys, specs)], row))
    for column, spec in zip(reversed(keys), reversed(specs)):
        order.sort(key=column.__getitem__, reverse=not spec.ascending)
    return order


class _OrderKey:
    """Comparison wrapper implementing order-by semantics: per-key
    ascending/descending with empty-least, stable by input position."""

    __slots__ = ("keys", "index")

    def __init__(self, keys: list, index: int):
        self.keys = keys
        self.index = index

    def __lt__(self, other: "_OrderKey") -> bool:
        for (a, ascending), (b, _b_asc) in zip(self.keys, other.keys):
            if _order_equal(a, b):
                continue
            before = _order_less(a, b)
            return before if ascending else not before
        return self.index < other.index


def _order_equal(a, b) -> bool:
    if a is None or b is None or a is _NAN_KEY or b is _NAN_KEY:
        return a is b
    try:
        return xdm.value_compare("=", a, b)
    except Exception:
        return xdm.string_value(a) == xdm.string_value(b)


def _order_less(a, b) -> bool:
    if a is None or b is None:
        return a is None  # empty-least
    if a is _NAN_KEY or b is _NAN_KEY:
        return a is _NAN_KEY
    try:
        return xdm.value_compare("<", a, b)
    except Exception:
        return xdm.string_value(a) < xdm.string_value(b)


def _fragment_uri() -> str:
    return f"fragment:{next(_fragment_counter)}"


def _make_leaf_fragment(kind: NodeKind, name: str, value: str) -> Node:
    doc = Document(_fragment_uri(), [kind], [name], [value], [0], [0], [-1])
    return doc.root


def _build_content(builder: DocumentBuilder, content: list) -> None:
    """Implement element-content processing: attribute items become
    attributes, nodes are deep-copied, adjacent atomics join into one
    text node separated by spaces."""
    pending_atoms: list[str] = []

    def flush_atoms() -> None:
        if pending_atoms:
            builder.text(" ".join(pending_atoms))
            pending_atoms.clear()

    for item in content:
        if type(item) is tuple:  # an inline attribute constructor's
            builder.attribute(*item)
        elif isinstance(item, Node):
            if item.kind == NodeKind.ATTRIBUTE:
                builder.attribute(item.name, item.value)
                continue
            flush_atoms()
            if item.kind == NodeKind.DOCUMENT:
                for top in child(item):
                    builder.copy_subtree(top)
            else:
                builder.copy_subtree(item)
        else:
            pending_atoms.append(xdm.string_value(item))
    flush_atoms()
