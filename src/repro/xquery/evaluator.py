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
:class:`~repro.xmldb.index.StructuralIndex` (tag/kind/path-summary
scans through :func:`~repro.xmldb.index.scan_groups`), and no step
sorts its result because the scans provably yield document order.
``Node`` objects are built only at pipeline exits — predicates,
constructors, results.

Predicates are *compiled* once per query (see
:mod:`repro.xquery.predicates`): recognised comparison shapes become
value-index probes intersected with the step's candidate pre array,
residual general predicates become per-node Python closures, and a
FLWOR body shaped ``if ($dep = $invariant) then .. else ..`` runs as a
hash join (the invariant side evaluated once, hashed, probed per
iteration). Positional predicates keep the per-context path: one
scan per context node, candidates in axis order, the predicate
evaluated per candidate. The per-node tree walker this engine replaced
is the test oracle (``tests/oracle/xquery_reference_walker.py``); the
two return identical items and differ only in cost-counter tick totals
(scans count results, compiled filters don't re-dispatch the AST).
"""

from __future__ import annotations

import itertools
import math

from repro.errors import (
    UndefinedFunctionError, XQueryDynamicError, XQueryTypeError,
)
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
    IfExpr, LetExpr, Literal, LogicalExpr, Module, NodeSetExpr,
    OrderByExpr, PathExpr, QuantifiedExpr, RangeExpr, SequenceExpr, Step,
    TypeswitchExpr, UnaryExpr, VarRef, XRPCExpr,
)
from repro.xmldb.values import value_index
from repro.xquery.context import DynamicContext, StaticContext
from repro.xquery.predicates import (
    FLIPPED_OPS, EqualityMatcher, chain_candidates, compile_predicate,
    dependent_chain, probe_atoms,
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
        # Per-query compiled artifacts, keyed by AST object identity
        # (the module's AST is stable for the evaluator's lifetime):
        # predicate plans per Step, hash-join shapes per ForExpr.
        self._predicate_plans: dict[int, list | None] = {}
        self._join_shapes: dict[int, tuple | None] = {}

    # -- public API ---------------------------------------------------------

    def evaluate(self, expr: Expr, env: DynamicContext) -> list:
        env.counter.ticks += 1
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise XQueryDynamicError(
                f"no evaluation rule for {type(expr).__name__}")
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

    # -- leaves -----------------------------------------------------------------

    def _eval_Literal(self, expr: Literal, env: DynamicContext) -> list:
        return [expr.value]

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

    def _eval_SequenceExpr(self, expr: SequenceExpr,
                           env: DynamicContext) -> list:
        out: list = []
        for item_expr in expr.items:
            out.extend(self.evaluate(item_expr, env))
        return out

    def _eval_ForExpr(self, expr: ForExpr, env: DynamicContext) -> list:
        seq = self.evaluate(expr.seq, env)
        if isinstance(expr.body, XRPCExpr) and expr.pos_var is None \
                and getattr(env, "xrpc_execute_bulk", None) is not None:
            bulk = self._try_bulk_rpc(expr, seq, env)
            if bulk is not None:
                return bulk
        if len(seq) > 1:
            joined = self._try_hash_join(expr, seq, env)
            if joined is not None:
                return joined
        out: list = []
        for position, item in enumerate(seq, start=1):
            body_env = env.bind(expr.var, [item])
            if expr.pos_var is not None:
                body_env = body_env.bind(expr.pos_var, [position])
            out.extend(self.evaluate(expr.body, body_env))
        return out

    # -- hash-join fast path -------------------------------------------------

    def _join_shape(self, expr: ForExpr) -> tuple | None:
        """Analysis of a loop body shaped ``if ($dep-side op
        $invariant-side) then ... else ...``: one comparison operand
        varies with the loop variable and the other does not, so the
        invariant side can be evaluated once and turned into a hash
        set (``=``) or, when the dependent side is a named step chain
        off the loop variable, one value-index probe whose inverse
        image answers the filter for *all* iterations at once —
        replacing the nested-loop value joins of the Figure 7-9
        workloads. Cached per ForExpr; returns
        ``(left_dependent, cond, then, else, chain)``.
        """
        key = id(expr)
        cached = self._join_shapes.get(key, False)
        if cached is not False:
            return cached
        shape = None
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
                    shape = (left_dep, body.cond, body.then_branch,
                             body.else_branch, chain)
        self._join_shapes[key] = shape
        return shape

    def _try_hash_join(self, expr: ForExpr, seq: list,
                       env: DynamicContext) -> list | None:
        shape = self._join_shape(expr)
        if shape is None:
            return None
        left_dep, cond, then_branch, else_branch, chain = shape
        op = cond.op if left_dep else FLIPPED_OPS[cond.op]
        invariant_expr = cond.right if left_dep else cond.left
        invariant = self.evaluate(invariant_expr, env)
        invariant_atoms = atomize(invariant)

        verdicts = None
        if chain is not None and all(isinstance(item, Node)
                                     for item in seq):
            verdicts = self._chain_verdicts(chain, op, invariant_atoms,
                                            seq, env)
        matcher = None
        if verdicts is None:
            if cond.op != "=":
                return None
            matcher = EqualityMatcher.build(invariant_atoms)
            if matcher is None:
                return None

        dependent_expr = cond.left if left_dep else cond.right
        out: list = []
        for position, item in enumerate(seq, start=1):
            body_env = env.bind(expr.var, [item])
            if expr.pos_var is not None:
                body_env = body_env.bind(expr.pos_var, [position])
            if verdicts is not None:
                verdict = verdicts[position - 1]
            else:
                dependent = self.evaluate(dependent_expr, body_env)
                assert matcher is not None
                verdict = matcher.match_atoms(atomize(dependent))
                if verdict is None:
                    # Type mix the hash sets can't answer with exact
                    # raise-or-match parity: run the exact nested scan
                    # for this iteration, operands in original order.
                    left, right = ((dependent, invariant) if left_dep
                                   else (invariant, dependent))
                    verdict = general_compare(cond.op, left, right)
            branch = then_branch if verdict else else_branch
            out.extend(self.evaluate(branch, body_env))
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

    def _try_bulk_rpc(self, expr: ForExpr, seq: list,
                      env: DynamicContext) -> list | None:
        """Bulk RPC: a remote call nested directly in a for-loop is
        shipped as one message carrying all iterations' parameters
        instead of one synchronous interaction per iteration."""
        xrpc = expr.body
        assert isinstance(xrpc, XRPCExpr)
        destinations: list[str] = []
        calls: list[list[tuple[str, list]]] = []
        for item in seq:
            body_env = env.bind(expr.var, [item])
            dest_seq = self.evaluate(xrpc.dest, body_env)
            if len(dest_seq) != 1:
                return None
            destinations.append(xdm.string_value(dest_seq[0]))
            calls.append([(param.name, self.evaluate(param.value, body_env))
                          for param in xrpc.params])
        if not destinations:
            return []
        if len(set(destinations)) != 1:
            return None  # mixed destinations: fall back to per-call RPC
        results = env.xrpc_execute_bulk(destinations[0], calls, xrpc.body)
        out: list = []
        for result in results:
            out.extend(result)
        return out

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

    def _eval_QuantifiedExpr(self, expr: QuantifiedExpr,
                             env: DynamicContext) -> list:
        seq = self.evaluate(expr.seq, env)
        results = (
            effective_boolean_value(
                self.evaluate(expr.cond, env.bind(expr.var, [item])))
            for item in seq
        )
        if expr.quantifier == "some":
            return [any(results)]
        return [all(results)]

    def _eval_OrderByExpr(self, expr: OrderByExpr,
                          env: DynamicContext) -> list:
        seq = self.evaluate(expr.seq, env)
        decorated = []
        for index, item in enumerate(seq):
            item_env = env.bind(expr.var, [item])
            keys = []
            for spec in expr.specs:
                key_seq = atomize(self.evaluate(spec.key, item_env))
                if len(key_seq) > 1:
                    raise XQueryTypeError("order by key must be a singleton")
                keys.append((key_seq[0] if key_seq else None, spec.ascending))
            decorated.append((keys, index, item))
        decorated.sort(key=lambda entry: _OrderKey(entry[0], entry[1]))
        out: list = []
        for _keys, _index, item in decorated:
            out.extend(self.evaluate(expr.body, env.bind(expr.var, [item])))
        return out

    # -- operators -------------------------------------------------------------

    def _eval_ComparisonExpr(self, expr: ComparisonExpr,
                             env: DynamicContext) -> list:
        left = self.evaluate(expr.left, env)
        right = self.evaluate(expr.right, env)
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
        left = effective_boolean_value(self.evaluate(expr.left, env))
        if expr.op == "and":
            if not left:
                return [False]
            return [effective_boolean_value(self.evaluate(expr.right, env))]
        if left:
            return [True]
        return [effective_boolean_value(self.evaluate(expr.right, env))]

    def _eval_ArithmeticExpr(self, expr: ArithmeticExpr,
                             env: DynamicContext) -> list:
        left = atomize(self.evaluate(expr.left, env))
        right = atomize(self.evaluate(expr.right, env))
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

    def _eval_UnaryExpr(self, expr: UnaryExpr, env: DynamicContext) -> list:
        operand = atomize(self.evaluate(expr.operand, env))
        if not operand:
            return []
        if len(operand) > 1:
            raise XQueryTypeError("unary operator on multi-item sequence")
        value = to_number(operand[0])
        result = -value if expr.op == "-" else value
        if isinstance(operand[0], int) and not isinstance(operand[0], bool):
            return [int(result)]
        return [result]

    def _eval_RangeExpr(self, expr: RangeExpr, env: DynamicContext) -> list:
        start = atomize(self.evaluate(expr.start, env))
        end = atomize(self.evaluate(expr.end, env))
        if not start or not end:
            return []
        lo = int(to_number(start[0]))
        hi = int(to_number(end[0]))
        return list(range(lo, hi + 1))

    def _eval_NodeSetExpr(self, expr: NodeSetExpr,
                          env: DynamicContext) -> list:
        left = xdm.require_nodes(self.evaluate(expr.left, env), expr.op)
        right = xdm.require_nodes(self.evaluate(expr.right, env), expr.op)
        right_keys = {(id(n.doc), n.pre) for n in right}
        if expr.op == "union":
            return sort_document_order(left + right)
        if expr.op == "intersect":
            return sort_document_order(
                [n for n in left if (id(n.doc), n.pre) in right_keys])
        return sort_document_order(
            [n for n in left if (id(n.doc), n.pre) not in right_keys])

    # -- paths ---------------------------------------------------------------------

    def _eval_PathExpr(self, expr: PathExpr, env: DynamicContext) -> list:
        context = self.evaluate(expr.input, env)
        steps = _collapse_steps(expr.steps)
        start = 0
        groups: Groups | None = None
        # Whole-chain prefix from tree roots: answered by the path
        # summary as one merge of per-path pre lists (the //a//b case).
        if context and all(isinstance(item, Node) and item.pre == 0
                           for item in context):
            chain_len = _chain_prefix_len(steps)
            if chain_len:
                chain = [(s.axis, s.test) for s in steps[:chain_len]]
                groups = []
                for doc, _root in group_by_document(context):
                    pres = structural_index(doc).match_chain(chain)
                    env.counter.nodes_visited += len(pres)
                    if pres:
                        groups.append((doc, pres))
                start = chain_len
        if groups is None:
            first = steps[start]
            xdm.require_nodes(context, f"axis step {first.axis}::{first.test}")
            groups = group_by_document(context)
        for step in steps[start:]:
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
        plans = self._step_predicate_plans(step)
        reverse = step.axis in _REVERSE_ORDER_AXES
        out = []
        for doc, pres in groups:
            index = structural_index(doc)
            if plans is not None:
                filtered = self._filter_compiled(step, plans, doc, index,
                                                 pres, env)
                if filtered is not None:
                    if filtered:
                        out.append((doc, filtered))
                    continue
            # Positional (or otherwise uncompilable) predicates carry
            # per-context semantics, so candidates are produced one
            # context node at a time, in the order the axis numbers
            # them; the kept pres are merged and re-sorted per document.
            kept: set[int] = set()
            single = [0]
            for context_pre in pres:
                single[0] = context_pre
                candidate_pres = index.axis_scan(step.axis, step.test,
                                                 single)
                env.counter.nodes_visited += len(candidate_pres)
                candidates = [Node(doc, pre) for pre in
                              (reversed(candidate_pres) if reverse
                               else candidate_pres)]
                for predicate in step.predicates:
                    candidates = self._filter_predicate(predicate,
                                                        candidates, env)
                kept.update(node.pre for node in candidates)
            if kept:
                out.append((doc, sorted(kept)))
        return out

    def _step_predicate_plans(self, step: Step) -> list | None:
        """Compiled plans for every predicate of ``step`` (cached per
        Step object), or None when any predicate must stay on the naive
        per-context path. All-or-nothing: a later positional predicate
        filters the candidate list an earlier predicate produced *per
        context*, so mixing compiled whole-group filtering with naive
        per-context filtering would change positional semantics."""
        key = id(step)
        cached = self._predicate_plans.get(key, False)
        if cached is not False:
            return cached
        plans: list | None = []
        for predicate in step.predicates:
            plan = compile_predicate(predicate)
            if plan is None:
                plans = None
                break
            plans.append(plan)
        self._predicate_plans[key] = plans
        return plans

    def _filter_compiled(self, step: Step, plans: list, doc: Document,
                         index, pres: list[int],
                         env: DynamicContext) -> list[int] | None:
        """Whole-group candidate scan plus compiled predicate filters.

        Compiled plans are position-free, so filtering the union of all
        context nodes' candidates equals the per-context definition.
        Returns None when a plan bails at runtime (probe value types
        the index can't answer) — the caller reruns this group through
        the naive per-context path.
        """
        candidates = index.axis_scan(step.axis, step.test, pres)
        env.counter.nodes_visited += len(candidates)
        kept: list[int] | None = candidates
        for plan in plans:
            if not kept:
                break
            kept = plan.filter(doc, index, kept, step.axis, step.test,
                               env)
            if kept is None:
                return None
        return kept

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

    def _eval_ConstructorExpr(self, expr: ConstructorExpr,
                              env: DynamicContext) -> list:
        content = ([] if expr.content is None
                   else self.evaluate(expr.content, env))
        name = expr.name
        if name is None and expr.name_expr is not None:
            name_seq = self.evaluate(expr.name_expr, env)
            name = xdm.string_value(name_seq[0]) if name_seq else ""

        if expr.kind == "text":
            text = " ".join(xdm.string_value(i) for i in atomize(content))
            return [_make_leaf_fragment(NodeKind.TEXT, "", text)]
        if expr.kind == "attribute":
            value = " ".join(xdm.string_value(i) for i in atomize(content))
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

    def _eval_FunCall(self, expr: FunCall, env: DynamicContext) -> list:
        args = [self.evaluate(arg, env) for arg in expr.args]
        return self.call_function(expr.name, len(args), args, env)

    def _eval_XRPCExpr(self, expr: XRPCExpr, env: DynamicContext) -> list:
        dest_seq = self.evaluate(expr.dest, env)
        if len(dest_seq) != 1:
            raise XQueryDynamicError("execute at destination must be a "
                                     "single URI")
        dest = xdm.string_value(dest_seq[0])
        params = [(param.name, self.evaluate(param.value, env))
                  for param in expr.params]
        return env.xrpc_execute(dest, params, expr.body)


def evaluate_module(module: Module, env: DynamicContext,
                    static: StaticContext | None = None) -> list:
    """Convenience one-shot: evaluate a parsed module's body."""
    return Evaluator(module, static).run(env)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _collapse_steps(steps: list[Step]) -> list[Step]:
    """Rewrite ``descendant-or-self::node()/child::T`` pairs into
    ``descendant::T`` (the desugared ``//T``). Sound whenever the child
    step carries no predicates — a positional predicate is relative to
    one context node's child list, which the collapse would change."""
    out: list[Step] = []
    index = 0
    while index < len(steps):
        step = steps[index]
        if (step.axis == "descendant-or-self" and step.test == "node()"
                and not step.predicates and index + 1 < len(steps)):
            following = steps[index + 1]
            if following.axis == "child" and not following.predicates:
                out.append(Step("descendant", following.test))
                index += 2
                continue
        out.append(step)
        index += 1
    return out


def _chain_prefix_len(steps: list[Step]) -> int:
    """Length of the leading run of predicate-free element-name
    child/descendant steps — the part the path summary answers whole."""
    length = 0
    for step in steps:
        if step.predicates or step.axis not in ("child", "descendant"):
            break
        if step.test != "*" and step.test.endswith("()"):
            break
        length += 1
    return length


def math_fmod(x: float, y: float) -> float:
    """XQuery mod keeps the sign of the dividend (like math.fmod)."""
    return math.fmod(x, y)


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
    if a is None or b is None:
        return a is None and b is None
    try:
        return xdm.value_compare("=", a, b)
    except Exception:
        return xdm.string_value(a) == xdm.string_value(b)


def _order_less(a, b) -> bool:
    if a is None:
        return True  # empty-least
    if b is None:
        return False
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
        if isinstance(item, Node):
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
