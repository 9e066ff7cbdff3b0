"""The per-node XPath step walker ``src/repro`` held until PR 15, kept
verbatim as the differential oracle for the set-at-a-time axis scans
(``StructuralIndex.axis_scan``), the compiled predicates, the hash join
and the projection-path runtime (``RelPath.evaluate``).

Three pieces, each moved out of the library unchanged:

* the per-node axis generators of ``xmldb/axes.py`` (``child`` and
  ``attribute`` are still library code and imported from there) with
  the full :data:`AXES` table, :func:`matches_node_test` and
  :func:`axis_step` (the last two left the library in PR 18, with the
  message decoder that was their only caller);
* :class:`ReferenceEvaluator` — the scalar interpreter as a subclass:
  one rule per expression in one dynamic context (the rules the library
  ran for a top-level expression before every rule became a rule over
  a frame), every path one ``axis_step`` generator per context node
  plus the document-order sort, every predicate evaluated per
  candidate, every ``for`` / ``order by`` / ``some`` / ``every`` the
  nested loop (one evaluation of the body per binding), every element
  and document constructor one ``DocumentBuilder`` per row;
* :func:`walk_rel_path` — the per-node loop ``RelPath.evaluate`` ran.

Use :func:`reference_engine` to run a whole federation on the oracle:
it substitutes :class:`ReferenceEvaluator` for the name ``Evaluator``
in the three modules that build one, and makes every prepared-query
lookup inside the block build a throwaway entry — evaluators are kept
with prepared queries, so neither side may see the other's.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator
from unittest import mock

from repro.errors import XQueryDynamicError
from repro.xmldb.axes import attribute, child
from repro.xmldb.compare import sort_document_order
from repro.xmldb.document import DocumentBuilder
from repro.xmldb.node import Node, NodeKind
from repro.xquery import xdm
from repro.xquery.ast import (
    ConstructorExpr, ContextItemExpr, EmptySequence, Expr, ForExpr, FunCall,
    IfExpr, LetExpr, Literal, LiteralSlot, LogicalExpr, OrderByExpr,
    PathExpr, QuantifiedExpr, Step, TypeswitchExpr, VarRef, XRPCExpr,
)
from repro.xquery.context import DynamicContext
from repro.xquery.evaluator import (
    _STRICT, Evaluator, _fragment_uri, _OrderKey, order_key,
)
from repro.xquery.prepared import PreparedTable
from repro.xquery.types import matches_sequence_type
from repro.xquery.xdm import effective_boolean_value

AxisFunction = Callable[[Node], Iterator[Node]]


# ---------------------------------------------------------------------------
# xmldb/axes.py: the per-node generators
# ---------------------------------------------------------------------------


def descendant(node: Node) -> Iterator[Node]:
    doc = node.doc
    if node.kind == NodeKind.ATTRIBUTE:
        return
    for pre in range(node.pre + 1, node.pre + node.size + 1):
        if doc.kinds[pre] != NodeKind.ATTRIBUTE:
            yield Node(doc, pre)


def descendant_or_self(node: Node) -> Iterator[Node]:
    yield node
    yield from descendant(node)


def self(node: Node) -> Iterator[Node]:
    yield node


def parent(node: Node) -> Iterator[Node]:
    p = node.parent()
    if p is not None:
        yield p


def ancestor(node: Node) -> Iterator[Node]:
    p = node.parent()
    while p is not None:
        yield p
        p = p.parent()


def ancestor_or_self(node: Node) -> Iterator[Node]:
    yield node
    yield from ancestor(node)


def following_sibling(node: Node) -> Iterator[Node]:
    doc = node.doc
    if node.kind == NodeKind.ATTRIBUTE:
        return
    parent_pre = doc.parents[node.pre]
    if parent_pre < 0:
        return
    end = parent_pre + doc.sizes[parent_pre]
    cursor = node.pre + node.size + 1
    while cursor <= end:
        if doc.kinds[cursor] != NodeKind.ATTRIBUTE:
            yield Node(doc, cursor)
        cursor += doc.sizes[cursor] + 1


def preceding_sibling(node: Node) -> Iterator[Node]:
    """Preceding siblings in reverse document order."""
    doc = node.doc
    if node.kind == NodeKind.ATTRIBUTE:
        return
    parent_pre = doc.parents[node.pre]
    if parent_pre < 0:
        return
    siblings = []
    cursor = parent_pre + 1
    while cursor < node.pre:
        if doc.kinds[cursor] != NodeKind.ATTRIBUTE:
            siblings.append(cursor)
        cursor += doc.sizes[cursor] + 1
    for pre in reversed(siblings):
        yield Node(doc, pre)


def following(node: Node) -> Iterator[Node]:
    """Nodes after the subtree of ``node``, excluding ancestors."""
    doc = node.doc
    start = node.pre + node.size + 1
    if node.kind == NodeKind.ATTRIBUTE:
        # Per XPath, following of an attribute = following of its owner
        # plus the owner's descendants after the attribute; we use the
        # common simplification: everything after the owner's attributes.
        owner = doc.parents[node.pre]
        start = node.pre + 1
        while start < len(doc.kinds) and doc.kinds[start] == NodeKind.ATTRIBUTE \
                and doc.parents[start] == owner:
            start += 1
    for pre in range(start, len(doc.kinds)):
        if doc.kinds[pre] != NodeKind.ATTRIBUTE:
            yield Node(doc, pre)


def preceding(node: Node) -> Iterator[Node]:
    """Nodes wholly before ``node``, excluding ancestors, reverse order."""
    doc = node.doc
    ancestors = {a.pre for a in ancestor(node)}
    result = []
    for pre in range(node.pre):
        if doc.kinds[pre] == NodeKind.ATTRIBUTE:
            continue
        if pre in ancestors:
            continue
        result.append(pre)
    for pre in reversed(result):
        yield Node(doc, pre)


AXES: dict[str, AxisFunction] = {
    "child": child,
    "attribute": attribute,
    "descendant": descendant,
    "descendant-or-self": descendant_or_self,
    "self": self,
    "parent": parent,
    "ancestor": ancestor,
    "ancestor-or-self": ancestor_or_self,
    "following-sibling": following_sibling,
    "preceding-sibling": preceding_sibling,
    "following": following,
    "preceding": preceding,
}


def matches_node_test(node: Node, test: str) -> bool:
    """Apply a node test: ``node()``, ``text()``, a QName, or ``*``.

    ``*`` matches any element on non-attribute axes; the axis layer
    cannot know the axis here, so ``*`` matches elements and
    attributes — callers on the attribute axis only ever see
    attributes, and all other axes never yield attributes, so the
    combined behaviour is correct.
    """
    if test == "node()":
        return True
    kind = node.kind
    if test == "text()":
        return kind == NodeKind.TEXT
    if test == "comment()":
        return kind == NodeKind.COMMENT
    if kind not in (NodeKind.ELEMENT, NodeKind.ATTRIBUTE):
        return False
    if test == "*":
        return True
    return node.name == test


def axis_step(node: Node, axis: str, test: str) -> Iterator[Node]:
    """One axis step from one context node, node-test applied."""
    for candidate in AXES[axis](node):
        if matches_node_test(candidate, test):
            yield candidate


# ---------------------------------------------------------------------------
# xquery/evaluator.py: the use_index=False engine
# ---------------------------------------------------------------------------


class ReferenceEvaluator(Evaluator):
    """The scalar tree-walking interpreter everywhere: one rule per
    expression evaluated in one dynamic context, no index scans, no
    compiled predicates, no loop operators. Only the operators that
    combine evaluated operands (``_apply_*``, ``_leaf``,
    ``call_function``) are the library's."""

    # The scalar rules ``xquery/evaluator.py`` ran for a top-level
    # expression until every rule became a rule over a frame, moved
    # here unchanged.

    def evaluate(self, expr: Expr, env: DynamicContext) -> list:
        env.counter.ticks += 1
        kind = type(expr)
        if kind in _STRICT:
            values = [self.evaluate(operand, env)
                      for operand in _STRICT[kind](expr)]
            return getattr(self, f"_apply_{kind.__name__}")(expr, env, values)
        method = getattr(self, f"_eval_{kind.__name__}", None)
        if method is None:
            raise XQueryDynamicError(
                f"no evaluation rule for {kind.__name__}")
        return method(expr, env)

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

    def _eval_LogicalExpr(self, expr: LogicalExpr,
                          env: DynamicContext) -> list:
        decided = expr.op == "or"  # the left verdict that settles it
        if effective_boolean_value(self.evaluate(expr.left, env)) is decided:
            return [decided]
        return [effective_boolean_value(self.evaluate(expr.right, env))]

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
        return env.xrpc_execute(dest, params, expr.body, env.binding)

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

    # The per-row element and document constructors
    # ``xquery/evaluator.py`` applied (one ``DocumentBuilder`` per row)
    # until a frame built every row's tree in one pass, moved here
    # unchanged but for text nodes in the content: they merge into an
    # adjacent text node and are dropped when empty (XQuery 1.0
    # §3.7.1.3), as ``DocumentBuilder.text`` does. Text and attribute
    # constructors are the library's one-row rule (``_leaf``).

    def _eval_ConstructorExpr(self, expr: ConstructorExpr,
                              env: DynamicContext) -> list:
        operands = iter([self.evaluate(operand, env) for operand
                         in self._plan(expr, self._constructor_plan)[0]])
        content = [] if expr.content is None else next(operands)
        name = expr.name
        if name is None and expr.name_expr is not None:
            name_seq = next(operands)
            name = xdm.string_value(name_seq[0]) if name_seq else ""
        if expr.kind in ("text", "attribute"):
            return self._leaf(expr, name, content)
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

    # The per-node path walker.

    def _eval_PathExpr(self, expr: PathExpr, env: DynamicContext) -> list:
        context = self.evaluate(expr.input, env)
        for step in expr.steps:
            context = self._apply_step(step, context, env)
        return context

    def _apply_step(self, step: Step, context: list,
                    env: DynamicContext) -> list:
        """Naive tree-walking step: one axis walk per context node,
        then the mandatory document-order sort."""
        xdm.require_nodes(context, f"axis step {step.axis}::{step.test}")
        gathered: list[Node] = []
        for node in context:
            candidates = []
            for candidate in axis_step(node, step.axis, step.test):
                env.counter.nodes_visited += 1
                candidates.append(candidate)
            for predicate in step.predicates:
                candidates = self._filter_predicate(predicate, candidates, env)
            gathered.extend(candidates)
        return sort_document_order(gathered)

    # The nested binding loops ``xquery/evaluator.py`` ran until PR 21
    # (it plans one operator per loop now), moved here unchanged but
    # for ``order_key`` — the one place an order-by key is built, so
    # both engines fold NaN alike.

    def _eval_ForExpr(self, expr: ForExpr, env: DynamicContext) -> list:
        seq = self.evaluate(expr.seq, env)
        out: list = []
        for position, item in enumerate(seq, start=1):
            body_env = env.bind(expr.var, [item])
            if expr.pos_var is not None:
                body_env = body_env.bind(expr.pos_var, [position])
            out.extend(self.evaluate(expr.body, body_env))
        return out

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
                keys.append((order_key(self.evaluate(spec.key, item_env)),
                             spec))
            decorated.append((keys, index, item))
        decorated.sort(key=lambda entry: _OrderKey(entry[0], entry[1]))
        out: list = []
        for _keys, _index, item in decorated:
            out.extend(self.evaluate(expr.body, env.bind(expr.var, [item])))
        return out


def _build_content(builder: DocumentBuilder, content: list) -> None:
    """Implement element-content processing: attribute items become
    attributes, nodes are deep-copied, adjacent atomics join into one
    text node separated by spaces."""
    pending_atoms: list[str] = []

    def flush_atoms() -> None:
        if pending_atoms:
            builder.text(" ".join(pending_atoms))
            pending_atoms.clear()

    def copy(node: Node) -> None:
        if node.kind == NodeKind.TEXT:
            builder.text(node.value)  # merges, and drops an empty one
        else:
            builder.copy_subtree(node)

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
                    copy(top)
            else:
                copy(item)
        else:
            pending_atoms.append(xdm.string_value(item))
    flush_atoms()


@contextmanager
def reference_engine():
    """Run federations on the oracle: every evaluator the planner,
    the XRPC request handler and the cluster router build inside the
    block is a :class:`ReferenceEvaluator`, and nothing prepared
    inside it is interned (or taken from what was interned before)."""
    with mock.patch("repro.planner.planner.Evaluator", ReferenceEvaluator), \
            mock.patch("repro.xrpc.peer.Evaluator", ReferenceEvaluator), \
            mock.patch("repro.cluster.router.Evaluator", ReferenceEvaluator), \
            mock.patch.object(PreparedTable, "intern",
                              lambda self, key, build: build()):
        yield


# ---------------------------------------------------------------------------
# paths/relpath.py: the per-node projection-path walk
# ---------------------------------------------------------------------------


def walk_rel_path(steps, context: list[Node]) -> list[Node]:
    """Apply the steps of a :class:`~repro.paths.relpath.RelPath` to a
    context sequence, one axis walk per node per step."""
    current = [n for n in context if isinstance(n, Node)]
    for step in steps:
        gathered: list[Node] = []
        if step.axis == "root()":
            gathered = [node.root() for node in current]
        elif step.axis == "id()":
            for node in current:
                gathered.extend(_all_id_elements(node))
        elif step.axis == "idref()":
            for node in current:
                gathered.extend(_all_idref_elements(node))
        else:
            for node in current:
                gathered.extend(axis_step(node, step.axis, step.test))
        current = sort_document_order(gathered)
    return current


def _all_id_elements(node: Node) -> list[Node]:
    doc = node.doc
    if doc._id_index is None:  # noqa: SLF001 - intentional internal use
        doc._build_id_indexes()
    assert doc._id_index is not None
    return [Node(doc, pre) for pre in doc._id_index.values()]


def _all_idref_elements(node: Node) -> list[Node]:
    doc = node.doc
    if doc._idref_index is None:  # noqa: SLF001
        doc._build_id_indexes()
    assert doc._idref_index is not None
    out: list[Node] = []
    for pres in doc._idref_index.values():
        out.extend(Node(doc, pre) for pre in pres)
    return out
