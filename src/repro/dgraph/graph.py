"""Building the d-graph from an AST.

Vertex layout follows Figure 2 of the paper:

* binder expressions (``let``, ``for``, quantified, order-by) get a
  ``Var[$x]`` child vertex that *owns* the binding's value/sequence
  subtree; the in-scope body hangs directly under the binder vertex;
* path expressions become a chain of ``AxisStep`` vertices — the
  topmost vertex is the last step, its parse child the previous step,
  and the innermost child the path input (Figure 2's
  ``v4:/person -> v5:/people -> v6:FunCall[doc]``). Every chain vertex
  records how many steps of the original :class:`PathExpr` it covers,
  so a decomposition point in the middle of a path can be realised by
  splitting the path;
* calls to *user-declared* functions are inlined (the paper's grammar
  has no user function declarations — a query is a single ``Expr``):
  the call vertex gets one ``Var[$param]`` child per argument and the
  function body is built underneath with parameters in scope.
  Recursive functions cannot be inlined; their call vertices become
  opaque ``FunCall`` leaves with a wildcard URI dependency, which makes
  every analysis treat them conservatively.
"""

from __future__ import annotations

from repro.xquery.ast import (
    ArithmeticExpr, ComparisonExpr, ConstructorExpr, ContextItemExpr,
    EmptySequence, Expr, ForExpr, FunCall, IfExpr, LetExpr, Literal,
    LiteralSlot, LogicalExpr, Module, NodeSetExpr, OrderByExpr, PathExpr,
    QuantifiedExpr, RangeExpr, SequenceExpr, TypeswitchExpr, UnaryExpr,
    VarRef, XRPCExpr,
)
from repro.xmldb.axes import HORIZONTAL_AXES, REVERSE_AXES


class Vertex:
    """One d-graph vertex ``vi:rule[val]``."""

    __slots__ = ("vid", "rule", "val", "ast", "step_count", "parent",
                 "children", "varref")

    def __init__(self, vid: int, rule: str, val: str | None = None,
                 ast: Expr | None = None, step_count: int | None = None,
                 parent: int | None = None, children: list[int] | None = None,
                 varref: int | None = None) -> None:
        self.vid, self.rule = vid, rule
        self.val, self.ast = val, ast
        #: For AxisStep chain vertices: number of leading steps of the
        #: owning PathExpr that this vertex covers (prefix length).
        self.step_count, self.parent = step_count, parent
        self.children = [] if children is None else children
        #: varref edge target (Var vertex), for VarRef vertices.
        self.varref = varref


class DGraph:
    """The dependency graph with reachability utilities."""

    def __init__(self) -> None:
        self.vertices: list[Vertex] = []
        self._parse_descendants: dict[int, frozenset[int]] = {}
        self._depends_cache: dict[int, frozenset[int]] = {}

    # -- construction ---------------------------------------------------------

    def add(self, rule: str, val: str | None = None, ast: Expr | None = None,
            parent: int | None = None, step_count: int | None = None) -> Vertex:
        vertex = Vertex(len(self.vertices), rule, val, ast, step_count, parent)
        self.vertices.append(vertex)
        if parent is not None:
            self.vertices[parent].children.append(vertex.vid)
        return vertex

    def __getitem__(self, vid: int) -> Vertex:
        return self.vertices[vid]

    # -- reachability -----------------------------------------------------------

    def parse_descendants(self, vid: int) -> frozenset[int]:
        """The subgraph of ``vid``: vertices reachable via parse edges
        (including ``vid`` itself)."""
        cached = self._parse_descendants.get(vid)
        if cached is not None:
            return cached
        out = {vid}
        for child in self.vertices[vid].children:
            out |= self.parse_descendants(child)
        result = frozenset(out)
        self._parse_descendants[vid] = result
        return result

    def depends_set(self, vid: int) -> frozenset[int]:
        """All vertices reachable from ``vid`` via parse and varref
        edges (the paper's full "depends on" relation)."""
        cached = self._depends_cache.get(vid)
        if cached is not None:
            return cached
        out: set[int] = set()
        stack = [vid]
        while stack:
            current = stack.pop()
            if current in out:
                continue
            out.add(current)
            vertex = self.vertices[current]
            stack.extend(vertex.children)
            if vertex.varref is not None:
                stack.append(vertex.varref)
        result = frozenset(out)
        self._depends_cache[vid] = result
        return result

    def depends(self, x: int, y: int) -> bool:
        """x depends-on y (parse or varref reachability)."""
        return y in self.depends_set(x)

    def forget_reachability(self) -> None:
        """Drop the memoised reachability sets: quadratic in the query,
        read only while it is analysed, refilled on demand."""
        self._parse_descendants.clear()
        self._depends_cache.clear()

    # -- inspection -----------------------------------------------------------

    def by_rule(self, *rules: str) -> list[Vertex]:
        return [v for v in self.vertices if v.rule in rules]


#: AxisStep sub-classification used by the insertion conditions.
def axis_category(axis: str) -> str:
    if axis in REVERSE_AXES:
        return "RevAxis"
    if axis in HORIZONTAL_AXES:
        return "HorAxis"
    return "FwdAxis"


class _Builder:
    def __init__(self, module: Module):
        self.module = module
        self.graph = DGraph()
        self._inlining: list[tuple[str, int]] = []  # (name, arity) stack

    def build(self) -> DGraph:
        self._build(self.module.body, parent=None, env={})
        return self.graph

    # -- helpers ------------------------------------------------------------

    def _var_vertex(self, name: str, parent: int) -> Vertex:
        return self.graph.add("Var", f"${name}", parent=parent)

    def _build(self, expr: Expr, parent: int | None,
               env: dict[str, int]) -> Vertex:
        graph = self.graph

        if isinstance(expr, Literal):
            return graph.add("Literal", repr(expr.value), expr, parent)
        if isinstance(expr, LiteralSlot):
            # A leaf like a literal: no text of the shape names a
            # document through it, so no analysis reads what it holds.
            return graph.add("LiteralSlot", f"?{expr.index}", expr, parent)
        if isinstance(expr, EmptySequence):
            return graph.add("ExprSeq", "()", expr, parent)
        if isinstance(expr, ContextItemExpr):
            return graph.add("ContextItem", None, expr, parent)
        if isinstance(expr, VarRef):
            vertex = graph.add("VarRef", f"${expr.name}", expr, parent)
            vertex.varref = env.get(expr.name)
            return vertex

        if isinstance(expr, SequenceExpr):
            vertex = graph.add("ExprSeq", None, expr, parent)
            for item in expr.items:
                self._build(item, vertex.vid, env)
            return vertex

        if isinstance(expr, LetExpr):
            vertex = graph.add("LetExpr", None, expr, parent)
            var_vertex = self._var_vertex(expr.var, vertex.vid)
            self._build(expr.value, var_vertex.vid, env)
            body_env = dict(env)
            body_env[expr.var] = var_vertex.vid
            self._build(expr.body, vertex.vid, body_env)
            return vertex

        if isinstance(expr, ForExpr):
            vertex = graph.add("ForExpr", None, expr, parent)
            var_vertex = self._var_vertex(expr.var, vertex.vid)
            self._build(expr.seq, var_vertex.vid, env)
            body_env = dict(env)
            body_env[expr.var] = var_vertex.vid
            if expr.pos_var is not None:
                pos_vertex = self._var_vertex(expr.pos_var, vertex.vid)
                body_env[expr.pos_var] = pos_vertex.vid
            self._build(expr.body, vertex.vid, body_env)
            return vertex

        if isinstance(expr, QuantifiedExpr):
            vertex = graph.add("QuantExpr", expr.quantifier, expr, parent)
            var_vertex = self._var_vertex(expr.var, vertex.vid)
            self._build(expr.seq, var_vertex.vid, env)
            cond_env = dict(env)
            cond_env[expr.var] = var_vertex.vid
            self._build(expr.cond, vertex.vid, cond_env)
            return vertex

        if isinstance(expr, OrderByExpr):
            vertex = graph.add("OrderExpr", None, expr, parent)
            var_vertex = self._var_vertex(expr.var, vertex.vid)
            self._build(expr.seq, var_vertex.vid, env)
            inner_env = dict(env)
            inner_env[expr.var] = var_vertex.vid
            for spec in expr.specs:
                self._build(spec.key, vertex.vid, inner_env)
            self._build(expr.body, vertex.vid, inner_env)
            return vertex

        if isinstance(expr, IfExpr):
            vertex = graph.add("IfExpr", None, expr, parent)
            self._build(expr.cond, vertex.vid, env)
            then_else = graph.add("ThenElse", None, None, vertex.vid)
            self._build(expr.then_branch, then_else.vid, env)
            self._build(expr.else_branch, then_else.vid, env)
            return vertex

        if isinstance(expr, TypeswitchExpr):
            vertex = graph.add("Typeswitch", None, expr, parent)
            self._build(expr.operand, vertex.vid, env)
            for case in expr.cases:
                case_vertex = graph.add("CaseClause", case.seq_type, None,
                                        vertex.vid)
                case_env = env
                if case.var is not None:
                    var_vertex = self._var_vertex(case.var, case_vertex.vid)
                    case_env = dict(env)
                    case_env[case.var] = var_vertex.vid
                self._build(case.body, case_vertex.vid, case_env)
            default_env = env
            default_vertex = graph.add("DefaultClause", None, None, vertex.vid)
            if expr.default_var is not None:
                var_vertex = self._var_vertex(expr.default_var,
                                              default_vertex.vid)
                default_env = dict(env)
                default_env[expr.default_var] = var_vertex.vid
            self._build(expr.default_body, default_vertex.vid, default_env)
            return vertex

        if isinstance(expr, ComparisonExpr):
            rule = "NodeCmp" if expr.is_node_comparison else "CompExpr"
            vertex = graph.add(rule, expr.op, expr, parent)
            self._build(expr.left, vertex.vid, env)
            self._build(expr.right, vertex.vid, env)
            return vertex

        if isinstance(expr, (ArithmeticExpr, LogicalExpr)):
            rule = ("ArithExpr" if isinstance(expr, ArithmeticExpr)
                    else "LogicExpr")
            vertex = graph.add(rule, expr.op, expr, parent)
            self._build(expr.left, vertex.vid, env)
            self._build(expr.right, vertex.vid, env)
            return vertex

        if isinstance(expr, UnaryExpr):
            vertex = graph.add("UnaryExpr", expr.op, expr, parent)
            self._build(expr.operand, vertex.vid, env)
            return vertex

        if isinstance(expr, RangeExpr):
            vertex = graph.add("RangeExpr", None, expr, parent)
            self._build(expr.start, vertex.vid, env)
            self._build(expr.end, vertex.vid, env)
            return vertex

        if isinstance(expr, NodeSetExpr):
            vertex = graph.add("NodeSetExpr", expr.op, expr, parent)
            self._build(expr.left, vertex.vid, env)
            self._build(expr.right, vertex.vid, env)
            return vertex

        if isinstance(expr, PathExpr):
            return self._build_path(expr, parent, env)

        if isinstance(expr, ConstructorExpr):
            vertex = graph.add("Constructor", expr.kind, expr, parent)
            if expr.name_expr is not None:
                self._build(expr.name_expr, vertex.vid, env)
            for part in expr.content:
                self._build(part, vertex.vid, env)
            return vertex

        if isinstance(expr, FunCall):
            return self._build_funcall(expr, parent, env)

        if isinstance(expr, XRPCExpr):
            vertex = graph.add("XRPCExpr", None, expr, parent)
            self._build(expr.dest, vertex.vid, env)
            body_env: dict[str, int] = {}
            for param in expr.params:
                param_vertex = graph.add("XRPCParam", f"${param.name}", None,
                                         vertex.vid)
                self._build(param.value, param_vertex.vid, env)
                body_env[param.name] = param_vertex.vid
            self._build(expr.body, vertex.vid, body_env)
            return vertex

        raise TypeError(f"cannot graph {type(expr).__name__}")

    def _build_path(self, expr: PathExpr, parent: int | None,
                    env: dict[str, int]) -> Vertex:
        """Build the AxisStep chain, innermost (input) first."""
        graph = self.graph
        # Build bottom-up: create the top (last step) vertex first so
        # parent linkage is natural, then descend.
        top: Vertex | None = None
        current_parent = parent
        for index in range(len(expr.steps) - 1, -1, -1):
            step = expr.steps[index]
            vertex = graph.add("AxisStep", f"{step.axis}::{step.test}",
                               expr, current_parent,
                               step_count=index + 1)
            if top is None:
                top = vertex
            for predicate in step.predicates:
                self._build(predicate, vertex.vid, env)
            current_parent = vertex.vid
        self._build(expr.input, current_parent, env)
        assert top is not None  # PathExpr always has >= 1 step
        return top

    def _build_funcall(self, expr: FunCall, parent: int | None,
                       env: dict[str, int]) -> Vertex:
        graph = self.graph
        decl = self.module.function(expr.name, len(expr.args))
        key = (expr.name, len(expr.args))
        if decl is not None and key not in self._inlining:
            vertex = graph.add("FunCall", expr.name, expr, parent)
            body_env: dict[str, int] = {}
            for param, arg in zip(decl.params, expr.args):
                var_vertex = self._var_vertex(param.name, vertex.vid)
                self._build(arg, var_vertex.vid, env)
                body_env[param.name] = var_vertex.vid
            self._inlining.append(key)
            try:
                self._build(decl.body, vertex.vid, body_env)
            finally:
                self._inlining.pop()
            return vertex
        # Built-in (or recursive) call: args only.
        vertex = graph.add("FunCall", expr.name, expr, parent)
        for arg in expr.args:
            self._build(arg, vertex.vid, env)
        return vertex


def build_dgraph(module: Module) -> DGraph:
    """Build the d-graph of a module's body (functions inlined)."""
    return _Builder(module).build()
