"""Projection path analysis (Section VI-A) over decomposed queries.

The paper annotates every d-graph vertex with absolute used/returned
paths (rules DOC1/DOC2/ROOT/ID plus the FLWOR/step rules of [18]) and
then extracts *relative* paths with ``allSuffixes``. We compute the
relative paths directly by abstract interpretation over the AST: an
abstract value is a set of ``(source, RelPath)`` pairs, where a source
is either an XRPC parameter (request projection) or an XRPC result
(response projection). Uses in value-level positions mark paths *used*;
values that escape into results, constructors, or onward messages mark
them *returned*. Anything the analysis cannot model precisely falls
back to marking *returned* — the safe direction, since returned nodes
keep their descendants (over-shipping is a performance bug, dropping a
needed node would be a correctness bug).

The per-expression precision matches the paper's rules:

* steps extend the path (including reverse/horizontal axes — the
  Section VI extension over [18]);
* ``fn:root`` appends the ``root()`` pseudo-step (rule ROOT);
* ``fn:id``/``fn:idref`` append ``id()``/``idref()`` and mark their
  string arguments used (rule ID ignores the first parameter "as it
  contains string values");
* ``fn:doc`` starts a fresh source (rules DOC1/DOC2).
"""

from __future__ import annotations

from repro.paths.relpath import RelPath, RelStep
from repro.xquery.ast import (
    ArithmeticExpr, ComparisonExpr, ConstructorExpr, ContextItemExpr,
    LITERALS, EmptySequence, Expr, ForExpr, FunCall, IfExpr, LetExpr,
    LogicalExpr, Module, NodeSetExpr, OrderByExpr, PathExpr, QuantifiedExpr,
    RangeExpr, SequenceExpr, TypeswitchExpr, UnaryExpr, VarRef, XRPCExpr,
    walk,
)

Source = tuple[str, object]  # ("param", name) | ("xrpc", id(expr))
Abstract = frozenset[tuple[Source, RelPath]]

_EMPTY: Abstract = frozenset()


class PathSets:
    """Used and returned relative paths for one source."""

    __slots__ = ("used", "returned")

    def __init__(self, used: set[RelPath] | None = None,
                 returned: set[RelPath] | None = None) -> None:
        self.used = set() if used is None else used
        self.returned = set() if returned is None else returned


class ProjectionSpec:
    """Projection info for one XRPCExpr: per-parameter request paths
    (``Urel/Rrel(vparam)``) and result response paths
    (``Urel/Rrel(vxrpc)``)."""

    __slots__ = ("param_paths", "result_paths")

    def __init__(self, param_paths: dict[str, PathSets] | None = None,
                 result_paths: PathSets | None = None) -> None:
        self.param_paths = {} if param_paths is None else param_paths
        self.result_paths = PathSets() if result_paths is None else result_paths


#: Builtins that pass their argument nodes through unchanged (public:
#: the planner's estimator shares this classification).
TRANSPARENT_BUILTINS = frozenset({
    "reverse", "subsequence", "insert-before", "remove", "exactly-one",
    "zero-or-one", "one-or-more", "unordered",
})

#: Builtins that only atomize / inspect their arguments (public: the
#: planner's estimator shares this classification).
VALUE_BUILTINS = frozenset({
    "data", "string", "number", "not", "boolean", "empty", "exists",
    "count", "sum", "avg", "max", "min", "concat", "string-join",
    "contains", "starts-with", "ends-with", "substring",
    "substring-before", "substring-after", "normalize-space",
    "upper-case", "lower-case", "string-length", "translate",
    "distinct-values", "index-of", "deep-equal", "local-name", "name",
    "base-uri", "xrpc:base-uri", "document-uri", "xrpc:document-uri",
})


class _Analyzer:
    def __init__(self, module: Module, marks: dict[Source, PathSets],
                 xrpc_sources: bool):
        self.module = module
        self.marks = marks
        self.xrpc_sources = xrpc_sources
        self._inlining: list[tuple[str, int]] = []

    # -- marking -----------------------------------------------------------

    def _sets_for(self, source: Source) -> PathSets:
        sets = self.marks.get(source)
        if sets is None:
            sets = PathSets()
            self.marks[source] = sets
        return sets

    def mark_used(self, abstract: Abstract) -> None:
        """Value-level use: keep the nodes *and* their text content.

        Algorithm 1 keeps a used node without its descendants, but a
        value comparison atomizes the node — which concatenates its
        descendant text. Marking ``descendant::text()`` as used as well
        keeps exactly the characters atomization needs (attribute nodes
        carry their value inherently and need no extra path).
        """
        for source, path in abstract:
            sets = self._sets_for(source)
            sets.used.add(path)
            sets.used.add(path.extend(RelStep("descendant", "text()")))

    def mark_returned(self, abstract: Abstract) -> None:
        for source, path in abstract:
            self._sets_for(source).returned.add(path)

    # -- interpretation ------------------------------------------------------

    def analyze(self, expr: Expr, env: dict[str, Abstract]) -> Abstract:
        if isinstance(expr, (*LITERALS, EmptySequence)):
            return _EMPTY
        if isinstance(expr, VarRef):
            return env.get(expr.name, _EMPTY)
        if isinstance(expr, ContextItemExpr):
            return env.get(".", _EMPTY)
        if isinstance(expr, SequenceExpr):
            out: set = set()
            for item in expr.items:
                out |= self.analyze(item, env)
            return frozenset(out)
        if isinstance(expr, LetExpr):
            value = self.analyze(expr.value, env)
            return self.analyze(expr.body, {**env, expr.var: value})
        if isinstance(expr, ForExpr):
            seq = self.analyze(expr.seq, env)
            body_env = {**env, expr.var: seq}
            if expr.pos_var is not None:
                body_env[expr.pos_var] = _EMPTY
            return self.analyze(expr.body, body_env)
        if isinstance(expr, IfExpr):
            self.mark_used(self.analyze(expr.cond, env))
            return (self.analyze(expr.then_branch, env)
                    | self.analyze(expr.else_branch, env))
        if isinstance(expr, QuantifiedExpr):
            seq = self.analyze(expr.seq, env)
            self.mark_used(self.analyze(expr.cond, {**env, expr.var: seq}))
            return _EMPTY
        if isinstance(expr, OrderByExpr):
            seq = self.analyze(expr.seq, env)
            inner = {**env, expr.var: seq}
            for spec in expr.specs:
                self.mark_used(self.analyze(spec.key, inner))
            return self.analyze(expr.body, inner)
        if isinstance(expr, TypeswitchExpr):
            operand = self.analyze(expr.operand, env)
            self.mark_used(operand)
            out: set = set()
            for case in expr.cases:
                case_env = {**env, case.var: operand} if case.var else env
                out |= self.analyze(case.body, case_env)
            default_env = ({**env, expr.default_var: operand}
                           if expr.default_var else env)
            out |= self.analyze(expr.default_body, default_env)
            return frozenset(out)
        if isinstance(expr, (ComparisonExpr, ArithmeticExpr, LogicalExpr)):
            self.mark_used(self.analyze(expr.left, env))
            self.mark_used(self.analyze(expr.right, env))
            return _EMPTY
        if isinstance(expr, UnaryExpr):
            self.mark_used(self.analyze(expr.operand, env))
            return _EMPTY
        if isinstance(expr, RangeExpr):
            self.mark_used(self.analyze(expr.start, env))
            self.mark_used(self.analyze(expr.end, env))
            return _EMPTY
        if isinstance(expr, NodeSetExpr):
            return (self.analyze(expr.left, env)
                    | self.analyze(expr.right, env))
        if isinstance(expr, PathExpr):
            return self._analyze_path(expr, env)
        if isinstance(expr, ConstructorExpr):
            if expr.name_expr is not None:
                self.mark_used(self.analyze(expr.name_expr, env))
            for part in expr.content:
                # Content is copied into the constructed tree: the
                # copies include descendants, so the inputs are
                # "returned" in the projection sense.
                self.mark_returned(self.analyze(part, env))
            return _EMPTY
        if isinstance(expr, FunCall):
            return self._analyze_funcall(expr, env)
        if isinstance(expr, XRPCExpr):
            self.mark_used(self.analyze(expr.dest, env))
            for param in expr.params:
                # Shipped onward: full subtrees needed.
                self.mark_returned(self.analyze(param.value, env))
            if self.xrpc_sources:
                return frozenset({(("xrpc", id(expr)), RelPath())})
            return _EMPTY
        # Unknown expression kind: be safe.
        for child in expr.child_exprs():  # pragma: no cover
            self.mark_returned(self.analyze(child, env))
        return _EMPTY  # pragma: no cover

    def _analyze_path(self, expr: PathExpr, env: dict[str, Abstract]) -> Abstract:
        current = self.analyze(expr.input, env)
        for step in expr.steps:
            current = frozenset(
                (source, path.extend(RelStep(step.axis, step.test)))
                for source, path in current)
            for predicate in step.predicates:
                pred_env = {**env, ".": current}
                self.mark_used(self.analyze(predicate, pred_env))
                # The context nodes themselves are inspected by the
                # predicate (existence / position): mark used.
                self.mark_used(current)
        return current

    def _analyze_funcall(self, expr: FunCall, env: dict[str, Abstract]) -> Abstract:
        name, arity = expr.name, len(expr.args)
        decl = self.module.function(name, arity)
        if decl is not None and (name, arity) not in self._inlining:
            args = [self.analyze(arg, env) for arg in expr.args]
            body_env = {param.name: abstract
                        for param, abstract in zip(decl.params, args)}
            self._inlining.append((name, arity))
            try:
                return self.analyze(decl.body, body_env)
            finally:
                self._inlining.pop()

        if name == "doc" or name == "collection":
            for arg in expr.args:
                self.mark_used(self.analyze(arg, env))
            return _EMPTY
        if name == "root" and arity == 1:
            inner = self.analyze(expr.args[0], env)
            return frozenset((source, path.extend(RelStep("root()")))
                             for source, path in inner)
        if name in ("id", "idref") and arity == 2:
            self.mark_used(self.analyze(expr.args[0], env))
            inner = self.analyze(expr.args[1], env)
            return frozenset(
                (source, path.extend(RelStep(f"{name}()")))
                for source, path in inner)
        if name in TRANSPARENT_BUILTINS:
            out: set = set()
            for arg in expr.args:
                out |= self.analyze(arg, env)
            return frozenset(out)
        if name in VALUE_BUILTINS:
            for arg in expr.args:
                self.mark_used(self.analyze(arg, env))
            return _EMPTY
        # Unknown function (including recursion): conservative.
        for arg in expr.args:
            self.mark_returned(self.analyze(arg, env))
        return _EMPTY


def analyze_module(module: Module) -> dict[int, ProjectionSpec]:
    """Compute a :class:`ProjectionSpec` for every XRPCExpr in a
    decomposed module, keyed by ``id(xrpc_expr)``."""
    specs: dict[int, ProjectionSpec] = {}
    xrpcs = [node for node in _all_exprs(module)
             if isinstance(node, XRPCExpr)]
    if not xrpcs:
        return specs

    # Outer pass: result paths (how callers consume each XRPC result).
    outer_marks: dict[Source, PathSets] = {}
    outer = _Analyzer(module, outer_marks, xrpc_sources=True)
    result_abstract = outer.analyze(module.body, {})
    outer.mark_returned(result_abstract)  # the query result escapes

    for xrpc in xrpcs:
        spec = ProjectionSpec()
        spec.result_paths = outer_marks.get(("xrpc", id(xrpc)), PathSets())

        # Inner pass: how the body consumes each parameter.
        inner_marks: dict[Source, PathSets] = {}
        inner = _Analyzer(module, inner_marks, xrpc_sources=False)
        body_env = {
            param.name: frozenset({(("param", param.name), RelPath())})
            for param in xrpc.params
        }
        body_abstract = inner.analyze(xrpc.body, body_env)
        inner.mark_returned(body_abstract)  # the function result escapes
        for param in xrpc.params:
            spec.param_paths[param.name] = inner_marks.get(
                ("param", param.name), PathSets())
        specs[id(xrpc)] = spec
    return specs


def _all_exprs(module: Module):
    for decl in module.functions:
        yield from walk(decl.body)
    yield from walk(module.body)

