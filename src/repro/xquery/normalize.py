"""XCore normalisation, centred on the let-sinking rewrite.

Section IV: *"as part of XCORE normalization, we re-order let-bindings,
moving them as deep into the query as possible. More specifically,
let-bindings are moved to just above the lowest common ancestor vertex
(defined in terms of parse-edges) of all vertices that reference its
variable."*

Sinking matters because the decomposer ships subgraphs connected by
parse edges only — variable references crossing into a shipped subgraph
become function parameters. Moving ``let $c := doc(...)`` down to its
single use converts a varref edge into a parse edge, letting the
``doc()`` call travel *with* the XPath steps applied to it (the Qc2 to
Qn2 rewrite of Table III).

Safety rules applied here (conservative refinements of the paper's
prose, which assumes a purely functional core):

* a let whose value constructs nodes is never pushed into a loop body,
  quantifier condition, order-by key or predicate — re-evaluating a
  constructor would mint fresh node identities per iteration;
* a let is never pushed below a binder that would capture a free
  variable of its value expression;
* XRPC bodies are opaque — lets never cross into them (decomposition
  decides what is shipped, not normalisation).
"""

from __future__ import annotations

from repro.xquery.ast import (
    Expr, ForExpr, FunctionDecl, LetExpr, Module, OrderByExpr, PathExpr,
    QuantifiedExpr,
)
from repro.xquery.scopes import ISOLATED, count_references, free_variables, \
    scoped_children


def normalize(module: Module) -> Module:
    """Normalise a module: sink let-bindings in every function body and
    in the query body."""
    functions = [
        FunctionDecl(decl.name, decl.params, decl.return_type,
                     sink_lets(decl.body))
        for decl in module.functions
    ]
    return Module(functions, sink_lets(module.body))


def sink_lets(expr: Expr) -> Expr:
    """Recursively move each let-binding as deep as possible."""
    expr = expr.replace_children(sink_lets)
    if isinstance(expr, LetExpr):
        return _sink_one(expr)
    return expr


def _sink_one(let: LetExpr) -> Expr:
    """Push one let-binding downwards step by step until blocked."""
    var, value, body = let.var, let.value, let.body

    while True:
        refs = count_references(body, var)
        if refs == 0:
            # Dead binding: XQuery is side-effect free, drop it.
            return body

        target_index = _sole_referencing_child(body, var)
        if target_index is None:
            return LetExpr(var, value, body)

        children = list(scoped_children(body))
        child, bound = children[target_index]
        if bound is ISOLATED:
            return LetExpr(var, value, body)
        if set(bound) & free_variables(value):  # type: ignore[arg-type]
            return LetExpr(var, value, body)  # would capture
        if var in bound:  # references inside are shadowed; unreachable
            return LetExpr(var, value, body)  # pragma: no cover
        if _is_iterated_child(body, target_index):
            # Never sink into a per-iteration position: it would
            # re-evaluate the binding each iteration (and mint fresh
            # node identities if the value constructs nodes). The
            # paper's Qn2 likewise keeps "let $t" above the for-loop.
            return LetExpr(var, value, body)
        if isinstance(body, PathExpr):
            # Stay just above the path, as Table III's Qn2 does: the
            # doc() call is already parse-connected to its steps.
            return LetExpr(var, value, body)

        new_child = _sink_one(LetExpr(var, value, child))
        body = _replace_child_at(body, target_index, new_child)
        return body


def _sole_referencing_child(body: Expr, var: str) -> int | None:
    """Index (in ``scoped_children`` order) of the single child holding
    all references to ``var``, or None when references are spread."""
    holder: int | None = None
    for index, (child, bound) in enumerate(scoped_children(body)):
        if bound is ISOLATED:
            continue
        if bound is not ISOLATED and var in bound:  # type: ignore[operator]
            continue
        if count_references(child, var) > 0:
            if holder is not None:
                return None
            holder = index
    return holder


def _is_iterated_child(body: Expr, child_index: int) -> bool:
    """True when the child at ``child_index`` is evaluated once per
    iteration (loop bodies, quantifier conditions, order-by keys,
    path predicates)."""
    if isinstance(body, ForExpr):
        return child_index == 1
    if isinstance(body, QuantifiedExpr):
        return child_index == 1
    if isinstance(body, OrderByExpr):
        return child_index >= 1
    if isinstance(body, PathExpr):
        return child_index >= 1  # index 0 is the input, rest predicates
    return False


def _replace_child_at(body: Expr, target_index: int, new_child: Expr) -> Expr:
    """Rebuild ``body`` with the child at scoped-children position
    ``target_index`` replaced."""
    counter = {"i": -1}

    def mapper(child: Expr) -> Expr:
        counter["i"] += 1
        if counter["i"] == target_index:
            return new_child
        return child

    # replace_children iterates fields in the same order as
    # scoped_children's default path, but the binder-aware node types
    # enumerate children in a custom order; verify the orders agree.
    rebuilt = body.replace_children(mapper)
    assert counter["i"] >= target_index, "child index out of range"
    return rebuilt
