"""Distributed code motion (Section IV, Example 4.3).

"Expressions that solely depend on a parameter of a function can better
be evaluated on the caller side": when every use of an XRPC parameter
``$p`` inside the shipped body is a downward path ``$p/steps`` consumed
in an atomizing context (a value comparison, arithmetic, or an
atomizing built-in), we evaluate those paths at the caller and pass
their (much smaller) results as new parameters instead — the
``fcn2new`` rewrite of Table IV, which ships ``$t/child::id`` strings
instead of full person subtrees.

The "only d-points are moved" safety requirement of the paper
translates here into the atomizing-consumer restriction: the moved
result is a by-value copy, so nothing downstream may test its identity,
structure, or apply further steps — impossible by construction, since
we extract *maximal* paths and require value-level consumers.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.xquery.ast import (
    ArithmeticExpr, ComparisonExpr, Expr, FunCall, FunctionDecl, Module,
    PathExpr, Step, VarRef, XRPCExpr, XRPCParam,
)
from repro.xquery.functions import builtins_in

#: Axes that may appear in a moved path (downward, no identity hazards).
_DOWNWARD_AXES = frozenset({
    "child", "attribute", "descendant", "descendant-or-self", "self",
})

#: Built-ins for which ``f(data(path))`` equals ``f(path)`` (the
#: registry's ``data-safe`` class): the moved parameter is shipped
#: *atomized*, as the paper's fcn2new takes ``xs:string*``.
_TAKES_ATOMS = builtins_in("data-safe")


class _Candidate(NamedTuple):
    """One parameter use: the path applied to it and its consumer."""

    path: PathExpr
    extractable: bool


def apply_code_motion(module: Module) -> Module:
    """Rewrite every XRPCExpr in the module with code motion applied."""

    def rewrite(expr: Expr) -> Expr:
        expr = expr.replace_children(rewrite)
        if isinstance(expr, XRPCExpr):
            return _motion_one(expr)
        return expr

    functions = [
        FunctionDecl(decl.name, decl.params, decl.return_type,
                     rewrite(decl.body))
        for decl in module.functions
    ]
    return Module(functions, rewrite(module.body))


def _motion_one(xrpc: XRPCExpr) -> XRPCExpr:
    params: list[XRPCParam] = []
    body = xrpc.body
    for param in xrpc.params:
        moved = _try_move(param, body)
        if moved is None:
            params.append(param)
        else:
            new_params, body = moved
            params.extend(new_params)
    return XRPCExpr(xrpc.dest, params, body)


def _try_move(param: XRPCParam,
              body: Expr) -> tuple[list[XRPCParam], Expr] | None:
    """Attempt to replace ``param`` by path-result parameters.

    Returns (new parameters, rewritten body) or None when any use is
    not extractable.
    """
    uses = _collect_uses(body, param.name)
    if uses is None or not uses:
        return None
    if not all(u.extractable for u in uses):
        return None

    # One new parameter per distinct path shape, shipped atomized
    # (the fcn2new rewrite of Table IV declares xs:string*): atomic
    # values marshal as tiny typed items with no fragment anchoring.
    path_keys: dict[tuple, str] = {}
    new_params: list[XRPCParam] = []
    for use in uses:
        key = _path_key(use.path)
        if key not in path_keys:
            name = f"{param.name}_cm{len(path_keys) + 1}"
            path_keys[key] = name
            caller_path = PathExpr(param.value,
                                   [Step(s.axis, s.test, [])
                                    for s in use.path.steps])
            new_params.append(XRPCParam(name,
                                        FunCall("data", [caller_path])))

    replacements = {id(use.path): VarRef(path_keys[_path_key(use.path)])
                    for use in uses}

    def rewrite(expr: Expr) -> Expr:
        replacement = replacements.get(id(expr))
        if replacement is not None:
            return replacement
        return expr.replace_children(rewrite)

    return new_params, rewrite(body)


def _path_key(path: PathExpr) -> tuple:
    return tuple((s.axis, s.test) for s in path.steps)


def _collect_uses(body: Expr, name: str) -> list[_Candidate] | None:
    """Find every use of ``$name`` in ``body``.

    Returns None when a use occurs outside a ``$name/steps`` path (the
    parameter itself escapes), which blocks motion entirely.
    """
    uses: list[_Candidate] = []
    blocked = False

    def visit(expr: Expr, parent: Expr | None) -> None:
        nonlocal blocked
        if blocked:
            return
        if isinstance(expr, VarRef) and expr.name == name:
            # A bare reference not wrapped by a path input: escapes.
            blocked = True
            return
        if isinstance(expr, PathExpr) and \
                isinstance(expr.input, VarRef) and expr.input.name == name:
            extractable = (_all_downward(expr)
                           and _atomizing_consumer(parent, expr))
            uses.append(_Candidate(expr, extractable))
            # Predicates may still reference the parameter.
            for step in expr.steps:
                for predicate in step.predicates:
                    visit(predicate, expr)
            return
        for child in expr.child_exprs():
            visit(child, expr)

    visit(body, None)
    if blocked:
        return None
    return uses


def _all_downward(path: PathExpr) -> bool:
    return all(step.axis in _DOWNWARD_AXES and not step.predicates
               for step in path.steps)


def _atomizing_consumer(parent: Expr | None, path: PathExpr) -> bool:
    """Is the consumer indifferent to receiving ``data(path)``?

    General comparisons and arithmetic atomize anyway; a ``data-safe``
    built-in gives identical results on atoms. EBV positions
    (if-conditions, and/or, quantifiers, ``not``) are NOT safe: a
    multi-item atomic sequence has no EBV, a node sequence's is true.
    """
    if parent is None:
        return False  # the path result is the function result: escapes
    if isinstance(parent, ComparisonExpr):
        return not parent.is_node_comparison
    if isinstance(parent, ArithmeticExpr):
        return True
    if isinstance(parent, FunCall):
        return parent.name in _TAKES_ATOMS
    return False
