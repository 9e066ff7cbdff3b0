"""Render ASTs back to XQuery text.

Used by tests (Table III/IV assertions compare rendered decompositions),
by examples (showing the rewritten query), and for debugging. Output is
valid input for :func:`repro.xquery.parser.parse_query` — the
round-trip property is covered by a hypothesis test.
"""

from __future__ import annotations

from repro.xquery.ast import (
    ArithmeticExpr, ComparisonExpr, ConstructorExpr, ContextItemExpr,
    EmptySequence, Expr, ForExpr, FunCall, IfExpr, LetExpr, Literal,
    LogicalExpr, Module, NodeSetExpr, OrderByExpr, PathExpr, QuantifiedExpr,
    RangeExpr, SequenceExpr, TypeswitchExpr, UnaryExpr, VarRef, XRPCExpr,
)


def pretty(node: Expr | Module, indent: int = 0) -> str:
    """Render an expression or module as (re-parseable) query text."""
    if isinstance(node, Module):
        return pretty_module(node)
    return _render(node)


def pretty_module(module: Module) -> str:
    parts = []
    for decl in module.functions:
        params = ", ".join(f"${p.name} as {p.seq_type}" for p in decl.params)
        parts.append(
            f"declare function {decl.name}({params}) as {decl.return_type}\n"
            f"{{ {_render(decl.body)} }};")
    parts.append(_render(module.body))
    return "\n".join(parts)


def _string_literal(value: str) -> str:
    return '"' + value.replace('"', '""') + '"'


def _render(expr: Expr) -> str:
    if isinstance(expr, Literal):
        if isinstance(expr.value, bool):
            return "fn:true()" if expr.value else "fn:false()"
        if isinstance(expr.value, str):
            return _string_literal(expr.value)
        return str(expr.value)
    if isinstance(expr, EmptySequence):
        return "()"
    if isinstance(expr, VarRef):
        return f"${expr.name}"
    if isinstance(expr, ContextItemExpr):
        return "."
    if isinstance(expr, SequenceExpr):
        return "(" + ", ".join(_render(item) for item in expr.items) + ")"
    if isinstance(expr, ForExpr):
        at_clause = f" at ${expr.pos_var}" if expr.pos_var else ""
        return (f"for ${expr.var}{at_clause} in {_render_operand(expr.seq)} "
                f"return {_render_operand(expr.body)}")
    if isinstance(expr, LetExpr):
        return (f"let ${expr.var} := {_render_operand(expr.value)} "
                f"return {_render_operand(expr.body)}")
    if isinstance(expr, IfExpr):
        return (f"if ({_render(expr.cond)}) then "
                f"{_render_operand(expr.then_branch)} else "
                f"{_render_operand(expr.else_branch)}")
    if isinstance(expr, TypeswitchExpr):
        parts = [f"typeswitch ({_render(expr.operand)})"]
        for case in expr.cases:
            var = f"${case.var} as " if case.var else ""
            parts.append(f" case {var}{case.seq_type} return "
                         f"{_render_operand(case.body)}")
        default_var = f"${expr.default_var} " if expr.default_var else ""
        parts.append(f" default {default_var}return "
                     f"{_render_operand(expr.default_body)}")
        return "".join(parts)
    if isinstance(expr, ComparisonExpr):
        return (f"{_render_operand(expr.left)} {expr.op} "
                f"{_render_operand(expr.right)}")
    if isinstance(expr, ArithmeticExpr):
        return (f"{_render_operand(expr.left)} {expr.op} "
                f"{_render_operand(expr.right)}")
    if isinstance(expr, UnaryExpr):
        return f"{expr.op}{_render_operand(expr.operand)}"
    if isinstance(expr, LogicalExpr):
        return (f"{_render_operand(expr.left)} {expr.op} "
                f"{_render_operand(expr.right)}")
    if isinstance(expr, RangeExpr):
        return (f"{_render_operand(expr.start)} to "
                f"{_render_operand(expr.end)}")
    if isinstance(expr, QuantifiedExpr):
        return (f"{expr.quantifier} ${expr.var} in "
                f"{_render_operand(expr.seq)} satisfies "
                f"{_render_operand(expr.cond)}")
    if isinstance(expr, OrderByExpr):
        specs = ", ".join(
            _render(spec.key) + ("" if spec.ascending else " descending")
            + (" empty greatest" if spec.empty_greatest else "")
            for spec in expr.specs)
        return (f"for ${expr.var} in {_render_operand(expr.seq)} "
                f"order by {specs} return {_render_operand(expr.body)}")
    if isinstance(expr, NodeSetExpr):
        return (f"{_render_operand(expr.left)} {expr.op} "
                f"{_render_operand(expr.right)}")
    if isinstance(expr, PathExpr):
        rendered = _render_operand(expr.input)
        for step in expr.steps:
            predicates = "".join(f"[{_render(p)}]" for p in step.predicates)
            rendered += f"/{step.axis}::{step.test}{predicates}"
        return rendered
    if isinstance(expr, ConstructorExpr):
        if expr.name is not None:
            head = f"{expr.kind} {expr.name}"
        elif expr.name_expr is not None:
            head = f"{expr.kind} {{{_render(expr.name_expr)}}}"
        else:
            head = expr.kind
        content = "" if expr.content is None else _render(expr.content)
        return f"{head} {{{content}}}"
    if isinstance(expr, FunCall):
        args = ", ".join(_render(arg) for arg in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, XRPCExpr):
        params = ", ".join(f"${p.name} := {_render(p.value)}"
                           for p in expr.params)
        return (f"execute at {{{_render(expr.dest)}}} "
                f"function ({params}) {{ {_render(expr.body)} }}")
    raise TypeError(f"cannot render {type(expr).__name__}")


_ATOMIC = (Literal, EmptySequence, VarRef, ContextItemExpr, FunCall,
           SequenceExpr, PathExpr, ConstructorExpr)


def _render_operand(expr: Expr) -> str:
    """Parenthesise non-atomic operands to keep precedence explicit."""
    text = _render(expr)
    if isinstance(expr, _ATOMIC):
        return text
    return f"({text})"
