"""A from-scratch XQuery engine implementing the paper's XCore subset.

The engine covers the extended XCore grammar of Table II (FLWOR, all
thirteen XPath axes, value and node comparisons, node-set operators,
order by, typeswitch, computed and direct constructors, user-defined
functions) plus the ``execute at`` XRPC expression of rules 27-28, with
faithful XDM semantics for node identity, document order and duplicate
elimination — the properties whose preservation under distribution is
the subject of the paper.

Public entry points:

* :func:`~repro.xquery.parser.parse_query` — text to
  :class:`~repro.xquery.ast.Module`.
* :func:`~repro.xquery.normalize.normalize` — XCore normalisation
  including the let-sinking rewrite of Section IV.
* :class:`~repro.xquery.evaluator.Evaluator` — dynamic evaluation.
* :func:`~repro.xquery.pretty.pretty` — AST back to query text.
"""

from repro._exports import lazy_exports

# ``normalize`` and ``pretty`` are eager: each is also the name of its
# submodule (see repro/_exports.py).
__all__ = lazy_exports(globals(), {
    ".ast": "Expr Module FunctionDecl Literal LiteralSlot EmptySequence "
            "SequenceExpr VarRef ForExpr LetExpr IfExpr TypeswitchExpr "
            "ComparisonExpr ArithmeticExpr LogicalExpr RangeExpr "
            "QuantifiedExpr OrderByExpr NodeSetExpr PathExpr Step "
            "ConstructorExpr FunCall XRPCExpr XRPCParam walk",
    ".parser": "parse_query parse_expr",
    ".normalize": "normalize sink_lets",
    ".evaluator": "Evaluator evaluate_module",
    ".context": "StaticContext DynamicContext",
    ".pretty": "pretty",
    ".xdm": "UntypedAtomic atomize effective_boolean_value string_value "
            "sequences_deep_equal",
}, eager=("normalize", "pretty"))
