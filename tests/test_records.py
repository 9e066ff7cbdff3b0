"""The records' contract: what callers read off them.

AST nodes traverse and rebuild by their fields and compare
structurally; every record a dict or set is keyed by is equal, and
hashes equal, exactly when its fields are; checks made on
construction still run.
"""

from __future__ import annotations

import pytest

from repro.cluster.catalog import ClusterError, CollectionSpec, ShardInfo
from repro.decompose.strategy import Strategy
from repro.dgraph.analysis import DocDep
from repro.net.costmodel import CostModel
from repro.paths.relpath import CompiledPaths, RelPath, RelStep
from repro.planner.stats import TagStat
from repro.workloads import TenantJob
from repro.xmark.generator import XMarkConfig
from repro.xquery import ast
from repro.xquery.ast import (
    ArithmeticExpr, ComparisonExpr, ConstructorExpr, ContextItemExpr,
    EmptySequence, Expr, ForExpr, FunCall, IfExpr, LetExpr, Literal,
    LiteralSlot, LogicalExpr, NodeSetExpr, OrderByExpr, OrderSpec, PathExpr,
    QuantifiedExpr, RangeExpr, SequenceExpr, Step, TypeswitchCase,
    TypeswitchExpr, UnaryExpr, VarRef, XRPCExpr, XRPCParam,
)
from repro.xquery.context import StaticContext
from repro.xquery.lexer import Token, TokenType
from repro.xquery.parser import parse_query
from repro.xquery.predicates import Probe
from repro.xrpc.messages import AttrRef, Atomic, NodeCopy, NodeRef

A, B, C = (VarRef(name) for name in "abc")

#: One instance of every expression class, its direct children in
#: syntactic order, and whether a rebuild with nothing changed returns
#: the node itself (the classes whose children sit in auxiliary
#: records rebuild them anyway).
NODES = [
    (Literal(1), [], True),
    (LiteralSlot(0, "integer"), [], True),
    (EmptySequence(), [], True),
    (VarRef("x"), [], True),
    (ContextItemExpr(), [], True),
    (SequenceExpr([A, B]), [A, B], True),
    (ForExpr("x", A, B, "i"), [A, B], True),
    (LetExpr("x", A, B), [A, B], True),
    (IfExpr(A, B, C), [A, B, C], True),
    (TypeswitchExpr(A, [TypeswitchCase("v", "xs:integer", B)], "w", C),
     [A, B, C], False),
    (ComparisonExpr("=", A, B), [A, B], True),
    (ArithmeticExpr("+", A, B), [A, B], True),
    (UnaryExpr("-", A), [A], True),
    (LogicalExpr("and", A, B), [A, B], True),
    (RangeExpr(A, B), [A, B], True),
    (QuantifiedExpr("some", "x", A, B), [A, B], True),
    (OrderByExpr("x", A, [OrderSpec(B, False, True)], C), [A, B, C], False),
    (NodeSetExpr("union", A, B), [A, B], True),
    (PathExpr(A, [Step("child", "p", [B]), Step("attribute", "q", [C])]),
     [A, B, C], False),
    (ConstructorExpr("element", None, A, [B, C]), [A, B, C], True),
    (ConstructorExpr("element", "e", None, [A]), [A], True),
    (FunCall("f", [A, B]), [A, B], True),
    (XRPCExpr(A, [XRPCParam("p", B)], C), [A, B, C], False),
]


def _upper(expr: Expr) -> Expr:
    return VarRef(expr.name.upper())


def _non_expr_fields(node: Expr) -> list:
    """What a rebuild copies untouched: every field that holds no
    expression, and the auxiliary records' own such fields."""
    out = []
    for name in node._fields:
        value = getattr(node, name)
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, ast._Node) and not isinstance(item, Expr):
                out.append([getattr(item, field) for field in item._fields
                            if not isinstance(getattr(item, field),
                                              (Expr, list))])
            elif not isinstance(item, Expr):
                out.append(item)
    return out


def test_every_expression_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert {type(node) for node, _, _ in NODES} == set(subclasses(Expr))


@pytest.mark.parametrize("node, children, kept", NODES,
                         ids=[type(node).__name__ for node, _, _ in NODES])
def test_children_are_read_and_rebuilt_by_field(node, children, kept):
    assert node.child_exprs() == children
    assert all(got is want for got, want in zip(node.child_exprs(), children))

    same = node.replace_children(lambda expr: expr)
    assert same == node and (same is node) == kept

    copied = node.replace_children(_upper)
    assert type(copied) is type(node)
    assert copied.child_exprs() == [_upper(child) for child in children]
    assert _non_expr_fields(copied) == _non_expr_fields(node)
    assert node.child_exprs() == children      # the original is unchanged
    assert (copied == node) == (not children)


def test_two_parses_of_one_text_are_equal():
    text = ('declare function f($x as xs:integer) as item()* { $x + 1 }; '
            'for $p in doc("xrpc://peer1/people.xml")//person[@id = "p3"] '
            'order by $p/name descending return <r a="{f(3)}">{$p/name}</r>')
    assert parse_query(text) == parse_query(text)
    assert parse_query(text) != parse_query(text.replace("f(3)", "f(4)"))
    assert parse_query(text) != parse_query(text.replace('"p3"', '"p4"'))
    with pytest.raises(TypeError):
        hash(parse_query(text))


_SHARD = ShardInfo(0, "s0", ("p1",), 3, "a", "m")

#: Each record used as a key: the fields of one instance, and of
#: another that differs from it in every field.
KEYS = [
    (RelStep, ("child", "a"), ("descendant", "b")),
    (RelPath, ((RelStep("child", "a"),),), ((RelStep("child", "b"),),)),
    (CompiledPaths, (((0, None, 0),),), (((0, None, 1),),)),
    (ShardInfo, (0, "s0", ("p1",), 3, "a", "m"),
     (1, "s1", ("p2",), 4, "b", "z")),
    (CollectionSpec, ("c", "d.xml", ("site", "people"), "person", (_SHARD,),
                      1, "range"),
     ("e", "f.xml", ("site",), "item", (_SHARD.replace(index=1),), 2,
      "hash")),
    (Probe, ("child", "a", "=", 1, None, None),
     ("attribute", "b", "<", 2, "v", 0)),
    (StaticContext, ("http://localhost/", "http://www.w3.org/2005/xpath-"
                     "functions/collation/codepoint", "2009-03-29T12:00:00Z"),
     ("u", "c", "t")),
    (Token, (TokenType.NAME, "a", "a", 0), (TokenType.STRING, "b", "b", 1)),
    (DocDep, ("u", 1), ("v", 2)),
    (TagStat, (1, 2), (3, 4)),
    (CostModel, (0.3e-3, 125e6, 60e-9, 15e-9, 40e-9, 0.4e-6, 0.1e-6),
     (1e-3, 1e6, 1e-9, 2e-9, 3e-9, 4e-6, 5e-6)),
    (Atomic, ("xs:string", "a"), ("xs:integer", "1")),
    (NodeRef, (1, 2), (2, 3)),
    (AttrRef, (1, 2, "a"), (2, 3, "b")),
    (NodeCopy, ("text", "", "a"), ("comment", "n", "b")),
    (XMarkConfig, (0.01, 1), (0.02, 2)),
    (TenantJob, (0, 0, "q", "local", Strategy.BY_VALUE),
     (1, 1, "r", "peer1", Strategy.BY_FRAGMENT)),
]


@pytest.mark.parametrize("cls, fields, other", KEYS,
                         ids=[cls.__name__ for cls, _, _ in KEYS])
def test_keys_are_equal_exactly_when_their_fields_are(cls, fields, other):
    record, twin = cls(*fields), cls(*[_copy(value) for value in fields])
    assert record == twin and hash(record) == hash(twin)
    assert {record: 1}[twin] == 1
    for index in range(len(fields)):
        changed = cls(*fields[:index], other[index], *fields[index + 1:])
        assert record != changed, index
        assert changed not in {record}


def _copy(value):
    """An equal value that is not the same object, where one exists."""
    if isinstance(value, str):
        return "".join(list(value))
    if isinstance(value, tuple) and type(value) is tuple:
        return tuple(_copy(item) for item in value)
    return value


def test_construction_checks_still_run():
    with pytest.raises(ClusterError):
        ShardInfo(0, "s0", ())
    with pytest.raises(ClusterError):
        _SHARD.replace(replicas=())
    with pytest.raises(TypeError):
        _SHARD.replace(no_such_field=1)
