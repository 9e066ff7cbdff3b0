"""Parser tests: grammar coverage of Table II plus XRPC rules 27-28."""

import pytest

from repro.errors import UndefinedFunctionError, XQuerySyntaxError
from repro.xquery.ast import (
    ArithmeticExpr, ComparisonExpr, ConstructorExpr, ContextItemExpr, EmptySequence,
    ForExpr, FunCall, IfExpr, LetExpr, Literal, NodeSetExpr, OrderByExpr,
    PathExpr, QuantifiedExpr, RangeExpr, SequenceExpr, TypeswitchExpr,
    VarRef, XRPCExpr,
)
from repro.xquery.parser import parse_expr, parse_query
from repro.xquery.pretty import pretty
from repro.xquery.xdm import serialize_sequence

from tests.xquery.helpers import run


class TestPrimaries:
    def test_literals(self):
        assert parse_expr("42") == Literal(42)
        assert parse_expr("3.5") == Literal(3.5)
        assert parse_expr('"text"') == Literal("text")

    def test_empty_sequence(self):
        assert isinstance(parse_expr("()"), EmptySequence)

    def test_variable(self):
        assert parse_expr("$x") == VarRef("x")

    def test_sequence(self):
        expr = parse_expr("(1, 2, 3)")
        assert isinstance(expr, SequenceExpr)
        assert len(expr.items) == 3

    def test_parenthesised_single(self):
        assert parse_expr("(1)") == Literal(1)


class TestPaths:
    def test_explicit_axes(self):
        expr = parse_expr('doc("d")/child::a/descendant::b')
        assert isinstance(expr, PathExpr)
        assert [(s.axis, s.test) for s in expr.steps] == [
            ("child", "a"), ("descendant", "b")]

    def test_abbreviations(self):
        expr = parse_expr('doc("d")/a//b/@id/../*')
        assert [(s.axis, s.test) for s in expr.steps] == [
            ("child", "a"), ("descendant-or-self", "node()"),
            ("child", "b"), ("attribute", "id"), ("parent", "node()"),
            ("child", "*")]

    def test_predicates(self):
        expr = parse_expr('doc("d")/a[2][@x = "1"]')
        assert len(expr.steps[0].predicates) == 2

    def test_predicate_on_variable(self):
        expr = parse_expr("$s[tutor]")
        assert isinstance(expr, PathExpr)
        assert expr.steps[0].axis == "self"
        assert len(expr.steps[0].predicates) == 1

    def test_kind_tests(self):
        expr = parse_expr("$x/text()/parent::node()")
        assert [(s.axis, s.test) for s in expr.steps] == [
            ("child", "text()"), ("parent", "node()")]

    def test_bare_name_is_context_step(self):
        expr = parse_expr("tutor")
        assert isinstance(expr, PathExpr)
        assert isinstance(expr.input, ContextItemExpr)


class TestFLWOR:
    def test_for_desugars(self):
        expr = parse_expr("for $x in (1,2) return $x")
        assert isinstance(expr, ForExpr)

    def test_let_desugars(self):
        expr = parse_expr("let $x := 1 return $x")
        assert isinstance(expr, LetExpr)

    def test_multiple_clauses_nest(self):
        expr = parse_expr(
            "for $x in (1), $y in (2) let $z := 3 return $x")
        assert isinstance(expr, ForExpr)
        assert isinstance(expr.body, ForExpr)
        assert isinstance(expr.body.body, LetExpr)

    def test_where_becomes_if(self):
        expr = parse_expr("for $x in (1,2) where $x = 1 return $x")
        assert isinstance(expr.body, IfExpr)
        assert isinstance(expr.body.else_branch, EmptySequence)

    def test_order_by(self):
        expr = parse_expr(
            "for $x in (3,1,2) order by $x descending return $x")
        assert isinstance(expr, OrderByExpr)
        assert not expr.specs[0].ascending

    def test_positional_variable(self):
        expr = parse_expr("for $x at $i in (9, 8) return $i")
        assert expr.pos_var == "i"

    def test_order_by_with_two_fors_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_expr("for $x in (1), $y in (2) order by $x return $x")

    @pytest.mark.parametrize("modifiers,expected", [
        ("", ["", "x", "1", "2"]),
        ("empty least", ["", "x", "1", "2"]),
        ("empty greatest", ["1", "2", "x", ""]),
        ("descending", ["2", "1", "x", ""]),
        ("descending empty greatest", ["", "x", "2", "1"]),
    ])
    def test_order_by_empty_modifier(self, modifiers, expected):
        """XQuery 1.0 §3.8.3: empty least orders () < NaN < values,
        empty greatest values < NaN < (); descending reverses either.
        The default stays empty least. (``<k>x</k>`` keys NaN.)"""
        text = ("for $x in (<a><k>2</k></a>, <a/>, <a><k>x</k></a>, "
                "<a><k>1</k></a>) "
                "order by (if ($x/k) then number($x/k) else ()) "
                f"{modifiers} return string($x/k)")
        expr = parse_expr(text)
        assert expr.specs[0].empty_greatest == ("greatest" in modifiers)
        assert [str(item) for item in run(text)] == expected

    def test_order_by_modifiers_round_trip(self):
        expr = parse_expr("for $x in (3, 1) order by $x descending "
                          "empty greatest, -$x empty least return $x")
        assert [spec.empty_greatest for spec in expr.specs] \
            == [True, False]
        assert parse_expr(pretty(expr)) == expr

    def test_order_by_collation_is_refused(self):
        with pytest.raises(XQuerySyntaxError, match="collation"):
            parse_expr('for $x in (1, 2) order by $x collation "c" '
                       "return $x")


class TestControl:
    def test_if(self):
        expr = parse_expr("if (1) then 2 else 3")
        assert isinstance(expr, IfExpr)

    def test_quantified(self):
        expr = parse_expr("some $x in (1, 2) satisfies $x = 2")
        assert isinstance(expr, QuantifiedExpr)
        assert expr.quantifier == "some"

    @pytest.mark.parametrize("quantifier,expected", [
        ("some", "true"), ("every", "false")])
    def test_several_bindings_nest(self, quantifier, expected):
        """XQuery 1.0 §3.11: each binding after the first is a
        quantifier of its own inside the previous one's condition."""
        text = (f"{quantifier} $a in (1, 2), $b in ($a, 3) "
                "satisfies $a + $b = 4")
        expr = parse_expr(text)
        inner = expr.cond
        assert (expr.quantifier, expr.var, inner.quantifier, inner.var) \
            == (quantifier, "a", quantifier, "b")
        assert isinstance(inner.cond, ComparisonExpr)
        assert parse_expr(pretty(expr)) == expr
        assert serialize_sequence(run(text)) == expected

    def test_typeswitch(self):
        expr = parse_expr(
            "typeswitch (1) case xs:integer return 1 "
            "case $s as xs:string return 2 default $d return 3")
        assert isinstance(expr, TypeswitchExpr)
        assert len(expr.cases) == 2
        assert expr.cases[1].var == "s"
        assert expr.default_var == "d"


class TestOperators:
    def test_precedence_or_and(self):
        expr = parse_expr("1 or 2 and 3")
        assert expr.op == "or"

    def test_value_comparisons(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            expr = parse_expr(f"1 {op} 2")
            assert isinstance(expr, ComparisonExpr)
            assert expr.op == op
            assert not expr.is_node_comparison

    def test_node_comparisons(self):
        for op in ("is", "<<", ">>"):
            expr = parse_expr(f"$a {op} $b")
            assert expr.is_node_comparison

    def test_word_comparisons_map_to_symbols(self):
        assert parse_expr("1 eq 2").op == "="
        assert parse_expr("1 lt 2").op == "<"

    def test_node_set_ops(self):
        expr = parse_expr("$a union $b intersect $c")
        assert isinstance(expr, NodeSetExpr)
        assert expr.op == "union"
        assert expr.right.op == "intersect"

    def test_pipe_is_union(self):
        assert parse_expr("$a | $b").op == "union"

    def test_arithmetic_precedence(self):
        expr = parse_expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_range(self):
        expr = parse_expr("1 to 10")
        assert isinstance(expr, RangeExpr)


class TestConstructors:
    def test_computed_element(self):
        expr = parse_expr("element res { 1 }")
        assert isinstance(expr, ConstructorExpr)
        assert expr.kind == "element"
        assert expr.name == "res"

    def test_computed_name(self):
        expr = parse_expr('element { "n" } { () }')
        assert expr.name is None
        assert expr.name_expr is not None

    def test_direct_element(self):
        expr = parse_expr("<a><b/></a>")
        assert isinstance(expr, ConstructorExpr)
        assert expr.name == "a"

    def test_direct_with_attributes_and_text(self):
        expr = parse_expr('<a x="1">hi</a>')
        content = expr.content
        assert content[0].kind == "attribute"
        assert content[1].kind == "text"

    def test_direct_with_embedded_expr(self):
        expr = parse_expr("<a>{ 1 + 1 }</a>")
        assert isinstance(expr.content[0], ArithmeticExpr)

    def test_direct_followed_by_path(self):
        expr = parse_expr("<a><b><c/></b></a>/b")
        assert isinstance(expr, PathExpr)
        assert expr.steps[0].test == "b"

    def test_attribute_value_template(self):
        expr = parse_expr('<a x="v{1}w"/>')
        attr = expr.content[0]
        (value,) = attr.content
        assert isinstance(value, FunCall)
        assert value.name == "concat"


class TestFunctions:
    def test_call(self):
        expr = parse_expr("count((1, 2))")
        assert isinstance(expr, FunCall)
        assert expr.name == "count"

    def test_fn_prefix_stripped(self):
        assert parse_expr("fn:doc('u')").name == "doc"

    def test_declaration_and_module(self):
        module = parse_query("""
            declare function local:double($x as xs:integer) as xs:integer
            { $x * 2 };
            local:double(21)
        """)
        assert module.function("local:double", 1) is not None
        assert isinstance(module.body, FunCall)

    def test_declared_variable_becomes_let(self):
        module = parse_query("declare variable $n := 5; $n + 1")
        assert isinstance(module.body, LetExpr)

    @pytest.mark.parametrize("declaration, named", [
        ("exists($v)", "exists#1"), ("count($v)", "count#1"),
        ("fn:count($v)", "count#1"), ("exists($v, $w)", "exists#2")])
    def test_a_declaration_may_not_take_a_built_in_name(self, declaration,
                                                        named):
        """XQST0045: a declaration named like a built-in would win in
        the evaluator while every analysis that classifies built-ins
        by name still took the call for the built-in: ``exists($v) {
        2 }`` (or ``exists($v, $w)``) made the predicate ``[exists(1)]``
        position-free, so it kept no ``<x>``; ``count`` would be summed
        per shard."""
        with pytest.raises(XQuerySyntaxError, match=named):
            parse_query(f"declare function {declaration} {{ 2 }}; "
                        'doc("d.xml")/child::r/child::x[exists(1)]')

    def test_a_declaration_of_another_name_is_called(self):
        assert serialize_sequence(run(
            "declare function two($v) { 2 }; "
            'doc("d.xml")/child::r/child::x[two(1)]',
            {"d.xml": "<r><x>1</x><x>2</x><x>3</x></r>"})) == "<x>2</x>"


class TestXrpc:
    def test_execute_at_function_form(self):
        expr = parse_expr(
            'execute at {"peer"} function ($p := $q) { $p }')
        assert isinstance(expr, XRPCExpr)
        assert expr.params[0].name == "p"

    def test_execute_at_call_form_inlines_declaration(self):
        module = parse_query("""
            declare function f($n as node()) as node() { $n };
            execute at {"peer"} { f($x) }
        """)
        assert isinstance(module.body, XRPCExpr)
        assert module.body.params[0].name == "n"
        assert isinstance(module.body.body, VarRef)

    def test_execute_at_unknown_function_rejected(self):
        with pytest.raises(UndefinedFunctionError):
            parse_query('execute at {"p"} { nosuch($x) }')


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "for $x in", "let $x 1 return $x", "if (1) then 2",
        "1 +", "<a></b>", "typeswitch (1) default return 1",
        "$x[", "(1, 2", 'execute at {"p"} { 1 + 1 }',
    ])
    def test_rejected(self, bad):
        with pytest.raises((XQuerySyntaxError, UndefinedFunctionError)):
            parse_expr(bad) if "declare" not in bad else parse_query(bad)

    def test_trailing_garbage(self):
        with pytest.raises(XQuerySyntaxError):
            parse_expr("1 1")
