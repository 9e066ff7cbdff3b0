"""Evaluator tests: expressions, paths, FLWOR, node semantics."""

import pytest

from repro.errors import (
    UndefinedVariableError, XQueryDynamicError, XQueryTypeError,
)
from repro.xmldb.node import Node
from repro.xquery.xdm import serialize_sequence

from tests.xquery.helpers import run, run1

PEOPLE = """<people>
 <person id="p1"><name>Ann</name><age>30</age></person>
 <person id="p2"><name>Bob</name><age>55</age></person>
 <person id="p3"><name>Col</name><age>41</age></person>
</people>"""


class TestBasics:
    def test_literals(self):
        assert run1("42") == 42
        assert run1('"x"') == "x"
        assert run1("2.5") == 2.5

    def test_sequence_flattens(self):
        assert run("(1, (2, 3), ())") == [1, 2, 3]

    def test_arithmetic(self):
        assert run1("1 + 2 * 3") == 7
        assert run1("7 idiv 2") == 3
        assert run1("7 mod 2") == 1
        assert run1("1 div 4") == 0.25
        assert run1("-(3)") == -3

    def test_arithmetic_with_empty_is_empty(self):
        assert run("1 + ()") == []

    def test_division_by_zero(self):
        with pytest.raises(XQueryDynamicError):
            run("1 div 0")

    def test_range(self):
        assert run("1 to 4") == [1, 2, 3, 4]
        assert run("3 to 1") == []

    def test_range_start_must_be_a_singleton(self):
        # XPTY0004, as unary minus and arithmetic on the same operand.
        with pytest.raises(XQueryTypeError):
            run("(1, 2) to 3")

    def test_range_end_must_be_a_singleton(self):
        with pytest.raises(XQueryTypeError):
            run("1 to (2, 3)")

    def test_logical_short_circuit(self):
        # The error in the right operand is skipped.
        assert run1('fn:false() and fn:error("boom")') is False
        assert run1('fn:true() or fn:error("boom")') is True

    def test_comparison_existential(self):
        assert run1("(1, 2, 3) = 3") is True
        assert run1("(1, 2) = (4, 5)") is False
        assert run1("() = 1") is False

    def test_untyped_compares_numerically(self):
        result = run1('doc("d")/a/b < 10', {"d": "<a><b>9</b></a>"})
        assert result is True

    def test_string_comparison(self):
        assert run1('"abc" < "abd"') is True

    def test_incomparable_types_raise(self):
        with pytest.raises(XQueryTypeError):
            run('"x" < 1')

    def test_undefined_variable(self):
        with pytest.raises(UndefinedVariableError):
            run("$nope")


class TestFlwor:
    def test_for_iterates(self):
        assert run("for $x in (1, 2, 3) return $x * 2") == [2, 4, 6]

    def test_for_with_position(self):
        assert run("for $x at $i in (9, 9) return $i") == [1, 2]

    def test_let_binds_once(self):
        assert run("let $x := (1, 2) return ($x, $x)") == [1, 2, 1, 2]

    def test_where_filters(self):
        assert run("for $x in (1, 2, 3, 4) where $x > 2 return $x") == [3, 4]

    def test_order_by(self):
        assert run("for $x in (3, 1, 2) order by $x return $x") == [1, 2, 3]

    def test_order_by_descending(self):
        assert run("for $x in (3, 1, 2) order by $x descending return $x") \
            == [3, 2, 1]

    def test_order_by_key_expression(self):
        result = run(
            'for $p in doc("d")//person order by $p/age return $p/name',
            {"d": PEOPLE})
        assert serialize_sequence(result) == \
            "<name>Ann</name> <name>Col</name> <name>Bob</name>"

    def test_order_by_stable_for_equal_keys(self):
        assert run('for $x in ("b1", "a1", "b2") '
                   "order by substring($x, 1, 1) return $x") \
            == ["a1", "b1", "b2"]

    def test_order_by_nan_sorts_below_every_value(self):
        # XQuery 1.0 §3.8.3: NaN is less than every other value and
        # equal to itself (it answered false to both = and <, so the
        # result depended on which pairs list.sort probed).
        assert serialize_sequence(run(
            "for $x in (3, number('x'), 1) order by $x return $x")) \
            == "NaN 1 3"
        assert serialize_sequence(run(
            "for $x in (3, number('x'), 1, number('y')) "
            "order by $x descending return $x")) == "3 1 NaN NaN"

    def test_order_by_nan_sorts_after_the_empty_key(self):
        result = run(
            'for $p in doc("d")/r/p '
            'order by (if ($p/k) then number($p/k) else ()) return $p/@id',
            {"d": '<r><p id="nan"><k>x</k></p><p id="two"><k>2</k></p>'
                  '<p id="empty"/><p id="one"><k>1</k></p></r>'})
        assert [node.value for node in result] \
            == ["empty", "nan", "one", "two"]

    def test_order_by_nan_in_one_of_two_specs(self):
        assert serialize_sequence(run(
            "for $x in (2, 1, 4, 3) "
            "order by number(if ($x mod 2 = 0) then 'x' else '7'), "
            "$x descending return $x")) == "4 2 3 1"

    def test_order_by_integer_keys_above_double_precision(self):
        # 2**53 + 1 and 2**53 are the same double; as integers they
        # are not a tie to be broken by input position.
        assert run("for $x in (9007199254740993, 9007199254740992, 1.5) "
                   "order by $x return $x") \
            == [1.5, 9007199254740992, 9007199254740993]

    def test_order_by_incomparable_keys_raise(self):
        # XPTY0004 (XQuery 1.0 §3.8.3): keys with no common type that
        # `gt` is defined on are a type error, not sorted as strings.
        with pytest.raises(XQueryTypeError):
            run('for $x in (1, "b", 2) order by $x return $x')

    def test_quantified_some_every(self):
        assert run1("some $x in (1, 2) satisfies $x = 2") is True
        assert run1("every $x in (1, 2) satisfies $x = 2") is False
        assert run1("every $x in () satisfies $x = 99") is True

    def test_shadowing(self):
        assert run("let $x := 1 return (for $x in (2, 3) return $x, $x)") \
            == [2, 3, 1]


class TestLoopOperators:
    """A binding loop runs as one operator over all its bindings; what
    it returns, and which error it raises, is the nested loop's."""

    AUCTIONS = """<site>
     <auction id="a1"><seller>s1</seller>
      <bid n="1">5</bid><bid n="2">7</bid></auction>
     <auction id="a2"><seller>s2</seller><bid n="3">9</bid></auction>
     <auction id="a3"><seller>s3</seller></auction>
    </site>"""

    def values(self, query):
        return [item.string_value() if isinstance(item, Node) else item
                for item in run(query, {"d": self.AUCTIONS})]

    def test_duplicate_bindings_are_both_served(self):
        assert self.values('let $a := doc("d")//auction[1] '
                           "for $x in ($a, $a) return $x/seller") \
            == ["s1", "s1"]

    def test_positions_follow_the_bindings(self):
        assert self.values('for $x at $i in doc("d")//auction '
                           "return ($i, $x/bid[1]/@n)") \
            == [1, "1", 2, "3", 3]

    def test_paths_over_a_let_variable_and_a_shadowed_one(self):
        assert self.values('for $x in doc("d")//auction '
                           "let $b := $x/bid return $b/@n") == ["1", "2", "3"]
        assert self.values('for $x in doc("d")//auction return '
                           "(let $x := $x/bid return $x/@n)") \
            == ["1", "2", "3"]

    def test_iterations_sharing_a_context_each_get_its_results(self):
        assert self.values('for $b in doc("d")//bid '
                           "return $b/parent::auction/seller") \
            == ["s1", "s1", "s2"]

    def test_stored_nodes_keep_identity_constructed_ones_are_fresh(self):
        assert run1('let $s := doc("d")//seller return '
                    "every $x in (for $a in doc(\"d\")//auction "
                    "return $a/seller) satisfies (some $y in $s "
                    "satisfies $x is $y)", {"d": self.AUCTIONS}) is True
        first, second = run("for $x in (1, 2) return <a/>")
        assert first.doc is not second.doc

    def test_a_branch_sees_only_the_bindings_that_reach_it(self):
        assert run("for $x in (0, 2) return "
                   "if ($x = 0) then 0 else 4 div $x") == [0, 2]
        assert run('for $x in (1, 2) return '
                   'if ($x > 5) then fn:error("boom") else $x') == [1, 2]
        assert run('for $x in (1, 2) return ($x < 3 or fn:error("boom"), '
                   '$x > 5 and fn:error("boom"))') \
            == [True, False, True, False]

    def test_the_first_binding_to_fail_decides_the_error(self):
        # Binding 1 fails in the else branch before binding 2 reaches
        # the then branch, whichever branch an operator runs first.
        with pytest.raises(XQueryTypeError):
            run('for $x in (1, 2) return '
                'if ($x = 2) then fn:error("boom") else $x/child::a')
        with pytest.raises(XQueryDynamicError):
            run('for $x in (1, 2) return '
                'if ($x = 1) then fn:error("boom") else $x/child::a')

    def test_a_quantifier_stops_at_the_deciding_binding(self):
        assert run1('some $x in (1, 2, "a") satisfies $x = 1') is True
        assert run1('every $x in (1, 2, "a") satisfies $x = 2') is False
        with pytest.raises(XQueryTypeError):
            run('some $x in (1, 2, "a") satisfies $x = 3')

    def test_order_by_two_specs_mixed_directions_is_stable(self):
        assert self.values(
            'for $b in doc("d")//bid order by count($b/../bid) descending, '
            "$b/@n descending return $b/@n") == ["2", "1", "3"]
        assert run('for $x in ("b", "a", "b", "a") order by $x descending '
                   "return $x") == ["b", "b", "a", "a"]

    def test_positional_predicates_slice_each_context_group(self):
        assert self.values('doc("d")//auction/bid[1]/@n') == ["1", "3"]
        assert self.values('doc("d")//auction/bid[last()]/@n') == ["2", "3"]
        assert self.values('doc("d")//auction/bid[position() > 1]/@n') \
            == ["2"]
        assert self.values('doc("d")//auction/bid[2 >= position()][2]/@n') \
            == ["2"]
        assert self.values('doc("d")//auction/bid[. > 6][1]/@n') \
            == ["2", "3"]
        assert self.values('doc("d")//auction/@id[1]') == ["a1", "a2", "a3"]
        assert self.values('doc("d")//auction/bid[1.5]') == []

    def test_inline_attribute_constructors_build_the_same_element(self):
        result = run('for $a in doc("d")//auction[bid] return '
                     '<r id="{$a/@id}" n="{count($a/bid)}">{$a/seller}</r>',
                     {"d": self.AUCTIONS})
        assert serialize_sequence(result) == (
            '<r id="a1" n="2"><seller>s1</seller></r> '
            '<r id="a2" n="1"><seller>s2</seller></r>')
        assert serialize_sequence(run(
            "element r {attribute a {1}, 2}, attribute b {3}")) \
            == '<r a="1">2</r> b="3"'


class TestPaths:
    def test_child_steps(self):
        result = run('doc("d")/people/person/name', {"d": PEOPLE})
        assert len(result) == 3

    def test_descendant_shortcut(self):
        result = run('doc("d")//age', {"d": PEOPLE})
        assert [n.string_value() for n in result] == ["30", "55", "41"]

    def test_attribute_step(self):
        result = run('doc("d")//person/@id', {"d": PEOPLE})
        assert [n.value for n in result] == ["p1", "p2", "p3"]

    def test_result_in_document_order_and_deduplicated(self):
        # Both steps reach the same b nodes: duplicates must vanish.
        result = run('(doc("d")//b, doc("d")/a/b)/c',
                     {"d": "<a><b><c/></b><b><c/></b></a>"})
        assert len(result) == 2

    def test_positional_predicate(self):
        result = run1('doc("d")//person[2]/name', {"d": PEOPLE})
        assert result.string_value() == "Bob"

    def test_boolean_predicate(self):
        result = run('doc("d")//person[age > 40]/name', {"d": PEOPLE})
        assert [n.string_value() for n in result] == ["Bob", "Col"]

    def test_predicate_with_position_function(self):
        result = run('doc("d")//person[position() > 1]/@id', {"d": PEOPLE})
        assert [n.value for n in result] == ["p2", "p3"]

    def test_predicate_with_last(self):
        result = run1('doc("d")//person[last()]/@id', {"d": PEOPLE})
        assert result.value == "p3"

    def test_parent_step(self):
        result = run('doc("d")//age/parent::person/@id', {"d": PEOPLE})
        assert len(result) == 3

    def test_path_over_atomic_raises(self):
        with pytest.raises(XQueryTypeError):
            run("(1, 2)/child::a")

    def test_reverse_axis_result_still_document_order(self):
        result = run('doc("d")//c/ancestor::*',
                     {"d": "<a><b><c/></b></a>"})
        assert [n.name for n in result] == ["a", "b"]


    def test_reverse_axis_positions_count_from_the_context(self):
        docs = {"d": "<a><b><c/></b><d/><e/></a>"}
        assert [n.name for n in run('doc("d")//c/ancestor::*[1]', docs)] \
            == ["b"]
        assert [n.name for n in run('doc("d")//c/ancestor-or-self::*[2]',
                                    docs)] == ["b"]
        assert [n.name for n in run('doc("d")//e/preceding-sibling::*[1]',
                                    docs)] == ["d"]
        assert [n.name for n in run('doc("d")//e/preceding::*[last()]',
                                    docs)] == ["b"]
        assert [n.name for n in run('doc("d")//b/following-sibling::*[1]',
                                    docs)] == ["d"]


class TestNodeSemantics:
    def test_is_identity(self):
        assert run1('let $d := doc("d") return $d//b is $d//b',
                    {"d": "<a><b/></a>"}) is True

    def test_is_differs_for_copies(self):
        assert run1("<a/> is <a/>") is False

    def test_order_comparisons(self):
        docs = {"d": "<a><b/><c/></a>"}
        assert run1('doc("d")//b << doc("d")//c', docs) is True
        assert run1('doc("d")//c >> doc("d")//b', docs) is True

    def test_node_comparison_empty_operand(self):
        assert run("() is ()") == []

    def test_node_comparison_requires_nodes(self):
        with pytest.raises(XQueryTypeError):
            run("1 is 2")

    def test_union_orders_and_dedups(self):
        result = run('let $d := doc("d") return $d//c union $d//b',
                     {"d": "<a><b/><c/></a>"})
        assert [n.name for n in result] == ["b", "c"]

    def test_intersect_by_identity(self):
        result = run('let $d := doc("d") return ($d//b) intersect ($d/a/b)',
                     {"d": "<a><b/></a>"})
        assert len(result) == 1

    def test_except(self):
        result = run('let $d := doc("d") return $d//* except $d//b',
                     {"d": "<a><b/><c/></a>"})
        assert [n.name for n in result] == ["a", "c"]

    def test_intersect_of_copies_is_empty(self):
        # Copies have fresh identity: Problem 2 of the paper.
        assert run("(<a/>) intersect (<a/>)") == []


class TestControl:
    def test_if_ebv(self):
        assert run1("if (()) then 1 else 2") == 2
        assert run1('if ("x") then 1 else 2') == 1

    def test_typeswitch_dispatch(self):
        query = ("typeswitch ({}) case xs:integer return \"int\" "
                 "case xs:string return \"str\" default return \"other\"")
        assert run1(query.format("1")) == "int"
        assert run1(query.format('"s"')) == "str"
        assert run1(query.format("1.5")) == "other"

    def test_typeswitch_binds_variable(self):
        assert run1("typeswitch (5) case $i as xs:integer return $i + 1 "
                    "default return 0") == 6

    def test_typeswitch_node_case(self):
        assert run1("typeswitch (<a/>) case node() return 1 "
                    "default return 2") == 1


class TestConstructors:
    def test_direct_element(self):
        node = run1("<a><b>x</b></a>")
        assert isinstance(node, Node)
        assert node.string_value() == "x"

    def test_computed_element_with_content(self):
        node = run1('element res { 1, "two" }')
        assert node.name == "res"
        assert node.string_value() == "1 two"

    def test_computed_name(self):
        node = run1('element { concat("a", "b") } { () }')
        assert node.name == "ab"

    def test_attribute_constructor(self):
        node = run1('attribute id { "v" }')
        assert node.name == "id" and node.value == "v"

    def test_text_constructor(self):
        node = run1("text { 1, 2 }")
        assert node.value == "1 2"

    def test_copied_content_gets_fresh_identity(self):
        assert run1('let $b := <b/> let $a := <a>{ $b }</a> '
                    "return $a/b is $b") is False

    def test_attribute_item_attaches(self):
        node = run1('element e { attribute x { "1" }, "body" }')
        from repro.xmldb.serializer import serialize_node
        assert serialize_node(node) == '<e x="1">body</e>'

    def test_constructed_per_iteration_distinct(self):
        assert run1("count((for $i in (1, 2) return <a/>) "
                    "intersect (for $i in (1, 2) return <a/>))") == 0

    # Element content merges adjacent text nodes and drops empty ones
    # (XQuery 1.0 §3.7.1.3), whatever made the text: atomics, text
    # constructors, copied text nodes, a document node's children.

    def test_atomics_merge_with_a_constructed_text(self):
        assert run1('count(<a>{1, text {"x"}}</a>/node())') == 1
        assert run1('string(<a>{1, text {"x"}}</a>)') == "1x"

    def test_two_constructed_texts_merge(self):
        assert run1('count(<a>{text {"x"}, text {"y"}}</a>/node())') == 1

    def test_direct_text_merges_with_enclosed_text(self):
        assert run1('count(<a>x{text {"y"}}</a>/node())') == 1

    def test_copied_text_nodes_merge(self):
        assert run1("count(<a>{<b>t</b>/text(), <c>u</c>/text()}</a>"
                    "/node())") == 1
        assert run1("string(<a>{<b>t</b>/text(), <c>u</c>/text()}</a>)") \
            == "tu"

    def test_an_empty_text_node_is_dropped(self):
        assert run1('count(<a>{text {""}}</a>/node())') == 0

    def test_document_content_merges_texts(self):
        assert run1('count(document {text {"x"}, text {"y"}}/node())') == 1

    def test_text_of_the_empty_sequence_constructs_nothing(self):
        assert run1("count(text {()})") == 0
        assert run('text {()}') == []

    def test_each_enclosed_expression_joins_its_own_atoms(self):
        """XQuery 1.0 §3.7.1.3: each enclosed expression's atoms make
        their own text node, and adjacent text nodes merge; one
        enclosed expression (or a computed constructor's content) joins
        its atoms with spaces."""
        assert serialize_sequence(run("<a>{1}{2}</a>")) == "<a>12</a>"
        assert serialize_sequence(run("<a>{1, 2}</a>")) == "<a>1 2</a>"
        assert serialize_sequence(run("element a {1, 2}")) == "<a>1 2</a>"
        assert serialize_sequence(run("<a>x{1}{2, 3}<b/>{4}</a>")) == \
            "<a>x12 3<b/>4</a>"
        assert serialize_sequence(run(
            "for $i in (1, 2) return <r>{$i}{$i + 1}</r>")) == \
            "<r>12</r> <r>23</r>"

    @pytest.mark.xfail(strict=True, reason=(
        "a filter on a sequence numbers the whole sequence, but the "
        "parser reads $x[2] as the path $x/self::node()[2], so each item "
        "is position 1 of its own context (and atoms are no context for "
        "a path step); the fix belongs in the parser: a filter step, "
        "not a path step"))
    @pytest.mark.parametrize("query, expected", [
        ("let $x := (<a/>, <b/>) return $x[2]", "<b/>"),
        ("let $x := (<a/>, <b/>) return $x[last()]", "<b/>"),
        ("(1, 2, 3)[2]", "2"),
    ])
    def test_a_positional_filter_numbers_the_whole_sequence(self, query,
                                                            expected):
        assert serialize_sequence(run(query)) == expected

    def test_a_frame_of_constructors_is_built_in_one_pass(self, monkeypatch):
        """``local_paths``' constructor query over its 100 persons: one
        builder per evaluation (not one per row), 100 documents."""
        from benchmarks.e2e.workloads import (
            LOCAL_QUERIES, LOCAL_SCALE, XMARK_SEED,
        )
        from repro.xmark.generator import XMarkConfig, generate_people
        from repro.xquery import evaluator

        entries = []

        class Counting(evaluator.DocumentBuilder):
            def __init__(self, *args, **kwargs):
                entries.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(evaluator, "DocumentBuilder", Counting)
        people = generate_people(XMarkConfig(LOCAL_SCALE, XMARK_SEED))
        query = next(text for text in LOCAL_QUERIES if "<row" in text)
        rows = run(query, {"people.xml": people})
        assert len(entries) == 1
        assert len(rows) == 100
        assert len({id(row.doc) for row in rows}) == 100
        assert all(row.pre == 0 and row.doc.count == len(row.doc.kinds)
                   for row in rows)


class TestFunctions:
    def test_user_function(self):
        assert run1("""
            declare function local:fact($n as xs:integer) as xs:integer
            { if ($n <= 1) then 1 else $n * local:fact($n - 1) };
            local:fact(5)""") == 120

    def test_function_scope_is_fresh(self):
        with pytest.raises(UndefinedVariableError):
            run("""
                declare function f() as item()* { $outer };
                let $outer := 1 return f()""")
