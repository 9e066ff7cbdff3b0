"""Pretty-printer tests: output must re-parse to the same semantics."""

import pytest

from repro.xquery.parser import parse_expr, parse_query
from repro.xquery.pretty import pretty
from repro.xquery.xdm import serialize_sequence

from tests.xquery.helpers import run

CORPUS = [
    "1 + 2 * 3",
    "(1, 2, 3)",
    "for $x in (1, 2) return $x * $x",
    "let $x := 5 return if ($x > 3) then $x else ()",
    'doc("u")/child::a/descendant::b[2]',
    "some $x in (1, 2) satisfies $x = 2",
    "for $x in (3, 1) order by $x descending return $x",
    "$a union $b intersect $c",
    "typeswitch (1) case xs:integer return 1 default return 2",
    'element res { attribute x { "1" }, "body" }',
    "1 to 5",
    "-(2 + 3)",
    "count((1, 2)) = 2",
    'execute at {"p"} function ($a := $b) { $a/child::c }',
]


@pytest.mark.parametrize("query", CORPUS)
def test_roundtrip_reparses(query):
    text = pretty(parse_expr(query))
    reparsed = parse_expr(text)
    assert pretty(reparsed) == text  # fixpoint after one round


@pytest.mark.parametrize("query", [
    "1 + 2 * 3",
    "(2 + 1) * 3",
    "for $x in (1, 2) return $x + 1",
    "let $x := 2 return $x * $x",
    "for $x in (3, 1, 2) order by $x return $x",
    "if (1 < 2) then \"y\" else \"n\"",
    "some $x in (1, 2, 3) satisfies $x = 3",
])
def test_roundtrip_preserves_semantics(query):
    assert run(pretty(parse_expr(query))) == run(query)


def test_module_with_functions():
    module = parse_query("""
        declare function local:f($x as xs:integer) as xs:integer
        { $x + 1 };
        local:f(1)""")
    text = pretty(module)
    assert "declare function local:f" in text
    reparsed = parse_query(text)
    assert reparsed.function("local:f", 1) is not None


def test_precedence_preserved_by_parens():
    # (1 + 2) * 3 must not re-render as 1 + 2 * 3.
    expr = parse_expr("(1 + 2) * 3")
    assert run(pretty(expr)) == [9]


@pytest.mark.parametrize("query, rendered", [
    ("<a>{1}{2}</a>", "<a>{1}{2}</a>"),
    ("element a {(1, 2)}", "element a {(1, 2)}"),
    ("<a>{1, 2}</a>", "element a {(1, 2)}"),
    ('<a k="v">t{1}<b/></a>',
     '<a>{attribute k {"v"}}{text {"t"}}{1}{element b {}}</a>'),
    ("<a/>", "element a {}"),
])
def test_a_direct_constructor_keeps_its_enclosed_expressions(query,
                                                             rendered):
    """One content part per enclosed expression: ``<a>{1}{2}</a>`` and
    ``element a {(1, 2)}`` print apart, a constructor of one part prints
    in the computed form, and each re-parses to itself."""
    expr = parse_expr(query)
    assert pretty(expr) == rendered
    assert parse_expr(rendered) == expr
    assert serialize_sequence(run(rendered)) == \
        serialize_sequence(run(query))
