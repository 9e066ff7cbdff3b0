"""URI dependency sets D(v) and document-conflict predicates."""

from repro.dgraph.analysis import (
    DocDep, matching_doc_conflict, uri_dependencies,
)
from repro.dgraph.graph import build_dgraph
from repro.xquery.parser import parse_query


class TestDocDep:
    def test_exact_match(self):
        assert DocDep("u", 1).matches(DocDep("u", 2))
        assert not DocDep("u", 1).matches(DocDep("v", 2))

    def test_wildcard_matches_everything(self):
        assert DocDep("*", 1).matches(DocDep("u", 2))
        assert DocDep("u", 1).matches(DocDep("*", 2))


class TestUriDependencies:
    def test_literal_uri_extracted(self):
        graph = build_dgraph(parse_query('doc("xrpc://A/d.xml")/child::a'))
        deps = uri_dependencies(graph, 0)
        assert {d.uri for d in deps} == {"xrpc://A/d.xml"}

    def test_computed_uri_is_wildcard(self):
        graph = build_dgraph(parse_query('doc(concat("a", "b"))'))
        deps = uri_dependencies(graph, 0)
        assert {d.uri for d in deps} == {"*"}

    def test_collection_is_wildcard(self):
        graph = build_dgraph(parse_query('collection("c")'))
        assert {d.uri for d in uri_dependencies(graph, 0)} == {"*"}

    def test_constructor_gets_artificial_uri(self):
        graph = build_dgraph(parse_query("element a { 1 }"))
        deps = uri_dependencies(graph, 0)
        assert len(deps) == 1
        assert next(iter(deps)).uri.startswith("constructed:")

    def test_scoped_to_parse_subgraph(self):
        graph = build_dgraph(parse_query(
            'let $a := doc("u") return doc("v")'))
        let_vertex = next(v for v in graph.vertices if v.rule == "LetExpr")
        var_vertex = next(v for v in graph.vertices if v.rule == "Var")
        assert len(uri_dependencies(graph, let_vertex.vid)) == 2
        assert {d.uri for d in uri_dependencies(graph, var_vertex.vid)} \
            == {"u"}

    def test_call_sites_distinguished(self):
        graph = build_dgraph(parse_query('(doc("u"), doc("u"))'))
        deps = uri_dependencies(graph, 0)
        assert len(deps) == 2  # same URI, two vertices


class TestMatchingDocConflict:
    def test_conflict_across_boundary(self):
        # The sequence mixes the candidate's doc("u") with another
        # doc("u") call site outside it.
        graph = build_dgraph(parse_query(
            '(doc("u")/child::a, doc("u")/child::b)/child::c'))
        top_step = graph[0]
        assert top_step.rule == "AxisStep"
        inner = next(v for v in graph.vertices
                     if v.rule == "AxisStep" and v.val == "child::a")
        assert matching_doc_conflict(graph, top_step.vid, inner.vid)

    def test_no_conflict_when_docs_differ(self):
        graph = build_dgraph(parse_query(
            '(doc("u")/child::a, doc("v")/child::b)/child::c'))
        inner = next(v for v in graph.vertices
                     if v.rule == "AxisStep" and v.val == "child::a")
        assert not matching_doc_conflict(graph, 0, inner.vid)

    def test_no_conflict_when_both_inside(self):
        # Two applications of the same doc *inside* the candidate run
        # on one peer in one call: harmless.
        graph = build_dgraph(parse_query(
            '(doc("u")/child::a, doc("u")/child::b)'))
        seq_vertex = graph[0]
        assert seq_vertex.rule == "ExprSeq"
        assert not matching_doc_conflict(graph, 0, 0)
