"""D-graph construction (Section III-A, Figure 2)."""

from repro.dgraph.graph import axis_category, build_dgraph
from repro.xquery.parser import parse_query

from tests.conftest import Q2


def vertices_of(graph, rule):
    return [v for v in graph.vertices if v.rule == rule]


class TestStructure:
    def test_single_root(self):
        graph = build_dgraph(parse_query("1 + 2"))
        roots = [v for v in graph.vertices if v.parent is None]
        assert len(roots) == 1

    def test_binders_get_var_vertices(self):
        graph = build_dgraph(parse_query(
            "let $s := 1 return for $x in (2) return ($s, $x)"))
        var_labels = {v.val for v in vertices_of(graph, "Var")}
        assert var_labels == {"$s", "$x"}

    def test_varref_edges_point_to_binding_var(self):
        graph = build_dgraph(parse_query("let $s := 1 return $s"))
        (ref,) = vertices_of(graph, "VarRef")
        target = graph[ref.varref]
        assert target.rule == "Var" and target.val == "$s"

    def test_varref_respects_shadowing(self):
        graph = build_dgraph(parse_query(
            "let $x := 1 return for $x in (2) return $x"))
        (ref,) = vertices_of(graph, "VarRef")
        # Binds to the for's Var, not the let's.
        for_vertex = vertices_of(graph, "ForExpr")[0]
        assert graph[ref.varref].parent == for_vertex.vid

    def test_path_becomes_step_chain(self):
        graph = build_dgraph(parse_query(
            'doc("u")/child::a/child::b/child::c'))
        steps = vertices_of(graph, "AxisStep")
        assert [s.val for s in steps] == [
            "child::c", "child::b", "child::a"]
        # Chain: c -> b -> a -> FunCall[doc]
        c, b, a = steps
        assert b.parent == c.vid and a.parent == b.vid
        assert graph[a.children[0]].rule == "FunCall"

    def test_step_counts_record_prefix_lengths(self):
        graph = build_dgraph(parse_query('doc("u")/child::a/child::b'))
        steps = vertices_of(graph, "AxisStep")
        assert sorted(s.step_count for s in steps) == [1, 2]

    def test_node_comparison_rule(self):
        graph = build_dgraph(parse_query("$a is $b"))
        assert vertices_of(graph, "NodeCmp")
        graph2 = build_dgraph(parse_query("$a = $b"))
        assert vertices_of(graph2, "CompExpr")
        assert not vertices_of(graph2, "NodeCmp")

    def test_user_functions_inlined(self):
        graph = build_dgraph(parse_query("""
            declare function f($n as item()*) as item()*
            { $n/parent::a };
            f(doc("u")/child::b)"""))
        # The reverse step inside f is visible in the graph.
        assert any(v.val == "parent::a"
                   for v in vertices_of(graph, "AxisStep"))
        # The argument hangs under the parameter's Var vertex.
        var = next(v for v in vertices_of(graph, "Var") if v.val == "$n")
        assert graph[var.children[0]].rule == "AxisStep"

    def test_recursive_function_not_inlined(self):
        graph = build_dgraph(parse_query("""
            declare function f($n as xs:integer) as xs:integer
            { if ($n = 0) then 0 else f($n - 1) };
            f(3)"""))
        calls = [v for v in vertices_of(graph, "FunCall") if v.val == "f"]
        assert len(calls) == 2  # outer inlined once, inner left opaque


class TestReachability:
    def test_parse_descendants(self):
        graph = build_dgraph(parse_query("let $s := 1 return $s"))
        let = vertices_of(graph, "LetExpr")[0]
        literal = vertices_of(graph, "Literal")[0]
        assert literal.vid in graph.parse_descendants(let.vid)
        assert let.vid not in graph.parse_descendants(literal.vid)

    def test_depends_follows_varrefs(self):
        graph = build_dgraph(parse_query(
            "let $s := doc(\"u\") return for $x in $s return $x"))
        # The for's body VarRef($x) reaches the doc call through two
        # varref hops ($x -> Var[$x] whose subtree has VarRef($s) -> ...).
        doc_call = next(v for v in vertices_of(graph, "FunCall")
                        if v.val == "doc")
        body_ref = [v for v in vertices_of(graph, "VarRef")
                    if v.val == "$x"][-1]
        assert graph.depends(body_ref.vid, doc_call.vid)


class TestFigure2:
    def test_q2_graph_shape(self):
        graph = build_dgraph(parse_query(Q2))
        rules = {v.rule for v in graph.vertices}
        assert {"LetExpr", "ForExpr", "IfExpr", "CompExpr", "AxisStep",
                "FunCall", "Var", "VarRef", "Literal"} <= rules
        # Two doc() calls, as in Figure 2 (v6, v10).
        docs = [v for v in graph.vertices
                if v.rule == "FunCall" and v.val == "doc"]
        assert len(docs) == 2


class TestAxisCategory:
    def test_categories(self):
        assert axis_category("parent") == "RevAxis"
        assert axis_category("ancestor") == "RevAxis"
        assert axis_category("following-sibling") == "HorAxis"
        assert axis_category("preceding") == "HorAxis"
        assert axis_category("child") == "FwdAxis"
        assert axis_category("descendant") == "FwdAxis"
