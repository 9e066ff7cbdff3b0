"""The XCore dependency graph (d-graph) of Section III.

A d-graph is "in essence a parse-tree with additional (dashed) edges to
indicate variable usages": vertices labelled with grammar rules,
*parse edges* from each rule use to the rules it directly causes, and
*varref edges* from each :class:`~repro.xquery.ast.VarRef` to the
``Var`` vertex that binds it.

The graph drives every analysis of Sections IV-VI: reachability
("parse-depends" / "varref-depends" / "depends"), URI dependency sets
``D(v)``, the insertion conditions, and interesting decomposition
points ``I'(G)``.
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(globals(), {
    ".graph": "DGraph Vertex build_dgraph",
    ".analysis": "DocDep uri_dependencies has_duplicate_doc "
                 "matching_doc_conflict",
})
