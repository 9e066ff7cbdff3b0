"""URI dependency sets ``D(v)`` and the document-conflict predicates.

``D(v)`` (Section IV) is the set of document URIs used by ``fn:doc``
calls that ``v`` reaches via parse edges, each tagged with the vertex
where the document is opened — "to be able to distinguish the use of
the same document through multiple fn:doc() calls". Computed URIs
become the wildcard ``*``; ``fn:collection`` is treated as ``doc(*)``;
an element construction is assigned an artificial unique URI
(``doc(vi::vi)`` in the paper's notation).

``hasMatchingDoc`` (Section V) isolates Problem 4: an expression that
depends on two *different* ``fn:doc`` call sites that may open the same
document can mix nodes from different remote calls, which
pass-by-fragment cannot repair.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.dgraph.graph import DGraph, Vertex


class DocDep(NamedTuple):
    """One entry of D(v): ``uri :: opened_at`` (vertex id)."""

    uri: str
    vertex: int

    def matches(self, other: "DocDep") -> bool:
        """URI match including wildcards (computed URIs)."""
        return (self.uri == other.uri or self.uri == "*"
                or other.uri == "*")


#: Constructors get artificial unique URIs with this prefix; they never
#: collide with real URIs but do match wildcards.
_CONSTRUCTED_PREFIX = "constructed:"


def uri_dependencies(graph: DGraph, vid: int) -> frozenset[DocDep]:
    """Compute D(v) for vertex ``vid``."""
    deps: set[DocDep] = set()
    for member in graph.parse_descendants(vid):
        vertex = graph[member]
        if vertex.rule == "FunCall" and vertex.val in ("doc", "collection"):
            deps.add(_doc_dep(graph, vertex))
        elif vertex.rule == "Constructor":
            deps.add(DocDep(f"{_CONSTRUCTED_PREFIX}v{vertex.vid}",
                            vertex.vid))
    return frozenset(deps)


def _doc_dep(graph: DGraph, vertex: Vertex) -> DocDep:
    if vertex.val == "collection":
        return DocDep("*", vertex.vid)
    if len(vertex.children) == 1:
        child = graph[vertex.children[0]]
        if child.rule == "Literal":
            # Literal vals are repr()'d strings.
            uri = child.val or ""
            if uri.startswith("'") or uri.startswith('"'):
                uri = uri[1:-1]
            return DocDep(uri, vertex.vid)
    return DocDep("*", vertex.vid)


def has_duplicate_doc(deps: frozenset[DocDep]) -> bool:
    """True when two *different* call sites in ``deps`` may open the
    same document (the negation of the paper's hasMatchingDoc)."""
    entries = list(deps)
    for i, left in enumerate(entries):
        for right in entries[i + 1:]:
            if left.vertex != right.vertex and left.matches(right):
                return True
    return False


def matching_doc_conflict(graph: DGraph, n: int, rs: int) -> bool:
    """Does consumer vertex ``n`` mix nodes of the candidate subquery
    ``rs`` with nodes from a *different* call site of a matching
    document?

    This realises the by-fragment refinement of Conditions ii/iii: a
    node comparison / set operation / axis step ``n`` is only dangerous
    when it can see the same document through the shipped subquery
    *and* through some other doc() application outside it.
    """
    subgraph = graph.parse_descendants(rs)
    n_deps = _reachable_doc_deps(graph, n)
    inside = {dep for dep in n_deps if dep.vertex in subgraph}
    outside = {dep for dep in n_deps if dep.vertex not in subgraph}
    for left in inside:
        for right in outside:
            if left.vertex != right.vertex and left.matches(right):
                return True
    # Two different call sites of the same doc inside the shipped
    # subquery are harmless (they run on one peer in one call), but two
    # matching call sites both visible to n via *separate* XRPC results
    # are caught above because one of them lies outside each candidate.
    return False


def _reachable_doc_deps(graph: DGraph, vid: int) -> frozenset[DocDep]:
    """Like D(v) but over the full depends-on relation (parse + varref),
    since a consumer reaches shipped data through variables."""
    deps: set[DocDep] = set()
    for member in graph.depends_set(vid):
        vertex = graph[member]
        if vertex.rule == "FunCall" and vertex.val in ("doc", "collection"):
            deps.add(_doc_dep(graph, vertex))
        elif vertex.rule == "Constructor":
            deps.add(DocDep(f"{_CONSTRUCTED_PREFIX}v{vertex.vid}",
                            vertex.vid))
    return frozenset(deps)
