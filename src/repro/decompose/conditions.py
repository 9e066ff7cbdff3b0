"""The insertion conditions of Sections IV-VI.

A vertex ``rs`` is a *valid decomposition point* (member of ``I(G)``)
iff none of the strategy's conditions fires. The by-value conditions
(Section IV):

* **i** — no reverse/horizontal axis step uses the remote result or a
  shipped parameter (Problem 1);
* **ii** — no node comparison (``is``/``<<``/``>>``) or node-set
  operator does so (Problems 2-3);
* **iii** — no (downward) axis step is applied to shipped nodes that
  may form a "mixed-call sequence", be out of document order, or
  overlap: a mixer vertex (ForExpr / OrderExpr / ExprSeq / NodeSetExpr /
  an overlapping-axis step) is involved with the shipped data
  (Problem 4);
* **iv** — no ``fn:root``/``fn:id``/``fn:idref`` call uses shipped
  nodes (Problem 5, Classes 3-4).

By-fragment (Section V) keeps i and iv, removes ForExpr/OrderExpr and
overlapping axes from the mixer set (Bulk RPC plus order/containment
preservation in the message format), and restricts ii/iii to consumers
that actually mix two different applications of the same document
(``hasMatchingDoc``). By-projection (Section VI) additionally drops
i and iv.

Reading note on condition iii: the paper's formula relates ``rs``, the
step ``n`` and the mixer ``m`` through the dependency relation. We
implement the reading that reproduces the paper's worked Example 4.1
exactly (``I'(G) = {v1, v4}`` on Figure 2): a mixer is *involved* with
``rs`` when ``rs`` depends on it **or** it parse-contains ``rs`` —
the latter covers the "as well as all their descendants" exclusion the
example spells out.
"""

from __future__ import annotations

from repro.dgraph.analysis import matching_doc_conflict
from repro.dgraph.graph import DGraph, Vertex, axis_category
from repro.xmldb.axes import NON_OVERLAPPING_AXES
from repro.xquery.functions import builtins_in

#: Mixer rules for condition iii under pass-by-value.
MIXER_RULES_BY_VALUE = frozenset({
    "ForExpr", "OrderExpr", "ExprSeq", "NodeSetExpr",
})

#: Mixer rules under pass-by-fragment / pass-by-projection: Bulk RPC
#: removes ForExpr; the ordered, deduplicated fragment format removes
#: OrderExpr and the overlapping-axis restriction.
MIXER_RULES_BY_FRAGMENT = frozenset({"ExprSeq", "NodeSetExpr"})

#: Built-ins of condition iv (Problem 5 Classes 3-4).
_NON_DESCENDANT = builtins_in("root", "id")


def _is_mixer(graph: DGraph, vertex: Vertex, allow_loops: bool) -> bool:
    """Is this vertex a condition-iii mixer under the given mixer set?

    ``allow_loops`` selects the by-fragment relaxation.
    """
    rules = MIXER_RULES_BY_FRAGMENT if allow_loops else MIXER_RULES_BY_VALUE
    if vertex.rule in rules:
        # The empty sequence "()" cannot mix anything.
        return vertex.val != "()"
    if not allow_loops and vertex.rule == "AxisStep":
        axis = (vertex.val or "").split("::", 1)[0]
        return axis not in NON_OVERLAPPING_AXES
    return False


def _axis_step_vertices(graph: DGraph) -> list[Vertex]:
    return graph.by_rule("AxisStep")


def _uses(graph: DGraph, n: int, rs: int) -> bool:
    """useResult(n, rs) or useParam(n, rs)."""
    subgraph = graph.parse_descendants(rs)
    if n in subgraph:
        return bool(graph.depends_set(n) - subgraph)  # useParam
    return graph.depends(n, rs)  # useResult


def _condition_i(graph: DGraph, rs: int) -> bool:
    """True when condition i FAILS (a violation exists)."""
    for vertex in _axis_step_vertices(graph):
        axis = (vertex.val or "").split("::", 1)[0]
        if axis_category(axis) == "FwdAxis":
            continue
        if _uses(graph, vertex.vid, rs):
            return True
    return False


def _condition_ii(graph: DGraph, rs: int, fragment: bool) -> bool:
    for vertex in graph.by_rule("NodeCmp", "NodeSetExpr"):
        if not _uses(graph, vertex.vid, rs):
            continue
        if fragment and not matching_doc_conflict(graph, vertex.vid, rs):
            continue  # identity preserved within one fragment space
        return True
    return False


def _condition_iii(graph: DGraph, rs: int, fragment: bool) -> bool:
    subgraph = graph.parse_descendants(rs)
    mixers = [v for v in graph.vertices
              if _is_mixer(graph, v, allow_loops=fragment)]
    seq_mixers = [v for v in graph.by_rule("ExprSeq", "NodeSetExpr")
                  if v.val != "()"]
    if not mixers and not seq_mixers:
        return False
    steps = _axis_step_vertices(graph)

    for n in steps:
        if n.vid in subgraph:
            # Parameter side: a step inside the shipped body applied to
            # outside data that flows through a mixer.
            outside = graph.depends_set(n.vid) - subgraph
            if not outside:
                continue
            for m in mixers:
                if any(graph.depends(v, m.vid) for v in outside):
                    if fragment and not matching_doc_conflict(
                            graph, n.vid, rs):
                        continue
                    return True
        else:
            if not graph.depends(n.vid, rs):
                continue
            # Result side (paper's first disjunct): a step applied
            # (directly or via variables) to the remote result, where
            # the shipped subquery itself contains (depends on) a
            # mixer — its result sequence may be out of order,
            # overlapping, or a mixed-call sequence. The reflexive
            # case excludes shipping a ForExpr whose own output
            # receives steps.
            for m in mixers:
                if not graph.depends(rs, m.vid):
                    continue
                if fragment and not matching_doc_conflict(graph, n.vid, rs):
                    continue
                return True
            # Consumer-side mixing (Problem 4): a sequence/set operator
            # *between* the step and the shipped subquery combines the
            # remote result with other nodes. By-value prohibits this
            # outright; by-fragment/projection only when the mix can
            # contain the same document through a different call site
            # (hasMatchingDoc).
            for m in seq_mixers:
                if not (graph.depends(n.vid, m.vid)
                        and graph.depends(m.vid, rs)):
                    continue
                if fragment and not matching_doc_conflict(graph, n.vid, rs):
                    continue
                return True
    return False


def _condition_iv(graph: DGraph, rs: int) -> bool:
    for vertex in graph.by_rule("FunCall"):
        if vertex.val not in _NON_DESCENDANT:
            continue
        if _uses(graph, vertex.vid, rs):
            return True
    return False


def is_valid_dpoint(graph: DGraph, rs: int, strategy: str) -> bool:
    """Check all insertion conditions for candidate ``rs``.

    ``strategy`` is one of ``"by-value"``, ``"by-fragment"``,
    ``"by-projection"`` (the :class:`~repro.decompose.strategy.Strategy`
    values).
    """
    vertex = graph[rs]
    if vertex.rule in ("Var", "XRPCParam", "ThenElse", "CaseClause",
                       "DefaultClause"):
        return False
    fragment = strategy in ("by-fragment", "by-projection")
    if strategy == "by-projection":
        # Conditions i and iv are solved by runtime projection.
        return not (_condition_ii(graph, rs, fragment=True)
                    or _condition_iii(graph, rs, fragment=True))
    if _condition_i(graph, rs):
        return False
    if _condition_ii(graph, rs, fragment):
        return False
    if _condition_iii(graph, rs, fragment):
        return False
    if _condition_iv(graph, rs):
        return False
    return True


def valid_decomposition_points(graph: DGraph, strategy: str) -> set[int]:
    """I(G): every vertex satisfying the strategy's conditions."""
    return {vertex.vid for vertex in graph.vertices
            if is_valid_dpoint(graph, vertex.vid, strategy)}
