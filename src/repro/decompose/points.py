"""Interesting decomposition points ``I'(G)`` and insertion planning.

A valid d-point is *interesting* (Section IV) when (a) it is the root
vertex of its URI-dependency equivalence class, (b) its subquery opens
at least one document via an ``xrpc://`` URI, and (c) it performs at
least one XPath step — "executing fn:doc() remotely provides no
performance gain, as it only demands the shipping of a whole document".

From ``I'(G)`` we build an :class:`InsertionPlan`: the outermost
non-root interesting points whose documents live on a single remote
peer, each mapped back to the AST expression (or path prefix) it
covers.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.dgraph.analysis import DocDep, uri_dependencies
from repro.dgraph.graph import DGraph, Vertex
from repro.xquery.ast import Expr

XRPC_SCHEME = "xrpc://"


def split_xrpc_uri(uri: str) -> tuple[str, str] | None:
    """``(host, local_name)`` of an ``xrpc://host/local`` URI — the one
    parser of the scheme. ``local_name`` is empty for a bare
    ``xrpc://host`` (the form ``execute at`` destinations take); None
    for non-xrpc URIs and for an empty host."""
    if not uri.startswith(XRPC_SCHEME):
        return None
    host, _, local_name = uri[len(XRPC_SCHEME):].partition("/")
    return (host, local_name) if host else None


class InsertionPlan(NamedTuple):
    """One planned ``XRPCExpr`` insertion.

    ``target`` is the AST expression to ship; for a path-prefix point,
    ``step_count`` is the number of leading steps included (None means
    the whole expression).
    """

    vertex: int
    target: Expr
    step_count: int | None
    host: str


def interesting_points(graph: DGraph, dpoints: set[int]) -> list[int]:
    """I'(G) per the Section IV definition, in vertex order.

    Restriction (a) — "are a root vertex in their induced subgraph" —
    is applied relative to the *valid* points: the highest valid
    d-point of each URI-dependency equivalence class is the class
    root. (An invalid class root, e.g. a for-loop that condition iii
    excludes, must not disqualify the valid points inside it; shipping
    the highest valid one realises as much of the class as the
    conditions allow.)
    """
    out: list[int] = []
    for vertex in graph.vertices:
        if vertex.vid not in dpoints:
            continue
        deps = uri_dependencies(graph, vertex.vid)
        if not _has_xrpc_uri(deps):
            continue  # restriction on D(vx) content
        if not _has_axis_step(graph, vertex):
            continue  # restriction (c)
        if not _is_class_root(graph, vertex, deps, dpoints):
            continue  # restriction (a)
        out.append(vertex.vid)
    return out


def _has_xrpc_uri(deps: frozenset[DocDep]) -> bool:
    return any(dep.uri.startswith(XRPC_SCHEME) for dep in deps)


def _has_axis_step(graph: DGraph, vertex: Vertex) -> bool:
    return any(graph[vid].rule == "AxisStep"
               for vid in graph.parse_descendants(vertex.vid))


def _is_class_root(graph: DGraph, vertex: Vertex, deps: frozenset[DocDep],
                   dpoints: set[int]) -> bool:
    """No proper parse ancestor with the same URI dependency set is
    itself a valid d-point.

    Var vertices are transparent (footnote 1: a class rooted at a
    ``Var`` uses its value expression as root). An ancestor with a
    *different* D ends the class upward — the class root has been
    reached.
    """
    parent = vertex.parent
    while parent is not None:
        ancestor = graph[parent]
        if ancestor.rule == "Var":
            parent = ancestor.parent
            continue
        if uri_dependencies(graph, ancestor.vid) != deps:
            return True
        if ancestor.vid in dpoints:
            return False  # a higher valid point of the same class
        parent = ancestor.parent
    return True  # reached the graph root within the class


def select_insertions(graph: DGraph, ipoints: list[int],
                      local_host: str | None = None) -> list[InsertionPlan]:
    """Choose the outermost single-peer interesting points.

    The graph root is never selected (it means "run the whole query
    locally", the fcn0 of Table IV). Points nested inside an already
    selected point are skipped — the shipped subquery carries them
    along. Points whose documents span several peers are skipped
    (distributed placement across peers is the paper's future work).
    """
    chosen: list[InsertionPlan] = []
    covered: set[int] = set()
    for vid in sorted(ipoints):
        if vid in covered:
            continue
        vertex = graph[vid]
        if vertex.ast is None:
            continue
        host = _single_remote_host(graph, vid, local_host)
        if host is None:
            continue
        chosen.append(InsertionPlan(vid, vertex.ast, vertex.step_count,
                                    host))
        covered |= set(graph.parse_descendants(vid))
    return chosen


def _single_remote_host(graph: DGraph, vid: int,
                        local_host: str | None) -> str | None:
    """The one remote peer that can run this subquery locally, or None.

    Every document dependency must be shippable: xrpc URIs of a single
    remote host, or constructed nodes (which evaluate anywhere). A
    plain (originator-relative) URI or a computed wildcard pins the
    subquery to the originator.
    """
    hosts: set[str] = set()
    for dep in uri_dependencies(graph, vid):
        if dep.uri.startswith("constructed:"):
            continue
        parts = split_xrpc_uri(dep.uri)
        if parts is None:
            return None  # relative or computed URI: stay local
        hosts.add(parts[0])
    if len(hosts) != 1:
        return None
    host = hosts.pop()
    if host == local_host:
        return None
    return host
