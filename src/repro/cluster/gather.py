"""Gather semantics: combining per-shard results into one answer.

Three combinators:

* :func:`concatenate` — the default scatter-gather merge: per-shard
  result sequences concatenated in shard order. With range
  partitioning, shard order *is* the logical document order, so the
  gathered sequence equals the single-owner result sequence item for
  item; with hash partitioning the order is shard-major but stable.
* :func:`aggregate_combiner` — aggregate pushdown: when a scattered
  body is ``count(...)`` or ``sum(...)`` the per-shard bodies already
  reduce their partition, so the gather only adds N numbers instead of
  shipping N member sequences. (This relies on members being
  partitioned exactly once across shards — the partitioner's
  contract.)
* :func:`merge_shard_documents` — document assembly for data shipping:
  shard fragments fetched from their replicas are merged back into one
  document (shard 0's full content, with every later shard's members
  spliced into the member container in shard order).
"""

from __future__ import annotations

from repro.errors import ClusterError
from repro.cluster.partitioner import find_container
from repro.xmldb.axes import attribute as attribute_axis
from repro.xmldb.axes import child as child_axis
from repro.xmldb.document import Document, DocumentBuilder
from repro.xmldb.node import KIND_DOCUMENT, KIND_ELEMENT, Node
from repro.xquery.ast import (
    Expr, ForExpr, FunCall, LetExpr, Literal, OrderByExpr, PathExpr,
    QuantifiedExpr, walk,
)
from repro.xquery.functions import builtins_in

#: Aggregate functions whose per-shard results combine by addition.
_SUMMED = builtins_in("additive")

#: Context-position functions: per-shard positions are not global ones.
_READS_POSITION = builtins_in("positional")

#: ``doc(uri)``: the call whose URI names a collection's member.
_OPENS_DOCUMENT = builtins_in("document")


def concatenate(per_shard: list[list[list]]) -> list[list]:
    """Merge ``per_shard[shard][call]`` item sequences into one result
    list per call, shard-major (document order under range
    partitioning)."""
    if not per_shard:
        return []
    calls = len(per_shard[0])
    merged: list[list] = [[] for _ in range(calls)]
    for shard_results in per_shard:
        if len(shard_results) != calls:
            raise ClusterError(
                f"shard returned {len(shard_results)} call results, "
                f"expected {calls}")
        for index, items in enumerate(shard_results):
            merged[index].extend(items)
    return merged


def aggregate_combiner(body: Expr):
    """The gather combinator for an aggregate-shaped scattered body,
    or None when the body is not an additive aggregate.

    Returns a callable ``combine(per_shard) -> list[list]`` summing the
    single numeric item each shard produced per call.
    """
    if not (isinstance(body, FunCall) and body.name in _SUMMED
            and len(body.args) == 1):
        return None

    def combine(per_shard: list[list[list]]) -> list[list]:
        concatenated = concatenate(per_shard)
        out: list[list] = []
        for items in concatenated:
            total: int | float = 0
            for item in items:
                if not isinstance(item, (int, float)) \
                        or isinstance(item, bool):
                    raise ClusterError(
                        f"aggregate pushdown expected numeric shard "
                        f"results, got {type(item).__name__}")
                total += item
            out.append([total])
        return out

    return combine


def quantifier_combiner(body: Expr, collection: str):
    """OR/AND gather for a ``some``/``every`` scattered body, or None.

    Sound only when the satisfies clause itself never re-opens the
    collection (a per-shard ``count(coll)`` inside the condition would
    see partial data), so that case is left to the local fallback.
    """
    if not isinstance(body, QuantifiedExpr):
        return None
    if _references_collection(body.cond, collection):
        return None
    existential = body.quantifier == "some"

    def combine(per_shard: list[list[list]]) -> list[list]:
        concatenated = concatenate(per_shard)
        out: list[list] = []
        for items in concatenated:
            votes = [bool(item) for item in items]
            out.append([any(votes) if existential else all(votes)])
        return out

    return combine


def _references_collection(expr: Expr, collection: str) -> bool:
    prefix = f"xrpc://{collection}/"
    for node in walk(expr):
        if isinstance(node, FunCall) and node.name in ("doc", "fn:doc") \
                and len(node.args) == 1:
            arg = node.args[0]
            if isinstance(arg, Literal) and isinstance(arg.value, str) \
                    and arg.value.startswith(prefix):
                return True
    return False


def gather_plan(body: Expr, collection: str):
    """The gather combinator for scattering ``body``, or None when the
    body is not scatter-safe and must run at the originator over the
    merged collection document instead.

    Scatter-safe means every result item derives from one member
    independently (map shapes: paths, FLWOR without positions), or the
    per-shard results combine algebraically (count/sum addition,
    some/every disjunction/conjunction) — and the collection is opened
    only in *generator* position (the path input / ``for`` binding /
    ``let`` value feeding the map). A re-reference from a consumer
    position (a step predicate, a loop body, an aggregate inside a
    condition) would see one shard's slice where the query means the
    whole collection. Global-order and global-position constructs —
    ``order by``, positional ``for ... at``, ``position()``/``last()``,
    numeric step predicates — see only their shard's slice too. All of
    those fall back.
    """
    if not _free_of_global_positions(body):
        return None
    if isinstance(body, FunCall) and body.name in _SUMMED \
            and len(body.args) == 1:
        if not _source_safe(body.args[0], collection):
            return None
        return aggregate_combiner(body)
    combine = quantifier_combiner(body, collection)
    if combine is not None:
        if not _source_safe(body.seq, collection):
            return None
        return combine
    if _is_map_shape(body) and _source_safe(body, collection):
        return concatenate
    return None


def _source_safe(expr: Expr, collection: str) -> bool:
    """True when every reference to the collection sits in generator
    position, so per-shard evaluation sees exactly its partition of the
    member stream and nothing global."""
    if _is_collection_doc_call(expr, collection):
        return True
    if isinstance(expr, PathExpr):
        return (_source_safe(expr.input, collection)
                and not any(_references_collection(predicate, collection)
                            for step in expr.steps
                            for predicate in step.predicates))
    if isinstance(expr, ForExpr):
        return (expr.pos_var is None
                and _source_safe(expr.seq, collection)
                and not _references_collection(expr.body, collection))
    if isinstance(expr, LetExpr):
        return (_source_safe(expr.value, collection)
                and _source_safe(expr.body, collection))
    return not _references_collection(expr, collection)


def _is_collection_doc_call(expr: Expr, collection: str) -> bool:
    if not (isinstance(expr, FunCall) and expr.name in _OPENS_DOCUMENT
            and len(expr.args) == 1):
        return False
    arg = expr.args[0]
    return (isinstance(arg, Literal) and isinstance(arg.value, str)
            and arg.value.startswith(f"xrpc://{collection}/"))


def _free_of_global_positions(body: Expr) -> bool:
    for node in walk(body):
        if isinstance(node, OrderByExpr):
            return False
        if isinstance(node, ForExpr) and node.pos_var is not None:
            return False
        if isinstance(node, FunCall) and node.name in _READS_POSITION:
            return False
        if isinstance(node, PathExpr):
            for step in node.steps:
                for predicate in step.predicates:
                    if isinstance(predicate, Literal) \
                            and isinstance(predicate.value, (int, float)) \
                            and not isinstance(predicate.value, bool):
                        return False  # numeric predicate == position
    return True


def _is_map_shape(body: Expr) -> bool:
    """Roots whose results are a per-member map: safe to concatenate."""
    if isinstance(body, PathExpr):
        return True
    if isinstance(body, ForExpr):
        return body.pos_var is None
    if isinstance(body, LetExpr):
        return _is_map_shape(body.body)
    return False


# ---------------------------------------------------------------------------
# Shard document merge (data shipping over a sharded collection)
# ---------------------------------------------------------------------------


def merge_shard_documents(shard_docs: list[Document], uri: str,
                          container_path: tuple[str, ...]) -> Document:
    """Reassemble shard fragments into one logical document.

    Shard 0 is copied verbatim except that, inside the member
    container, the element children of every later shard's container
    are appended in shard order. With range partitioning this
    reproduces the original document byte for byte.
    """
    if not shard_docs:
        raise ClusterError("cannot merge an empty shard list")
    base = shard_docs[0]
    containers = [find_container(doc, container_path)
                  for doc in shard_docs]
    builder = DocumentBuilder(uri)
    has_doc_node = base.root.kind == KIND_DOCUMENT
    if has_doc_node:
        top = _first_element(base.root)
    else:
        top = base.root
    if top is None:
        raise ClusterError(f"shard document {base.uri!r} has no root "
                           "element")
    if has_doc_node:
        builder.start_document()
    _copy_merged(builder, top, containers[0].pre, containers[1:])
    if has_doc_node:
        builder.end_document()
    return builder.finish()


def _first_element(node: Node) -> Node | None:
    for child in child_axis(node):
        if child.kind == KIND_ELEMENT:
            return child
    return None


def _copy_merged(builder: DocumentBuilder, node: Node, container_pre: int,
                 rest_containers: list[Node]) -> None:
    builder.start_element(node.name)
    for attr in attribute_axis(node):
        builder.attribute(attr.name, attr.value)
    on_spine = node.pre <= container_pre
    for child in child_axis(node):
        covers = (child.kind == KIND_ELEMENT and on_spine
                  and child.pre <= container_pre
                  and container_pre <= child.pre + child.size)
        if covers:
            _copy_merged(builder, child, container_pre, rest_containers)
        else:
            builder.copy_subtree(child)
    if node.pre == container_pre:
        # Splice the other shards' members, in shard order.
        for container in rest_containers:
            for member in child_axis(container):
                builder.copy_subtree(member)
    builder.end_element()
