"""Partitioning one XML document into shard fragment documents.

A collection's *members* are the element children of one container
element (e.g. every ``person`` under ``site/people``). A partitioner
assigns each member to a shard:

* :class:`RangePartitioner` — contiguous document-order ranges
  (optionally keyed by a member attribute such as XMark's
  ``person/@id``, whose numeric suffix follows document order).
  Concatenating per-shard results in shard order reproduces the
  original document order, so range-sharded collections are
  order-stable under scatter-gather.
* :class:`HashPartitioner` — a deterministic content hash (CRC-32 of
  the member key, never Python's seed-randomised ``hash``) spreads
  members independent of insertion order; gather order is shard-major
  and therefore stable run-to-run but not the original document order.

:func:`partition_document` materialises the shard documents: every
shard carries the spine (root .. container chain, with attributes) plus
its assigned members; shard 0 additionally carries all non-member
content (XMark's regions and categories), so the shards form an exact,
duplication-free partition of the original document.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.cluster.catalog import ClusterError
from repro.xmldb.axes import attribute as attribute_axis
from repro.xmldb.axes import child as child_axis
from repro.xmldb.document import Document, DocumentBuilder
from repro.xmldb.index import structural_index
from repro.xmldb.node import KIND_DOCUMENT, KIND_ELEMENT, Node


class Partitioner:
    """Assigns member elements to shards."""

    #: "range" partitioners guarantee shard-order == document-order.
    kind = "custom"

    def assign(self, members: list[Node], shard_count: int) -> list[int]:
        """One shard index per member, in document order."""
        raise NotImplementedError


@dataclass(frozen=True)
class RangePartitioner(Partitioner):
    """Contiguous document-order ranges of (nearly) equal size."""

    kind = "range"

    def assign(self, members: list[Node], shard_count: int) -> list[int]:
        total = len(members)
        if shard_count <= 0:
            raise ClusterError(f"shard_count must be positive, "
                               f"got {shard_count}")
        return [index * shard_count // max(total, 1)
                for index in range(total)]


@dataclass(frozen=True)
class HashPartitioner(Partitioner):
    """Deterministic hash of a member key attribute (CRC-32, stable
    across processes — Python's ``hash`` is seed-randomised and would
    break run-to-run reproducibility)."""

    key_attribute: str = "id"
    kind = "hash"

    def assign(self, members: list[Node], shard_count: int) -> list[int]:
        if shard_count <= 0:
            raise ClusterError(f"shard_count must be positive, "
                               f"got {shard_count}")
        return [zlib.crc32(self._key(member, position).encode())
                % shard_count
                for position, member in enumerate(members)]

    def _key(self, member: Node, position: int) -> str:
        for attr in attribute_axis(member):
            if attr.name == self.key_attribute:
                return attr.value
        return str(position)  # keyless member: position is still stable


def make_partitioner(partitioning: str, key_attribute: str = "id"
                     ) -> Partitioner:
    if partitioning == "range":
        return RangePartitioner()
    if partitioning == "hash":
        return HashPartitioner(key_attribute=key_attribute)
    raise ClusterError(f"unknown partitioning {partitioning!r} "
                       "(expected 'range' or 'hash')")


# ---------------------------------------------------------------------------
# Shard document construction
# ---------------------------------------------------------------------------


def find_container(document: Document,
                   container_path: tuple[str, ...]) -> Node:
    """The member container element reached by following
    ``container_path`` (first matching child at each step)."""
    node = document.root
    if node.kind == KIND_DOCUMENT:
        node = _first_element_child(node)
    if node is None or node.name != container_path[0]:
        raise ClusterError(
            f"document {document.uri!r} root element does not match "
            f"container path {'/'.join(container_path)!r}")
    for name in container_path[1:]:
        node = _named_child(node, name)
        if node is None:
            raise ClusterError(
                f"document {document.uri!r} has no "
                f"{'/'.join(container_path)!r} container")
    return node


def _first_element_child(node: Node) -> Node | None:
    for candidate in child_axis(node):
        if candidate.kind == KIND_ELEMENT:
            return candidate
    return None


def _named_child(node: Node, name: str) -> Node | None:
    # Tag-index range scan: first child named ``name`` without walking
    # past-the-name siblings (container spines sit above wide fan-out).
    pres = structural_index(node.doc).axis_scan("child", name, [node.pre])
    return Node(node.doc, pres[0]) if pres else None


def collection_members(document: Document, container_path: tuple[str, ...],
                       member: str) -> list[Node]:
    """The member elements, in document order (one tag-index scan —
    the shard-local structural indexes the gather path relies on are
    built here as a side effect, before any scatter touches them)."""
    container = find_container(document, container_path)
    pres = structural_index(document).axis_scan("child", member,
                                                [container.pre])
    return [Node(document, pre) for pre in pres]


def partition_document(document: Document,
                       container_path: tuple[str, ...],
                       member: str,
                       shard_count: int,
                       partitioner: Partitioner,
                       uri_for_shard=None) -> list[tuple[Document, int]]:
    """Split ``document`` into ``shard_count`` fragment documents.

    Returns ``[(shard_document, member_count), ...]`` in shard order.
    Every shard repeats the spine; shard 0 keeps all non-member
    content. A shard assigned no members still exists (its container is
    simply empty) so placements stay uniform.
    """
    members = collection_members(document, container_path, member)
    assignments = partitioner.assign(members, shard_count)
    if len(assignments) != len(members):
        raise ClusterError(
            f"partitioner returned {len(assignments)} assignments for "
            f"{len(members)} members")
    by_shard: dict[int, set[int]] = {s: set() for s in range(shard_count)}
    for node, shard in zip(members, assignments):
        if not 0 <= shard < shard_count:
            raise ClusterError(f"partitioner assigned shard {shard} "
                               f"outside 0..{shard_count - 1}")
        by_shard[shard].add(node.pre)

    container = find_container(document, container_path)
    spine = _spine_pres(container)
    out: list[tuple[Document, int]] = []
    for shard in range(shard_count):
        uri = (uri_for_shard(shard) if uri_for_shard is not None
               else f"{document.uri}#s{shard}")
        builder = DocumentBuilder(uri)
        if document.root.kind == KIND_DOCUMENT:
            builder.start_document()
            top: Node | None = _first_element_child(document.root)
        else:
            top = document.root
        assert top is not None
        _copy_shard(builder, top, spine, container.pre, member,
                    keep=by_shard[shard], full=(shard == 0))
        if document.root.kind == KIND_DOCUMENT:
            builder.end_document()
        out.append((builder.finish(), len(by_shard[shard])))
    return out


def _spine_pres(container: Node) -> set[int]:
    """Pre ranks of the container and its element ancestors."""
    spine = {container.pre}
    parent = container.parent()
    while parent is not None and parent.kind == KIND_ELEMENT:
        spine.add(parent.pre)
        parent = parent.parent()
    return spine


def _copy_shard(builder: DocumentBuilder, node: Node, spine: set[int],
                container_pre: int, member: str, keep: set[int],
                full: bool) -> None:
    """Copy one spine element: attributes always, children filtered.

    ``full`` (shard 0) keeps everything except members assigned to
    other shards; otherwise only the spine chain and assigned members
    survive.
    """
    builder.start_element(node.name)
    for attr in attribute_axis(node):
        builder.attribute(attr.name, attr.value)
    for child in child_axis(node):
        is_member = (node.pre == container_pre
                     and child.kind == KIND_ELEMENT
                     and child.name == member)
        if is_member:
            if child.pre in keep:
                builder.copy_subtree(child)
        elif child.pre in spine:
            _copy_shard(builder, child, spine, container_pre, member,
                        keep, full)
        elif full:
            builder.copy_subtree(child)
    builder.end_element()
