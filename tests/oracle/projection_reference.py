"""The list-based Algorithm 1 ``src/repro/xmldb/projection.py`` held
until PR 18, kept verbatim as the differential oracle for the O(kept)
one that replaced it: a ``keep`` flag per source node, and
``_materialize`` testing every pre under the new root. Only the result
type is imported from the library.
"""

from __future__ import annotations

from repro.errors import XmlError
from repro.xmldb.columns import ColumnSet
from repro.xmldb.document import Document
from repro.xmldb.node import Node, NodeKind
from repro.xmldb.projection import ProjectionResult


def project(used: list[Node], returned: list[Node],
            keep_attributes: bool = False) -> ProjectionResult | None:
    """Run Algorithm 1. Returns None when both input sets are empty.

    All nodes must belong to the same document. ``keep_attributes``
    additionally retains the attributes of kept *ancestor* elements
    (the schema-aware variant sketched at the end of Section VI-B);
    the default matches the paper's base algorithm.
    """
    projection_nodes = _merge_projection_nodes(used, returned)
    if not projection_nodes:
        return None
    source = projection_nodes[0].doc
    if any(node.doc is not source for node in projection_nodes):
        raise XmlError("projection nodes must share one document")

    returned_pres = {node.pre for node in returned}
    keep = [False] * len(source)

    for node in projection_nodes:
        keep[node.pre] = True
        if node.pre in returned_pres:
            for pre in range(node.pre + 1, node.pre + node.size + 1):
                keep[pre] = True
        parent = source.parents[node.pre]
        while parent >= 0 and not keep[parent]:
            keep[parent] = True
            if keep_attributes:
                _keep_attributes_of(source, parent, keep)
            parent = source.parents[parent]

    projection_pres = {node.pre for node in projection_nodes}
    new_root = _trim_to_lca(source, keep, projection_pres)
    return _materialize(source, keep, new_root)


def _merge_projection_nodes(used: list[Node], returned: list[Node]) -> list[Node]:
    """U ∪ R sorted on document order, duplicate-free (line 1)."""
    seen: set[tuple[int, int]] = set()
    merged: list[Node] = []
    for node in sorted([*used, *returned], key=lambda n: n.pre):
        key = (id(node.doc), node.pre)
        if key not in seen:
            seen.add(key)
            merged.append(node)
    return merged


def _keep_attributes_of(source: Document, element_pre: int,
                        keep: list[bool]) -> None:
    cursor = element_pre + 1
    end = element_pre + source.sizes[element_pre]
    while cursor <= end and source.kinds[cursor] == NodeKind.ATTRIBUTE \
            and source.parents[cursor] == element_pre:
        keep[cursor] = True
        cursor += 1


def _kept_children(source: Document, pre: int, keep: list[bool]) -> list[int]:
    children = []
    cursor = pre + 1
    end = pre + source.sizes[pre]
    while cursor <= end:
        if keep[cursor]:
            children.append(cursor)
        cursor += source.sizes[cursor] + 1
    return children


def _trim_to_lca(source: Document, keep: list[bool],
                 projection_pres: set[int]) -> int:
    """Post-processing of lines 24-27: descend to the LCA."""
    cur = 0
    while keep[cur] is False:
        # The top node may be unkept only for an empty projection,
        # which _merge_projection_nodes already excluded.
        raise XmlError("internal error: root not kept")  # pragma: no cover
    while cur not in projection_pres:
        children = _kept_children(source, cur, keep)
        non_attr = [c for c in children
                    if source.kinds[c] != NodeKind.ATTRIBUTE]
        if len(non_attr) != 1:
            break
        keep[cur] = False
        for child in children:  # drop attributes of the removed node too
            if source.kinds[child] == NodeKind.ATTRIBUTE:
                keep[child] = False
        cur = non_attr[0]
    # Never let the trimmed root be the document node: fragments start
    # at an element so they can be serialised into a message.
    if source.kinds[cur] == NodeKind.DOCUMENT:
        keep[cur] = False
        children = _kept_children(source, cur, keep)
        if len(children) == 1:
            cur = children[0]
        else:  # pragma: no cover - document node always has one element
            raise XmlError("cannot project a document with no root element")
    return cur


def _materialize(source: Document, keep: list[bool],
                 new_root: int) -> ProjectionResult:
    """Copy kept nodes (within the new root's subtree) into a new doc."""
    kinds: list[NodeKind] = []
    names: list[str] = []
    values: list[str] = []
    sizes: list[int] = []
    levels: list[int] = []
    parents: list[int] = []
    pre_map: dict[int, int] = {}

    end = new_root + source.sizes[new_root]
    for pre in range(new_root, end + 1):
        if not keep[pre]:
            continue
        new_pre = len(kinds)
        pre_map[pre] = new_pre
        kinds.append(source.kinds[pre])
        names.append(source.names[pre])
        values.append(source.values[pre])
        sizes.append(0)
        levels.append(0)
        src_parent = source.parents[pre]
        if pre == new_root:
            parents.append(-1)
            levels[new_pre] = 0
        else:
            # The nearest kept ancestor is the new parent (unkept
            # intermediate nodes cannot exist: we always keep full
            # ancestor chains of kept nodes).
            parents.append(pre_map[src_parent])
            levels[new_pre] = levels[pre_map[src_parent]] + 1

    # Recompute sizes: count descendants per node via the parent chain.
    for new_pre in range(len(kinds) - 1, 0, -1):
        parent = parents[new_pre]
        sizes[parent] += sizes[new_pre] + 1

    doc = Document(f"{source.uri}#projected", ColumnSet(
        kinds, names, values, sizes, levels, parents))
    return ProjectionResult(doc=doc, pre_map=pre_map,
                            kept=len(kinds), total=len(source))
