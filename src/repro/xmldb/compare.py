"""Node identity, document order and XQuery fn:deep-equal.

``deep_equal`` is the paper's notion of query equivalence: two
decompositions of a query are equivalent when their results are
deep-equal for every database. All correctness tests in this repo
compare local against distributed execution with this function.
"""

from __future__ import annotations

from repro.xmldb.node import Node, NodeKind


def is_same_node(left: Node, right: Node) -> bool:
    """XQuery ``is``: identity, not structural equality."""
    return left.doc is right.doc and left.pre == right.pre


def node_before(left: Node, right: Node) -> bool:
    """XQuery ``<<``."""
    return left.order_key() < right.order_key()


def node_after(left: Node, right: Node) -> bool:
    """XQuery ``>>``."""
    return left.order_key() > right.order_key()


def sort_document_order(nodes: list[Node]) -> list[Node]:
    """Sort into document order and remove duplicates (by identity).

    This is the mandatory post-processing of every XPath step result.
    Already-ordered input — one strictly ascending ``(doc_seq, pre)``
    run, which is what single-context forward-axis walks and all index
    range scans produce — is detected in one pass and returned as-is,
    skipping both the sort and the duplicate-tracking set.
    """
    if not isinstance(nodes, list):
        nodes = list(nodes)
    if _is_strictly_ascending(nodes):
        return nodes
    seen: set[tuple[int, int]] = set()
    out: list[Node] = []
    for node in sorted(nodes, key=Node.order_key):
        key = (id(node.doc), node.pre)
        if key not in seen:
            seen.add(key)
            out.append(node)
    return out


def _is_strictly_ascending(nodes: list[Node]) -> bool:
    """One strictly ascending document-order run has no duplicates by
    construction (strict inequality is an identity tie-breaker)."""
    if len(nodes) < 2:
        return True
    previous = nodes[0]
    for node in nodes[1:]:
        if node.doc is previous.doc:
            if node.pre <= previous.pre:
                return False
        elif node.order_key() <= previous.order_key():
            return False
        previous = node
    return True


def deep_equal(left: Node, right: Node) -> bool:
    """Structural equality per XQuery fn:deep-equal (nodes only).

    Comments and processing instructions are ignored inside element
    content, per the spec. Attribute order is irrelevant.
    """
    lk, rk = left.kind, right.kind
    if lk != rk:
        return False
    if lk == NodeKind.TEXT or lk == NodeKind.COMMENT:
        return left.value == right.value
    if lk == NodeKind.ATTRIBUTE:
        return left.name == right.name and left.value == right.value
    if lk == NodeKind.PROCESSING_INSTRUCTION:
        return left.name == right.name and left.value == right.value
    if lk == NodeKind.ELEMENT and rk == NodeKind.ELEMENT:
        if left.name != right.name:
            return False
        left_attrs = {a.name: a.value for a in _attributes(left)}
        right_attrs = {a.name: a.value for a in _attributes(right)}
        if left_attrs != right_attrs:
            return False
    return _content_equal(left, right)


def _attributes(node: Node):
    from repro.xmldb import axes

    return axes.attribute(node)


def _comparable_children(node: Node) -> list[Node]:
    from repro.xmldb import axes

    return [c for c in axes.child(node)
            if c.kind in (NodeKind.ELEMENT, NodeKind.TEXT)]


def _content_equal(left: Node, right: Node) -> bool:
    left_children = _comparable_children(left)
    right_children = _comparable_children(right)
    if len(left_children) != len(right_children):
        return False
    return all(deep_equal(lc, rc)
               for lc, rc in zip(left_children, right_children))
