"""The by-projection marshal ``xrpc/marshal.py`` held before a call
site's paths were compiled into one prefix trie, kept as the reference
the compiled one is checked against
(``tests/xrpc/test_projection_paths_differential.py``).

Each used / returned path of a parameter is evaluated on its own
(each of its prefixes by ``RelPath.evaluate``, shared prefixes walked
again), every result becomes a :class:`Node` in a per-document list,
and the lists go to the list-based Algorithm 1 kept in
``projection_reference.py``; a fragment whose LCA trim reaches a
non-element falls back to containment. Only the item and result types,
the nodeid rank helper and the atomic marshalling come from the
library.
"""

from __future__ import annotations

from itertools import count

from repro.errors import XrpcMarshalError
from repro.paths.analysis import PathSets
from repro.paths.relpath import RelPath
from repro.xmldb.document import Document, DocumentBuilder
from repro.xmldb.node import Node, NodeKind
from repro.xrpc.marshal import MarshalResult, _nodeid_ranks, marshal_atomic
from repro.xrpc.messages import AttrRef, Call, NodeRef

from tests.oracle.projection_reference import project

_NON_DOWNWARD = frozenset({
    "parent", "ancestor", "ancestor-or-self", "preceding",
    "preceding-sibling", "following", "following-sibling",
    "root()", "id()", "idref()",
})


class _FragmentPlan:
    def __init__(self, fragid, root_pre, doc, pre_map):
        self.fragid, self.root_pre, self.doc = fragid, root_pre, doc
        self.pre_map = pre_map
        self.ranks = _nodeid_ranks(doc.kinds)

    def nodeid(self, source_pre: int) -> int:
        pre = source_pre if self.pre_map is None else self.pre_map[source_pre]
        return self.ranks[pre] - self.ranks[self.root_pre] + 1


def marshal_by_projection(calls: list[list[tuple[str, list]]],
                          param_paths: dict[str, PathSets]) -> MarshalResult:
    """Marshal one request's calls by projection, path by path."""
    by_doc: dict[int, list[Node]] = {}
    docs: dict[int, Document] = {}
    for call in calls:
        for _name, seq in call:
            for item in seq:
                if isinstance(item, Node):
                    by_doc.setdefault(id(item.doc), []).append(item)
                    docs[id(item.doc)] = item.doc

    used_by_doc: dict[int, list[Node]] = {}
    returned_by_doc: dict[int, list[Node]] = {}
    for call in calls:
        for name, seq in call:
            nodes = [i for i in seq if isinstance(i, Node)]
            if not nodes:
                continue
            sets = param_paths.get(name)
            if sets is None:
                sets = PathSets(returned={RelPath()})
            _evaluate_paths_into(nodes, sets, used_by_doc, returned_by_doc)

    plans: dict[int, _FragmentPlan] = {}
    ordered_docs = sorted(docs.values(), key=lambda d: d.doc_seq)
    for fragid, doc in enumerate(ordered_docs, start=1):
        doc_key = id(doc)
        plans[doc_key] = _projected_fragment(
            doc, by_doc[doc_key], used_by_doc.get(doc_key, []),
            returned_by_doc.get(doc_key, []), fragid)

    return MarshalResult(
        [Call([(name, [_reference_item(item, plans[id(item.doc)])
                       if isinstance(item, Node) else marshal_atomic(item)
                       for item in seq])
               for name, seq in call])
         for call in calls],
        [Node(plan.doc, plan.root_pre) for plan in plans.values()])


def _evaluate_paths_into(nodes, sets, used_by_doc, returned_by_doc):
    for node in nodes:
        used_by_doc.setdefault(id(node.doc), []).append(node)

    def add(nodes, target):
        for node in nodes:
            target.setdefault(id(node.doc), []).append(node)

    def record(path: RelPath, target) -> None:
        # stages[i]: what the prefix steps[:i] evaluates to.
        stages = [RelPath(path.steps[:length]).evaluate(nodes)
                  for length in range(len(path.steps) + 1)]
        add(stages[-1], target)
        for step, reached in zip(path.steps[:-1], stages[1:]):
            if step.axis in _NON_DOWNWARD:
                add(reached, used_by_doc)

    for path in sets.used:
        record(path, used_by_doc)
    for path in sets.returned:
        record(path, returned_by_doc)


def _containment_fragment(doc, nodes, fragid) -> _FragmentPlan:
    element_pres = sorted({_anchor_pre(node) for node in nodes})
    roots: list[int] = []
    current_end = -1
    for pre in element_pres:
        if pre > current_end:
            roots.append(pre)
            current_end = pre + doc.sizes[pre]
    if len(roots) == 1 and doc.kinds[roots[0]] == NodeKind.ELEMENT:
        return _FragmentPlan(fragid, roots[0], doc, None)
    builder = DocumentBuilder(f"{doc.uri}#fragment")
    builder.start_element("xrpc:forest")
    pre_map: dict[int, int] = {}
    for pre in roots:
        pre_map.update(zip(range(pre, pre + doc.sizes[pre] + 1),
                           count(1 + len(pre_map))))
        builder.copy_subtree(Node(doc, pre))
    builder.end_element()
    return _FragmentPlan(fragid, 0, builder.finish(), pre_map)


def _projected_fragment(doc, nodes, used, returned, fragid) -> _FragmentPlan:
    anchor_used = [Node(doc, _anchor_pre(n)) for n in nodes] + used
    result = project(anchor_used, returned)
    if result.doc.kinds[0] != NodeKind.ELEMENT:
        return _containment_fragment(doc, nodes + used + returned, fragid)
    return _FragmentPlan(fragid, 0, result.doc, result.pre_map)


def _anchor_pre(node: Node) -> int:
    if node.kind == NodeKind.ATTRIBUTE:
        return node.doc.parents[node.pre]
    if node.kind == NodeKind.DOCUMENT:
        for pre in range(1, len(node.doc)):
            if node.doc.kinds[pre] == NodeKind.ELEMENT:
                return pre
        raise XrpcMarshalError("document without root element")
    return node.pre


def _reference_item(node: Node, plan: _FragmentPlan):
    if node.kind == NodeKind.ATTRIBUTE:
        return AttrRef(plan.fragid, plan.nodeid(_anchor_pre(node)),
                       node.name)
    return NodeRef(plan.fragid, plan.nodeid(_anchor_pre(node)))
