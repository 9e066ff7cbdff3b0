"""Marshalling sequences into message items under the three semantics.

* **pass-by-value** — every node item becomes an independent deep copy
  in the message (Figure 1): identity, order and structural context are
  lost, exactly as Section II's Problems 1-4 describe.
* **pass-by-fragment** — all node items are grouped into a fragments
  preamble: per source document the *maximal* nodes (those not
  contained in another shipped node) are serialised once, in document
  order, and every item becomes a ``fragid``/``nodeid`` reference
  (Figure 4). Shredding a fragment once per message on the receiving
  side preserves identity, order, and ancestor/descendant
  relationships *within* the message.
* **pass-by-projection** — like by-fragment, but the fragment for each
  source document is the runtime projection (Algorithm 1) of the used
  and returned node sets obtained by evaluating the relative projection
  paths against the actual values (Section VI-B). Ancestor chains are
  preserved up to the lowest common ancestor, so reverse/horizontal
  axes and fn:root/fn:id work on the receiving side.

Fragments and element copies are :class:`Node` values on both sides
(see ``xrpc/messages.py``): marshalling names the root of each subtree
to ship and leaves the text to ``to_xml``; ``from_xml`` already shreds
each fragment, and each by-value copy, into a fresh document of its
own, so unmarshalling hands those documents out under the message's
URIs — new node identity per decoded message, no ancestors above the
shipped root, no envelope behind it, and no copy.

The codec owns the ``nodeid`` rank (a node's 1-based position among
its fragment's non-attribute rows). A message document lives for one
message, so neither side indexes it to address it: a
:class:`_FragmentPlan` takes the rank once, from the kind column of the
document it built (from the index a source document shipped in place
already has), a :class:`_FragmentSpace` reads each fragment's nodeid →
pre list off its kind column. A shredded fragment is indexed only if
an axis scan later asks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, compress, count
from typing import Sequence

from repro.errors import XrpcMarshalError
from repro.paths.analysis import PathSets
from repro.paths.relpath import RelPath, parse_rel_path
from repro.xmldb import axes
from repro.xmldb.document import Document, DocumentBuilder
from repro.xmldb.index import structural_index
from repro.xmldb.node import (KIND_ATTRIBUTE, KIND_DOCUMENT, KIND_ELEMENT,
                               Node, NodeKind)
from repro.xmldb.projection import project
from repro.xquery.xdm import UntypedAtomic, format_double

from repro.xrpc.messages import (
    LEAF_KINDS, Atomic, AttrRef, Call, Item, NodeCopy, NodeRef,
)

# ---------------------------------------------------------------------------
# Atomics
# ---------------------------------------------------------------------------


def marshal_atomic(value) -> Atomic:
    if isinstance(value, bool):
        return Atomic("xs:boolean", "true" if value else "false")
    if isinstance(value, int):
        return Atomic("xs:integer", str(value))
    if isinstance(value, float):
        return Atomic("xs:double", format_double(value))
    if isinstance(value, UntypedAtomic):
        return Atomic("xs:untypedAtomic", str(value))
    if isinstance(value, str):
        return Atomic("xs:string", value)
    raise XrpcMarshalError(f"cannot marshal atomic {type(value).__name__}")


def unmarshal_atomic(item: Atomic):
    if item.type_name == "xs:boolean":
        return item.lexical == "true"
    try:
        if item.type_name == "xs:integer":
            return int(item.lexical)
        if item.type_name in ("xs:double", "xs:decimal", "xs:float"):
            return float(item.lexical)
    except ValueError:
        raise XrpcMarshalError(f"malformed {item.type_name} "
                               f"{item.lexical!r}") from None
    if item.type_name == "xs:untypedAtomic":
        return UntypedAtomic(item.lexical)
    return item.lexical


# ---------------------------------------------------------------------------
# Marshalling (sender side)
# ---------------------------------------------------------------------------


@dataclass
class MarshalResult:
    """Items per call/param plus the shared fragments preamble: the
    root element of each fragment (in the source document, a
    projection of it, or a synthetic forest), in fragid order."""

    calls: list[Call]
    fragments: list[Node] = field(default_factory=list)


def marshal_calls(calls: list[list[tuple[str, list]]], semantics: str,
                  param_paths: dict[str, PathSets] | None = None
                  ) -> MarshalResult:
    """Marshal the parameter sequences of one (bulk) request.

    ``calls`` is a list of calls, each a list of ``(param_name,
    sequence)`` pairs. ``semantics`` is one of ``by-value``,
    ``by-fragment``, ``by-projection``; the latter consumes
    ``param_paths`` (relative used/returned paths per parameter).
    """
    return _marshal(calls, semantics, param_paths or {})


def marshal_result(results: list[list], semantics: str,
                   used_paths: list[str] | None,
                   returned_paths: list[str] | None) -> MarshalResult:
    """Marshal the result sequences of one (bulk) request, one per
    call, for the response message.

    All results share one fragments preamble, so identity is preserved
    across bulk calls (the Bulk RPC guarantee of Section V). Under
    by-projection the request's projection paths are evaluated against
    the result sequences to project the response fragments; a request
    without them is answered in by-fragment format ("the absence or
    presence of this element determines whether the response should be
    in the original ... format").
    """
    param_paths = {}
    if semantics == "by-projection":
        if used_paths is None and returned_paths is None:
            semantics = "by-fragment"
        else:
            param_paths["result"] = PathSets(
                used={parse_rel_path(p) for p in used_paths or []},
                returned={parse_rel_path(p) for p in returned_paths or []},
            )
    return _marshal([[("result", result)] for result in results],
                    semantics, param_paths)


_LEAF_COPIES = {kind: name for name, kind in LEAF_KINDS.items()}


def _by_value_item(item) -> Item:
    if not isinstance(item, Node):
        return marshal_atomic(item)
    kind = item.kind
    if kind in _LEAF_COPIES:
        return NodeCopy(_LEAF_COPIES[kind], item.name, item.value)
    if kind == KIND_DOCUMENT:
        # A document node ships as its root element.
        for child in axes.child(item):
            if child.kind == KIND_ELEMENT:
                return NodeCopy("element", "", child)
        raise XrpcMarshalError("document node without root element")
    return NodeCopy("element", "", item)


#: Indexed by node kind: 1 for the rows a ``nodeid`` counts (a
#: fragment's ``descendant-or-self::node()``, attributes excluded).
_COUNTED = tuple(int(kind != KIND_ATTRIBUTE) for kind in NodeKind)


def _nodeid_ranks(kinds: Sequence[int]) -> list[int]:
    """Per row, the number of counted rows up to and including it."""
    return list(accumulate(map(_COUNTED.__getitem__, kinds)))


def _nodeid_pres(kinds: Sequence[int]) -> list[int]:
    """The counted rows in order: ``pres[nodeid - 1]`` is the row a
    nodeid names in a fragment rooted at row 0."""
    return list(compress(range(len(kinds)),
                         map(_COUNTED.__getitem__, kinds)))


@dataclass
class _FragmentPlan:
    """One source document's contribution to the fragments preamble."""

    fragid: int
    root_pre: int                       # in the (possibly projected) doc
    doc: Document                       # the doc the fragment root is in
    pre_map: dict[int, int] | None      # source pre -> projected pre
    ranks: Sequence[int]                # _nodeid_ranks of ``doc``

    def nodeid(self, source_pre: int) -> int:
        """1-based index of the node among the fragment's
        ``descendant::node()`` enumeration (attributes excluded),
        where index 1 is the fragment root itself — an O(1) rank
        difference."""
        pre = source_pre if self.pre_map is None else self.pre_map[source_pre]
        return self.ranks[pre] - self.ranks[self.root_pre] + 1


def _marshal(calls: list[list[tuple[str, list]]], semantics: str,
             param_paths: dict[str, PathSets]) -> MarshalResult:
    # Shared by marshal_calls and marshal_result, which never call each
    # other: a tracer wrapping the public pair sees one marshal per
    # message.
    if semantics == "by-value":
        return MarshalResult([
            Call([(name, [_by_value_item(item) for item in seq])
                  for name, seq in call])
            for call in calls
        ])

    # 1. Gather all node items, grouped by source document.
    by_doc: dict[int, list[Node]] = {}
    docs: dict[int, Document] = {}
    for call in calls:
        for name, seq in call:
            for item in seq:
                if isinstance(item, Node):
                    by_doc.setdefault(id(item.doc), []).append(item)
                    docs[id(item.doc)] = item.doc

    # 2. Evaluate projection paths (by-projection) per parameter.
    used_by_doc: dict[int, list[Node]] = {}
    returned_by_doc: dict[int, list[Node]] = {}
    if semantics == "by-projection":
        for call in calls:
            for name, seq in call:
                sets = param_paths.get(name)
                nodes = [i for i in seq if isinstance(i, Node)]
                if not nodes:
                    continue
                if sets is None:
                    sets = PathSets(returned={RelPath()})
                _evaluate_paths_into(nodes, sets, used_by_doc,
                                     returned_by_doc, docs)

    # 3. Build one fragment per source document.
    plans: dict[int, _FragmentPlan] = {}
    ordered_docs = sorted(docs.values(), key=lambda d: d.doc_seq)
    for fragid, doc in enumerate(ordered_docs, start=1):
        doc_key = id(doc)
        nodes = by_doc[doc_key]
        if semantics == "by-projection":
            plans[doc_key] = _projected_fragment(
                doc, nodes,
                used_by_doc.get(doc_key, []),
                returned_by_doc.get(doc_key, []),
                fragid)
        else:
            plans[doc_key] = _containment_fragment(doc, nodes, fragid)

    # 4. Emit items as references into the fragments.
    return MarshalResult(
        [Call([(name, [_reference_item(item, plans[id(item.doc)])
                       if isinstance(item, Node) else marshal_atomic(item)
                       for item in seq])
               for name, seq in call])
         for call in calls],
        [Node(plan.doc, plan.root_pre) for plan in plans.values()])


def _evaluate_paths_into(nodes: list[Node], sets: PathSets,
                         used_by_doc: dict[int, list[Node]],
                         returned_by_doc: dict[int, list[Node]],
                         docs: dict[int, Document]) -> None:
    """Runtime path evaluation: used/returned node sets per document.

    The nodes themselves always join the used set — they are the
    anchors the fragid/nodeid references point at. Additionally, every
    path *prefix* ending in a reverse/horizontal or pseudo step
    contributes its results as used anchors: the receiving peer must
    find those upward/sideways targets in the fragment, so the
    Algorithm 1 LCA trim may not cut them away (this realises the
    paper's "taking the lowest common ancestor of those" for fn:root
    and friends)."""
    for node in nodes:
        used_by_doc.setdefault(id(node.doc), []).append(node)

    def add(groups, target: dict[int, list[Node]]) -> None:
        for doc, pres in groups:
            target.setdefault(id(doc), []).extend(
                Node(doc, pre) for pre in pres)
            docs[id(doc)] = doc

    def record(path: RelPath, target: dict[int, list[Node]]) -> None:
        # One left-to-right walk: stages[i] is the result of the prefix
        # steps[:i], the last one the path's own.
        stages = path.stages(nodes)
        add(stages[-1], target)
        for step, reached in zip(path.steps[:-1], stages[1:]):
            if step.axis in _NON_DOWNWARD:
                add(reached, used_by_doc)

    for path in sets.used:
        record(path, used_by_doc)
    for path in sets.returned:
        record(path, returned_by_doc)


_NON_DOWNWARD = frozenset({
    "parent", "ancestor", "ancestor-or-self", "preceding",
    "preceding-sibling", "following", "following-sibling",
    "root()", "id()", "idref()",
})


def _containment_fragment(doc: Document, nodes: list[Node],
                          fragid: int) -> _FragmentPlan:
    """Pass-by-fragment: ship the maximal nodes once, in document
    order ("if a sent node is a descendant of another one, it is not
    serialized twice")."""
    element_pres = sorted({_anchor_pre(node) for node in nodes})
    roots: list[int] = []
    current_end = -1
    for pre in element_pres:
        if pre > current_end:
            roots.append(pre)
            current_end = pre + doc.sizes[pre]
    if len(roots) == 1 and doc.kinds[roots[0]] == KIND_ELEMENT:
        return _FragmentPlan(fragid, roots[0], doc, None,
                             structural_index(doc).non_attr_rank)
    # Several disjoint maximal nodes: ship their subtrees under one
    # synthetic container so nodeid addressing stays single-rooted.
    # Their relative document order is preserved.
    builder = DocumentBuilder(f"{doc.uri}#fragment")
    builder.start_element("xrpc:forest")
    pre_map: dict[int, int] = {}
    for pre in roots:
        # The copy lands after the container and the rows copied so far.
        pre_map.update(zip(range(pre, pre + doc.sizes[pre] + 1),
                           count(1 + len(pre_map))))
        builder.copy_subtree(Node(doc, pre))
    builder.end_element()
    forest = builder.finish()
    return _FragmentPlan(fragid, 0, forest, pre_map,
                         _nodeid_ranks(forest.kinds))


def _projected_fragment(doc: Document, nodes: list[Node],
                        used: list[Node], returned: list[Node],
                        fragid: int) -> _FragmentPlan:
    """Pass-by-projection: Algorithm 1 over the used/returned sets."""
    anchor_used = [Node(doc, _anchor_pre(n)) for n in nodes] + used
    result = project(anchor_used, returned)
    if result is None:  # pragma: no cover - nodes is never empty here
        raise XrpcMarshalError("empty projection")
    if result.doc.kinds[0] != KIND_ELEMENT:
        # The LCA trim reached a non-element (e.g. a lone text node);
        # fragments must be element-rooted, fall back to containment.
        return _containment_fragment(doc, nodes + used + returned, fragid)
    return _FragmentPlan(fragid, 0, result.doc, result.pre_map,
                         _nodeid_ranks(result.doc.kinds))


def _anchor_pre(node: Node) -> int:
    """The element pre anchoring a node reference: attributes are
    addressed through their owner element (footnote 2)."""
    if node.kind == KIND_ATTRIBUTE:
        return node.doc.parents[node.pre]
    if node.kind == KIND_DOCUMENT:
        # Reference the root element instead.
        for pre in range(1, len(node.doc)):
            if node.doc.kinds[pre] == KIND_ELEMENT:
                return pre
        raise XrpcMarshalError("document without root element")
    return node.pre


def _reference_item(node: Node, plan: _FragmentPlan) -> Item:
    if node.kind == KIND_ATTRIBUTE:
        return AttrRef(plan.fragid, plan.nodeid(_anchor_pre(node)),
                       node.name)
    return NodeRef(plan.fragid, plan.nodeid(_anchor_pre(node)))


# ---------------------------------------------------------------------------
# Unmarshalling (receiver side)
# ---------------------------------------------------------------------------


class _FragmentSpace:
    """The fragments of one decoded message: each is the root of a
    document of its own, shared by every reference into it — which is
    what preserves node identity and order within the message. With
    each goes its nodeid → pre list, read off its kind column."""

    def __init__(self, fragments: list[Node], base_uri: str):
        self.docs: list[Document] = [root.doc for root in fragments]
        for number, doc in enumerate(self.docs, start=1):
            doc.uri = f"{base_uri}#fragment{number}"
        self.pres = [_nodeid_pres(doc.kinds) for doc in self.docs]

    def resolve(self, fragid: int, nodeid: int) -> Node:
        if not 1 <= fragid <= len(self.docs):
            raise XrpcMarshalError(f"fragid {fragid} out of range")
        doc = self.docs[fragid - 1]
        mapping = self.pres[fragid - 1]
        if not 1 <= nodeid <= len(mapping):
            raise XrpcMarshalError(
                f"nodeid {nodeid} out of range in fragment {fragid}")
        pre = mapping[nodeid - 1]
        if pre == 0 and doc.names[0] == "xrpc:forest":
            raise XrpcMarshalError("reference to forest container")
        return Node(doc, pre)

    def resolve_attr(self, fragid: int, nodeid: int, name: str) -> Node:
        owner = self.resolve(fragid, nodeid)
        for attr in axes.attribute(owner):
            if attr.name == name:
                return attr
        raise XrpcMarshalError(f"attribute {name!r} not found via "
                               f"fragment {fragid} node {nodeid}")


def unmarshal_calls(calls: list[Call], fragments: list[Node],
                    base_uri: str) -> list[list[tuple[str, list]]]:
    """Reconstruct parameter sequences on the receiving peer."""
    space = _FragmentSpace(fragments, base_uri)
    return [
        [(name, _unmarshal_sequence(items, space, base_uri))
         for name, items in call.params]
        for call in calls
    ]


def unmarshal_result(results: list[list[Item]], fragments: list[Node],
                     base_uri: str) -> list[list]:
    space = _FragmentSpace(fragments, base_uri)
    return [_unmarshal_sequence(items, space, base_uri)
            for items in results]


def _unmarshal_sequence(items: list[Item], space: _FragmentSpace,
                        base_uri: str) -> list:
    out: list = []
    for item in items:
        if isinstance(item, Atomic):
            out.append(unmarshal_atomic(item))
        elif isinstance(item, NodeCopy):
            item.content.doc.uri = base_uri
            out.append(item.content)
        elif isinstance(item, NodeRef):
            out.append(space.resolve(item.fragid, item.nodeid))
        elif isinstance(item, AttrRef):
            out.append(space.resolve_attr(item.fragid, item.nodeid,
                                          item.name))
        else:  # pragma: no cover - exhaustive
            raise XrpcMarshalError(f"unknown item {item!r}")
    return out
