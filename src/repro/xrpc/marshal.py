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

A call site's paths are fixed when it is compiled, so the codec takes
them compiled (:class:`~repro.paths.relpath.CompiledPaths`: one prefix
trie per parameter, built by the originator with the call site and
interned by a peer per tuple of path texts) and a message costs per
row and per item only: each parameter sequence is grouped by document
once, each trie stage is one axis scan per document, the stages' pres
are gathered into one used and one returned pre set per document for
``project()``, and each distinct item pre gets its reference once,
read off the fragment plan's rank column.

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

from itertools import accumulate, chain, compress, count
from typing import Iterable, NamedTuple, Sequence

from repro.errors import XrpcMarshalError
from repro.paths.relpath import (
    RETURNED, USED, CompiledPaths, RelPath, compile_paths,
)
from repro.xmldb import axes
from repro.xmldb.document import Document, DocumentBuilder
from repro.xmldb.index import group_by_document, structural_index
from repro.xmldb.node import (KIND_ATTRIBUTE, KIND_DOCUMENT, KIND_ELEMENT,
                               Node)
from repro.xmldb.projection import project
from repro.xquery.xdm import UntypedAtomic, format_double

from repro.xrpc.messages import (
    LEAF_KINDS, Atomic, AttrRef, Call, Item, NodeCopy, NodeRef,
)

# ---------------------------------------------------------------------------
# Atomics
# ---------------------------------------------------------------------------


def atomic_pair(value) -> tuple[str, str]:
    """``(type, lexical)``: what ``value``'s ``<xrpc:atomic>`` holds."""
    if isinstance(value, bool):
        return "xs:boolean", "true" if value else "false"
    if isinstance(value, int):
        return "xs:integer", str(value)
    if isinstance(value, float):
        return "xs:double", format_double(value)
    if isinstance(value, UntypedAtomic):
        return "xs:untypedAtomic", str(value)
    if isinstance(value, str):
        return "xs:string", value
    raise XrpcMarshalError(f"cannot marshal atomic {type(value).__name__}")


def marshal_atomic(value) -> Atomic:
    return Atomic(*atomic_pair(value))


def atomic_params(calls: list[list[tuple[str, list]]]) -> tuple | None:
    """Each call's parameter sequences as their items' :func:`atomic_pair`
    — all a request's calls write under any semantics when every item is
    an atomic value — or None when one is not (a node: its text is
    whatever marshalling makes of it)."""
    try:
        return tuple([tuple([tuple([atomic_pair(item) for item in seq])
                             for _name, seq in call]) for call in calls])
    except XrpcMarshalError:
        return None


#: ``xs:boolean``'s lexical space, whitespace collapsed.
_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}


def unmarshal_atomic(item: Atomic):
    if item.type_name == "xs:boolean":
        value = _BOOLEANS.get(item.lexical.strip(" \t\n\r"))
        if value is None:
            raise XrpcMarshalError(f"malformed xs:boolean {item.lexical!r}")
        return value
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


class MarshalResult:
    """Items per call/param plus the shared fragments preamble: the
    root element of each fragment (in the source document, a
    projection of it, or a synthetic forest), in fragid order."""

    __slots__ = ("calls", "fragments")

    def __init__(self, calls: list[Call],
                 fragments: list[Node] | None = None) -> None:
        self.calls = calls
        self.fragments = [] if fragments is None else fragments


def marshal_calls(calls: list[list[tuple[str, list]]], semantics: str,
                  param_paths: dict[str, CompiledPaths] | None = None
                  ) -> MarshalResult:
    """Marshal the parameter sequences of one (bulk) request.

    ``calls`` is a list of calls, each a list of ``(param_name,
    sequence)`` pairs. ``semantics`` is one of ``by-value``,
    ``by-fragment``, ``by-projection``; the latter consumes
    ``param_paths`` (the call site's compiled used/returned paths per
    parameter; a parameter without any ships its nodes whole).
    """
    return _marshal(calls, semantics, param_paths or {})


def marshal_result(results: list[list], semantics: str,
                   paths: CompiledPaths | None) -> MarshalResult:
    """Marshal the result sequences of one (bulk) request, one per
    call, for the response message.

    All results share one fragments preamble, so identity is preserved
    across bulk calls (the Bulk RPC guarantee of Section V). Under
    by-projection ``paths`` — the request's projection paths, compiled
    — are evaluated against the result sequences to project the
    response fragments; a request without them (``None``) is answered
    in by-fragment format ("the absence or presence of this element
    determines whether the response should be in the original ...
    format").
    """
    if paths is None and semantics == "by-projection":
        semantics = "by-fragment"
    return _marshal([[("result", result)] for result in results],
                    semantics, {"result": paths})


_LEAF_COPIES = {kind: name for name, kind in LEAF_KINDS.items()}


def _by_value_item(item) -> Item:
    if not isinstance(item, Node):
        return marshal_atomic(item)
    kind = item.kind
    if kind in _LEAF_COPIES:
        return NodeCopy(_LEAF_COPIES[kind], item.name, item.value)
    if kind == KIND_DOCUMENT:  # it ships as its root element
        return NodeCopy("element", "", Node(item.doc, _root_element(item.doc)))
    return NodeCopy("element", "", item)


#: A ``bytes.translate`` table over kind bytes: 1 for the rows a
#: ``nodeid`` counts (a fragment's ``descendant-or-self::node()``,
#: attributes excluded), so a kind column maps in one C pass.
_COUNTED = bytes(int(kind != KIND_ATTRIBUTE) for kind in range(256))


def _nodeid_ranks(kinds: Sequence[int]) -> list[int]:
    """Per row, the number of counted rows up to and including it."""
    return list(accumulate(bytes(kinds).translate(_COUNTED)))


def _nodeid_pres(kinds: Sequence[int]) -> list[int]:
    """The counted rows in order: ``pres[nodeid - 1]`` is the row a
    nodeid names in a fragment rooted at row 0."""
    return list(compress(range(len(kinds)),
                         bytes(kinds).translate(_COUNTED)))


class _FragmentPlan(NamedTuple):
    """One source document's contribution to the fragments preamble."""

    fragid: int
    root_pre: int                       # in the (possibly projected) doc
    doc: Document                       # the doc the fragment root is in
    pre_map: dict[int, int] | None      # source pre -> projected pre
    ranks: Sequence[int]                # _nodeid_ranks of ``doc``

    def references(self, source: Document,
                   anchors: dict[int, int]) -> dict[int, Item]:
        """The reference item of each source pre in ``anchors`` (which
        maps it to its anchor pre). A ``nodeid`` is the 1-based index
        of the anchor among the fragment's ``descendant::node()``
        enumeration (attributes excluded), index 1 the fragment root
        itself — an O(1) difference of two ranks."""
        kinds, names, ranks, pre_map = (source.kinds, source.names,
                                        self.ranks, self.pre_map)
        base, fragid = ranks[self.root_pre] - 1, self.fragid
        out: dict[int, Item] = {}
        for pre, anchor in anchors.items():
            nodeid = ranks[anchor if pre_map is None
                           else pre_map[anchor]] - base
            out[pre] = (AttrRef(fragid, nodeid, names[pre])
                        if kinds[pre] == KIND_ATTRIBUTE
                        else NodeRef(fragid, nodeid))
        return out


class _Source:
    """One source document's share of a message: the pres of its node
    items and, by-projection, of what the paths reached from them."""

    __slots__ = ("doc", "items", "used", "returned")

    def __init__(self, doc: Document, items: set[int] | None = None,
                 used: set[int] | None = None,
                 returned: set[int] | None = None) -> None:
        self.doc = doc
        self.items = set() if items is None else items
        self.used = set() if used is None else used
        self.returned = set() if returned is None else returned


def _marshal(calls: list[list[tuple[str, list]]], semantics: str,
             param_paths: dict[str, CompiledPaths]) -> MarshalResult:
    # Shared by marshal_calls and marshal_result, which never call each
    # other: a tracer wrapping the public pair sees one marshal per
    # message.
    if semantics == "by-value":
        return MarshalResult([
            Call([(name, [_by_value_item(item) for item in seq])
                  for name, seq in call])
            for call in calls
        ])

    # 1. Gather the node items' pres per source document and, by
    #    projection, run each parameter's compiled paths over them:
    #    one grouping per sequence, one scan per stage and document.
    projecting = semantics == "by-projection"
    sources: dict[int, _Source] = {}
    for call in calls:
        for name, seq in call:
            groups = group_by_document(
                [item for item in seq if isinstance(item, Node)])
            for doc, pres in groups:
                source = sources.get(id(doc))
                if source is None:
                    source = sources[id(doc)] = _Source(doc)
                source.items.update(pres)
            if projecting and groups:
                for joins, reached in param_paths.get(
                        name, _WHOLE).evaluate(groups):
                    for doc, pres in reached:
                        source = sources[id(doc)]
                        if joins & USED:
                            source.used.update(pres)
                        if joins & RETURNED:
                            source.returned.update(pres)

    # 2. Build one fragment per source document, in document order,
    #    and the reference of each distinct item pre into it.
    fragments: list[Node] = []
    references: dict[int, dict[int, Item]] = {}
    for fragid, source in enumerate(
            sorted(sources.values(), key=lambda s: s.doc.doc_seq), start=1):
        anchors = _anchors(source.doc, source.items)
        plan = (_projected_fragment(source, anchors, fragid) if projecting
                else _containment_fragment(source.doc, anchors.values(),
                                           fragid))
        fragments.append(Node(plan.doc, plan.root_pre))
        references[id(source.doc)] = plan.references(source.doc, anchors)

    # 3. Emit items: a node is its reference, an atomic its value.
    return MarshalResult(
        [Call([(name, [references[id(item.doc)][item.pre]
                       if isinstance(item, Node) else marshal_atomic(item)
                       for item in seq])
               for name, seq in call])
         for call in calls],
        fragments)


#: The paths of a parameter the call site has none for: the nodes
#: themselves, returned (shipped whole).
_WHOLE = compile_paths(returned=[RelPath()])


def _anchors(doc: Document, pres: Iterable[int]) -> dict[int, int]:
    """Per pre, the element pre anchoring a reference to it: an
    attribute is addressed through its owner element (footnote 2), a
    document node through its root element."""
    kinds, parents = doc.kinds, doc.parents
    out: dict[int, int] = {}
    for pre in pres:
        kind = kinds[pre]
        out[pre] = (parents[pre] if kind == KIND_ATTRIBUTE
                    else _root_element(doc) if kind == KIND_DOCUMENT
                    else pre)
    return out


def _root_element(doc: Document) -> int:
    for pre in range(1, len(doc)):
        if doc.kinds[pre] == KIND_ELEMENT:
            return pre
    raise XrpcMarshalError("document without root element")


def _containment_fragment(doc: Document, anchor_pres: Iterable[int],
                          fragid: int) -> _FragmentPlan:
    """Pass-by-fragment: ship the maximal nodes once, in document
    order ("if a sent node is a descendant of another one, it is not
    serialized twice")."""
    roots: list[int] = []
    current_end = -1
    for pre in sorted(set(anchor_pres)):
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


def _projected_fragment(source: _Source, anchors: dict[int, int],
                        fragid: int) -> _FragmentPlan:
    """Pass-by-projection: Algorithm 1 over the used/returned sets —
    the items are used, and so are their anchors."""
    doc = source.doc
    result = project(doc, chain(anchors.values(), source.items, source.used),
                     source.returned)      # never None: items is not empty
    if result.doc.kinds[0] != KIND_ELEMENT:
        # The LCA trim reached a non-element (e.g. a lone text node);
        # fragments must be element-rooted, fall back to containment.
        return _containment_fragment(doc, _anchors(
            doc, source.items | source.used | source.returned).values(),
            fragid)
    return _FragmentPlan(fragid, 0, result.doc, result.pre_map,
                         _nodeid_ranks(result.doc.kinds))


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
