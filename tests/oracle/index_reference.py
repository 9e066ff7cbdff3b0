"""The eager index passes ``repro.xmldb.index`` replaced, kept as the
reference its lazily built parts are checked against.

:class:`ReferenceIndex` is the old ``StructuralIndex.__init__`` — one
Python pass over every node for the tag buckets, the four kind arrays,
the non-attribute rank column *and* the path summary — plus the old
``ValueIndex._attribute_pres`` pass for the attribute buckets.
:meth:`ReferenceIndex.match_chain` is the deleted path-summary matcher:
what a leading ``child`` / ``descendant`` chain from a tree root
answered before such a chain ran through ``axis_scan`` like any other
step. Everything is plain lists and dictionaries, so a test can compare
part by part.
"""

from __future__ import annotations

from heapq import merge
from typing import Sequence

from repro.xmldb.document import Document
from repro.xmldb.node import NodeKind


class ReferenceIndex:
    def __init__(self, doc: Document):
        self.doc = doc
        self.tag_pres: dict[str, list[int]] = {}
        self.attribute_pres: dict[str, list[int]] = {}
        self.element_pres: list[int] = []
        self.non_attr_pres: list[int] = []
        self.text_pres: list[int] = []
        self.comment_pres: list[int] = []
        self.non_attr_rank: list[int] = [0] * doc.count
        self.path_of: list[int] = [0] * doc.count
        self.path_parent: list[int] = []
        self.path_tag: list[str] = []
        self.path_pres: list[list[int]] = []
        path_key: dict[tuple[int, str], int] = {}

        rank = 0
        for pre, (kind, name, parent) in enumerate(
                zip(doc.kinds, doc.names, doc.parents)):
            if kind != NodeKind.ATTRIBUTE:
                rank += 1
                self.non_attr_pres.append(pre)
            else:
                self.attribute_pres.setdefault(name, []).append(pre)
            self.non_attr_rank[pre] = rank
            if kind == NodeKind.ELEMENT:
                self.element_pres.append(pre)
                self.tag_pres.setdefault(name, []).append(pre)
                parent_path = self.path_of[parent] if parent >= 0 else -1
                key = (parent_path, name)
                path_id = path_key.get(key)
                if path_id is None:
                    path_id = len(self.path_parent)
                    path_key[key] = path_id
                    self.path_parent.append(parent_path)
                    self.path_tag.append(name)
                    self.path_pres.append([])
                self.path_of[pre] = path_id
                self.path_pres[path_id].append(pre)
            else:
                self.path_of[pre] = -1
                if kind == NodeKind.TEXT:
                    self.text_pres.append(pre)
                elif kind == NodeKind.COMMENT:
                    self.comment_pres.append(pre)

    def nodeid(self, root_pre: int, pre: int) -> int:
        return self.non_attr_rank[pre] - self.non_attr_rank[root_pre] + 1

    def match_chain(self, chain: Sequence[tuple[str, str]]) -> list[int]:
        """All pres reachable from the tree root by ``chain`` — a
        sequence of predicate-free ``("child" | "descendant", name)``
        steps — via NFA simulation over the path summary.

        Anchoring follows the root node at ``pre == 0``: a document
        node anchors above the parentless paths, a fragment root
        element anchors *at* its own path (its tag is not consumed by
        the chain). Non-element fragment roots have no element paths
        and match nothing.
        """
        full = len(chain)
        anchored = self.doc.kinds[0] == NodeKind.ELEMENT
        root_path = self.path_of[0] if anchored else -1
        states: list[tuple[int, ...]] = [()] * len(self.path_parent)
        matched: list[int] = []
        for path_id, parent in enumerate(self.path_parent):
            if anchored and path_id == root_path:
                states[path_id] = (0,)
                continue
            if parent < 0:
                base: tuple[int, ...] = () if anchored else (0,)
            else:
                base = states[parent]
            if not base:
                continue
            state = _advance(base, self.path_tag[path_id], chain)
            states[path_id] = state
            if state and state[-1] == full:
                matched.append(path_id)
        return list(merge(*(self.path_pres[path_id] for path_id in matched)))


def _advance(states: tuple[int, ...], tag: str,
             chain: Sequence[tuple[str, str]]) -> tuple[int, ...]:
    """Consume one path tag: NFA transition over chain positions."""
    out: set[int] = set()
    full = len(chain)
    for position in states:
        if position >= full:
            continue
        axis, name = chain[position]
        if axis == "descendant":
            out.add(position)  # the tag is a skipped intermediate
        if name == "*" or name == tag:
            out.add(position + 1)
    return tuple(sorted(out))
