"""The eager statistics pass ``repro.planner.stats`` replaced, kept
as the reference its per-key views are checked against.

:func:`reference_document_stats` is the old ``compute_document_stats``
(one loop over every node for all tag buckets);
:func:`merge_reference_stats` is the old ``merge_document_stats``.
They answer every key at once into plain dictionaries, so a test can
ask the view for each present key — and for absent ones — and compare.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.planner.stats import TagStat
from repro.xmldb.document import Document
from repro.xmldb.node import NodeKind
from repro.xmldb.serializer import subtree_spans


@dataclass(frozen=True)
class ReferenceStats:
    serialized_bytes: int
    nodes: int
    elements: int
    tags: dict[str, TagStat]


def reference_document_stats(document: Document,
                             serialized_bytes: int | None = None
                             ) -> ReferenceStats:
    kinds = document.kinds
    names = document.names
    values = document.values
    count = len(kinds)

    starts, ends = subtree_spans(document)
    total_chars = ends[0] - starts[0]
    elements = sum(1 for kind in kinds if kind == NodeKind.ELEMENT)
    scale = 1.0
    if serialized_bytes is not None and total_chars > 0:
        scale = serialized_bytes / total_chars

    counts: dict[str, int] = {}
    byte_totals: dict[str, int] = {}
    for pre in range(count):
        kind = kinds[pre]
        if kind == NodeKind.ELEMENT:
            key = names[pre]
            subtree = ends[pre] - starts[pre]
        elif kind == NodeKind.ATTRIBUTE:
            key = "@" + names[pre]
            subtree = len(values[pre])
        elif kind == NodeKind.TEXT:
            key = "#text"
            subtree = len(values[pre])
        else:
            continue
        counts[key] = counts.get(key, 0) + 1
        byte_totals[key] = byte_totals.get(key, 0) + subtree

    tags = {
        key: TagStat(counts[key], int(byte_totals[key] * scale))
        for key in counts
    }
    total = (serialized_bytes if serialized_bytes is not None
             else total_chars)
    return ReferenceStats(serialized_bytes=total, nodes=count,
                          elements=elements, tags=tags)


def merge_reference_stats(parts: list[ReferenceStats]) -> ReferenceStats:
    tags: dict[str, TagStat] = {}
    for part in parts:
        for name, stat in part.tags.items():
            existing = tags.get(name)
            tags[name] = stat if existing is None else existing.merged(stat)
    return ReferenceStats(
        serialized_bytes=sum(p.serialized_bytes for p in parts),
        nodes=sum(p.nodes for p in parts),
        elements=sum(p.elements for p in parts),
        tags=tags)
