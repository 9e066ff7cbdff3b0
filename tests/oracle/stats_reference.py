"""The eager statistics passes ``repro.planner.stats`` replaced, kept
as the reference its per-key views are checked against.

:func:`reference_document_stats` is the old ``compute_document_stats``
(one loop over every node for all tag buckets) plus the old
``build_value_histograms`` (a second pass over
:func:`repro.xmldb.values.iter_leaf_values` for all value keys);
:func:`merge_reference_stats` is the old ``merge_document_stats``.
They answer every key at once into plain dictionaries, so a test can
ask the view for each present key — and for absent ones — and compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan

from repro.planner.stats import VALUE_BUCKETS, TagStat, ValueHistogram
from repro.xmldb.document import Document
from repro.xmldb.node import NodeKind
from repro.xmldb.serializer import subtree_spans
from repro.xmldb.values import coerce_number, iter_leaf_values


@dataclass(frozen=True)
class ReferenceStats:
    serialized_bytes: int
    nodes: int
    elements: int
    tags: dict[str, TagStat]
    values: dict[str, ValueHistogram]
    column_bytes: int


def reference_value_histograms(document: Document
                               ) -> dict[str, ValueHistogram]:
    raw: dict[str, list[str]] = {}
    for key, value in iter_leaf_values(document):
        raw.setdefault(key, []).append(value)
    out: dict[str, ValueHistogram] = {}
    for key, values in raw.items():
        numbers = [number for value in values
                   if not isnan(number := coerce_number(value))]
        if numbers:
            low, high = min(numbers), max(numbers)
            buckets = [0] * VALUE_BUCKETS
            span = high - low
            for number in numbers:
                if span <= 0.0:
                    buckets[0] += 1
                else:
                    slot = min(int((number - low) / span * VALUE_BUCKETS),
                               VALUE_BUCKETS - 1)
                    buckets[slot] += 1
            out[key] = ValueHistogram(
                count=len(values), distinct=len(set(values)),
                numeric_count=len(numbers), numeric_min=low,
                numeric_max=high, buckets=tuple(buckets))
        else:
            out[key] = ValueHistogram(count=len(values),
                                      distinct=len(set(values)))
    return out


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
                          elements=elements, tags=tags,
                          values=reference_value_histograms(document),
                          column_bytes=document.column_bytes())


def merge_reference_stats(parts: list[ReferenceStats]) -> ReferenceStats:
    tags: dict[str, TagStat] = {}
    values: dict[str, ValueHistogram] = {}
    for part in parts:
        for name, stat in part.tags.items():
            existing = tags.get(name)
            tags[name] = stat if existing is None else existing.merged(stat)
        for key, histogram in part.values.items():
            existing_hist = values.get(key)
            values[key] = (histogram if existing_hist is None
                           else existing_hist.merged(histogram))
    return ReferenceStats(
        serialized_bytes=sum(p.serialized_bytes for p in parts),
        nodes=sum(p.nodes for p in parts),
        elements=sum(p.elements for p in parts),
        tags=tags, values=values,
        column_bytes=sum(p.column_bytes for p in parts))
