"""The eager statistics passes ``repro.planner.stats`` replaced, kept
as the reference its per-key views are checked against.

:func:`reference_document_stats` is the old ``compute_document_stats``
(one loop over every node for all tag buckets) plus the old
``build_value_histograms`` (a second pass over
:func:`iter_leaf_values` for all value keys);
:func:`merge_reference_stats` is the old ``merge_document_stats``.
They answer every key at once into plain dictionaries, so a test can
ask the view for each present key — and for absent ones — and compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan
from typing import Iterator

from repro.planner.stats import VALUE_BUCKETS, TagStat, ValueHistogram
from repro.xmldb.document import Document
from repro.xmldb.node import NodeKind
from repro.xmldb.serializer import subtree_spans
from repro.xmldb.values import coerce_number


@dataclass(frozen=True)
class ReferenceStats:
    serialized_bytes: int
    nodes: int
    elements: int
    tags: dict[str, TagStat]
    values: dict[str, ValueHistogram]


def iter_leaf_values(doc: Document) -> Iterator[tuple[str, str]]:
    """Yield ``(key, value)`` pairs for the histogram-worthy content of
    a document: every attribute (``@name`` keys) and every *leaf*
    element (no element children — the typed fields statistics care
    about; container elements would only smear the histograms).

    One O(nodes) pass over every key: the definition the planner's
    per-key value histograms (``planner/stats.py``) are checked against,
    so they and the evaluator's value index agree on what a node's
    comparable value is.
    """
    kinds = doc.kinds
    names = doc.names
    values = doc.values
    sizes = doc.sizes
    count = len(kinds)
    for pre in range(count):
        kind = kinds[pre]
        if kind == NodeKind.ATTRIBUTE:
            yield "@" + names[pre], values[pre]
        elif kind == NodeKind.ELEMENT:
            end = pre + sizes[pre]
            has_element_child = False
            parts: list[str] = []
            cursor = pre + 1
            while cursor <= end:
                child_kind = kinds[cursor]
                if child_kind == NodeKind.ELEMENT:
                    has_element_child = True
                    break
                if child_kind == NodeKind.TEXT:
                    parts.append(values[cursor])
                cursor += sizes[cursor] + 1
            if not has_element_child:
                yield names[pre], "".join(parts)


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
                          values=reference_value_histograms(document))


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
        tags=tags, values=values)
