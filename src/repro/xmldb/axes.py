"""The XPath axes over the pre/size/level store: their names and the
paper's axis classes.

Axis *steps* are set-at-a-time index scans
(:meth:`repro.xmldb.index.StructuralIndex.axis_scan` answers all
twelve axes, node test included); what stays here is the vocabulary —
the valid axis names, the classes Conditions i and iii are phrased in
— plus the two per-node walks marshalling, the partitioner, the gather
and ``deep_equal`` use to read one element's attributes and children
in place. The message decoder reads envelope columns directly
(``xrpc/messages.py``); the per-node step walker and its node test
live with the oracle in ``tests/oracle/xquery_reference_walker.py``.

Attribute nodes are stored inside their owner's pre/size interval but
are *not* descendants in the XPath data model, so ``child`` filters
them out; only ``attribute`` (and ``self``) can yield them.
"""

from __future__ import annotations

from typing import Iterator

from repro.xmldb.node import KIND_ATTRIBUTE, KIND_ELEMENT, Node


def child(node: Node) -> Iterator[Node]:
    doc = node.doc
    if doc.kinds[node.pre] == KIND_ATTRIBUTE:
        return
    end = node.pre + node.size
    cursor = node.pre + 1
    while cursor <= end:
        if doc.kinds[cursor] != KIND_ATTRIBUTE:
            yield Node(doc, cursor)
        cursor += doc.sizes[cursor] + 1


def attribute(node: Node) -> Iterator[Node]:
    doc = node.doc
    if doc.kinds[node.pre] != KIND_ELEMENT:
        return
    end = node.pre + node.size
    cursor = node.pre + 1
    while cursor <= end:
        if doc.kinds[cursor] != KIND_ATTRIBUTE:
            return  # attributes precede all other children
        yield Node(doc, cursor)
        cursor += 1


#: The twelve axis names (all but the namespace axis).
AXES = frozenset({
    "child", "attribute", "descendant", "descendant-or-self", "self",
    "parent", "ancestor", "ancestor-or-self", "following-sibling",
    "preceding-sibling", "following", "preceding",
})

#: Axes that navigate upwards (paper Condition i forbids these on
#: shipped nodes under pass-by-value and pass-by-fragment).
REVERSE_AXES = frozenset({"parent", "ancestor", "ancestor-or-self"})

#: Axes that navigate sideways (likewise forbidden by Condition i).
HORIZONTAL_AXES = frozenset({
    "preceding", "preceding-sibling", "following", "following-sibling",
})

#: Axes guaranteed to produce non-overlapping results from a
#: duplicate-free input sequence (paper Condition iii whitelist).
NON_OVERLAPPING_AXES = frozenset({
    "parent", "preceding-sibling", "following-sibling", "self", "child",
    "attribute",
})
