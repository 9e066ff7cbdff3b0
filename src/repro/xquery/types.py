"""Sequence-type matching for typeswitch and function signatures.

Types are kept as their source strings (e.g. ``node()*``,
``element(person)``, ``xs:string``); this module interprets them. Only
the subset the paper's queries need is implemented — unrecognised item
types never match, so typeswitch falls through to ``default``.
"""

from __future__ import annotations

from repro.xmldb.node import (KIND_ATTRIBUTE, KIND_DOCUMENT, KIND_ELEMENT,
                               KIND_TEXT, Node)
from repro.xquery.xdm import UntypedAtomic


def split_occurrence(seq_type: str) -> tuple[str, str]:
    """Split ``item-type`` and occurrence indicator (one of '', ?, *, +)."""
    seq_type = seq_type.strip()
    if seq_type.endswith(("*", "+", "?")) and not seq_type.endswith("()"):
        return seq_type[:-1].strip(), seq_type[-1]
    return seq_type, ""


def _matches_item(item: object, item_type: str) -> bool:
    if item_type in ("item()", "item"):
        return True
    if item_type == "node()":
        return isinstance(item, Node)
    if item_type == "text()":
        return isinstance(item, Node) and item.kind == KIND_TEXT
    if item_type == "document-node()":
        return isinstance(item, Node) and item.kind == KIND_DOCUMENT
    if item_type.startswith("element"):
        if not isinstance(item, Node) or item.kind != KIND_ELEMENT:
            return False
        inner = item_type[len("element"):].strip("()").strip()
        return inner in ("", "*") or item.name == inner
    if item_type.startswith("attribute"):
        if not isinstance(item, Node) or item.kind != KIND_ATTRIBUTE:
            return False
        inner = item_type[len("attribute"):].strip("()").strip()
        return inner in ("", "*") or item.name == inner
    if item_type in ("xs:string", "string"):
        return isinstance(item, str) and not isinstance(item, bool)
    if item_type in ("xs:untypedAtomic",):
        return isinstance(item, UntypedAtomic)
    if item_type in ("xs:integer", "xs:int", "xs:long", "integer"):
        return isinstance(item, int) and not isinstance(item, bool)
    if item_type in ("xs:double", "xs:decimal", "xs:float", "double",
                     "numeric"):
        return isinstance(item, (int, float)) and not isinstance(item, bool)
    if item_type in ("xs:boolean", "boolean"):
        return isinstance(item, bool)
    return False


def matches_sequence_type(seq: list, seq_type: str) -> bool:
    """True iff ``seq`` conforms to the SequenceType string."""
    item_type, occurrence = split_occurrence(seq_type)
    if item_type in ("empty-sequence()", "empty()"):
        return not seq
    if not seq:
        return occurrence in ("?", "*")
    if len(seq) > 1 and occurrence not in ("*", "+"):
        return False
    return all(_matches_item(item, item_type) for item in seq)
