"""Relative projection paths: the Table V grammar, minus the doc()
prefix (relative paths start at a runtime context sequence, per the
``allSuffixes`` construction of Section VI-B).

A :class:`RelPath` is a sequence of :class:`RelStep`; a step is either
a plain axis step (any of the 13 axes — the paper's extension beyond
[18]) or one of the pseudo-steps ``root()`` / ``id()`` / ``idref()``.
Paths serialise to compact strings for the message's
``projection-paths`` element and parse back on the remote side, where
they run on the evaluator's own axis engine
(:func:`repro.xmldb.index.scan_groups`): one index scan per step per
document over the whole context set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import XrpcMarshalError
from repro.xmldb.axes import AXES
from repro.xmldb.document import Document
from repro.xmldb.index import (
    Groups, group_by_document, group_nodes, scan_groups,
)
from repro.xmldb.node import Node

#: Pseudo-steps for the built-ins of Problem 5 Classes 3-4.
PSEUDO_STEPS = ("root()", "id()", "idref()")


@dataclass(frozen=True)
class RelStep:
    """One step: ``axis::test`` or a pseudo-step (axis == the marker)."""

    axis: str
    test: str = "node()"

    def __str__(self) -> str:
        if self.axis in PSEUDO_STEPS:
            return self.axis
        return f"{self.axis}::{self.test}"


@dataclass(frozen=True)
class RelPath:
    """A relative projection path (possibly empty = ``self``)."""

    steps: tuple[RelStep, ...] = ()

    def extend(self, step: RelStep) -> "RelPath":
        return RelPath(self.steps + (step,))

    def __str__(self) -> str:
        if not self.steps:
            return "self::node()"
        return "/".join(str(step) for step in self.steps)

    def stages(self, context: list) -> list[Groups]:
        """The node set after 0, 1, ... ``len(steps)`` steps of one
        left-to-right pass from the nodes of ``context`` — entry *i* is
        what the prefix ``steps[:i]`` evaluates to."""
        groups = group_by_document(n for n in context if isinstance(n, Node))
        out = [groups]
        for step in self.steps:
            pseudo = _PSEUDO_PRES.get(step.axis)
            if pseudo is None:
                groups = scan_groups(step.axis, step.test, groups)
            else:
                # Pseudo steps depend on the document alone.
                groups = [(doc, pres) for doc, _context in groups
                          if (pres := pseudo(doc))]
            out.append(groups)
        return out

    def evaluate(self, context: list) -> list[Node]:
        """Apply the path to a context sequence using the engine's
        normal axis machinery ("our runtime approach for projection
        simply relies on the normal XPATH evaluation capabilities")."""
        return group_nodes(self.stages(context)[-1])


def _id_element_pres(doc: Document) -> list[int]:
    """The loading-algorithm consequence the paper states: without
    knowing the ID values (they are strings, not nodes), conserve all
    elements carrying an ID attribute."""
    if doc._id_index is None:  # noqa: SLF001 - intentional internal use
        doc._build_id_indexes()
    assert doc._id_index is not None
    return sorted(set(doc._id_index.values()))


def _idref_element_pres(doc: Document) -> list[int]:
    if doc._idref_index is None:  # noqa: SLF001
        doc._build_id_indexes()
    assert doc._idref_index is not None
    return sorted({pre for pres in doc._idref_index.values()
                   for pre in pres})


_PSEUDO_PRES = {
    "root()": lambda doc: (0,),
    "id()": _id_element_pres,
    "idref()": _idref_element_pres,
}


def parse_rel_path(text: str) -> RelPath:
    """Parse the compact string form back into a :class:`RelPath`."""
    text = text.strip()
    if not text or text == "self::node()":
        return RelPath()
    steps: list[RelStep] = []
    for part in text.split("/"):
        part = part.strip()
        if part in PSEUDO_STEPS:
            steps.append(RelStep(part))
            continue
        if "::" not in part:
            raise XrpcMarshalError(f"malformed projection path step {part!r}")
        axis, test = part.split("::", 1)
        if axis not in AXES:
            raise XrpcMarshalError(f"unknown axis {axis!r} in path {text!r}")
        steps.append(RelStep(axis, test))
    return RelPath(tuple(steps))
