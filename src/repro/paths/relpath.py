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

A call site's used and returned paths are fixed when it is compiled
(Algorithm 1's ``Urel`` / ``Rrel``): :func:`compile_paths` makes them
one prefix trie, each distinct prefix one scan (``attribute::id`` and
``attribute::id/descendant::text()`` share their first), each stage
knowing what its nodes join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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

    def evaluate(self, context: list) -> list[Node]:
        """Apply the path to a context sequence using the engine's
        normal axis machinery ("our runtime approach for projection
        simply relies on the normal XPATH evaluation capabilities")."""
        groups = group_by_document(n for n in context if isinstance(n, Node))
        for step in self.steps:
            groups = _step(step, groups)
        return group_nodes(groups)


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


def _step(step: RelStep, groups: Groups) -> Groups:
    """One step over a node set, per document."""
    pseudo = _PSEUDO_PRES.get(step.axis)
    if pseudo is None:
        return scan_groups(step.axis, step.test, groups)
    # Pseudo steps depend on the document alone.
    return [(doc, pres) for doc, _context in groups if (pres := pseudo(doc))]


#: What a stage's nodes join (bit flags).
USED, RETURNED = 1, 2

#: Steps whose targets lie outside the context's subtrees: a prefix
#: ending in one is an anchor the receiver must find in the fragment,
#: so the LCA trim may not cut it away (this realises the paper's
#: "taking the lowest common ancestor of those" for fn:root and friends).
_NON_DOWNWARD = frozenset({
    "parent", "ancestor", "ancestor-or-self", "preceding",
    "preceding-sibling", "following", "following-sibling",
    *PSEUDO_STEPS,
})


@dataclass(frozen=True)
class CompiledPaths:
    """A call site's used / returned paths as one prefix trie: its
    stages in prefix order, each ``(source, step, joins)`` — the index
    of the stage it continues, its step, and what its nodes join
    (:data:`USED` / :data:`RETURNED` bits, 0 for a shared prefix only).
    Stage 0 is the context itself (the empty path, no step)."""

    stages: tuple[tuple[int, RelStep | None, int], ...]

    def evaluate(self, groups: Groups) -> Iterator[tuple[int, Groups]]:
        """Each joining stage's node set and what it joins, from the
        context's: one scan per stage and document."""
        reached: list[Groups] = []
        for source, step, joins in self.stages:
            if step is not None:
                groups = _step(step, reached[source])
            reached.append(groups)
            if joins:
                yield joins, groups


def compile_paths(used: Iterable[RelPath] = (),
                  returned: Iterable[RelPath] = ()) -> CompiledPaths:
    """The prefix trie of ``used`` and ``returned``; a non-downward
    stage that others continue from joins the used set too."""
    index: dict[tuple[RelStep, ...], int] = {(): 0}
    stages: list[list] = [[0, None, 0]]
    for flag, paths in ((USED, used), (RETURNED, returned)):
        for path in paths:
            at = 0
            for depth, step in enumerate(path.steps, 1):
                source, at = at, index.setdefault(path.steps[:depth],
                                                  len(stages))
                if at == len(stages):
                    stages.append([source, step, 0])
            stages[at][2] |= flag
    for source, _, _ in stages[1:]:
        step = stages[source][1]
        if step is not None and step.axis in _NON_DOWNWARD:
            stages[source][2] |= USED
    return CompiledPaths(tuple(map(tuple, stages)))


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
