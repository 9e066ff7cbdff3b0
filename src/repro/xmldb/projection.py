"""Runtime XML projection — Algorithm 1 of the paper (Section VI-B).

Given a source document and, as pre ranks in it, the *used* node set
``U`` and *returned* node set ``R`` (the codec gathers them per
document by evaluating a call site's compiled projection paths against
the runtime parameter/result sequences), produce the projected document
``D'`` containing:

* every projection node,
* all descendants of *returned* nodes,
* all ancestors of projection nodes (so structural relationships and
  reverse axes keep working on the receiving peer),

and then trim the top of the tree down to the lowest common ancestor of
the projection nodes (the post-processing loop at lines 24-27 of
Algorithm 1).

The implementation reads the pre/size/parent columns rather than a
pointer tree, which makes the "skip this subtree" step (line 21) O(1)
— the property the paper says any reasonable XML store provides — and
the whole algorithm O(kept): the kept rows are collected as a set of
single pres (projection nodes, their ancestor chains) plus one
``[pre, pre + size]`` run per returned subtree, the LCA trim walks
that sorted list, and the projected document is one gather per column
over the kept pres in ascending order. Nothing is allocated or scanned
per *source* node — nor a node handle per projection node — so
projecting 39 nodes out of a large document costs what 39 rows cost.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import repeat
from operator import itemgetter
from typing import Iterable, NamedTuple

from repro.errors import XmlError
from repro.xmldb.columns import KIND_TYPECODE, ColumnSet
from repro.xmldb.document import Document
from repro.xmldb.kernels import PRE_TYPECODE
from repro.xmldb.node import NodeKind


class ProjectionResult(NamedTuple):
    """Outcome of projecting one document.

    ``doc`` is the projected fragment document; ``pre_map`` maps the
    pre rank of every kept node in the *source* document to its pre
    rank in ``doc`` (marshalling uses it to relocate parameter
    references); ``kept`` / ``total`` give the projection precision
    that Figure 10 reports.
    """

    doc: Document
    pre_map: dict[int, int]
    kept: int = 0
    total: int = 0


def project(source: Document, used: Iterable[int], returned: Iterable[int],
            keep_attributes: bool = False) -> ProjectionResult | None:
    """Run Algorithm 1 on ``source`` for the nodes at the ``used`` and
    ``returned`` pres (any order, duplicates allowed). Returns None
    when both sets are empty.

    ``keep_attributes`` additionally retains the attributes of kept
    *ancestor* elements (the schema-aware variant sketched at the end
    of Section VI-B); the default matches the paper's base algorithm.
    """
    returned_pres = set(returned)
    projection_pres = returned_pres.union(used)  # U ∪ R (line 1)
    if not projection_pres:
        return None
    kinds, sizes, parents = source.kinds, source.sizes, source.parents

    kept: set[int] = set()      # rows kept one by one
    runs: dict[int, int] = {}   # returned subtree: first row -> last row
    run_end = -1
    for pre in sorted(projection_pres):
        if pre <= run_end:
            continue  # inside a returned subtree, kept with it
        if pre not in returned_pres:
            kept.add(pre)
        elif kinds[pre] == NodeKind.DOCUMENT:
            # The trim below never lets a document node be the root:
            # keep it as a plain ancestor of its returned children.
            kept.add(pre)
            run_end = pre + sizes[pre]
            child = pre + 1
            while child <= run_end:
                runs[child] = child + sizes[child]
                child = runs[child] + 1
        else:
            runs[pre] = run_end = pre + sizes[pre]
        parent = parents[pre]
        while parent >= 0 and parent not in kept:
            kept.add(parent)
            if keep_attributes:
                attr = parent + 1
                while attr <= parent + sizes[parent] \
                        and kinds[attr] == NodeKind.ATTRIBUTE:
                    kept.add(attr)
                    attr += 1
            parent = parents[parent]

    # Document order over the single rows and the run heads. Full
    # ancestor chains are kept, so ``order[0]`` is the tree root and
    # every later entry lies below the entries it follows.
    order = sorted(kept.union(runs))
    root = _trim_to_lca(source, order, projection_pres)
    return _materialize(source, order[root:], runs)


def _only_kept_child(source: Document, order: list[int],
                     index: int) -> int | None:
    """Index in ``order`` of the one kept non-attribute child of
    ``order[index]``; None when it has none or several. The node's
    kept attributes follow it directly; the next entry is its first
    kept child, and is the only one iff every remaining kept row lies
    inside that child's subtree."""
    child = index + 1
    while child < len(order) \
            and source.kinds[order[child]] == NodeKind.ATTRIBUTE:
        child += 1
    if child < len(order) and \
            order[-1] <= order[child] + source.sizes[order[child]]:
        return child
    return None


def _trim_to_lca(source: Document, order: list[int],
                 projection_pres: set[int]) -> int:
    """Post-processing of lines 24-27: descend to the LCA. Returns the
    index in ``order`` of the new root; the entries before it are the
    trimmed ancestors and their kept attributes."""
    cur = 0
    while order[cur] not in projection_pres:
        child = _only_kept_child(source, order, cur)
        if child is None:
            break
        cur = child
    # Never let the trimmed root be the document node: fragments start
    # at an element so they can be serialised into a message.
    if source.kinds[order[cur]] == NodeKind.DOCUMENT:
        child = _only_kept_child(source, order, cur)
        if child is None:
            raise XmlError("cannot project a document with no root element")
        cur = child
    return cur


def _materialize(source: Document, order: list[int],
                 runs: dict[int, int]) -> ProjectionResult:
    """Copy the kept rows — ``order`` from the new root on, an entry
    in ``runs`` standing for its whole subtree — into a new document:
    one gather per column over the kept source pres."""
    rows: list[int] = []
    for pre in order:
        last = runs.get(pre)
        if last is None:
            rows.append(pre)
        else:
            rows.extend(range(pre, last + 1))
    pre_map = dict(zip(rows, range(len(rows))))
    # One gather of the kept rows, applied to every column.
    gather = itemgetter(*rows) if len(rows) > 1 \
        else lambda column: (column[rows[0]],)
    # Full ancestor chains are kept: a row's new parent is its source
    # parent (the new root's is not kept), its depth below the new
    # root the one it had.
    parents = array(PRE_TYPECODE, map(
        pre_map.get, gather(source.parents), repeat(-1)))
    top = source.levels[rows[0]]
    levels = array(PRE_TYPECODE,
                   [level - top for level in gather(source.levels)])
    # A run keeps its sizes; a single row's subtree shrank to the kept
    # rows that lie inside it.
    sizes = array(PRE_TYPECODE, gather(source.sizes))
    for pre in order:
        if pre not in runs:
            new_pre = pre_map[pre]
            sizes[new_pre] = bisect_right(
                rows, pre + source.sizes[pre], new_pre) - new_pre - 1

    doc = Document(f"{source.uri}#projected", ColumnSet(
        array(KIND_TYPECODE, gather(source.kinds)),
        list(gather(source.names)), list(gather(source.values)),
        sizes, levels, parents))
    return ProjectionResult(doc=doc, pre_map=pre_map,
                            kept=len(rows), total=len(source))
