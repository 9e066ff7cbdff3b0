"""Batch kernels over sorted, typed pre columns.

Every hot scan the structural/value execution engine performs reduces
to a handful of array-shaped primitives: bisect range scans over a
sorted pre column, subtree-interval sweeps (the staircase-join core),
child scans with a parent-pointer filter, ancestor climbs over the
parent column, k-way merges of sorted pre lists, sorted-set algebra
and the document-order sort. This module is their single home — the
bisect helpers that used to be copy-pasted between
:mod:`repro.xmldb.index` and :mod:`repro.xmldb.values` both now call
in here — and every kernel operates on a whole column per call instead
of per-node Python iteration.

Kernels accept any sorted integer sequence (``list`` or stdlib
:class:`array.array`) and return
stdlib ``array('i')`` columns, so results chain into further kernels
without re-boxing every element as a Python object.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from heapq import merge as _heapq_merge
from typing import Iterable, Sequence

#: Typecode of every pre/size/level/parent column: 32-bit signed ints
#: (a document holds fewer than 2**31 nodes; ``parents`` needs -1).
PRE_TYPECODE = "i"

_EMPTY = array(PRE_TYPECODE)


def pre_array(values: Iterable[int] = ()) -> array:
    """A fresh typed pre column (``array('i')``) from ``values``."""
    return array(PRE_TYPECODE, values)


def as_pre_array(values: Sequence[int]) -> array:
    """``values`` itself when it already is a typed array (no copy),
    else a typed copy — the cheap normalisation kernels use."""
    if type(values) is array:
        return values
    return array(PRE_TYPECODE, values)


# ---------------------------------------------------------------------------
# Range scans (the deduplicated bisect helpers)
# ---------------------------------------------------------------------------


def interval_bounds(sorted_pres: Sequence[int], low: int, high: int,
                    start: int = 0) -> tuple[int, int]:
    """Index bounds ``(lo, hi)`` of the items of ``sorted_pres`` in the
    half-open pre interval ``(low, high]`` — the subtree-interval shape
    every structural scan probes (a context node's subtree is
    ``(pre, pre + size]``). ``start`` resumes a scan past an earlier
    bound."""
    lo = bisect_right(sorted_pres, low, start)
    hi = bisect_right(sorted_pres, high, lo)
    return lo, hi


def equal_bounds(sorted_values: Sequence, value) -> tuple[int, int]:
    """Index bounds ``(lo, hi)`` of the run of entries equal to
    ``value`` in a value-sorted column — the value-probe shape
    (:mod:`repro.xmldb.values`); ``[:lo]`` / ``[hi:]`` are the strict
    less-than / greater-than complements."""
    lo = bisect_left(sorted_values, value)
    hi = bisect_right(sorted_values, value, lo)
    return lo, hi


def range_scan(sorted_pres: Sequence[int], low: int, high: int) -> array:
    """The items of ``sorted_pres`` in ``(low, high]`` as one typed
    column (a single bisect pair plus one slice copy)."""
    lo, hi = interval_bounds(sorted_pres, low, high)
    if lo >= hi:
        return pre_array()
    sliced = sorted_pres[lo:hi]
    return sliced if type(sliced) is array else pre_array(sliced)


def any_in_interval(sorted_pres: Sequence[int], low: int,
                    high: int) -> bool:
    """True when any item of ``sorted_pres`` falls in ``(low, high]``
    (containment tests — no slice is materialised)."""
    lo = bisect_right(sorted_pres, low)
    return lo < len(sorted_pres) and sorted_pres[lo] <= high


# ---------------------------------------------------------------------------
# Structural sweeps
# ---------------------------------------------------------------------------


def subtree_sweep(candidates: Sequence[int], contexts: Sequence[int],
                  sizes: Sequence[int]) -> array:
    """Descendant scan: all candidates inside any context's subtree
    interval, in document order, deduplicated.

    ``contexts`` must be sorted and duplicate-free; their subtree
    intervals are then nested or disjoint, so every context covered by
    an earlier sweep is skipped and the output needs no sort. One
    bisect pair + one batch slice-extend per *maximal* context.
    """
    out = pre_array()
    extend = out.extend
    covered = -1
    lo = 0
    for context in contexts:
        if context <= covered:
            continue
        # Contexts ascend and covered intervals never retreat, so the
        # candidate cursor only ever moves forward.
        end = context + sizes[context]
        lo = bisect_right(candidates, context, lo)
        hi = bisect_right(candidates, end, lo)
        if hi > lo:
            extend(candidates[lo:hi])
            lo = hi
        covered = end
    return out


def children_of(candidates: Sequence[int], contexts: Sequence[int],
                sizes: Sequence[int], parents: Sequence[int]) -> array:
    """Child scan: the candidates whose parent is a context node.

    For each context the candidate pool is narrowed to the subtree
    interval by bisect, then filtered by the parent-pointer column —
    unless the pool is small next to the contexts, when each candidate
    is tested against the context set instead.
    Child runs of nested contexts interleave, so the output is sorted
    when the scan order broke; child sets of distinct parents are
    disjoint, so no dedup is ever needed.
    """
    if not candidates:
        return pre_array()
    if len(candidates) < 8 * len(contexts):
        # Walk the cheaper side: a bisect pair per context costs about
        # eight parent tests (measured), so a pool this small is tested
        # against the context set candidate by candidate instead.
        inside = set(contexts)
        return pre_array(pre for pre in candidates
                         if parents[pre] in inside)
    out = pre_array()
    append = out.append
    unsorted = False
    last = -1
    for parent in contexts:
        size = sizes[parent]
        if size == 0:
            continue
        lo, hi = interval_bounds(candidates, parent, parent + size)
        for cursor in range(lo, hi):
            pre = candidates[cursor]
            if parents[pre] == parent:
                if pre < last:
                    unsorted = True
                last = pre
                append(pre)
    if unsorted:
        return pre_array(sorted(out))
    return out


def ancestors_of(contexts: Sequence[int], parents: Sequence[int],
                 or_self: bool = False) -> array:
    """Ancestor scan: every node on a context's parent-pointer chain
    (the contexts themselves too when ``or_self``), in document order,
    deduplicated.

    A climb stops at the first node an earlier climb passed: that
    climb went on to the root, so everything above is already in and
    a shared chain is walked once. ``parents`` holds -1 above a tree
    root — for a shipped fragment that is where the message ended.
    """
    seen: set[int] = set()
    add = seen.add
    for context in contexts:
        cursor = context if or_self else parents[context]
        while cursor >= 0 and cursor not in seen:
            add(cursor)
            cursor = parents[cursor]
    return pre_array(sorted(seen))


# ---------------------------------------------------------------------------
# Sorted-set algebra and merges
# ---------------------------------------------------------------------------


def merge_sorted(columns: Sequence[Sequence[int]]) -> array:
    """Gather-merge: k sorted duplicate-free columns into one sorted
    duplicate-free column (per-path pre lists, per-probe matches)."""
    live = [column for column in columns if column]
    if not live:
        return pre_array()
    if len(live) == 1:
        return as_pre_array(live[0])
    out = pre_array()
    append = out.append
    last = -1
    for pre in _heapq_merge(*live):
        if pre != last:
            append(pre)
            last = pre
    return out


def union_sorted(a: Sequence[int], b: Sequence[int]) -> array:
    """Sorted-set union of two sorted duplicate-free columns."""
    if not a:
        return as_pre_array(b)
    if not b:
        return as_pre_array(a)
    return merge_sorted((a, b))


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> array:
    """Sorted-set intersection of two sorted duplicate-free columns
    (bisect-driven: the smaller side probes the larger)."""
    if len(a) > len(b):
        a, b = b, a
    out = pre_array()
    append = out.append
    lo = 0
    top = len(b)
    for pre in a:
        lo = bisect_left(b, pre, lo)
        if lo >= top:
            break
        if b[lo] == pre:
            append(pre)
            lo += 1
    return out


def difference_sorted(a: Sequence[int], b: Sequence[int]) -> array:
    """Sorted-set difference ``a - b`` of sorted duplicate-free
    columns (the ``!=`` complement scans)."""
    if not b:
        return as_pre_array(a)
    out = pre_array()
    append = out.append
    lo = 0
    top = len(b)
    for pre in a:
        lo = bisect_left(b, pre, lo)
        if lo >= top or b[lo] != pre:
            append(pre)
    return out


# ---------------------------------------------------------------------------
# Order kernels
# ---------------------------------------------------------------------------


def sorted_array(values: Iterable[int]) -> array:
    """A sorted typed column from arbitrary (unsorted) values — the re-sort after a value-ordered slice."""
    return pre_array(sorted(values))


def gather(column: Sequence, pres: Sequence[int]) -> list:
    """Positional gather ``[column[p] for p in pres]`` as one batch
    call."""
    return [column[pre] for pre in pres]
