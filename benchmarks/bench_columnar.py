"""Columnar kernels vs. per-node list iteration.

Each batch kernel is measured against the per-node (node-handle /
row-at-a-time) implementation of the same scan on an XMark people
document: descendant-interval sweep, child scan, predicate probe,
gather-merge, document-order sort. Results must be identical and every
cell must clear the ``MIN_SPEEDUP`` floor — these ratios are what the
regression guard pins.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.xmark.generator import XMarkConfig, generate_people
from repro.xmldb import axes, kernels
from repro.xmldb.index import structural_index
from repro.xmldb.kernels import pre_array
from repro.xmldb.node import Node, NodeKind
from repro.xmldb.values import value_index

from benchmarks.conftest import print_table, write_json

SCALE = 0.2
REPEATS = 3
ITERATIONS = 5
MIN_SPEEDUP = 3.0


def _best_ms(run, iterations: int = ITERATIONS) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(iterations):
            run()
        best = min(best, (time.perf_counter() - started) / iterations)
    return best * 1000.0


def _cell(label: str, naive, columnar, naive_iters: int = ITERATIONS,
          col_iters: int = 50) -> dict:
    expected = list(naive())
    got = list(columnar())
    assert got == expected, label
    naive_ms = _best_ms(naive, naive_iters)
    col_ms = _best_ms(columnar, col_iters)
    speedup = naive_ms / col_ms if col_ms else float("inf")
    return {
        "kernel": label,
        "naive_ms": round(naive_ms, 4),
        "columnar_ms": round(col_ms, 4),
        "speedup": round(speedup, 1),
        "result_items": len(expected),
    }


def test_kernel_speedups():
    doc = generate_people(XMarkConfig(scale=SCALE))
    index = structural_index(doc)
    sizes, parents = doc.sizes, doc.parents
    kinds, names, values = doc.kinds, doc.names, doc.values
    ELEMENT, TEXT = NodeKind.ELEMENT, NodeKind.TEXT

    cells = []

    # descendant sweep: //regions//name ∪ //people//name.
    contexts = kernels.merge_sorted([index.tag_pres["regions"],
                                     index.tag_pres["people"]])
    name_pres = index.tag_pres["name"]

    def naive_sweep():
        return [pre
                for context in contexts
                for pre in range(context + 1, context + sizes[context] + 1)
                if kinds[pre] == ELEMENT and names[pre] == "name"]

    cells.append(_cell(
        "descendant-sweep", naive_sweep,
        lambda: kernels.subtree_sweep(name_pres, contexts, sizes),
        col_iters=500))

    # child scan: person/age through node handles vs. the kernel.
    persons = index.tag_pres["person"]
    ages = index.tag_pres["age"]

    def naive_child():
        out = []
        for context in persons:
            for child in axes.child(Node(doc, context)):
                pre = child.pre
                if kinds[pre] == ELEMENT and names[pre] == "age":
                    out.append(pre)
        return out

    cells.append(_cell(
        "child-scan", naive_child,
        lambda: kernels.children_of(ages, persons, sizes, parents)))

    # predicate probe: age < 40 — full column coerce-and-compare vs.
    # one bisect pair on the value-sorted column.
    vindex = value_index(doc)
    vindex.probe("age", "<", 40.0)  # build the column once (cached)

    def naive_probe():
        out = []
        for pre in ages:
            if sizes[pre] >= 1 and kinds[pre + 1] == TEXT:
                try:
                    number = float(values[pre + 1])
                except ValueError:
                    continue
                if number < 40.0:
                    out.append(pre)
        return out

    cells.append(_cell(
        "predicate-probe", naive_probe,
        lambda: vindex.probe("age", "<", 40.0),
        naive_iters=50, col_iters=500))

    # gather-merge: six per-tag pre lists into one document-ordered
    # column — node-handle set + handle sort vs. the k-way merge.
    tag_lists = [index.tag_pres[tag]
                 for tag in ("person", "item", "category", "name",
                             "text", "age")]

    def naive_merge():
        handles = {Node(doc, pre) for pres in tag_lists for pre in pres}
        return [node.pre for node in sorted(handles)]

    cells.append(_cell("gather-merge", naive_merge,
                       lambda: kernels.merge_sorted(tag_lists),
                       col_iters=20))

    # document-order sort: a shuffled duplicate-carrying pre column.
    mixed = [pre for pres in tag_lists for pre in pres]
    random.Random(3).shuffle(mixed)
    mixed_column = pre_array(mixed)

    def naive_sort():
        handles = {Node(doc, pre) for pre in mixed}
        return [node.pre for node in sorted(handles)]

    cells.append(_cell("doc-order-sort", naive_sort,
                       lambda: kernels.ensure_sorted(mixed_column),
                       col_iters=20))

    rows = [[cell["kernel"], f"{cell['naive_ms']:.3f}",
             f"{cell['columnar_ms']:.4f}", f"x{cell['speedup']:.1f}",
             cell["result_items"]] for cell in cells]
    print_table(
        f"Kernels: per-node lists vs typed columns (XMark scale {SCALE})",
        ["kernel", "naive ms", "columnar ms", "speedup", "items"], rows)

    write_json("columnar", cells, scale=SCALE, min_speedup=MIN_SPEEDUP)

    worst = min(cell["speedup"] for cell in cells)
    assert worst >= MIN_SPEEDUP, (
        f"kernel speedup fell to x{worst:.1f} (floor x{MIN_SPEEDUP})")


if __name__ == "__main__":  # pragma: no cover - direct invocation
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
