"""Columnar kernels vs. per-node list iteration, and larger-than-memory
serving under the buffer pool.

Two tables:

* **kernel cells** — each batch kernel against the per-node
  (node-handle / row-at-a-time) implementation of the same scan on an
  XMark people document: descendant-interval sweep, child scan,
  predicate probe, gather-merge, document-order sort. Results must be
  identical and every cell must clear the ``MIN_SPEEDUP`` floor —
  these ratios are what the regression guard pins.
* **max-RSS cell** — the (people, auctions) pair is spilled to XCOL1
  files at least :data:`MIN_CORPUS_FACTOR`× the buffer-pool budget,
  then a **subprocess** (peak RSS is a process high-water mark)
  reopens them through one shared pool and answers streaming queries.
  Every answer must match the in-memory truth (zero wrong answers) and
  the subprocess's RSS growth over an import-only baseline must stay
  under half the corpus size — the corpus was served, not resided.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

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

#: RSS cell sizing: the corpus must be at least this many times the
#: buffer-pool budget for the cell to prove anything.
RSS_SCALE = 2.0
MIN_CORPUS_FACTOR = 5


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

    rss_cell = _max_rss_cell()
    print_table(
        "Larger-than-memory: spilled corpus served under a pool budget",
        ["metric", "value"],
        [["corpus bytes", rss_cell["corpus_bytes"]],
         ["pool budget bytes", rss_cell["budget_bytes"]],
         ["corpus / budget", f"x{rss_cell['corpus_over_budget']:.1f}"],
         ["baseline max-RSS KiB", rss_cell["baseline_maxrss_kib"]],
         ["serving max-RSS KiB", rss_cell["serving_maxrss_kib"]],
         ["RSS growth bytes", rss_cell["rss_growth_bytes"]],
         ["pool evictions", rss_cell["pool_evictions"]],
         ["wrong answers", rss_cell["wrong_answers"]]])

    write_json("columnar", cells + [rss_cell], scale=SCALE,
               rss_scale=RSS_SCALE, min_speedup=MIN_SPEEDUP)

    worst = min(cell["speedup"] for cell in cells)
    assert worst >= MIN_SPEEDUP, (
        f"kernel speedup fell to x{worst:.1f} (floor x{MIN_SPEEDUP})")
    assert rss_cell["wrong_answers"] == 0
    assert rss_cell["rss_growth_bytes"] < rss_cell["corpus_bytes"] // 2, (
        "serving RSS grew by more than half the corpus — the buffer "
        "pool is not bounding residency")


# ---------------------------------------------------------------------------
# Max-RSS subprocess cell
# ---------------------------------------------------------------------------

#: Run in a subprocess because peak RSS is a process-lifetime high-water
#: mark; the child reads ``VmHWM`` from ``/proc/self/status`` because
#: Linux does **not** reset ``ru_maxrss`` across exec — a child spawned
#: from a large pytest parent would inherit the parent's peak and mask
#: the measurement. argv: mode people_path auctions_path budget_bytes.
_CHILD = """
import json, sys
from repro.xmldb.node import NodeKind
from repro.xmldb.pool import BufferPool, ColumnStore

def peak_rss_kib():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

def young_count(doc):
    # Streaming predicate scan (no index — an index would resident the
    # whole pre list in heap and defeat the residency measurement).
    ELEMENT, TEXT = NodeKind.ELEMENT, NodeKind.TEXT
    young = 0
    after_age = False
    for kind, name, value in zip(doc.kinds, doc.names, doc.values):
        if after_age and kind == TEXT:
            try:
                if float(value) < 40.0:
                    young += 1
            except ValueError:
                pass
        after_age = kind == ELEMENT and name == "age"
    return young

mode, people_path, auctions_path, budget = sys.argv[1:5]
answers = {}
evictions = 0
if mode == "serve":
    pool = BufferPool(int(budget))
    with ColumnStore.open(people_path, pool=pool) as s1, \\
            ColumnStore.open(auctions_path, pool=pool) as s2:
        d1, d2 = s1.document, s2.document
        answers["person_count"] = sum(
            1 for name in d1.names if name == "person")
        answers["young_count"] = young_count(d1)
        answers["value_chars"] = (sum(len(v) for v in d1.values)
                                  + sum(len(v) for v in d2.values))
        answers["size_sum"] = sum(d1.sizes) + sum(d2.sizes)
        evictions = pool.stats()["evictions"]
print(json.dumps({"answers": answers, "maxrss_kib": peak_rss_kib(),
                  "evictions": evictions}))
"""


def _run_child(mode: str, people: Path, auctions: Path,
               budget: int) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, str(people), str(auctions),
         str(budget)],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    return json.loads(result.stdout)


def _max_rss_cell() -> dict:
    import tempfile

    from repro.xmark.generator import (XMarkConfig, generate_auctions,
                                       generate_people, spill_auctions,
                                       spill_people)

    config = XMarkConfig(scale=RSS_SCALE)
    with tempfile.TemporaryDirectory() as tmp:
        people_path = Path(tmp) / "people.xcol"
        auctions_path = Path(tmp) / "auctions.xcol"
        corpus = (spill_people(config, people_path)
                  + spill_auctions(config, auctions_path))
        budget = corpus // (MIN_CORPUS_FACTOR + 1)
        assert corpus >= MIN_CORPUS_FACTOR * budget

        people = generate_people(config)
        auctions = generate_auctions(config)
        expected = {
            "person_count": sum(1 for n in people.names if n == "person"),
            "young_count": len(value_index(people).probe("age", "<", 40.0)),
            "value_chars": (sum(len(v) for v in people.values)
                            + sum(len(v) for v in auctions.values)),
            "size_sum": sum(people.sizes) + sum(auctions.sizes),
        }
        del people, auctions

        baseline = _run_child("baseline", people_path, auctions_path,
                              budget)
        serving = _run_child("serve", people_path, auctions_path, budget)

    wrong = sum(1 for key, value in expected.items()
                if serving["answers"].get(key) != value)
    growth_bytes = (serving["maxrss_kib"] - baseline["maxrss_kib"]) * 1024
    return {
        "kernel": "max-rss-serving",
        "corpus_bytes": corpus,
        "budget_bytes": budget,
        "corpus_over_budget": round(corpus / budget, 1),
        "baseline_maxrss_kib": baseline["maxrss_kib"],
        "serving_maxrss_kib": serving["maxrss_kib"],
        "rss_growth_bytes": growth_bytes,
        "pool_evictions": serving["evictions"],
        "wrong_answers": wrong,
        "result_items": serving["answers"].get("person_count", -1),
    }


if __name__ == "__main__":  # pragma: no cover - direct invocation
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
