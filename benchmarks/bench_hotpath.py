"""Hot-path speedup: indexed set-at-a-time execution vs. the naive
tree-walking evaluator on descendant-heavy XMark queries.

This is the PR's acceptance benchmark: the structural-index engine
(`repro.xmldb.index` + the evaluator's pre-array pipeline) must beat
the per-node evaluator it replaced — kept verbatim as the test oracle,
``tests/oracle/xquery_reference_walker`` — by ≥3× on descendant-heavy
queries, with
deep-equal results. A second table measures the memoized serializer:
repeated subtree serialisation (the bulk-RPC fragment pattern) against
cold re-walks.

Wall-clock per query is a best-of-``REPEATS`` of a fixed iteration
count; the emitted ``BENCH_hotpath.json`` carries the before/after
table (machine-dependent milliseconds, machine-stable ratios — the
regression guard enforces only the ratios).
"""

from __future__ import annotations

import time

from repro.xmark.generator import generate_pair
from repro.xmldb.node import Node
from repro.xmldb.serializer import serialize, serialize_node
from repro.xmldb.index import structural_index
from repro.xquery.context import DynamicContext
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_query

from benchmarks.conftest import print_table, write_json
from tests.oracle.xquery_reference_walker import ReferenceEvaluator

SCALE = 0.02
REPEATS = 3
ITERATIONS = 10

#: (label, query, descendant_heavy) — the speedup floor applies to the
#: descendant-heavy subset; the rest is reported for context.
QUERIES = [
    ("count-persons",
     'count(doc("people.xml")//person)', True),
    ("person-names",
     'doc("people.xml")//person/name', True),
    ("deep-interests",
     'doc("people.xml")//profile//interest', True),
    ("auction-increases",
     'doc("auctions.xml")//open_auction//bidder/increase', True),
    ("annotation-text",
     'doc("auctions.xml")//annotation//description//text()', True),
    ("seller-refs",
     'doc("auctions.xml")//seller/attribute::person', True),
    ("rooted-child-chain",
     'doc("people.xml")/child::site/child::people/child::person', False),
    ("filtered-persons",
     'doc("people.xml")//person[descendant::age < 40]/name', False),
]

MIN_SPEEDUP = 3.0


def _runner(module, docs, engine):
    evaluator = engine(module)

    def run():
        env = DynamicContext(resolve_doc=docs.__getitem__)
        return evaluator.run(env)

    return run


def _best_ms(run) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(ITERATIONS):
            run()
        best = min(best, (time.perf_counter() - started) / ITERATIONS)
    return best * 1000.0


def _result_key(items):
    return [(item.doc.uri, item.pre) if isinstance(item, Node) else item
            for item in items]


def test_hotpath_speedup():
    people, auctions = generate_pair(SCALE)
    docs = {"people.xml": people, "auctions.xml": auctions}

    cells = []
    rows = []
    heavy_speedups = []
    for label, query, heavy in QUERIES:
        module = parse_query(query)
        indexed = _runner(module, docs, Evaluator)
        naive = _runner(module, docs, ReferenceEvaluator)
        assert _result_key(indexed()) == _result_key(naive()), label
        indexed_ms = _best_ms(indexed)
        naive_ms = _best_ms(naive)
        speedup = naive_ms / indexed_ms if indexed_ms else float("inf")
        if heavy:
            heavy_speedups.append(speedup)
        cells.append({
            "query": label,
            "descendant_heavy": heavy,
            "naive_ms": round(naive_ms, 3),
            "indexed_ms": round(indexed_ms, 3),
            "speedup": round(speedup, 1),
            "result_items": len(indexed()),
        })
        rows.append([label, "yes" if heavy else "no",
                     f"{naive_ms:.2f}", f"{indexed_ms:.2f}",
                     f"x{speedup:.1f}"])

    serializer_cell = _serializer_cell(people)
    cells.append(serializer_cell)
    rows.append(["serialize-members", "-",
                 f"{serializer_cell['naive_ms']:.2f}",
                 f"{serializer_cell['indexed_ms']:.2f}",
                 f"x{serializer_cell['speedup']:.1f}"])

    print_table(
        f"Hot path: naive vs indexed evaluator (XMark scale {SCALE})",
        ["query", "heavy", "naive ms", "indexed ms", "speedup"], rows)
    write_json("hotpath", cells, scale=SCALE, iterations=ITERATIONS,
               min_speedup=MIN_SPEEDUP)

    worst = min(heavy_speedups)
    assert worst >= MIN_SPEEDUP, (
        f"descendant-heavy speedup fell to x{worst:.1f} "
        f"(floor x{MIN_SPEEDUP})")


def _serializer_cell(doc) -> dict:
    """Bulk-RPC shape: serialise every person subtree, repeatedly."""
    person_pres = structural_index(doc).tag_pres["person"]

    def memoized():
        serialize(doc)  # span table (memoized after the first call)
        return [serialize_node(Node(doc, pre)) for pre in person_pres]

    def cold():
        doc.invalidate_caches()
        return [serialize_node(Node(doc, pre)) for pre in person_pres]

    assert memoized() == cold()
    memoized_ms = _best_ms(memoized)
    cold_ms = _best_ms(cold)
    doc.invalidate_caches()
    speedup = cold_ms / memoized_ms if memoized_ms else float("inf")
    return {
        "query": "serialize-members",
        "descendant_heavy": False,
        "naive_ms": round(cold_ms, 3),
        "indexed_ms": round(memoized_ms, 3),
        "speedup": round(speedup, 1),
        "result_items": len(person_pres),
    }
