"""Value-index speedup: compiled predicates and hash joins vs. the
naive per-candidate evaluator.

This is the PR's acceptance benchmark: predicate-heavy and join-heavy
queries over the XMark pair must run ≥3× faster through the value
index layer (``repro.xmldb.values`` probes + the predicate compiler in
``repro.xquery.predicates`` + the FLWOR hash join) than through the
naive engine kept as the test oracle
(``tests/oracle/xquery_reference_walker``) — with identical results,
asserted before timing.

Two query families:

* **predicate-heavy** — ``[child::T op literal]`` / ``[@a = ...]`` /
  conjunction shapes on the XMark documents, where the naive engine
  re-evaluates the predicate AST once per candidate and the indexed
  engine answers one value probe per document;
* **join-heavy** — the Section VII semijoin shape and a tiny-lookup
  filter, where the naive engine re-evaluates the invariant comparison
  side per iteration (nested loop) and the indexed engine hashes it
  once.

``BENCH_predicates.json`` carries the table; the committed baseline
under ``benchmarks/baselines/`` pins the speedups (ratios are
machine-stable) and the result counts (deterministic) through
``check_regression.py``.
"""

from __future__ import annotations

import time

from repro.xmark.generator import generate_pair
from repro.xmldb.node import Node
from repro.xquery.context import DynamicContext
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_query

from benchmarks.conftest import print_table, write_json
from tests.oracle.xquery_reference_walker import ReferenceEvaluator

SCALE = 0.02
REPEATS = 3
ITERATIONS = 10

#: (label, query, family) — the ≥3× floor applies to every cell.
QUERIES = [
    ("age-range",
     'doc("people.xml")//person[child::age < 40]/child::name',
     "predicate"),
    ("attr-equality",
     'doc("people.xml")//person[attribute::id = "person7"]',
     "predicate"),
    ("string-equality",
     'doc("auctions.xml")//open_auction[child::type = "Featured"]'
     '/child::seller',
     "predicate"),
    ("conjunction",
     'doc("auctions.xml")//open_auction'
     '[child::privacy = "Yes" and child::type = "Dutch"]/child::current',
     "predicate"),
    ("descendant-value",
     'doc("people.xml")//person[descendant::city = "Amsterdam"]'
     '/child::name',
     "predicate"),
    ("semijoin",
     """(let $t := (let $s := doc("people.xml")
                             /child::site/child::people/child::person
                 return for $x in $s
                        return if ($x/child::age < 40) then $x else ())
      return for $e in doc("auctions.xml")/descendant::open_auction
             return if ($e/child::seller/attribute::person
                        = $t/attribute::id)
                    then $e/child::annotation else ())/child::author""",
     "join"),
    ("tiny-lookup",
     'for $p in doc("people.xml")/child::site/child::people/child::person'
     ' return if ($p/child::address/child::country = "Belgium")'
     ' then $p/child::name else ()',
     "join"),
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


def test_predicate_speedup():
    people, auctions = generate_pair(SCALE)
    docs = {"people.xml": people, "auctions.xml": auctions}

    cells = []
    rows = []
    speedups = []
    for label, query, family in QUERIES:
        module = parse_query(query)
        indexed = _runner(module, docs, Evaluator)
        naive = _runner(module, docs, ReferenceEvaluator)
        assert _result_key(indexed()) == _result_key(naive()), label
        indexed_ms = _best_ms(indexed)
        naive_ms = _best_ms(naive)
        speedup = naive_ms / indexed_ms if indexed_ms else float("inf")
        speedups.append((label, speedup))
        cells.append({
            "query": label,
            "family": family,
            "naive_ms": round(naive_ms, 3),
            "indexed_ms": round(indexed_ms, 3),
            "speedup": round(speedup, 1),
            "result_items": len(indexed()),
        })
        rows.append([label, family, f"{naive_ms:.2f}",
                     f"{indexed_ms:.2f}", f"x{speedup:.1f}"])

    print_table(
        f"Predicates & joins: naive vs indexed (XMark scale {SCALE})",
        ["query", "family", "naive ms", "indexed ms", "speedup"], rows)
    write_json("predicates", cells, scale=SCALE, iterations=ITERATIONS,
               min_speedup=MIN_SPEEDUP)

    worst_label, worst = min(speedups, key=lambda pair: pair[1])
    assert worst >= MIN_SPEEDUP, (
        f"{worst_label} speedup fell to x{worst:.1f} "
        f"(floor x{MIN_SPEEDUP})")
