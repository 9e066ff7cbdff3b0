"""Compile once: one prepared query per shape, on both sides of the wire.

A query text is parsed, analysed and lowered when the planner first
sees its *shape* (the text with comparison literals as slots) and
looked up ever after, whatever literals it comes with; a shipped
function body is parsed when a peer first sees its shape. A literal
costs no pricing pass: a shape has one price. What re-prices a
prepared query is a moved stamp (a store, a repartition); calibration
only re-ranks its candidates. The counting tests wrap the
parser and the decomposer wherever a ``repro`` module holds them, the
way ``benchmarks/e2e/spans.py`` does.
"""

import importlib.util
import sys
from pathlib import Path

from repro.decompose.strategy import decompose, prepare, realize
from repro.paths.relpath import compile_paths
from repro.planner import ir
from repro.planner import planner as planner_module
from repro.planner.ir import (
    BulkBatch, CallSite, LocalEval, ScatterGather, ShipDocument, XrpcCall,
)
from repro.runtime.engine import FederationEngine
from repro.system.federation import Federation
from repro.workloads import (
    BENCHMARK_QUERY, REFDATA_PEER, TINY_LOOKUP_QUERY,
    benchmark_query_variant, build_federation, build_mixed_federation,
    refdata_document,
)
from repro.xquery.parser import parse_expr, parse_query
from repro.xquery.prepared import SCAN_CACHE_SIZE, scan
from repro.xquery.pretty import pretty
from repro.xquery.xdm import serialize_sequence
from repro.xrpc import peer as peer_module

from tests.conftest import COURSE_XML, Q2, STUDENTS_XML
from tests.xrpc.test_one_parse_per_message import _rebind


def _count(monkeypatch, *functions) -> dict[str, list]:
    """Calls of each of ``functions`` from now on, by name."""
    calls: dict[str, list] = {fn.__name__: [] for fn in functions}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__].append(1)   # list.append: thread-safe
            return fn(*args, **kwargs)
        return wrapper

    for fn in functions:
        _rebind(monkeypatch, fn, counted(fn))
    return calls


def _ledger_workloads():
    """``benchmarks/e2e/workloads.py`` (not a package), for the exact
    texts and documents the ledger's ``local_paths`` workload runs."""
    name = "_e2e_workloads"
    if name not in sys.modules:
        path = (Path(__file__).resolve().parents[2]
                / "benchmarks" / "e2e" / "workloads.py")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module    # dataclasses look the module up
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_local_paths_texts_are_parsed_once(monkeypatch):
    """The ledger's eleven ``local_paths`` texts, three passes: eleven
    parses, and every later lookup is a hit — the shared ``exec``
    factor swinging between eleven query shapes re-prices them and
    invalidates none (``planner.cache_hit_ratio`` read 0.0 here)."""
    ledger = _ledger_workloads()
    instance = ledger.WORKLOADS["local_paths"].build()
    calls = _count(monkeypatch, parse_query, decompose, prepare)
    for _ in range(3):
        for text in ledger.LOCAL_QUERIES:
            assert instance.query(text).stats.plan is not None
    assert len(calls["parse_query"]) == len(ledger.LOCAL_QUERIES) == 11
    assert len(calls["prepare"]) + len(calls["decompose"]) == 11
    snapshot = instance.federation.planner.snapshot()
    assert snapshot["cache_hits"] == 22
    assert snapshot["cached_plans"] == 11


def test_shipped_body_is_parsed_once_per_peer(monkeypatch):
    """By-projection ships one body to each of two peers; a second run
    ships the same two texts and neither peer parses again. Each peer's
    table holds the body and the compiled result paths its request
    carried."""
    federation = build_federation(0.003)
    calls = _count(monkeypatch, parse_expr)
    first = federation.run(BENCHMARK_QUERY, at="local",
                           strategy="by-projection")
    assert len(calls["parse_expr"]) == 2
    second = federation.run(BENCHMARK_QUERY, at="local",
                            strategy="by-projection")
    assert len(calls["parse_expr"]) == 2
    assert first.stats.messages == second.stats.messages == 4
    assert serialize_sequence(first.items) \
        == serialize_sequence(second.items)
    assert [len(federation.peer(name).prepared)
            for name in ("peer1", "peer2", "local")] == [2, 2, 0]


def test_shipped_text_is_rendered_once_per_call_site(monkeypatch):
    """The shipped text belongs to the call site, not to the call: a
    warm by-projection run pretty-prints nothing and resolves each
    body to the ``CallSite`` the plan already handed out."""
    federation = build_federation(0.003)
    calls = _count(monkeypatch, pretty, CallSite)
    cold = federation.run(BENCHMARK_QUERY, at="local",
                          strategy="by-projection")
    assert len(calls["pretty"]) == len(calls["CallSite"]) == 2
    warm = federation.run(BENCHMARK_QUERY, at="local",
                          strategy="by-projection")
    assert len(calls["pretty"]) == len(calls["CallSite"]) == 2
    assert warm.stats.message_bytes == cold.stats.message_bytes
    assert serialize_sequence(warm.items) == serialize_sequence(cold.items)


def test_store_relowers_without_reparsing(monkeypatch):
    """A store moves the stamp: the candidates are lowered again from
    the analysis already held — a fixed strategy's single candidate
    from the decomposition it still has, so nothing of the decomposer
    runs at all."""
    federation = Federation()
    federation.add_peer("A").store("students.xml", STUDENTS_XML)
    federation.add_peer("B").store("course42.xml", COURSE_XML)
    federation.add_peer("local")
    for strategy in ("auto", "by-fragment"):
        federation.run(Q2, at="local", strategy=strategy)
    lowered = federation.planner.snapshot()["plans_enumerated"]
    calls = _count(monkeypatch, parse_query, decompose, prepare, realize)
    federation.peer("A").store("students.xml", STUDENTS_XML)

    fixed = federation.run(Q2, at="local", strategy="by-fragment")
    assert fixed.stats.plan.from_cache is False
    assert federation.planner.snapshot()["plans_enumerated"] == lowered + 1
    assert not any(calls.values())

    auto = federation.run(Q2, at="local", strategy="auto")
    assert auto.stats.plan.from_cache is False
    assert len(auto.stats.plan.candidates) > 1
    assert not calls["parse_query"] and not calls["prepare"] \
        and not calls["decompose"]
    again = federation.run(Q2, at="local", strategy="auto")
    assert again.stats.plan.from_cache is True


def test_store_may_change_the_pick():
    """Re-lowering prices against the new statistics, so ``auto`` can
    leave the plan it held: a tiny reference table ships whole, a big
    one is decomposed."""
    federation = build_mixed_federation(0.003)
    tiny = federation.run(TINY_LOOKUP_QUERY, at="local", strategy="auto")
    assert tiny.stats.plan.strategy == "data-shipping"
    federation.peer(REFDATA_PEER).store("rates.xml",
                                        refdata_document(4000))
    big = federation.run(TINY_LOOKUP_QUERY, at="local", strategy="auto")
    assert big.stats.plan.from_cache is False
    assert big.stats.plan.strategy != "data-shipping"
    assert big.stats.documents_shipped == 0
    assert len(big.items) > len(tiny.items)


def test_concurrent_runs_share_one_prepared_query(monkeypatch):
    """Eight engine workers racing on one text: one parse, one
    prepared query, one evaluator — shared by every run, each of which
    still returns what local evaluation returns."""
    federation = build_federation(0.004)
    oracle = Federation()
    oracle.add_peer("oracle")
    for name, document in (("people.xml", "peer1"),
                           ("auctions.xml", "peer2")):
        oracle.peer("oracle").store(
            name, federation.peer(document).serialized(name))
    expected = serialize_sequence(oracle.run(
        BENCHMARK_QUERY.replace("xrpc://peer1/", "")
        .replace("xrpc://peer2/", ""),
        at="oracle", strategy="data-shipping").items)
    assert expected

    calls = _count(monkeypatch, parse_query)
    built = []

    class CountedEvaluator(planner_module.Evaluator):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(planner_module, "Evaluator", CountedEvaluator)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with FederationEngine(federation, max_workers=8, cache=False) as engine:
            futures = [engine.submit(BENCHMARK_QUERY, "local",
                                     "by-fragment") for _ in range(32)]
            answers = [serialize_sequence(future.result(timeout=60).items)
                       for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert answers == [expected] * 32
    assert len(calls["parse_query"]) == 1
    assert len(built) == 1
    snapshot = federation.planner.snapshot()
    assert snapshot["cached_plans"] == 1
    assert snapshot["cache_hits"] == 31


# -- plan by shape: a literal is a parameter of the prepared query -------------


def _local_oracle(federation):
    """A one-peer federation holding ``federation``'s two documents,
    and the rewrite that aims a benchmark text at it."""
    oracle = Federation()
    oracle.add_peer("oracle")
    for name, owner in (("people.xml", "peer1"), ("auctions.xml", "peer2")):
        oracle.peer("oracle").store(
            name, federation.peer(owner).serialized(name))
    return lambda text: serialize_sequence(oracle.run(
        text.replace("xrpc://peer1/", "").replace("xrpc://peer2/", ""),
        at="oracle", strategy="data-shipping").items)


def test_two_hundred_thresholds_are_one_prepared_query(monkeypatch):
    """ROADMAP 3(a)'s exit, counted: the ledger's 200 ``tenant_mix``
    texts are one shape, so the parser and the decomposer run for the
    first of them only — on both sides of the wire — and the other 199
    are lookups that price nothing. Every answer is its own text's."""
    ledger = _ledger_workloads()
    texts = [benchmark_query_variant(threshold)
             for threshold in ledger.TENANT_THRESHOLDS]
    assert len(set(texts)) == 200
    federation = build_federation(0.004)
    local = _local_oracle(federation)
    expected = [local(text) for text in texts]
    assert len(set(expected)) > 3        # the thresholds do select

    calls = _count(monkeypatch, parse_query, prepare, realize, parse_expr)
    compiled = []     # the result path sets the peers compiled
    monkeypatch.setattr(peer_module, "compile_paths", lambda *args: (
        compiled.append(1), compile_paths(*args))[1])
    with FederationEngine(federation, max_workers=2) as engine:
        futures = [engine.submit(text, "local", "auto") for text in texts]
        results = [future.result(timeout=60) for future in futures]
    assert [serialize_sequence(result.items) for result in results] \
        == expected
    # What one text costs at first sight (4 strategies analysed, each
    # candidate realised once), and nothing per further text.
    assert len(calls["parse_query"]) == 1
    assert len(calls["prepare"]) == 4
    candidates = len(results[0].stats.plan.candidates)
    assert len(calls["realize"]) == candidates > 4
    # A peer compiles a body once per shape it is shipped, however
    # many thresholds it is shipped with (its table also holds the
    # result path sets it compiled, once each).
    entries = sum(len(federation.peer(name).prepared)
                  for name in ("peer1", "peer2", "local"))
    bodies = entries - len(compiled)
    assert len(calls["parse_expr"]) == bodies <= 2 * candidates
    snapshot = federation.planner.snapshot()
    assert snapshot["cached_plans"] == 1
    assert snapshot["plans_enumerated"] == candidates
    assert snapshot["cache_hits"] == 199
    assert [result.stats.plan.from_cache for result in results].count(
        False) == 1
    assert {result.literals for result in results} \
        == {(float(threshold),) for threshold in ledger.TENANT_THRESHOLDS}


def test_a_second_sweep_of_the_tenant_texts_scans_nothing():
    """``scan``'s memo holds both sides of the wire for the ledger's
    ``tenant_mix``: its 200 query texts and the 200 body texts the
    peers are shipped. After one sweep through an engine (no result
    cache, so the second sweep ships every body again) the second
    misses on none of them."""
    ledger = _ledger_workloads()
    texts = [benchmark_query_variant(threshold)
             for threshold in ledger.TENANT_THRESHOLDS]
    federation = build_federation(0.004)
    scan.cache_clear()
    misses = []
    for _ in range(2):
        before = scan.cache_info().misses
        with FederationEngine(federation, max_workers=2,
                              cache=False) as engine:
            for future in [engine.submit(text, "local", "auto")
                           for text in texts]:
                future.result(timeout=60)
        misses.append(scan.cache_info().misses - before)
    assert misses[0] >= 2 * len(texts) and misses[1] == 0
    assert scan.cache_info().maxsize == SCAN_CACHE_SIZE


def test_literals_of_one_shape_share_candidates_ranking_and_estimates():
    """A literal prices nothing: ``< 18`` and ``< 67`` get the same
    candidates, in the same order, at the same estimates (on a fresh
    calibration each, so no feedback tells them apart), and explain
    still shows each text its own literals."""
    few = build_federation(0.01).run(
        benchmark_query_variant("18.00"), at="local",
        strategy="auto").stats.plan
    federation = build_federation(0.01)
    many = federation.run(benchmark_query_variant("67.75"), at="local",
                          strategy="auto").stats.plan
    assert few.literals == (18.0,) and many.literals == (67.75,)
    assert few.candidates == many.candidates
    assert few.plan.label == many.plan.label
    assert (few.estimated_s, few.estimated_bytes) \
        == (many.estimated_s, many.estimated_bytes)
    assert "shape planned, literals (18.0)" in few.explain(analyze=True)
    again = federation.run(benchmark_query_variant("18.00"), at="local",
                           strategy="auto").stats.plan
    assert "shape hit, literals (18.0)" in again.explain(analyze=True)
    assert again.plan is many.plan


def test_store_between_two_literals_reprices_the_shape_once(monkeypatch):
    """A store moves the stamp for the shape, not per literal: the
    first lookup after it is the enumeration (every estimate of the
    shape went stale, and is re-priced once), every other literal's
    lookup is a hit that prices nothing, and nobody parses or
    decomposes."""
    federation = build_federation(0.004)
    planner = federation.planner
    first, second, third = (benchmark_query_variant(threshold)
                            for threshold in ("25.00", "35.00", "45.00"))
    run = lambda text: federation.run(  # noqa: E731
        text, at="local", strategy="auto")
    run(first)
    run(second)
    before = planner.snapshot()
    candidates = before["plans_enumerated"]
    assert before["cache_hits"] == 1

    calls = _count(monkeypatch, parse_query, prepare, realize, decompose)
    priced, reprice = [], planner.estimator.reprice
    monkeypatch.setattr(planner.estimator, "reprice", lambda plan: (
        priced.append(1), reprice(plan))[1])
    people = federation.peer("peer1").serialized("people.xml")
    federation.peer("peer1").store("people.xml", people)
    assert run(third).stats.plan.from_cache is False
    after = planner.snapshot()
    assert after["plans_enumerated"] == 2 * candidates
    assert len(priced) == candidates

    assert run(second).stats.plan.from_cache is True
    assert run(first).stats.plan.from_cache is True
    assert run(third).stats.plan.from_cache is True
    final = planner.snapshot()
    assert final["plans_enumerated"] == 2 * candidates
    assert len(priced) == candidates
    assert final["cache_hits"] == 4
    assert final["cached_plans"] == 1
    assert not any(calls.values())


def test_one_pricing_per_stamp_and_calibration_version(monkeypatch):
    """A shape's candidates are priced once per (stamp, calibration
    version): a second lookup with no feedback between the two prices
    nothing and returns the same plan, ranking and vectors; a factor
    write re-prices each candidate once at the next lookup, and so does
    a store. Nothing prices the plan after a run, and no operator is
    rendered until the report's ``explain()`` is read."""
    federation = build_federation(0.02)
    planner, book = federation.planner, federation.planner.calibration
    first, second = (benchmark_query_variant(threshold)
                     for threshold in (30, 40))
    federation.run(first, at="local", strategy="auto")
    calls = _count(monkeypatch, ir.priced)
    rendered = []
    for op_type in (LocalEval, ShipDocument, XrpcCall, BulkBatch,
                    ScatterGather):
        def describe(op, _original=op_type.describe):
            rendered.append(1)
            return _original(op)
        monkeypatch.setattr(op_type, "describe", describe)

    def lookup(text):
        """``text``'s report, and the ``ir.priced`` calls it made."""
        calls["priced"].clear()
        report = planner.plan(text, "local", "auto")[1]
        return report, len(calls["priced"])

    # The run's feedback wrote factors: the next lookup re-ranks. Eight
    # candidates of three operators each: a local evaluation and one
    # operator per document, however each document is reached.
    warm, priced = lookup(first)
    assert len(warm.candidates) == 8 and len(warm.plan.ops) == 3
    assert priced == 8 * 3 and warm.from_cache
    again, priced = lookup(second)
    assert priced == 0 and again.from_cache
    assert again.literals == (40.0,) and warm.literals == (30.0,)
    assert again.plan is warm.plan
    assert again.candidates == warm.candidates
    assert again.vectors is warm.vectors

    version = book.version
    book.observe("exec", "local", "", 1.0, 4.0)
    assert book.version == version + 1
    moved, priced = lookup(first)
    assert priced == 8 * 3 and moved.from_cache
    assert moved.candidates != warm.candidates
    assert lookup(second)[1] == 0

    people = federation.peer("peer1").serialized("people.xml")
    federation.peer("peer1").store("people.xml", people)
    stored, priced = lookup(second)
    assert priced == 8 * 3 and not stored.from_cache
    assert lookup(first)[1] == 0

    # A warm run prices nothing: its feedback writes factors after it.
    calls["priced"].clear()
    run = federation.run(first, at="local", strategy="auto").stats.plan
    assert calls["priced"] == [] and run.vectors is stored.vectors
    assert book.version > version + 1
    assert rendered == []
    assert run.explain().startswith(f"plan {run.strategy}")
    assert len(rendered) > 0
