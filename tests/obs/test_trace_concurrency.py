"""Interleaved traced queries must never cross-attribute: each trace's
component leaves reproduce *its own* run's RunStats, however the engine's
worker threads interleave."""

from __future__ import annotations

import threading

from hypothesis import given, settings, strategies as st

from repro.obs.trace import COMPONENTS, Span, Tracer, child_span
from repro.runtime import FederationEngine
from repro.workloads import SHARDED_SCAN_QUERY, build_sharded_federation

TOLERANCE = 1e-9


def sharded_scan_variant(max_age: int) -> str:
    """``SHARDED_SCAN_QUERY`` with the tenant's age threshold."""
    assert "< 40" in SHARDED_SCAN_QUERY
    return SHARDED_SCAN_QUERY.replace("< 40", f"< {max_age}")


def assert_well_formed(root) -> None:
    """Every span closed; every child's interval inside its parent's."""
    def walk(span: Span) -> None:
        assert span.closed, span.name
        for child in span.children:
            assert child.start_s >= span.start_s - TOLERANCE
            assert child.end_s <= span.end_s + TOLERANCE
            walk(child)
    walk(root)


def test_interleaved_engine_queries_never_cross_attribute():
    """N concurrent traced queries through the engine, on its workers
    and on the waiting caller:
    each trace sums to its own stats (the acceptance invariant, under
    interleaving). Cache off so every run does real wire work that could
    be mis-attributed."""
    federation = build_sharded_federation(0.002)
    thresholds = [25, 30, 35, 40, 45, 50, 55, 60]
    with FederationEngine(federation, max_workers=4, cache=False) as engine:
        futures = [engine.submit(sharded_scan_variant(age), "local",
                                 "by-fragment", trace=True)
                   for age in thresholds for _ in range(2)]
        results = [future.result() for future in futures]
    assert len(results) == 16
    for result in results:
        root = result.trace
        assert root is not None
        assert_well_formed(root)
        totals = root.component_totals()
        for component in COMPONENTS:
            assert abs(totals.get(component, 0.0)
                       - getattr(result.stats.times, component)) \
                < TOLERANCE, component
        # The scatter fan-out landed under this query's root, not a
        # neighbour's: one shard span per round trip actually made —
        # one per cover peer (value-index probes may skip provably
        # empty shards), each naming the shards it served.
        scatter = root.find("scatter")
        assert scatter is not None
        served = scatter.attrs["shards"] - scatter.attrs["shards_skipped"]
        spans = [span for span in scatter.iter_spans()
                 if span.name == "shard"]
        assert len(spans) == scatter.attrs["peers"] > 0
        assert sum(len(span.attrs["shards"]) for span in spans) == served
    # Distinct runs produced distinct span objects (no shared tree).
    roots = {id(result.trace) for result in results}
    assert len(roots) == len(results)


def test_bare_thread_interleaving_without_engine():
    """Two threads tracing their own federation runs concurrently:
    contextvars keep the trees apart."""
    federation = build_sharded_federation(0.002)
    results: dict[int, object] = {}

    def run_one(index: int, age: int) -> None:
        results[index] = federation.run(
            sharded_scan_variant(age), at="local",
            strategy="by-projection", trace=True)

    threads = [threading.Thread(target=run_one, args=(i, 25 + 10 * i))
               for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for result in results.values():
        assert_well_formed(result.trace)
        totals = result.trace.component_totals()
        for component in COMPONENTS:
            assert abs(totals.get(component, 0.0)
                       - getattr(result.stats.times, component)) \
                < TOLERANCE


def test_concurrent_charges_on_one_span_are_lossless():
    """Threads charging one span at once must not lose increments
    (a query's spans are charged on its own thread, but a span does
    not rely on that)."""
    span = Span("scatter")
    per_thread, threads_n = 200, 8

    def worker() -> None:
        for _ in range(per_thread):
            span.charge("network", 0.001, nbytes=2)

    threads = [threading.Thread(target=worker) for _ in range(threads_n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    span.close()
    expected = per_thread * threads_n * 0.001
    assert abs(span.component_totals()["network"] - expected) < 1e-6
    leaf = span.leaves()[0]
    assert leaf.attrs["bytes"] == per_thread * threads_n * 2


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=24))
def test_random_span_trees_stay_well_formed(shape):
    """Property: arbitrary nesting depths produce trees where parents
    contain (outlive) children. Each integer is the extra nesting depth
    of one span opened under the root."""
    tracer = Tracer()
    with tracer.start("query"):
        for index, depth in enumerate(shape):
            def nest(levels: int) -> None:
                if levels > 0:
                    with child_span(f"s{index}-d{levels}"):
                        nest(levels - 1)
            with child_span(f"s{index}"):
                nest(depth)
    root = tracer.root
    assert_well_formed(root)
    assert root.name == "query"
    # Every opened span is present, at the depth it was opened at.
    assert len(root.children) == len(shape)
    for index, depth in enumerate(shape):
        span = root.find(f"s{index}")
        assert span is not None
        if depth:
            assert span.find(f"s{index}-d1") is not None
