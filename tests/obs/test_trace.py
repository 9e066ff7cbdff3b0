"""Span trees over real federated runs: attribution, exports, and the
acceptance invariant — leaf component sums reproduce ``RunStats.times``.
"""

from __future__ import annotations

import json

from repro.clock import VirtualClock
from repro.decompose import Strategy
from repro.obs.export import (chrome_trace_events, dump_chrome_trace,
                              dump_trace, load_and_validate, render_tree,
                              span_to_dict, spans_in, validate_chrome_trace)
from repro.obs.trace import (COMPONENTS, Span, Tracer, bind_stats_span,
                             child_span, current_span)
from repro.workloads import SHARDED_BENCHMARK_QUERY, build_sharded_federation
from tests.cluster.conftest import make_cluster

TOLERANCE = 1e-9

#: Equality filter over the sharded library: range partitioning puts
#: year 2003 in exactly one shard, so three are provably skipped.
MEMBER_FILTER = """
for $b in doc("xrpc://books-c/books.xml")/child::library
          /child::books/child::book
return if ($b/child::year = 2003) then $b/child::title else ()
"""


def assert_components_match(root, stats) -> None:
    """The acceptance check: summing every component leaf of the trace
    reproduces the run's TimeBreakdown exactly."""
    totals = root.component_totals()
    for component in COMPONENTS:
        assert abs(totals.get(component, 0.0)
                   - getattr(stats.times, component)) < TOLERANCE, component
    # No leaf carries an unknown component name.
    assert set(totals) <= set(COMPONENTS)


class TestSpanMechanics:
    def test_child_span_is_noop_without_active_span(self):
        assert current_span() is None
        with child_span("orphan") as span:
            assert span is None
        assert current_span() is None

    def test_nesting_via_contextvar(self):
        tracer = Tracer()
        with tracer.start("query", at="local") as root:
            with child_span("plan") as plan:
                assert current_span() is plan
                with child_span("inner") as inner:
                    assert inner is not None
            assert current_span() is root
        assert current_span() is None
        assert [c.name for c in root.children] == ["plan"]
        assert [c.name for c in root.children[0].children] == ["inner"]

    def test_explicit_parent_crosses_threads(self):
        import threading
        tracer = Tracer()
        with tracer.start("query") as root:
            def worker():
                # Fresh thread: empty contextvar, explicit handoff.
                assert current_span() is None
                with child_span("shard", parent=root, shard=1):
                    pass
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert root.find("shard").attrs["shard"] == 1

    def test_error_recorded_and_span_closed(self):
        tracer = Tracer()
        try:
            with tracer.start("query"):
                with child_span("rpc"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        rpc = tracer.root.find("rpc")
        assert rpc.closed
        assert "RuntimeError" in rpc.attrs["error"]
        assert tracer.root.closed

    def test_charges_materialise_as_component_leaves(self):
        span = Span("rpc")
        span.charge("network", 0.25, nbytes=1024)
        span.charge("network", 0.25, nbytes=1024)
        span.charge("serialize", 0.1)
        span.close()
        leaves = {leaf.name: leaf for leaf in span.leaves()}
        assert leaves["network"].attrs == {"sim_s": 0.5, "bytes": 2048}
        assert leaves["serialize"].attrs == {"sim_s": 0.1}
        assert span.component_totals() == {"network": 0.5,
                                           "serialize": 0.1}

    def test_bind_stats_span_restores_previous(self):
        from repro.net.stats import RunStats
        stats = RunStats()
        outer, inner = Span("outer"), Span("inner")
        stats.span = outer
        with bind_stats_span(stats, inner):
            assert stats.span is inner
            stats.charge_span("network", 0.5)
        assert stats.span is outer
        assert inner.components == {"network": 0.5}
        # Binding None is a no-op window.
        with bind_stats_span(stats, None):
            assert stats.span is outer


class TestTracedRuns:
    def test_untraced_run_has_no_trace(self):
        federation = build_sharded_federation(0.002)
        result = federation.run(SHARDED_BENCHMARK_QUERY, at="local",
                                strategy="auto")
        assert result.trace is None
        assert result.stats.span is None

    def test_leaf_components_sum_to_runstats(self):
        """Acceptance: sharded XMark, trace=True — the span tree's
        component leaves reproduce the RunStats totals."""
        federation = build_sharded_federation(0.002)
        for strategy in ("auto", Strategy.BY_PROJECTION,
                         Strategy.DATA_SHIPPING):
            result = federation.run(SHARDED_BENCHMARK_QUERY, at="local",
                                    strategy=strategy, trace=True)
            root = result.trace
            assert root is not None and root.closed
            assert root.name == "query"
            assert_components_match(root, result.stats)
            # Every span in the tree is closed, and the root outlives
            # (contains) its children.
            for span in root.iter_spans():
                assert span.closed
                assert span.start_s >= root.start_s - TOLERANCE
                assert span.end_s <= root.end_s + TOLERANCE

    def test_root_attrs_summarise_the_run(self):
        federation = build_sharded_federation(0.002)
        result = federation.run(SHARDED_BENCHMARK_QUERY, at="local",
                                strategy="auto", trace=True)
        attrs = result.trace.attrs
        assert attrs["at"] == "local"
        assert attrs["strategy"] == result.stats.plan.strategy
        assert attrs["total_bytes"] == result.stats.total_transferred_bytes
        plan = result.trace.find("plan")
        assert plan is not None
        assert plan.find("enumerate").attrs["candidates"] >= 4

    def test_scatter_span_carries_per_shard_breakdown(self):
        cluster = make_cluster()
        result = cluster.run(MEMBER_FILTER, at="local",
                             strategy=Strategy.BY_FRAGMENT, trace=True)
        scatter = result.trace.find("scatter")
        assert scatter is not None
        assert scatter.attrs["collection"] == "books-c"
        assert scatter.attrs["shards"] == 4
        assert scatter.attrs["shards_skipped"] == 3
        per_shard = scatter.attrs["per_shard"]
        assert set(per_shard) == {f"books-c#s{i}" for i in range(4)}
        assert sum(1 for entry in per_shard.values()
                   if entry["skipped"]) == 3
        served = [entry for entry in per_shard.values()
                  if not entry["skipped"]]
        assert len(served) == 1 and served[0]["bytes"] > 0
        # Satellite: the same breakdown survives on RunStats.
        assert result.stats.per_shard == per_shard
        assert_components_match(result.trace, result.stats)

    def test_per_shard_survives_merge_and_summary(self):
        from repro.net.stats import RunStats
        left, right = RunStats(), RunStats()
        left.per_shard["c#s0"] = {"bytes": 10, "skipped": False}
        right.per_shard["c#s0"] = {"bytes": 5, "skipped": False}
        right.per_shard["c#s1"] = {"bytes": 7, "skipped": True}
        left.merge(right)
        assert left.per_shard["c#s0"] == {"bytes": 15, "skipped": False}
        assert left.per_shard["c#s1"] == {"bytes": 7, "skipped": True}
        assert "per_shard" in left.summary()
        assert "per_shard" not in RunStats().summary()

    def test_rpc_spans_have_wire_attrs(self):
        federation = build_sharded_federation(0.002)
        result = federation.run(SHARDED_BENCHMARK_QUERY, at="local",
                                strategy=Strategy.BY_PROJECTION,
                                trace=True)
        rpcs = result.trace.find_all("rpc")
        assert rpcs
        for rpc in rpcs:
            assert rpc.attrs["semantics"] == "by-projection"
            assert rpc.attrs["request_bytes"] > 0
            assert rpc.attrs["response_bytes"] > 0
            assert rpc.attrs["cache"] in ("hit", "miss", "off")

    def test_cache_hit_marks_the_rpc_span(self):
        from repro.runtime.cache import ResultCache
        federation = build_sharded_federation(0.002)
        cache = ResultCache()
        kwargs = dict(at="local", strategy=Strategy.BY_PROJECTION,
                      result_cache=cache, trace=True)
        first = federation.run(SHARDED_BENCHMARK_QUERY, **kwargs)
        second = federation.run(SHARDED_BENCHMARK_QUERY, **kwargs)
        assert second.stats.cache_hits > 0
        hits = [rpc for rpc in second.trace.find_all("rpc")
                if rpc.attrs.get("cache") == "hit"]
        assert hits
        assert all(rpc.attrs["saved_bytes"] > 0 for rpc in hits)
        # The invariant holds on both runs, cache or not.
        assert_components_match(first.trace, first.stats)
        assert_components_match(second.trace, second.stats)


class TestExport:
    def traced_run(self):
        federation = build_sharded_federation(0.002)
        return federation.run(SHARDED_BENCHMARK_QUERY, at="local",
                              strategy="auto", trace=True)

    def test_span_to_dict_roundtrips_shape(self):
        result = self.traced_run()
        document = span_to_dict(result.trace)
        assert document["name"] == "query"
        assert document["closed"] is True
        assert document["duration_us"] > 0
        assert any(child["name"] == "plan"
                   for child in document["children"])

    def test_dump_trace_writes_versioned_json(self, tmp_path):
        result = self.traced_run()
        path = tmp_path / "trace.json"
        document = dump_trace(result.trace, path)
        assert document["format"] == "repro-trace-v1"
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(document, default=str))

    def test_chrome_trace_validates(self, tmp_path):
        result = self.traced_run()
        events = chrome_trace_events(result.trace)
        document = {"traceEvents": events}
        assert validate_chrome_trace(document) == []
        assert spans_in(events, "query")
        # Component leaves export simulated durations.
        simulated = [e for e in events if e["cat"] == "simulated"]
        assert simulated
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in events)
        path = tmp_path / "chrome.json"
        dump_chrome_trace(result.trace, path)
        assert load_and_validate(path) == []

    def test_event_log_entries_become_instant_markers(self, tmp_path):
        from repro.obs.events import EventLog

        result = self.traced_run()
        root = result.trace
        log = EventLog()
        # One event inside the root's window, one before, one after:
        # the out-of-window timestamps clamp into [0, root duration].
        log.clock = VirtualClock((root.start_s + root.end_s) / 2)
        log.emit("failover", "mid-run", severity="warning",
                 replica="node2")
        log.clock = VirtualClock(root.start_s - 5.0)
        log.emit("peer_down", "before the run")
        log.clock = VirtualClock(root.end_s + 5.0)
        log.emit("peer_up", "after the run")

        events = chrome_trace_events(root, events=log)
        instants = [e for e in events if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["failover", "peer_down",
                                                "peer_up"]
        # The exporter rounds timestamps to 3 decimals, so compare
        # against the same rounding.
        end_us = round((root.end_s - root.start_s) * 1e6, 3)
        for instant in instants:
            assert instant["cat"] == "event"
            assert instant["s"] == "p"
            assert 0.0 <= instant["ts"] <= end_us
        assert instants[1]["ts"] == 0.0
        assert instants[2]["ts"] == round(end_us, 3)
        assert instants[0]["args"]["message"] == "mid-run"
        assert instants[0]["args"]["replica"] == "node2"
        # Instant markers pass the validator (no 'dur' required).
        assert validate_chrome_trace({"traceEvents": events}) == []
        path = tmp_path / "with_events.json"
        dump_chrome_trace(root, path, events=log)
        assert load_and_validate(path) == []
        # A bare iterable of Event works too (no EventLog required).
        subset = chrome_trace_events(root, events=log.recent(1))
        assert [e["name"] for e in subset if e["ph"] == "i"] == ["peer_up"]

    def test_validate_reports_problems(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or empty"]
        bad = {"traceEvents": [{"name": "x", "ph": "X", "pid": 1,
                                "tid": 1, "ts": -1.0, "dur": 2.0}]}
        problems = validate_chrome_trace(bad)
        assert any("negative" in p for p in problems)
        missing = {"traceEvents": [{"ph": "X"}]}
        assert any("missing 'name'" in p
                   for p in validate_chrome_trace(missing))

    def test_render_tree_excerpt(self):
        result = self.traced_run()
        text = render_tree(result.trace, max_depth=2)
        assert text.startswith("query ")
        assert "plan" in text
        deep = render_tree(result.trace)
        assert len(deep) >= len(text)
