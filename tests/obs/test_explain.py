"""Explain-analyze: per-operator estimated-vs-actual accounting."""

from __future__ import annotations

from repro.decompose import Strategy
from repro.net.stats import PlanReport, RunStats
from repro.obs.explain import OpAnalysis, PlanAnalysis, render_analysis
from repro.runtime.cache import ResultCache
from repro.workloads import (SHARDED_BENCHMARK_QUERY, TINY_LOOKUP_QUERY,
                             build_mixed_federation,
                             build_sharded_federation)

TOLERANCE = 1e-9


class TestOperatorActuals:
    """Per-operator actuals are ``RunStats.per_op`` entries, folded by
    the same merge as the per-shard ones."""

    def test_site_records_merge(self):
        stats = RunStats()
        stats.record_op(1, bytes=10, calls=1, sim_s=0.5)
        stats.record_op(1, bytes=5, calls=2, sim_s=0.25, cache_hits=1)
        actual = stats.per_op[1]
        assert (actual["bytes"], actual["calls"]) == (15, 3)
        assert abs(actual["sim_s"] - 0.75) < TOLERANCE
        assert actual["cache_hits"] == 1
        assert 2 not in stats.per_op

    def test_ship_records_count_calls(self):
        stats = RunStats()
        stats.record_op(("owner", "d.xml"), bytes=100, calls=1)
        stats.record_op(("owner", "d.xml"), bytes=50, calls=1)
        actual = stats.per_op[("owner", "d.xml")]
        assert actual["bytes"] == 150 and actual["calls"] == 2
        assert ("owner", "other.xml") not in stats.per_op

    def test_merge(self):
        left, right = RunStats(), RunStats()
        left.record_op(7, bytes=1, calls=1, sim_s=1.0, wall_s=2.0)
        right.record_op(7, bytes=2, calls=3, sim_s=0.5, cache_hits=4)
        right.record_op(8, bytes=9, calls=1)
        left.merge(right)
        actual = left.per_op[7]
        assert (actual["bytes"], actual["calls"],
                actual["cache_hits"]) == (3, 4, 4)
        assert abs(actual["sim_s"] - 1.5) < TOLERANCE
        assert left.per_op[8] == {"bytes": 9, "calls": 1}
        # The merge copies: the source's entry stays its own.
        left.per_op[8]["bytes"] += 1
        assert right.per_op[8]["bytes"] == 9


class TestOpAnalysis:
    def test_time_error(self):
        row = OpAnalysis(describe="x", est_s=2.0, est_bytes=0.0,
                         actual_s=3.0)
        assert abs(row.time_error - 1.5) < TOLERANCE
        assert OpAnalysis(describe="x", est_s=2.0,
                          est_bytes=0.0).time_error is None
        assert OpAnalysis(describe="x", est_s=0.0, est_bytes=0.0,
                          actual_s=1.0).time_error is None

    def test_dict_forms_exclude_wall_clock(self):
        """summary() determinism: wall times never reach the dicts."""
        row = OpAnalysis(describe="x", est_s=1.0, est_bytes=2.0,
                         actual_s=1.0, actual_wall_s=0.123)
        assert "actual_wall_s" not in row.as_dict()
        analysis = PlanAnalysis(label="p", rows=(row,), wall_s=9.0)
        assert "wall_s" not in analysis.as_dict()


class TestAnalyzedRuns:
    def test_analysis_recorded_without_tracing(self):
        federation = build_sharded_federation(0.002)
        result = federation.run(SHARDED_BENCHMARK_QUERY, at="local",
                                strategy=Strategy.BY_PROJECTION)
        analysis = result.stats.plan.analysis
        assert analysis is not None
        assert abs(analysis.actual_total_s
                   - result.stats.times.total) < TOLERANCE
        assert analysis.actual_total_bytes \
            == result.stats.total_transferred_bytes
        assert analysis.wall_s > 0

    def test_scatter_row_sums_shards(self):
        federation = build_sharded_federation(0.002)
        result = federation.run(SHARDED_BENCHMARK_QUERY, at="local",
                                strategy=Strategy.BY_PROJECTION)
        rows = [row for row in result.stats.plan.analysis.rows
                if "scatter-gather" in row.describe]
        assert rows
        for row in rows:
            assert row.actual_calls == 4       # one round trip per shard
            assert row.actual_bytes > 0

    def test_ship_rows_and_exercised_flags(self):
        federation = build_mixed_federation(0.01)
        result = federation.run(TINY_LOOKUP_QUERY, at="local",
                                strategy="auto")
        analysis = result.stats.plan.analysis
        ship_rows = [row for row in analysis.rows
                     if row.describe.startswith("ship-document")]
        assert ship_rows
        assert all(row.actual_bytes > 0 for row in ship_rows)
        local_rows = [row for row in analysis.rows
                      if row.describe.startswith("local-eval")]
        assert local_rows and local_rows[0].actual_s is not None

    def test_cache_hits_attributed_to_rows(self):
        federation = build_sharded_federation(0.002)
        cache = ResultCache()
        kwargs = dict(at="local", strategy=Strategy.BY_PROJECTION,
                      result_cache=cache)
        federation.run(SHARDED_BENCHMARK_QUERY, **kwargs)
        second = federation.run(SHARDED_BENCHMARK_QUERY, **kwargs)
        assert second.stats.cache_hits > 0
        hits = sum(row.cache_hits
                   for row in second.stats.plan.analysis.rows)
        assert hits == second.stats.cache_hits

    def test_explain_analyze_rendering(self):
        federation = build_sharded_federation(0.002)
        result = federation.run(SHARDED_BENCHMARK_QUERY, at="local",
                                strategy="auto")
        plain = result.stats.plan.explain()
        analyzed = result.stats.plan.explain(analyze=True)
        assert plain.startswith("plan ")
        assert "-> actual" in analyzed
        assert "wall" in analyzed
        assert analyzed != plain

    def test_explain_analyze_without_analysis(self):
        report = PlanReport(strategy="x", estimated_s=1.0,
                            estimated_bytes=10, explain_text="plan x: est")
        assert report.explain() == "plan x: est"
        assert "(no actuals recorded)" in report.explain(analyze=True)

    def test_render_never_exercised_row(self):
        analysis = PlanAnalysis(
            label="p",
            rows=(OpAnalysis(describe="xrpc-call -> dead", est_s=1.0,
                             est_bytes=100.0, est_calls=2.0),
                  OpAnalysis(describe="xrpc-call -> cached", est_s=1.0,
                             est_bytes=100.0, cache_hits=3)))
        text = render_analysis(analysis)
        assert "never exercised" in text
        assert "served from cache (3 hits)" in text

    def test_as_dict_reaches_summary(self):
        federation = build_sharded_federation(0.002)
        result = federation.run(SHARDED_BENCHMARK_QUERY, at="local",
                                strategy="auto")
        summary = result.stats.summary()
        analysis = summary["plan"]["analysis"]
        assert analysis["label"] == result.stats.plan.strategy
        assert len(analysis["ops"]) \
            == len(result.stats.plan.analysis.rows)
