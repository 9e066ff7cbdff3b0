"""The metrics registry primitives and the canonical percentile."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               percentile)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 0) == 0.0
        assert percentile([], 100) == 0.0

    def test_single_value_is_every_percentile(self):
        for q in (0, 1, 50, 99, 100):
            assert percentile([7.5], q) == 7.5

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)

    def test_endpoints_and_median(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5

    def test_linear_interpolation(self):
        assert percentile([0.0, 10.0], 25) == 2.5
        assert percentile([0.0, 10.0], 75) == 7.5

    def test_input_not_mutated(self):
        values = [3.0, 1.0, 2.0]
        percentile(values, 95)
        assert values == [3.0, 1.0, 2.0]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
           st.floats(0, 100))
    def test_bounded_by_min_and_max(self, values, q):
        result = percentile(values, q)
        epsilon = 1e-9 * max(1.0, abs(min(values)), abs(max(values)))
        assert min(values) - epsilon <= result <= max(values) + epsilon

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_monotone_in_q(self, values):
        points = [percentile(values, q) for q in (0, 25, 50, 75, 100)]
        assert points == sorted(points)


class TestPrimitives:
    def test_counter_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_up_and_down(self):
        gauge = Gauge()
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 2
        gauge.set(10)
        assert gauge.value == 10

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.snapshot_value()
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 2.5
        assert summary["max"] == 4.0


class TestRegistry:
    def test_idempotent_registration(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help")
        again = registry.counter("c_total")
        assert again is first

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("series")
        with pytest.raises(ValueError):
            registry.gauge("series")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("labeled", labels=("peer",))
        with pytest.raises(ValueError):
            registry.counter("labeled", labels=("host",))

    def test_labeled_series(self):
        registry = MetricsRegistry()
        metric = registry.counter("bytes_total", labels=("peer",))
        metric.labels("peer1").inc(10)
        metric.labels(peer="peer2").inc(20)
        assert metric.labels("peer1").value == 10
        # Non-creating read: absent series stays absent.
        assert metric.get("peer3") is None
        assert set(metric.series()) == {("peer1",), ("peer2",)}

    def test_label_arity_checked(self):
        registry = MetricsRegistry()
        metric = registry.counter("pair_total", labels=("a", "b"))
        with pytest.raises(ValueError):
            metric.labels("only-one")
        with pytest.raises(KeyError):
            metric.labels(a="x", wrong="y")

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("plain_total").inc(2)
        registry.gauge("level").set(7)
        registry.histogram("lat").observe(0.5)
        registry.counter("by_peer_total", labels=("peer",)) \
            .labels("p1").inc(3)
        snap = registry.snapshot()
        assert snap["plain_total"] == 2
        assert snap["level"] == 7
        assert snap["lat"]["count"] == 1
        assert snap["by_peer_total"] == {"p1": 3}

    def test_render_text(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "cache hits").inc(5)
        registry.counter("by_peer_total", labels=("peer",)) \
            .labels("p1").inc(1)
        text = registry.render_text()
        assert "# HELP hits_total cache hits" in text
        assert "# TYPE hits_total counter" in text
        assert "hits_total 5" in text
        assert 'by_peer_total{peer="p1"} 1' in text

    def test_get_returns_registered_metric(self):
        registry = MetricsRegistry()
        counter = registry.counter("thing_total")
        assert registry.get("thing_total") is counter
        assert registry.get("absent") is None

    def test_mixed_type_labels_render_without_raising(self):
        """Series whose label values mix strings and integers (peer
        names next to shard indexes) must sort by string form, not
        raise TypeError on comparison."""
        registry = MetricsRegistry()
        metric = registry.counter("calls_total", labels=("shard",))
        metric.labels(2).inc(1)
        metric.labels("node1").inc(2)
        metric.labels(10).inc(3)
        text = registry.render_text()
        # Stringified sort: "10" < "2" < "node1".
        assert (text.index('shard="10"') < text.index('shard="2"')
                < text.index('shard="node1"'))
        snap = registry.snapshot()
        assert list(snap["calls_total"]) == ["10", "2", "node1"]

    def test_render_text_is_deterministic(self):
        def build(order):
            registry = MetricsRegistry()
            registry.counter("z_total").inc(1)
            registry.histogram("lat", labels=("peer",))
            metric = registry.counter("by_peer_total", labels=("peer",))
            for peer in order:
                registry.get("lat").labels(peer).observe(0.5)
                metric.labels(peer).inc(1)
            return registry.render_text()

        first = build(["b", "a", "c"])
        second = build(["c", "b", "a"])
        assert first == second
        # Labeled histograms expose the p99 series per child.
        assert 'lat_p99{peer="a"}' in first

    def test_snapshot_orders_labeled_children(self):
        registry = MetricsRegistry()
        metric = registry.counter("x_total", labels=("peer",))
        metric.labels("zeta").inc(1)
        metric.labels("alpha").inc(2)
        assert list(registry.snapshot()["x_total"]) == ["alpha", "zeta"]
