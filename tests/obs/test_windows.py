"""Rolling windows and the quantile sketch: rotation, clock skew, and
the bounded-error guarantee."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.clock import VirtualClock
from repro.obs.windows import QuantileSketch, RollingWindow, RollingWindowFamily

from tests.conftest import fuzz_settings


def exact_percentile(values, q):
    """Nearest-rank percentile, the sketch's own rank convention."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class TestQuantileSketch:

    def test_empty_sketch(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert sketch.quantile(50) == 0.0
        assert sketch.mean == 0.0

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            QuantileSketch(eps=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(eps=1.0)

    def test_percentile_range_validated(self):
        sketch = QuantileSketch()
        sketch.add(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(-1)
        with pytest.raises(ValueError):
            sketch.quantile(101)

    def test_min_max_mean_exact(self):
        sketch = QuantileSketch()
        for value in (2.0, 8.0, 4.0, 6.0):
            sketch.add(value)
        assert sketch.min == 2.0
        assert sketch.max == 8.0
        assert sketch.mean == 5.0
        assert sketch.count == 4

    def test_non_positive_values_report_zero(self):
        sketch = QuantileSketch()
        sketch.add(0.0)
        sketch.add(-1.0)
        sketch.add(10.0)
        # Two of three values are in the zero bucket: p50 is 0.
        assert sketch.quantile(50) == 0.0
        assert sketch.quantile(99) <= 10.0

    def test_error_bound_over_random_streams(self):
        """Hypothesis-style sweep: for seeded random streams across
        distributions and sizes, every quantile estimate is within
        relative error eps of the exact nearest-rank percentile."""
        eps = 0.01
        for seed in range(8):
            rng = random.Random(seed)
            if seed % 3 == 0:
                values = [rng.lognormvariate(0.0, 2.0)
                          for _ in range(1 + seed * 137)]
            elif seed % 3 == 1:
                values = [rng.uniform(1e-6, 1e3)
                          for _ in range(50 + seed * 211)]
            else:
                values = [rng.expovariate(10.0)
                          for _ in range(10 + seed * 97)]
            sketch = QuantileSketch(eps=eps)
            for value in values:
                sketch.add(value)
            for q in (1, 10, 50, 90, 95, 99, 99.9, 100):
                exact = exact_percentile(values, q)
                estimate = sketch.quantile(q)
                # Tiny slack over eps covers float round-off only.
                bound = eps * exact * (1.0 + 1e-6) + 1e-12
                assert abs(estimate - exact) <= bound, (
                    f"seed={seed} q={q}: |{estimate} - {exact}| "
                    f"> {bound}")

    @fuzz_settings(60)
    @given(values=st.lists(
        st.floats(min_value=1e-9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=400),
        q=st.sampled_from([1, 25, 50, 75, 90, 95, 99, 100]))
    def test_error_bound_property(self, values, q):
        """Property: any positive stream, any quantile — the estimate
        stays within relative error eps of the exact percentile."""
        eps = 0.02
        sketch = QuantileSketch(eps=eps)
        for value in values:
            sketch.add(value)
        exact = exact_percentile(values, q)
        assert abs(sketch.quantile(q) - exact) <= (
            eps * exact * (1.0 + 1e-6) + 1e-12)

    def test_merge_equals_single_sketch(self):
        rng = random.Random(42)
        values = [rng.lognormvariate(0.0, 1.0) for _ in range(500)]
        whole = QuantileSketch(eps=0.02)
        left = QuantileSketch(eps=0.02)
        right = QuantileSketch(eps=0.02)
        for index, value in enumerate(values):
            whole.add(value)
            (left if index % 2 else right).add(value)
        left.merge(right)
        assert left.count == whole.count
        assert left.min == whole.min
        assert left.max == whole.max
        for q in (50, 95, 99):
            assert left.quantile(q) == whole.quantile(q)

    def test_merge_requires_same_eps(self):
        a, b = QuantileSketch(eps=0.01), QuantileSketch(eps=0.02)
        b.add(1.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_snapshot_keys(self):
        sketch = QuantileSketch()
        sketch.add(3.0)
        snap = sketch.snapshot()
        assert set(snap) == {"count", "sum", "mean", "p50", "p95",
                             "p99", "max"}
        assert snap["count"] == 1
        assert snap["max"] == 3.0


class TestRollingWindow:

    def test_config_validated(self):
        with pytest.raises(ValueError):
            RollingWindow(width_s=0.0)
        with pytest.raises(ValueError):
            RollingWindow(buckets=0)

    def test_observations_accumulate_in_current_bucket(self):
        clock = VirtualClock()
        window = RollingWindow(width_s=1.0, buckets=5, clock=clock)
        window.observe(2.0)
        window.observe(4.0)
        assert window.count() == 2
        assert window.sum() == 6.0
        assert window.mean() == 3.0

    def test_bucket_rotation_expires_old_data(self):
        clock = VirtualClock()
        window = RollingWindow(width_s=1.0, buckets=3, clock=clock)
        window.observe(1.0)
        clock.advance(1.0)
        window.observe(2.0)
        clock.advance(1.0)
        window.observe(3.0)
        assert window.count() == 3
        # One more step pushes the first bucket out of the ring.
        clock.advance(1.0)
        assert window.count() == 2
        assert window.sum() == 5.0
        clock.advance(2.0)
        assert window.count() == 0

    def test_forward_jump_past_ring_clears_everything(self):
        clock = VirtualClock()
        window = RollingWindow(width_s=1.0, buckets=4, clock=clock)
        for _ in range(4):
            window.observe(1.0)
            clock.advance(1.0)
        clock.advance(100.0)
        assert window.count() == 0
        window.observe(7.0)
        assert window.sum() == 7.0

    def test_backwards_clock_never_clears(self):
        clock = VirtualClock()
        window = RollingWindow(width_s=1.0, buckets=4, clock=clock)
        window.observe(1.0)
        clock.advance(2.0)
        window.observe(2.0)
        clock.now -= 50.0  # skew: clock jumps backwards
        assert window.count() == 2
        # New observations land in the newest bucket, not a past one.
        window.observe(3.0)
        assert window.count() == 3
        clock.now += 50.0  # skew heals: nothing was lost meanwhile
        assert window.count() == 3

    def test_window_s_limits_the_read(self):
        clock = VirtualClock()
        window = RollingWindow(width_s=1.0, buckets=10, clock=clock)
        window.observe(1.0)
        for value in (2.0, 3.0, 4.0):
            clock.advance(1.0)
            window.observe(value)
        # Reading at t+3: last 2 buckets hold values 3 and 4.
        assert window.count(window_s=2.0) == 2
        assert window.sum(window_s=2.0) == 7.0
        assert window.count() == 4

    def test_covered_s_caps_at_window_lifetime(self):
        clock = VirtualClock()
        window = RollingWindow(width_s=1.0, buckets=60, clock=clock)
        window.observe(1.0)
        # One bucket old: a 10s read covers 1s, not 10.
        assert window.covered_s(window_s=10.0) == 1.0
        clock.advance(4.0)
        assert window.covered_s(window_s=10.0) == 5.0

    def test_rate_uses_covered_not_requested_span(self):
        clock = VirtualClock()
        window = RollingWindow(width_s=1.0, buckets=60, clock=clock)
        for _ in range(5):
            window.observe(1.0)
        # 5 events in the window's 1 lived second: 5/s, not 5/60.
        assert window.rate() == 5.0

    def test_windowed_quantile_merges_bucket_sketches(self):
        clock = VirtualClock()
        window = RollingWindow(width_s=1.0, buckets=10, clock=clock)
        for value in (1.0, 100.0):
            window.observe(value)
            clock.advance(1.0)
        assert window.quantile(99) == pytest.approx(100.0, rel=0.02)
        # The recent 1-bucket view only saw nothing (current bucket is
        # empty after the last advance); the 2-bucket view sees 100.
        assert window.quantile(99, window_s=2.0) == pytest.approx(
            100.0, rel=0.02)

    def test_eps_none_disables_quantiles(self):
        window = RollingWindow(eps=None, clock=VirtualClock())
        window.observe(1.0)
        with pytest.raises(ValueError):
            window.quantile(50)
        snap = window.snapshot()
        assert "p99" not in snap
        assert snap["count"] == 1

    def test_empty_window_reads(self):
        window = RollingWindow(clock=VirtualClock())
        assert window.count() == 0
        assert window.mean() == 0.0
        assert window.rate() == 0.0
        # A read establishes the current bucket, so the window has
        # lived exactly one bucket (the rate above is still 0).
        assert window.covered_s() == 1.0


class TestRollingWindowFamily:

    def test_lazy_per_label_windows(self):
        clock = VirtualClock()
        family = RollingWindowFamily(clock=clock)
        family.labels("node1").observe(1.0)
        family.labels("node2").observe(2.0)
        assert family.labels("node1") is family.labels("node1")
        assert family.names() == ["node1", "node2"]
        assert family.get("absent") is None
        assert family.get("node1").sum() == 1.0
