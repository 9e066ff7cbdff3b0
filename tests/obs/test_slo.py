"""SLO burn-rate alerting: multi-window rules, exactly-once firing,
hysteresis against flapping."""

import pytest

from repro.clock import VirtualClock
from repro.obs.events import EventLog
from repro.obs.slo import SLO, BurnRatePolicy, SLOMonitor


def make_monitor(clock=None, **policy_kwargs):
    clock = clock if clock is not None else VirtualClock()
    events = EventLog(clock=clock)
    monitor = SLOMonitor(events=events, clock=clock)
    defaults = dict(long_s=10.0, short_s=1.0, threshold=5.0,
                    resolve_ratio=0.5, min_requests=5)
    policy = BurnRatePolicy(**{**defaults, **policy_kwargs})
    state = monitor.add(SLO(name="latency-p99", target=0.9,
                            threshold_s=0.050), policy)
    return monitor, events, state, clock


class TestSLOValidation:

    def test_slo_kind_and_target_validated(self):
        with pytest.raises(ValueError):
            SLO(name="x", kind="availability")
        with pytest.raises(ValueError):
            SLO(name="x", target=1.0)
        with pytest.raises(ValueError):
            SLO(name="x", target=0.0)

    def test_policy_windows_validated(self):
        with pytest.raises(ValueError):
            BurnRatePolicy(long_s=1.0, short_s=5.0)
        with pytest.raises(ValueError):
            BurnRatePolicy(resolve_ratio=0.0)

    def test_budget(self):
        assert SLO(name="x", target=0.99).budget == pytest.approx(0.01)


class TestBurnRateAlerting:

    def test_fires_exactly_once_per_sustained_breach(self):
        monitor, events, state, clock = make_monitor()
        # Every query breaches the 50 ms threshold: bad fraction 1.0,
        # budget 0.1 -> burn 10x >= threshold 5x.
        for _ in range(20):
            monitor.record(wall_s=0.2, ok=True)
            clock.advance(0.25)
        assert state.firing
        assert state.fired_total == 1
        assert events.count("alert_fired") == 1
        # The breach continues: still exactly one fire.
        for _ in range(20):
            monitor.record(wall_s=0.2, ok=True)
            clock.advance(0.25)
        assert events.count("alert_fired") == 1

    def test_min_requests_guards_against_one_slow_query(self):
        monitor, events, state, clock = make_monitor()
        for _ in range(4):  # below min_requests=5
            monitor.record(wall_s=0.2, ok=True)
        assert not state.firing
        assert events.count("alert_fired") == 0

    def test_short_window_gate_blocks_stale_history(self):
        """Burn high over the long window but recovered in the short
        window must not (re-)arm the alert."""
        monitor, events, state, clock = make_monitor(threshold=3.0)
        for _ in range(4):  # bad burst below min_requests=5...
            monitor.record(wall_s=0.2, ok=True)
        # ...then the fleet recovers; fast queries fill the short
        # window while the long window still holds the burst.
        for _ in range(8):
            clock.advance(1.0)
            monitor.record(wall_s=0.001, ok=True)
        # Long burn sits above threshold (4 bad of 12, budget 0.1:
        # 3.33x >= 3x) yet the clean short window gates the fire.
        assert state.last_burn_long >= state.policy.threshold
        assert state.last_burn_short == 0.0
        assert not state.firing
        assert events.count("alert_fired") == 0

    def test_resolve_needs_hysteresis_margin(self):
        monitor, events, state, clock = make_monitor()
        for _ in range(10):
            monitor.record(wall_s=0.2, ok=True)
        assert state.firing
        # Mix in good queries until burn sits between resolve level
        # (2.5x) and threshold (5x): must stay firing (no flap).
        for _ in range(14):
            monitor.record(wall_s=0.001, ok=True)
        assert (state.policy.threshold * state.policy.resolve_ratio
                < state.last_burn_long < state.policy.threshold)
        assert state.firing
        assert events.count("alert_resolved") == 0
        # Push burn under the resolve level: one resolve, no refire.
        for _ in range(40):
            monitor.record(wall_s=0.001, ok=True)
        assert not state.firing
        assert events.count("alert_resolved") == 1
        assert events.count("alert_fired") == 1

    def test_breach_after_recovery_fires_again(self):
        monitor, events, state, clock = make_monitor()
        for _ in range(10):
            monitor.record(wall_s=0.2, ok=True)
        clock.advance(60.0)  # everything ages out of the long window
        monitor.record(wall_s=0.001, ok=True)
        assert not state.firing
        for _ in range(10):
            monitor.record(wall_s=0.2, ok=True)
        assert state.firing
        assert state.fired_total == 2
        assert events.count("alert_fired") == 2

    def test_errors_kind_counts_failures_not_latency(self):
        clock = VirtualClock()
        monitor = SLOMonitor(events=EventLog(clock=clock), clock=clock)
        state = monitor.add(
            SLO(name="availability", kind="errors", target=0.9),
            BurnRatePolicy(long_s=10.0, short_s=1.0, threshold=5.0,
                           min_requests=5))
        for _ in range(10):  # slow but successful: not bad
            monitor.record(wall_s=10.0, ok=True)
        assert not state.firing
        for _ in range(10):
            monitor.record(wall_s=0.001, ok=False)
        assert state.firing

    def test_snapshot_and_active(self):
        monitor, events, state, clock = make_monitor()
        assert monitor.active() == []
        for _ in range(10):
            monitor.record(wall_s=0.2, ok=True)
        assert monitor.active() == [state]
        (snap,) = monitor.snapshot()
        assert snap["slo"] == "latency-p99"
        assert snap["firing"] is True
        assert snap["fired_total"] == 1
        assert snap["burn_long"] == pytest.approx(10.0)
