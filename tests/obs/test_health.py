"""Per-peer health scoring: baselines, demotion hysteresis, events.

The tracker scores; the standing it judges lives in a peer view, which
asks the tracker whenever it is read (``view.healthy``)."""

import pytest

from repro.clock import VirtualClock
from repro.cluster.membership import PeerView
from repro.obs.events import EventLog
from repro.obs.health import BUCKETS, WIDTH_S, HealthTracker

#: Long enough for every sample in the windows to age out.
WINDOW_S = WIDTH_S * BUCKETS


def make_tracker():
    """A health tracker, attached to a peer view that holds its
    standings."""
    clock = VirtualClock()
    events = EventLog(clock=clock)
    view = PeerView()
    view.health = HealthTracker(events=events, clock=clock)
    return view, events, clock


def feed(tracker, peer, latency_s, n=5, ok=True):
    for _ in range(n):
        tracker.record(peer, latency_s, ok=ok)


class TestHealthScoring:

    def test_fresh_peer_is_healthy(self):
        view, _, _ = make_tracker()
        assert view.healthy("never-seen")
        state = view.health.health("never-seen")
        assert state.score == 1.0
        assert state.samples == 0

    def test_uniform_fleet_scores_full(self):
        view, events, _ = make_tracker()
        for peer in ("node1", "node2", "node3"):
            feed(view.health, peer, 0.001)
        for peer in ("node1", "node2", "node3"):
            assert view.health.health(peer).score == 1.0
            assert view.healthy(peer)
        assert len(events) == 0

    def test_degrading_peer_is_demoted(self):
        """A slow-but-answering replica is demoted on latency alone —
        the case failover counting can never catch."""
        view, events, _ = make_tracker()
        feed(view.health, "node1", 0.001)
        feed(view.health, "node2", 0.050)  # 50x the fleet baseline
        feed(view.health, "node3", 0.001)
        state = view.health.health("node2")
        # latency_factor = 3 * 0.001 / 0.050 = 0.06
        assert state.score == pytest.approx(0.06, rel=0.05)
        assert not view.healthy("node2")
        assert events.count("health_demoted") == 1
        assert view.healthy("node1")
        assert view.healthy("node3")

    def test_zero_baseline_never_demotes(self):
        """The trap a zero-delay virtual wire sets. Peers whose every
        sample is exactly 0.0 drop out of the baseline (only positive
        means count), so the one slow peer *is* the fleet baseline, is
        compared against itself, scores 1.0 and is never demoted. A
        virtual-time drill must therefore charge modelled network time
        (``tests/cluster/conftest.py::virtual_wire``: ``time_scale=1.0``)."""
        view, events, _ = make_tracker()
        feed(view.health, "node1", 0.0)
        feed(view.health, "node2", 0.080)
        feed(view.health, "node3", 0.0)
        assert view.health.baseline() == 0.080
        state = view.health.health("node2")
        assert state.score == 1.0 and view.healthy("node2")
        assert events.count("health_demoted") == 0
        # Any positive healthy latency restores the comparison.
        feed(view.health, "node1", 0.001)
        feed(view.health, "node3", 0.001)
        assert not view.healthy("node2")

    def test_lower_median_baseline_resists_the_outlier(self):
        """Two-peer fleet: the degraded peer must not drag the
        baseline up and excuse itself."""
        view, _, _ = make_tracker()
        feed(view.health, "good", 0.001)
        feed(view.health, "bad", 0.100)
        # Lower median of [0.001, 0.100] is 0.001, not the midpoint.
        assert view.health.baseline() == pytest.approx(0.001)
        assert not view.healthy("bad")
        assert view.healthy("good")

    def test_error_rate_lowers_score(self):
        view, events, _ = make_tracker()
        feed(view.health, "node1", 0.001, n=10)
        feed(view.health, "node2", 0.001, n=4, ok=True)
        feed(view.health, "node2", 0.001, n=6, ok=False)
        state = view.health.health("node2")
        assert state.error_rate == pytest.approx(0.6)
        assert state.score == pytest.approx(0.4)
        assert not view.healthy("node2")
        assert events.count("health_demoted") == 1

    def test_min_samples_keeps_prior_standing(self):
        view, _, clock = make_tracker()
        feed(view.health, "node1", 0.001, n=10)
        feed(view.health, "node2", 0.100, n=10)
        assert not view.healthy("node2")
        # Its traffic ages out: 1 fresh sample is not enough evidence
        # to clear the demotion.
        clock.advance(WINDOW_S)
        view.health.record("node2", 0.001)
        state = view.health.health("node2")
        assert state.samples == 1
        assert not view.healthy("node2")

    def test_restore_needs_hysteresis_margin(self):
        view, events, clock = make_tracker()
        feed(view.health, "node1", 0.001, n=20)
        feed(view.health, "node2", 0.100, n=10)
        assert not view.healthy("node2")
        # Recovery: the old slow samples age out, fresh fast traffic
        # replaces them, and the peer is restored (score > 0.8).
        clock.advance(WINDOW_S)
        feed(view.health, "node1", 0.001, n=20)
        feed(view.health, "node2", 0.001, n=10)
        assert view.healthy("node2")
        assert events.count("health_restored") == 1
        assert events.count("health_demoted") == 1

    def test_score_oscillation_does_not_flap_events(self):
        """Scores wobbling between demote (0.5) and restore (0.8)
        thresholds must not emit repeated transitions."""
        view, events, _ = make_tracker()
        feed(view.health, "node1", 0.001, n=20)
        feed(view.health, "node2", 0.001, n=4, ok=True)
        feed(view.health, "node2", 0.001, n=6, ok=False)  # score 0.4
        assert not view.healthy("node2")
        # More good traffic lifts the score into the dead band
        # (0.5 < score < 0.8): still demoted, no new events.
        feed(view.health, "node2", 0.001, n=10, ok=True)
        state = view.health.health("node2")
        assert 0.5 < state.score < 0.8
        assert not view.healthy("node2")
        for _ in range(5):
            view.healthy("node2")
        assert events.count("health_demoted") == 1
        assert events.count("health_restored") == 0
