"""Per-peer health scoring from windowed stats.

``Transport.kill_peer`` makes a peer loudly dead — requests raise and
the router fails over. The harder operational case is the *degrading*
replica: still answering, but slower every second (GC thrash, noisy
neighbour, saturated link). Nothing raises, so failover counts stay
flat while tail latency climbs. This module scores each peer from
rolling windows of the router's attempts and judges its standing; the
standing itself lives in the federation's
:class:`~repro.cluster.membership.PeerView`, which asks
:meth:`HealthTracker.judge` whenever it is read and sorts a demoted
replica behind every healthy one in ``replica_order``, so selection
de-prefers a degrading replica *before* it ever fails a request.

Score model, per peer over the window:

``score = (1 - error_rate) * latency_factor``

where ``latency_factor`` is 1.0 while the peer's windowed mean latency
stays within ``latency_tolerance``× the fleet baseline, and decays as
``tolerance * baseline / mean`` beyond it. The baseline is the *lower
median* of all peers' windowed means — a robust centre that an
outlier cannot drag upward, so one degraded peer in a two-peer fleet
still scores against the healthy peer's latency.

Demotion has hysteresis: a peer is demoted when its score falls below
``demote_below`` and restored only after recovering past the higher
``restore_above``, so scores oscillating around one threshold cannot
flap the routing order. Both transitions emit events.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.obs.events import EventLog
from repro.obs.windows import RollingWindowFamily
from repro.runtime.clock import REAL_CLOCK

__all__ = ["PeerHealth", "HealthTracker"]


@dataclass
class PeerHealth:
    """One peer's current score and the windowed numbers behind it."""

    peer: str
    score: float = 1.0
    samples: int = 0
    error_rate: float = 0.0
    mean_latency_s: float = 0.0
    p95_latency_s: float = 0.0

    def snapshot(self) -> dict:
        return asdict(self)


class HealthTracker:
    """Scores peers from windowed latency/error observations.

    ``record(peer, latency_s, ok)`` is the single ingest point (the
    peer view forwards every router attempt); reads recompute scores
    lazily from the rolling windows, so a peer that stops receiving
    traffic ages out as its buckets rotate away.
    """

    def __init__(self, events: EventLog | None = None,
                 clock=REAL_CLOCK, width_s: float = 1.0,
                 buckets: int = 30, window_s: float | None = None,
                 latency_tolerance: float = 3.0,
                 demote_below: float = 0.5, restore_above: float = 0.8,
                 min_samples: int = 3):
        if not 0.0 < demote_below <= restore_above <= 1.0:
            raise ValueError(
                f"thresholds demote_below={demote_below} "
                f"restore_above={restore_above} must satisfy "
                "0 < demote <= restore <= 1")
        if latency_tolerance < 1.0:
            raise ValueError(
                f"latency_tolerance {latency_tolerance} must be >= 1")
        self.events = events
        self.window_s = window_s
        self.latency_tolerance = latency_tolerance
        self.demote_below = demote_below
        self.restore_above = restore_above
        self.min_samples = min_samples
        self._latency = RollingWindowFamily(width_s, buckets, clock,
                                            eps=0.01)
        self._errors = RollingWindowFamily(width_s, buckets, clock,
                                           eps=None)

    # -- ingest ---------------------------------------------------------------

    def record(self, peer: str, latency_s: float, ok: bool = True) -> None:
        """One attempt against ``peer``: its latency and outcome."""
        self._latency.labels(peer).observe(latency_s)
        self._errors.labels(peer).observe(0.0 if ok else 1.0)

    # -- scoring --------------------------------------------------------------

    def _windowed(self, peer: str) -> tuple[int, float, float, float]:
        """(samples, mean latency, p95 latency, error rate) for peer."""
        latency = self._latency.get(peer)
        errors = self._errors.get(peer)
        if latency is None:
            return 0, 0.0, 0.0, 0.0
        samples = latency.count(self.window_s)
        if samples == 0:
            return 0, 0.0, 0.0, 0.0
        mean = latency.mean(self.window_s)
        p95 = latency.quantile(95, self.window_s)
        error_rate = 0.0
        if errors is not None:
            error_count = errors.count(self.window_s)
            if error_count:
                error_rate = errors.sum(self.window_s) / error_count
        return samples, mean, p95, error_rate

    def baseline(self) -> float:
        """The fleet latency baseline: the lower median of per-peer
        windowed means (robust to one degraded outlier)."""
        means = sorted(
            mean for _, mean, _, _ in
            (self._windowed(peer) for peer in self._latency.names())
            if mean > 0.0)
        if not means:
            return 0.0
        return means[(len(means) - 1) // 2]

    def health(self, peer: str) -> PeerHealth:
        """``peer``'s score from the current windows (1.0 until it has
        ``min_samples`` samples)."""
        samples, mean, p95, error_rate = self._windowed(peer)
        state = PeerHealth(peer=peer, samples=samples,
                           error_rate=error_rate, mean_latency_s=mean,
                           p95_latency_s=p95)
        if samples >= self.min_samples:
            latency_factor = 1.0
            fleet = self.baseline()
            if fleet > 0.0 and mean > self.latency_tolerance * fleet:
                latency_factor = (self.latency_tolerance * fleet) / mean
            state.score = max(0.0, (1.0 - error_rate) * latency_factor)
        return state

    def judge(self, peer: str, healthy: bool) -> bool:
        """``peer``'s standing, given its standing so far: demoted when
        its score falls below ``demote_below``, restored once it
        recovers past ``restore_above``, kept as it was in between and
        while there is too little evidence to judge. A change emits
        ``health_demoted`` / ``health_restored``."""
        state = self.health(peer)
        if state.samples < self.min_samples:
            return healthy
        if healthy and state.score < self.demote_below:
            if self.events is not None:
                self.events.emit(
                    "health_demoted",
                    f"peer {peer}: score {state.score:.2f} below "
                    f"{self.demote_below:g} (mean latency "
                    f"{state.mean_latency_s * 1000:.2f} ms vs fleet "
                    f"{self.baseline() * 1000:.2f} ms, errors "
                    f"{state.error_rate:.0%})",
                    severity="warning", peer=peer, score=state.score,
                    mean_latency_s=state.mean_latency_s,
                    error_rate=state.error_rate)
            return False
        if not healthy and state.score > self.restore_above:
            if self.events is not None:
                self.events.emit(
                    "health_restored",
                    f"peer {peer}: score recovered to "
                    f"{state.score:.2f}",
                    severity="info", peer=peer, score=state.score)
            return True
        return healthy

    def peers(self) -> list[str]:
        return self._latency.names()

    def snapshot(self) -> list[dict]:
        return [self.health(peer).snapshot() for peer in self.peers()]
