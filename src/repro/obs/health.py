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
replica behind every healthy one in the router's ranking, so selection
de-prefers a degrading replica *before* it ever fails a request.

Score model, per peer over the window:

``score = (1 - error_rate) * latency_factor``

where ``latency_factor`` is 1.0 while the peer's windowed mean latency
stays within :data:`LATENCY_TOLERANCE`× the fleet baseline, and decays
as ``tolerance * baseline / mean`` beyond it. The baseline is the *lower
median* of all peers' windowed means — a robust centre that an
outlier cannot drag upward, so one degraded peer in a two-peer fleet
still scores against the healthy peer's latency.

Demotion has hysteresis: a peer is demoted when its score falls below
:data:`DEMOTE_BELOW` and restored only after recovering past the higher
:data:`RESTORE_ABOVE`, so scores oscillating around one threshold cannot
flap the routing order. Both transitions emit events.
"""

from __future__ import annotations

from repro.obs.windows import RollingWindowFamily

__all__ = ["PeerHealth", "HealthTracker"]

#: The rolling windows' shape (the failure detector's share it):
#: ``BUCKETS`` buckets of ``WIDTH_S`` seconds.
WIDTH_S = 1.0
BUCKETS = 60
#: A mean latency within this multiple of the fleet baseline costs a
#: peer no score.
LATENCY_TOLERANCE = 3.0
#: Demoted below the first score, restored above the second.
DEMOTE_BELOW = 0.5
RESTORE_ABOVE = 0.8
#: Fewer windowed samples than this leave a peer's standing as it was.
MIN_SAMPLES = 3


class PeerHealth:
    """One peer's current score and the windowed numbers behind it."""

    __slots__ = ("peer", "score", "samples", "error_rate", "mean_latency_s",
                 "p95_latency_s")

    def __init__(self, peer: str, score: float = 1.0, samples: int = 0,
                 error_rate: float = 0.0, mean_latency_s: float = 0.0,
                 p95_latency_s: float = 0.0) -> None:
        self.peer, self.score, self.samples = peer, score, samples
        self.error_rate, self.mean_latency_s = error_rate, mean_latency_s
        self.p95_latency_s = p95_latency_s


class HealthTracker:
    """Scores peers from windowed latency/error observations.

    ``record(peer, latency_s, ok)`` is the single ingest point (the
    peer view forwards every router attempt); reads recompute scores
    lazily from the rolling windows, so a peer that stops receiving
    traffic ages out as its buckets rotate away.
    """

    def __init__(self):
        self.federation = None
        self._latency = RollingWindowFamily(WIDTH_S, BUCKETS, self._now)
        self._errors = RollingWindowFamily(WIDTH_S, BUCKETS, self._now,
                                           eps=None)

    def _now(self) -> float:
        return self.federation.transport.clock()

    def attach(self, federation) -> "HealthTracker":
        """Install as the scorer of ``federation``'s peer view, which
        then feeds it every router attempt and asks it to judge each
        replica it ranks. Verdicts emit into the event log the
        federation has when they are reached, and the windows run on
        the clock of whichever wire it has installed."""
        self.federation = federation
        federation.peer_view.health = self
        return self

    @property
    def events(self):
        """The event log attached to the federation now (None: none)."""
        return self.federation.events

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
        samples = latency.count()
        if samples == 0:
            return 0, 0.0, 0.0, 0.0
        mean = latency.mean()
        p95 = latency.quantile(95)
        error_rate = 0.0
        if errors is not None:
            error_count = errors.count()
            if error_count:
                error_rate = errors.sum() / error_count
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
        :data:`MIN_SAMPLES` samples)."""
        samples, mean, p95, error_rate = self._windowed(peer)
        state = PeerHealth(peer=peer, samples=samples,
                           error_rate=error_rate, mean_latency_s=mean,
                           p95_latency_s=p95)
        if samples >= MIN_SAMPLES:
            latency_factor = 1.0
            fleet = self.baseline()
            if fleet > 0.0 and mean > LATENCY_TOLERANCE * fleet:
                latency_factor = (LATENCY_TOLERANCE * fleet) / mean
            state.score = max(0.0, (1.0 - error_rate) * latency_factor)
        return state

    def judge(self, peer: str, healthy: bool) -> bool:
        """``peer``'s standing, given its standing so far: demoted when
        its score falls below :data:`DEMOTE_BELOW`, restored once it
        recovers past :data:`RESTORE_ABOVE`, kept as it was in between and
        while there is too little evidence to judge. A change emits
        ``health_demoted`` / ``health_restored``."""
        state = self.health(peer)
        if state.samples < MIN_SAMPLES:
            return healthy
        if healthy and state.score < DEMOTE_BELOW:
            if self.events is not None:
                self.events.emit(
                    "health_demoted",
                    f"peer {peer}: score {state.score:.2f} below "
                    f"{DEMOTE_BELOW:g} (mean latency "
                    f"{state.mean_latency_s * 1000:.2f} ms vs fleet "
                    f"{self.baseline() * 1000:.2f} ms, errors "
                    f"{state.error_rate:.0%})",
                    severity="warning", peer=peer, score=state.score,
                    mean_latency_s=state.mean_latency_s,
                    error_rate=state.error_rate)
            return False
        if not healthy and state.score > RESTORE_ABOVE:
            if self.events is not None:
                self.events.emit(
                    "health_restored",
                    f"peer {peer}: score recovered to "
                    f"{state.score:.2f}",
                    severity="info", peer=peer, score=state.score)
            return True
        return healthy
