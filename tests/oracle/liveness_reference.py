"""The four liveness stores the peer view replaced, rebuilt from the
event stream, and the predicates the cluster composed from them —
kept as the reference ``repro.cluster.membership.PeerView`` is checked
against.

Before the view, "can this peer serve?" was answered from four stores:
the catalog's down and draining sets, the failure detector's per-peer
state and the health tracker's standing. Each change to one of them
emitted an event, so :class:`LivenessReference` rebuilds all four by
replaying those events:

==============================================  ===========================
event                                           store
==============================================  ===========================
``epoch_bump`` reason ``mark_down``/``mark_up``  the catalog's down set
``peer_draining`` / ``peer_undrained``           the catalog's draining set
``membership_*`` / ``replica_evicted``           the detector's states
``health_demoted`` / ``health_restored``         the health standings
==============================================  ===========================

and answers the old predicates over them: the router's
``catalog.live_replicas`` and health-then-load ``replica_order``,
``LoadScorer.usable``, ``PeerScore.alive``, ``placement.healthy_peers``
and ``LoadScorer.rank``.
"""

from __future__ import annotations

ALIVE, SUSPECT, DEAD, EVICTED = "alive", "suspect", "dead", "evicted"


class LivenessReference:
    """The pre-view liveness stores, fed by an event log."""

    def __init__(self, events) -> None:
        self.events = events
        self.seen = -1                      # last event seq replayed
        self.down: set[str] = set()         # ClusterCatalog._down
        self.draining: set[str] = set()     # ClusterCatalog._draining
        self.states: dict[str, str] = {}    # MembershipTracker states
        self.standing: dict[str, bool] = {}  # HealthTracker._healthy

    def sync(self) -> "LivenessReference":
        """Replay every event emitted since the last sync."""
        for event in self.events.recent():
            if event.seq <= self.seen:
                continue
            self.seen = event.seq
            self.apply(event.kind, event.attrs)
        return self

    def apply(self, kind: str, attrs: dict) -> None:
        peer = attrs.get("peer")
        if kind == "epoch_bump" and attrs.get("reason") == "mark_down":
            self.down.add(peer)
        elif kind == "epoch_bump" and attrs.get("reason") == "mark_up":
            self.down.discard(peer)
        elif kind == "peer_draining":
            self.draining.add(peer)
        elif kind == "peer_undrained":
            self.draining.discard(peer)
        elif kind.startswith("membership_") or kind == "replica_evicted":
            self.states[peer] = attrs["new"]
            # The detector called the catalog's mark_down on a dead
            # verdict and mark_up on a revival. Replaying that rule, not
            # only the epoch bumps it caused, checks the view keeps it.
            if attrs["new"] == DEAD:
                self.down.add(peer)
            elif attrs["new"] == ALIVE and attrs["old"] in (DEAD, EVICTED):
                self.down.discard(peer)
        elif kind == "health_demoted":
            self.standing[peer] = False
        elif kind == "health_restored":
            self.standing[peer] = True

    # -- the old predicates ---------------------------------------------------

    def state(self, peer: str) -> str:
        return self.states.get(peer, ALIVE)

    def healthy(self, peer: str) -> bool:
        return self.standing.get(peer, True)

    def live_replicas(self, replicas) -> tuple[str, ...]:
        """``catalog.live_replicas``: not marked down (all of them when
        every replica is)."""
        live = tuple(peer for peer in replicas if peer not in self.down)
        return live if live else tuple(replicas)

    def usable(self, peer: str) -> bool:
        """``LoadScorer.usable``: not down, not dead or evicted."""
        return peer not in self.down \
            and self.state(peer) not in (DEAD, EVICTED)

    def alive(self, peer: str) -> bool:
        """``PeerScore.alive``: usable and alive."""
        return self.usable(peer) and self.state(peer) == ALIVE

    def healthy_peers(self, peers) -> list[str]:
        """``placement.healthy_peers``: usable and not draining."""
        return [peer for peer in peers
                if self.usable(peer) and peer not in self.draining]

    def replica_order(self, replicas, load) -> list[str]:
        """The router's order: live replicas, healthy first, then by
        ``load(peer)``."""
        return sorted(self.live_replicas(replicas),
                      key=lambda peer: (not self.healthy(peer), load(peer)))

    def rank(self, peers, load, exclude=()) -> list[str]:
        """``LoadScorer.rank``: alive, non-draining peers outside
        ``exclude``, healthy first, then by ``load(peer)``."""
        candidates = [peer for peer in peers if peer not in exclude
                      and self.alive(peer) and peer not in self.draining]
        return sorted(candidates,
                      key=lambda peer: (not self.healthy(peer), load(peer)))

    def disagrees(self, peer: str) -> bool:
        """The case where the old answers disagreed: a peer the detector
        holds dead or evicted that carries no down mark (an operator's
        ``mark_up`` after the dead verdict, or a forced eviction). The
        router would send it requests; ``usable`` would not."""
        return peer not in self.down \
            and self.state(peer) in (DEAD, EVICTED)
