"""The wire: the ship/execute/ship-back slice of a round trip, the
step after a result-cache miss in ``_Run._call_peer``, and the fetch
of ``_ship_document``.

:class:`Transport` is the only transport class, and a federation owns
one (``federation.transport``). It moves both SOAP-style XML texts,
re-parses the request at the peer, charges
:class:`~repro.net.costmodel.CostModel` time into the caller's
:class:`~repro.net.stats.RunStats` (through :meth:`RunStats.charge`,
so traced runs see the components on the span doing the wire work)
and keeps the federation-wide wire truth: the ``wire_*`` series of a
:class:`~repro.obs.metrics.MetricsRegistry`.

What a transmission waits and whether it fails are data on the wire:
a **delay policy** (``time_scale`` × the cost model's network time —
0.0, the default, is the in-process loopback — plus
``extra_latency_s``, plus what :meth:`~Transport.degrade_peer`
injected), a **fault policy** (``faults``, a seeded :class:`FaultPlan`)
and the **clock** the delays are spent on.

Whatever the policy, a transmission is spent on its caller's thread:
a scatter's round trips follow one another, each sleeping its own
delay, so on a ``VirtualClock`` a drill's event order is replayable.

The peer-side work arrives as a ``handle`` callable (a bound
:meth:`~repro.xrpc.peer.RequestHandler.handle`), which keeps this
module free of any dependency on :mod:`repro.system`.
"""

from __future__ import annotations

import random
import threading
from typing import TYPE_CHECKING, Callable

from repro.clock import REAL_CLOCK, Clock
from repro.errors import PeerUnavailableError, TransientNetworkError
from repro.net.costmodel import CostModel
from repro.net.stats import RunStats
from repro.obs.metrics import MetricsRegistry
from repro.xrpc.messages import RequestMessage, ResponseMessage

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.system.federation import Peer


class FaultInjectedError(TransientNetworkError):
    """A transmission dropped by the wire's :class:`FaultPlan`.

    Transient by definition: the fault plan failed *this transmission*,
    not the peer, so the router's retry budget applies before failover.
    """


class RequestTimeoutError(TransientNetworkError):
    """One transmission exceeded :attr:`Transport.request_timeout_s`.

    The caller waited out the timeout and gave up; the peer may well be
    healthy-but-slow, so the error is transient (retry budget applies).
    Carries the injected+simulated delay that tripped the limit.
    """

    def __init__(self, message: str, peer: str | None = None,
                 attempt: int | None = None,
                 delay_s: float = 0.0, timeout_s: float = 0.0):
        super().__init__(message, peer=peer, attempt=attempt)
        self.delay_s = delay_s
        self.timeout_s = timeout_s


class PeerDownError(PeerUnavailableError):
    """The destination peer was killed via :meth:`Transport.kill_peer`
    (the cluster layer's replica-failure drill)."""


class RetryPolicy:
    """Retry budget for *transient* wire faults (injected faults,
    per-attempt timeouts) — distinct from :class:`PeerDownError`
    failover, which switches replica immediately.

    ``attempts`` bounds tries per replica (including the first);
    ``budget`` bounds total retries one logical call may spend across
    all of a shard's replicas, so a call cannot burn ``attempts ×
    replicas`` tries under a fault storm. Backoff is exponential
    (``base_backoff_s * 2^retry`` capped at ``max_backoff_s``) with
    up to ``jitter`` fraction subtracted from a seeded
    ``random.Random`` — deterministic per call site, never the module
    global.
    """

    __slots__ = ("attempts", "budget", "base_backoff_s", "max_backoff_s",
                 "jitter", "seed")

    def __init__(self, attempts: int = 3, budget: int = 8,
                 base_backoff_s: float = 0.0, max_backoff_s: float = 0.050,
                 jitter: float = 0.5, seed: int = 20090329) -> None:
        self.attempts, self.budget = attempts, budget
        self.base_backoff_s, self.max_backoff_s = base_backoff_s, max_backoff_s
        self.jitter, self.seed = jitter, seed
        if self.attempts < 1:
            raise ValueError(f"attempts {self.attempts} must be >= 1")
        if self.budget < 0:
            raise ValueError(f"budget {self.budget} must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter {self.jitter} must be in [0, 1]")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff seconds must be >= 0")

    def backoff_s(self, retry_index: int, rng: random.Random) -> float:
        """Sleep before retry ``retry_index`` (0-based): exponential,
        capped, jittered downward so synchronized retries spread out."""
        if self.base_backoff_s <= 0.0:
            return 0.0
        base = min(self.max_backoff_s,
                   self.base_backoff_s * (2 ** retry_index))
        if self.jitter <= 0.0:
            return base
        return base * (1.0 - self.jitter * rng.random())


class Transport:
    """The wire: serialise, charge the cost model, wait, deliver.

    ``per_peer_concurrency`` bounds how many exchanges may be in flight
    against one destination peer at a time — the runtime's per-peer
    request queue (excess callers block on the peer's semaphore in FIFO
    arrival order). ``metrics`` is the registry the ``wire_*`` series
    register in (a private one when omitted). ``time_scale`` maps
    simulated network seconds to seconds slept on ``clock``,
    ``extra_latency_s`` is slept per transmission on top.
    """

    def __init__(self, cost_model: CostModel | None = None,
                 per_peer_concurrency: int | None = None,
                 metrics: MetricsRegistry | None = None, *,
                 clock: Clock = REAL_CLOCK, time_scale: float = 0.0,
                 extra_latency_s: float = 0.0,
                 faults: FaultPlan | None = None):
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.per_peer_concurrency = per_peer_concurrency
        self.clock = clock
        self.time_scale = time_scale
        self.extra_latency_s = extra_latency_s
        self.faults = faults
        self._lock = threading.Lock()
        self._gates: dict[str, threading.BoundedSemaphore] = {}
        self._down: set[str] = set()
        #: Extra latency injected per transmission to a peer
        #: (:meth:`degrade_peer` — the "degrading, not dead" drill).
        self._slow: dict[str, float] = {}
        #: The attached fleet monitor's event log (the federation
        #: installs it); peer lifecycle transitions emit into it.
        self.events = None
        #: Per-attempt timeout: a transmission whose delay exceeds this
        #: raises :class:`RequestTimeoutError` after waiting out the
        #: timeout (None ⇒ callers wait forever).
        self.request_timeout_s: float | None = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._wire_messages = self.metrics.counter(
            "wire_messages_total", "delivered SOAP messages", ("peer",))
        self._wire_message_bytes = self.metrics.counter(
            "wire_message_bytes_total", "delivered message bytes", ("peer",))
        self._wire_document_bytes = self.metrics.counter(
            "wire_document_bytes_total", "shipped document bytes", ("peer",))
        self._wire_in_flight = self.metrics.gauge(
            "wire_in_flight", "exchanges currently on the wire", ("peer",))

    # -- wire counters ------------------------------------------------------

    def _count_message(self, peer_name: str, size: int) -> None:
        self._wire_messages.labels(peer_name).inc()
        self._wire_message_bytes.labels(peer_name).inc(size)

    def wire_summary(self) -> dict[str, dict[str, int]]:
        """Bytes/messages per peer, across every query this transport
        served (documents count against their owner peer). Read from
        the ``wire_*`` registry series — the same numbers
        ``metrics.snapshot()`` exports."""
        out: dict[str, dict[str, int]] = {}
        for field_name, metric in (
                ("messages", self._wire_messages),
                ("message_bytes", self._wire_message_bytes),
                ("document_bytes", self._wire_document_bytes)):
            for (name,), child in metric.series().items():
                out.setdefault(name, {
                    "messages": 0, "message_bytes": 0,
                    "document_bytes": 0})[field_name] = child.value
        for entry in out.values():
            entry["total_bytes"] = (entry["message_bytes"]
                                    + entry["document_bytes"])
        return dict(sorted(out.items()))

    # -- live load & peer health --------------------------------------------

    def peer_load(self, peer_name: str) -> tuple[int, int]:
        """``(in-flight exchanges, total bytes served)`` for one peer —
        the live signal the cluster router ranks replicas by. Uses
        non-creating reads so load probes never mint zero series."""
        gauge = self._wire_in_flight.get(peer_name)
        mbytes = self._wire_message_bytes.get(peer_name)
        dbytes = self._wire_document_bytes.get(peer_name)
        total = ((mbytes.value if mbytes is not None else 0)
                 + (dbytes.value if dbytes is not None else 0))
        return (int(gauge.value) if gauge is not None else 0, total)

    def kill_peer(self, peer_name: str) -> None:
        """Make every future transmission to ``peer_name`` raise
        :class:`PeerDownError` — the deterministic way to drill replica
        failover (contrast with a seeded :class:`FaultPlan`)."""
        with self._lock:
            was_down = peer_name in self._down
            self._down.add(peer_name)
        if self.events is not None and not was_down:
            self.events.emit("peer_down",
                             f"peer {peer_name} killed on the wire",
                             severity="error", peer=peer_name)

    def revive_peer(self, peer_name: str) -> None:
        with self._lock:
            was_down = peer_name in self._down
            self._down.discard(peer_name)
        if self.events is not None and was_down:
            self.events.emit("peer_up", f"peer {peer_name} revived",
                             severity="info", peer=peer_name)

    def is_down(self, peer_name: str) -> bool:
        with self._lock:
            return peer_name in self._down

    def degrade_peer(self, peer_name: str,
                     extra_latency_s: float) -> None:
        """Inject fixed latency into every transmission to
        ``peer_name`` — the *degrading* (not dead) replica drill: the
        peer keeps answering correctly, only slower, so nothing fails
        over; catching it is the health detector's job."""
        if extra_latency_s < 0:
            raise ValueError(
                f"extra_latency_s {extra_latency_s} must be >= 0")
        with self._lock:
            self._slow[peer_name] = extra_latency_s
        if self.events is not None:
            self.events.emit(
                "peer_degraded",
                f"peer {peer_name} degraded: "
                f"+{extra_latency_s * 1000:.1f} ms per transmission",
                severity="warning", peer=peer_name,
                extra_latency_s=extra_latency_s)

    def restore_peer(self, peer_name: str) -> None:
        """Remove injected degradation latency (no-op if absent)."""
        with self._lock:
            was_slow = self._slow.pop(peer_name, None) is not None
        if self.events is not None and was_slow:
            self.events.emit("peer_restored",
                             f"peer {peer_name} latency restored",
                             severity="info", peer=peer_name)

    # -- one transmission ---------------------------------------------------

    def _gate(self, peer_name: str) -> threading.BoundedSemaphore | None:
        if self.per_peer_concurrency is None:
            return None
        with self._lock:
            gate = self._gates.get(peer_name)
            if gate is None:
                gate = threading.BoundedSemaphore(self.per_peer_concurrency)
                self._gates[peer_name] = gate
        return gate

    def _gated_transmit(self, peer_name: str, size: int) -> None:
        """One transmission under the peer's capacity gate: consult the
        fault plan, then spend the delay policy's seconds on the clock.
        The gate covers only the wire slice — never remote evaluation,
        which may re-enter the transport for other peers (holding a
        gate across ``handle`` would deadlock two queries shipping in
        opposite directions)."""
        if self.is_down(peer_name):
            raise PeerDownError(f"peer {peer_name!r} is down "
                                f"({size} bytes undeliverable)",
                                peer=peer_name)
        gate = self._gate(peer_name)
        if gate is not None:
            gate.acquire()
        try:
            delay = self.extra_latency_s
            if self._slow:
                # Lock-free read: a racing degrade/restore only skews
                # the injected delay of in-flight transmissions.
                delay += self._slow.get(peer_name) or 0.0
            if self.time_scale:
                delay += (self.cost_model.network_time(size)
                          * self.time_scale)
            # Faults fire before any waiting: a dropped transmission
            # costs the caller nothing but the retry.
            if self.faults is not None \
                    and self.faults.should_fail(peer_name):
                raise FaultInjectedError(
                    f"injected fault transmitting {size} bytes to "
                    f"{peer_name!r}", peer=peer_name)
            timeout = self.request_timeout_s
            if timeout is not None and delay > timeout:
                # The caller waits out the timeout, then gives up —
                # the transmission never completes.
                self.clock.sleep(timeout)
                raise RequestTimeoutError(
                    f"transmission of {size} bytes to {peer_name!r} "
                    f"timed out after {timeout * 1000:.1f} ms "
                    f"(wire delay {delay * 1000:.1f} ms)",
                    peer=peer_name, delay_s=delay, timeout_s=timeout)
            if delay > 0:
                self.clock.sleep(delay)
        finally:
            if gate is not None:
                gate.release()

    def probe(self, peer_name: str, nbytes: int = 64) -> float:
        """One heartbeat-sized transmission to ``peer_name``, returning
        its seconds on the wire's clock. Raises exactly what real
        traffic would (:class:`PeerDownError`, :class:`FaultInjectedError`,
        :class:`RequestTimeoutError`), so a failure detector probing
        through this sees the wire queries see. Probes skip the
        ``wire_*`` traffic counters — heartbeats are not workload."""
        started = self.clock()
        self._gated_transmit(peer_name, nbytes)
        return self.clock() - started

    # -- the two wire operations --------------------------------------------

    def charge_message(self, stats: RunStats, size: int) -> None:
        model = self.cost_model
        stats.record_message(size)
        stats.charge("serialize", model.serialize_time(size)
                     + model.deserialize_time(size))
        stats.charge("network", model.network_time(size), size)

    def exchange(self, peer: "Peer", request_xml: str,
                 handle: Callable[[RequestMessage], ResponseMessage],
                 stats: RunStats, request_bytes: int) -> tuple[str, int]:
        """Ship the serialised request to ``peer``, run ``handle`` on
        its re-parsed form there, ship the response back; returns the
        response text (the requester parses it) and its byte length.
        Both directions are real XML text, exactly as the seed did
        inline, each measured once (``request_bytes``: by the caller)."""
        if self.is_down(peer.name):
            # Fail before charging: a failover retry would otherwise
            # double-count the undelivered request in the caller's
            # stats. (Mid-transmission faults do leave their charges —
            # those bytes were genuinely attempted.)
            raise PeerDownError(f"peer {peer.name!r} is down",
                                peer=peer.name)
        self.charge_message(stats, request_bytes)

        in_flight = self._wire_in_flight.labels(peer.name)
        in_flight.inc()
        try:
            self._gated_transmit(peer.name, request_bytes)
            # Wire counters record delivered traffic only — count after
            # the transmit so injected faults don't inflate them.
            self._count_message(peer.name, request_bytes)
            response = handle(RequestMessage.from_xml(request_xml))
            response_xml = response.to_xml()
            response_bytes = len(response_xml.encode())
            self._gated_transmit(peer.name, response_bytes)
        finally:
            in_flight.dec()

        self.charge_message(stats, response_bytes)
        self._count_message(peer.name, response_bytes)
        return response_xml, response_bytes

    def fetch_document(self, owner: "Peer", local_name: str,
                       stats: RunStats) -> tuple[str, int]:
        """Data shipping: serialise a document at its owner and move the
        text over the wire (the caller shreds it); returns the text and
        its byte length, measured once."""
        if self.is_down(owner.name):
            # A dead owner can't even serialise: fail before charging.
            raise PeerDownError(f"peer {owner.name!r} is down",
                                peer=owner.name)
        text = owner.serialized(local_name)
        size = len(text.encode())
        model = self.cost_model
        stats.record_document_shipped(size)
        stats.charge("serialize", model.serialize_time(size))
        stats.charge("network", model.network_time(size), size)
        stats.charge("shred", model.shred_time(size))
        in_flight = self._wire_in_flight.labels(owner.name)
        in_flight.inc()
        try:
            self._gated_transmit(owner.name, size)
        finally:
            in_flight.dec()
        self._wire_document_bytes.labels(owner.name).inc(size)
        return text, size


class FaultPlan:
    """Deterministic fault injection: each transmission fails with
    probability ``rate``.

    Determinism contract (the chaos harness replays on it): the
    decision for a peer's *n*-th transmission is a pure function of
    ``(seed, peer, n)`` — each peer gets its own derived stream, so
    cross-peer thread interleaving cannot reshuffle which transmission
    eats which draw. Module-global randomness is never used.
    """

    __slots__ = ("rate", "seed", "_counts", "_lock")

    def __init__(self, rate: float = 0.0, seed: int = 20090329) -> None:
        self.rate, self.seed = rate, seed
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate {self.rate} must be in [0, 1]")
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def should_fail(self, peer_name: str = "") -> bool:
        if self.rate <= 0.0:
            return False
        with self._lock:
            ordinal = self._counts.get(peer_name, 0) + 1
            self._counts[peer_name] = ordinal
        # String seeds hash via SHA-512 (seed version 2): stable across
        # processes and PYTHONHASHSEED, unlike hash().
        draw = random.Random(
            f"{self.seed}|{peer_name}|{ordinal}").random()
        return draw < self.rate
