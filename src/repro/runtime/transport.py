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

What a transmission waits is data on the wire: a **delay policy**
(``time_scale`` × the cost model's network time — 0.0, the default, is
the in-process loopback — plus ``extra_latency_s``, plus what
:meth:`~Transport.degrade_peer` injected) and the **clock** the delays
are spent on. A transmission fails only when its peer is down
(:meth:`~Transport.kill_peer`): :class:`PeerDownError`, which the
cluster router answers by failing over to the next replica.

Whatever the policy, a transmission is spent on its caller's thread:
a scatter's round trips follow one another, each sleeping its own
delay, so on a ``VirtualClock`` a drill's event order is replayable.

The peer-side work arrives as a ``handle`` callable (a bound
:meth:`~repro.xrpc.peer.RequestHandler.handle`), which keeps this
module free of any dependency on :mod:`repro.system`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

from repro.clock import REAL_CLOCK, Clock
from repro.errors import PeerDownError
from repro.net.costmodel import CostModel
from repro.net.stats import RunStats
from repro.obs.metrics import MetricsRegistry
from repro.xrpc.messages import RequestMessage, ResponseMessage

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.system.federation import Peer


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
                 extra_latency_s: float = 0.0):
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.per_peer_concurrency = per_peer_concurrency
        self.clock = clock
        self.time_scale = time_scale
        self.extra_latency_s = extra_latency_s
        self._lock = threading.Lock()
        self._gates: dict[str, threading.BoundedSemaphore] = {}
        self._down: set[str] = set()
        #: Extra latency injected per transmission to a peer
        #: (:meth:`degrade_peer` — the "degrading, not dead" drill).
        self._slow: dict[str, float] = {}
        #: The federation's event log (``EventLog.attach`` installs
        #: it); peer lifecycle transitions emit into it.
        self.events = None
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
        :class:`PeerDownError` — the way to drill replica failover."""
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
        """One transmission under the peer's capacity gate: spend the
        delay policy's seconds on the clock.
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
            if delay > 0:
                self.clock.sleep(delay)
        finally:
            if gate is not None:
                gate.release()

    def probe(self, peer_name: str, nbytes: int = 64) -> float:
        """One heartbeat-sized transmission to ``peer_name``, returning
        its seconds on the wire's clock. Raises exactly what real
        traffic would (:class:`PeerDownError`), so a failure detector
        probing through this sees the wire queries see. Probes skip the
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
            # Fail before charging: a failover would otherwise
            # double-count the undelivered request in the caller's
            # stats.
            raise PeerDownError(f"peer {peer.name!r} is down",
                                peer=peer.name)
        self.charge_message(stats, request_bytes)

        in_flight = self._wire_in_flight.labels(peer.name)
        in_flight.inc()
        try:
            self._gated_transmit(peer.name, request_bytes)
            # Wire counters record delivered traffic only: count after
            # the transmit.
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

