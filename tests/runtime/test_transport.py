"""The wire: the default (loopback) policy preserves the seed's
accounting; a delay policy spends time on the wire's clock, a killed
peer fails its transmissions, and the gates bound each peer."""

import threading
import time

import pytest

from repro.clock import Clock, VirtualClock
from repro.errors import NetworkError
from repro.net.costmodel import CostModel
from repro.net.stats import RunStats
from repro.runtime.transport import PeerDownError, Transport
from repro.system.federation import Federation
from repro.xrpc.messages import RequestMessage, ResponseMessage

from tests.conftest import COURSE_XML, Q2, STUDENTS_XML


def make_federation(transport=None):
    federation = Federation(transport=transport)
    federation.add_peer("A").store("students.xml", STUDENTS_XML)
    federation.add_peer("B").store("course42.xml", COURSE_XML)
    federation.add_peer("local")
    return federation


class TestLoopback:
    def test_default_transport_is_loopback(self):
        transport = Federation().transport
        assert type(transport) is Transport
        assert (transport.time_scale, transport.extra_latency_s) == (0.0, 0.0)

    def test_seed_accounting_preserved(self):
        """The extracted wire charges exactly what the seed charged
        inline: 2 messages per round trip, bytes = XML text lengths."""
        result = make_federation().run(Q2, at="local",
                                       keep_message_xml=True)
        stats = result.stats
        assert stats.messages == 2 * len(result.messages)
        for log in result.messages:
            assert log.request_bytes == len(log.request_xml.encode())
            assert log.response_bytes == len(log.response_xml.encode())
        assert stats.message_bytes == sum(
            m.request_bytes + m.response_bytes for m in result.messages)

    def test_wire_counters_per_peer(self):
        federation = make_federation()
        federation.run(Q2, at="local")
        wire = federation.transport.wire_summary()
        assert set(wire) <= {"A", "B", "local"}
        total = sum(p["message_bytes"] for p in wire.values())
        assert total > 0
        for peer_wire in wire.values():
            assert peer_wire["total_bytes"] == (
                peer_wire["message_bytes"] + peer_wire["document_bytes"])

    def test_document_shipping_counts_against_owner(self):
        from repro.decompose import Strategy

        federation = make_federation()
        result = federation.run('doc("xrpc://B/course42.xml")/child::enroll',
                                at="local", strategy=Strategy.DATA_SHIPPING)
        assert result.stats.documents_shipped == 1
        wire = federation.transport.wire_summary()
        assert wire["B"]["document_bytes"] > 0


class TestKilledPeer:
    def test_a_killed_peer_raises_network_error(self):
        federation = make_federation()
        federation.transport.kill_peer("B")
        with pytest.raises(PeerDownError):
            federation.run(Q2, at="local")
        with pytest.raises(NetworkError):  # same hierarchy
            federation.run(Q2, at="local")

    def test_a_revived_peer_answers(self):
        federation = make_federation()
        federation.transport.kill_peer("B")
        federation.transport.revive_peer("B")
        assert federation.run(Q2, at="local").items

    def test_a_killed_peer_is_charged_nothing(self):
        """A transmission to a dead peer fails before it is charged, so
        a failover never counts the undelivered request twice."""
        federation = make_federation()
        transport = federation.transport
        transport.kill_peer("B")
        stats = RunStats()
        with pytest.raises(PeerDownError):
            transport.fetch_document(federation.peer("B"), "course42.xml",
                                     stats)
        assert (stats.messages, stats.total_transferred_bytes) == (0, 0)
        assert "B" not in transport.wire_summary()


class TestDelayPolicy:
    def test_extra_latency_sleeps_on_the_real_clock(self):
        """The real ``Clock`` path: every transmission sleeps the extra
        latency once (``tests/runtime/test_clock.py`` checks that a
        real sleep sleeps). Everything else about delays runs on
        virtual time."""
        slept = []

        class RecordingClock(Clock):
            __slots__ = ()

            def sleep(self, seconds):
                slept.append(seconds)

        transport = Transport(clock=RecordingClock(), extra_latency_s=0.02)
        result = make_federation(transport).run(Q2, at="local")
        # Q2 needs at least one round trip = 2 transmissions.
        assert result.stats.messages >= 2
        assert slept == [0.02] * result.stats.messages
        assert result.items

    def test_extra_latency_is_exact_on_virtual_time(self):
        clock = VirtualClock()
        result = make_federation(Transport(
            clock=clock, extra_latency_s=0.25)).run(Q2, at="local")
        assert clock.now == 0.25 * result.stats.messages

    def test_time_scale_spends_the_modelled_network_time(self):
        clock = VirtualClock()
        result = make_federation(Transport(
            clock=clock, time_scale=1.0)).run(Q2, at="local")
        # Slept and charged transmission by transmission, in one order.
        assert clock.now == result.stats.times.network > 0.0
        half = VirtualClock()
        make_federation(Transport(clock=half, time_scale=0.5)).run(
            Q2, at="local")
        assert half.now == pytest.approx(clock.now / 2)

    def test_degraded_peer_pays_its_injected_latency(self):
        clock = VirtualClock()
        transport = Transport(clock=clock)
        transport.degrade_peer("A", 0.5)
        assert transport.probe("A") == 0.5
        assert transport.probe("B") == 0.0
        transport.restore_peer("A")
        assert transport.probe("A") == 0.0
        assert clock.now == 0.5

    def test_a_dropped_transmission_waits_for_nothing(self):
        clock = VirtualClock()
        transport = Transport(clock=clock, extra_latency_s=2.0)
        transport.kill_peer("A")
        with pytest.raises(PeerDownError):
            transport.probe("A")
        assert clock.now == 0.0

    def test_identical_stats_whatever_the_delay_policy(self):
        """Waited time differs; simulated accounting must not."""
        loopback = make_federation().run(Q2, at="local")
        delayed = make_federation(Transport(
            clock=VirtualClock(), time_scale=1.0,
            extra_latency_s=0.25)).run(Q2, at="local")
        assert delayed.stats.summary() == loopback.stats.summary()


class FakePeer:
    name = "X"


class TestPerPeerGate:
    @staticmethod
    def _tracking_transport(active, peak, lock, **kwargs):
        """The gate is held exactly while a transmission waits, so a
        clock that watches its sleepers sees the gate's bound."""
        class TrackingClock(Clock):
            def sleep(self, seconds):
                with lock:
                    active.append(1)
                    peak.append(len(active))
                time.sleep(seconds)
                with lock:
                    active.pop()

        return Transport(clock=TrackingClock(), extra_latency_s=0.01,
                         **kwargs)

    def test_gate_bounds_concurrent_transmissions(self):
        active, peak = [], []
        lock = threading.Lock()
        transport = self._tracking_transport(active, peak, lock,
                                             per_peer_concurrency=1)
        request = RequestMessage(query="1", param_names=[],
                                 calls=[]).to_xml()

        def handle(_request):
            return ResponseMessage(results=[])

        threads = [
            threading.Thread(target=transport.exchange,
                             args=(FakePeer(), request, handle, RunStats(),
                                   len(request.encode())))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert max(peak) == 1

    def test_gate_not_held_across_evaluation(self):
        """Remote evaluation may re-enter the transport (nested round
        trips, document shipping); holding the gate across ``handle``
        would deadlock even a single query against its own peer."""
        transport = Transport(per_peer_concurrency=1)
        request = RequestMessage(query="1", param_names=[],
                                 calls=[]).to_xml()

        def nested_handle(_request):
            return ResponseMessage(results=[])

        def handle(_request):
            # Nested exchange against the same gated peer.
            transport.exchange(FakePeer(), request, nested_handle,
                               RunStats(), len(request.encode()))
            return ResponseMessage(results=[])

        done = []

        def run():
            transport.exchange(FakePeer(), request, handle, RunStats(),
                               len(request.encode()))
            done.append(True)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=5)
        assert done, "nested exchange deadlocked on the peer gate"

    def test_unlimited_without_configuration(self):
        transport = Transport()
        assert transport._gate("anyone") is None


def test_cost_model_shared_with_federation():
    model = CostModel(latency_s=1.0)
    federation = Federation(cost_model=model)
    assert federation.transport.cost_model is model
