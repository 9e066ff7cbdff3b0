"""Transport extraction: loopback preserves the seed's accounting;
the simulated wire spends time, injects faults, and gates peers."""

import threading
import time

import pytest

from repro.errors import NetworkError
from repro.net.costmodel import CostModel
from repro.net.stats import RunStats
from repro.runtime.transport import (FaultInjectedError, LoopbackTransport,
                                     SimulatedTransport)
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
        assert isinstance(Federation().transport, LoopbackTransport)

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


class TestSimulated:
    def test_fault_injection_raises_network_error(self):
        transport = SimulatedTransport(time_scale=0.0, fault_rate=1.0)
        federation = make_federation(transport)
        with pytest.raises(FaultInjectedError):
            federation.run(Q2, at="local")
        with pytest.raises(NetworkError):  # same hierarchy
            federation.run(Q2, at="local")

    def test_fault_free_when_rate_zero(self):
        transport = SimulatedTransport(time_scale=0.0, fault_rate=0.0)
        result = make_federation(transport).run(Q2, at="local")
        assert result.items

    def test_extra_latency_costs_wall_clock(self):
        fast = make_federation(SimulatedTransport(time_scale=0.0))
        slow = make_federation(SimulatedTransport(time_scale=0.0,
                                                  extra_latency_s=0.02))
        start = time.perf_counter()
        fast.run(Q2, at="local")
        fast_s = time.perf_counter() - start
        start = time.perf_counter()
        result = slow.run(Q2, at="local")
        slow_s = time.perf_counter() - start
        # Q2 needs at least one round trip = 2 transmissions = 40ms.
        assert slow_s >= fast_s + 0.03
        assert result.items

    def test_identical_stats_to_loopback(self):
        """Wall-clock behaviour differs; simulated accounting must not."""
        loopback = make_federation().run(Q2, at="local")
        simulated = make_federation(
            SimulatedTransport(time_scale=0.0)).run(Q2, at="local")
        assert simulated.stats.summary() == loopback.stats.summary()


class FakePeer:
    name = "X"


class TestPerPeerGate:
    @staticmethod
    def _tracking_transport(active, peak, lock, **kwargs):
        class TrackingTransport(LoopbackTransport):
            def _transmit(self, peer_name, size):
                with lock:
                    active.append(1)
                    peak.append(len(active))
                time.sleep(0.01)
                with lock:
                    active.pop()

        return TrackingTransport(**kwargs)

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
                             args=(FakePeer(), request, handle, RunStats()))
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
        transport = LoopbackTransport(per_peer_concurrency=1)
        request = RequestMessage(query="1", param_names=[],
                                 calls=[]).to_xml()

        def nested_handle(_request):
            return ResponseMessage(results=[])

        def handle(_request):
            # Nested exchange against the same gated peer.
            transport.exchange(FakePeer(), request, nested_handle,
                               RunStats())
            return ResponseMessage(results=[])

        done = []

        def run():
            transport.exchange(FakePeer(), request, handle, RunStats())
            done.append(True)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=5)
        assert done, "nested exchange deadlocked on the peer gate"

    def test_unlimited_without_configuration(self):
        transport = LoopbackTransport()
        assert transport._gate("anyone") is None


def test_cost_model_shared_with_federation():
    model = CostModel(latency_s=1.0)
    federation = Federation(cost_model=model)
    assert federation.transport.cost_model is model
