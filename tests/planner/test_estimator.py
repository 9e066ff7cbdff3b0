"""Estimator unit tests: cost vectors, lowering, operator pricing."""

from repro.decompose import Strategy, decompose
from repro.net.costmodel import CostModel
from repro.net.estimate import CostVector
from repro.net.stats import PlanReport
from repro.planner.ir import (
    BulkBatch, LocalEval, ScatterGather, ShipDocument, XrpcCall,
)
from repro.system.federation import Federation
from repro.workloads import (
    BENCHMARK_QUERY, SHARDED_BENCHMARK_QUERY, build_federation,
    build_sharded_federation,
)
from repro.xquery.parser import parse_query


def lower(federation, query, strategy, at="local"):
    decomposition = decompose(parse_query(query), strategy, local_host=at)
    return federation.planner.estimator.lower(decomposition, at)


def report(plan):
    """``plan`` as priced under its book's current factors."""
    return PlanReport(plan, plan.priced())


class TestCostVector:
    def test_monotonic_in_bytes(self):
        """More bytes on the wire can never be estimated cheaper."""
        model = CostModel()
        previous = -1.0
        for size in (0, 100, 10_000, 1_000_000, 50_000_000):
            message = CostVector(message_bytes=size, messages=2).total_s(
                model)
            assert message > previous
            previous = message
        previous = -1.0
        for size in (0, 100, 10_000, 1_000_000, 50_000_000):
            document = CostVector(document_bytes=size,
                                  messages=1).total_s(model)
            assert document > previous
            previous = document

    def test_shred_costs_more_than_serialize(self):
        """The paper's data-shipping pathology: shredding a shipped
        byte must dominate serialising it (and message deserialisation
        sits in between)."""
        model = CostModel()
        assert model.shred_s_per_byte > model.deserialize_s_per_byte \
            > model.serialize_s_per_byte
        size = 1_000_000
        shipped = CostVector(document_bytes=size, messages=1)
        times = shipped.time(model)
        assert times.shred > times.serialize

    def test_time_matches_transport_charging(self):
        """Pricing a vector must use the very same arithmetic the
        transport charges into RunStats."""
        from repro.net.stats import RunStats
        from repro.runtime.transport import Transport

        model = CostModel()
        stats = RunStats()
        transport = Transport(model)
        transport.charge_message(stats, 12_345)
        vector = CostVector(message_bytes=12_345, messages=1)
        times = vector.time(model)
        assert abs(times.network - stats.times.network) < 1e-12
        assert abs(times.serialize - stats.times.serialize) < 1e-12

    def test_add_accumulates(self):
        total = CostVector()
        total.add(CostVector(message_bytes=10, messages=2))
        total.add(CostVector(document_bytes=5, local_exec_s=0.5))
        assert total.message_bytes == 10
        assert total.document_bytes == 5
        assert total.wire_bytes == 15
        assert total.local_exec_s == 0.5


class TestLowering:
    def test_data_shipping_plan_ships_both_documents(self):
        federation = build_federation(0.003)
        plan = lower(federation, BENCHMARK_QUERY, Strategy.DATA_SHIPPING)
        ships = [op for op in plan.ops if isinstance(op, ShipDocument)]
        assert {(op.owner, op.local_name) for op in ships} == {
            ("peer1", "people.xml"), ("peer2", "auctions.xml")}
        assert all(isinstance(op, (ShipDocument, LocalEval))
                   for op in plan.ops)
        # Ship sizes are exact: the stats catalog knows the documents.
        for op in ships:
            peer = federation.peer(op.owner)
            exact = len(peer.serialized(op.local_name).encode())
            assert op.document_bytes == exact

    def test_projection_plan_has_two_call_sites(self):
        federation = build_federation(0.003)
        plan = lower(federation, BENCHMARK_QUERY, Strategy.BY_PROJECTION)
        calls = [op for op in plan.ops
                 if isinstance(op, (XrpcCall, BulkBatch))]
        assert len(calls) == 2
        dests = {op.call.dest if isinstance(op, BulkBatch) else op.dest
                 for op in calls}
        assert dests == {"peer1", "peer2"}
        for site_id in plan.site_semantics:
            assert plan.semantics_for(site_id) == "by-projection"

    def test_estimates_track_strategy_ordering(self):
        """At benchmark scale the estimated totals must reproduce the
        paper's ordering: shipping > by-value > fragment > projection."""
        federation = build_federation(0.01)
        totals = [
            report(lower(federation, BENCHMARK_QUERY, strategy)).estimated_s
            for strategy in (Strategy.DATA_SHIPPING, Strategy.BY_VALUE,
                             Strategy.BY_FRAGMENT, Strategy.BY_PROJECTION)
        ]
        assert totals[0] > totals[1] > totals[2] > totals[3]

    def test_estimates_scale_with_documents(self):
        small = report(lower(build_federation(0.003), BENCHMARK_QUERY,
                             Strategy.DATA_SHIPPING))
        large = report(lower(build_federation(0.01), BENCHMARK_QUERY,
                             Strategy.DATA_SHIPPING))
        assert large.estimated_s > small.estimated_s
        assert large.estimated_bytes > small.estimated_bytes

    def test_scatter_gather_lowering(self):
        federation = build_sharded_federation(0.003, shard_count=4)
        plan = lower(federation, SHARDED_BENCHMARK_QUERY,
                     Strategy.BY_FRAGMENT)
        scatters = [op for op in plan.ops
                    if isinstance(op, ScatterGather)]
        assert scatters, "collection call sites must lower to scatters"
        assert all(op.shards == 4 and op.peers == 2 for op in scatters)
        # Fan-out multiplies message count by the cover's size: 4
        # shards x 2 replicas round-robin on 4 nodes are covered by 2.
        assert all(op.call.vector.messages == 2 * 2 for op in scatters)
        assert all("x4 shards on 2 peers" in op.describe()
                   for op in scatters)

    def test_explain_renders_operators(self):
        federation = build_federation(0.003)
        plan = lower(federation, BENCHMARK_QUERY, Strategy.BY_PROJECTION)
        text = report(plan).explain()
        assert "plan by-projection" in text
        assert "xrpc-call by-projection -> peer1" in text

    def test_unknown_document_uses_default(self):
        federation = Federation()
        federation.add_peer("A")
        federation.add_peer("local")
        plan = lower(federation,
                     'doc("xrpc://A/missing.xml")/child::a/child::b',
                     Strategy.DATA_SHIPPING)
        ships = [op for op in plan.ops if isinstance(op, ShipDocument)]
        assert len(ships) == 1
        assert ships[0].document_bytes > 0   # falls back to a default
