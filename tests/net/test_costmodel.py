"""Cost model and run-statistics accounting."""

from repro.net.costmodel import CostModel
from repro.net.stats import RunStats, TimeBreakdown


class TestCostModel:
    def test_network_time_has_latency_floor(self):
        model = CostModel()
        assert model.network_time(0) == model.latency_s
        assert model.network_time(125_000_000) > 1.0

    def test_costs_scale_linearly(self):
        model = CostModel()
        assert model.shred_time(2000) == 2 * model.shred_time(1000)
        assert model.serialize_time(2000) == 2 * model.serialize_time(1000)

    def test_shredding_costlier_than_serialising(self):
        model = CostModel()
        assert model.shred_s_per_byte > model.serialize_s_per_byte

    def test_exec_time_counts_both_components(self):
        model = CostModel()
        assert model.exec_time(10, 0) == 10 * model.tick_s
        assert model.exec_time(0, 10) == 10 * model.node_visit_s



class TestRunStats:
    def test_total_transferred_combines_docs_and_messages(self):
        stats = RunStats()
        stats.record_document_shipped(1000)
        stats.record_message(200)
        stats.record_message(300)
        assert stats.total_transferred_bytes == 1500
        assert stats.documents_shipped == 1
        assert stats.messages == 2

    def test_breakdown_totals(self):
        times = TimeBreakdown(shred=1, local_exec=2, serialize=3,
                              remote_exec=4, network=5)
        assert times.total == 15
        assert set(times.as_dict()) == {
            "shred", "local exec", "(de)serialize", "remote exec",
            "network"}

    def test_summary_keys(self):
        summary = RunStats().summary()
        assert "total_transferred_bytes" in summary
        assert "times" in summary
