"""The shared Section VII workload module."""

import pytest

from repro.decompose import Strategy
from repro.workloads import (
    BENCHMARK_QUERY, DEFAULT_SCALES, benchmark_query_variant,
    build_federation, document_bytes, run_all_strategies, run_strategy,
    sharded_query_variant,
)


def test_build_federation_has_three_peers():
    federation = build_federation(0.002)
    assert set(federation.peers) == {"peer1", "peer2", "local"}
    assert document_bytes(federation) > 0


def test_benchmark_query_produces_authors():
    federation = build_federation(0.004)
    run = run_strategy(federation, Strategy.DATA_SHIPPING, 0.004)
    assert run.result.items, "benchmark result must be non-empty"
    assert all(item.name == "author" for item in run.result.items)


def test_run_all_strategies_covers_all_four():
    runs = run_all_strategies(0.002)
    assert set(runs) == set(Strategy)
    for run in runs.values():
        assert run.total_document_bytes > 0


def test_default_scales_are_geometric():
    ratios = [b / a for a, b in zip(DEFAULT_SCALES, DEFAULT_SCALES[1:])]
    assert all(abs(r - 2.0) < 1e-9 for r in ratios)


def test_benchmark_query_text_mentions_both_peers():
    assert "xrpc://peer1/" in BENCHMARK_QUERY
    assert "xrpc://peer2/" in BENCHMARK_QUERY


def test_query_variant_takes_one_numeric_literal_only():
    """The ledger passes thresholds as text (``"18.00"``); whatever is
    spliced in must lex as exactly one number, or it is a different
    query, not another tenant's threshold."""
    for threshold in (25, 2.5, "18.00", "1e3"):
        assert f"< {threshold})" in benchmark_query_variant(threshold)
        assert f"< {threshold})" in sharded_query_variant(threshold)
    for spliced in ("40) or (1", "-5", "", "4 0", "abc", '"40"', "1e+",
                    "4#"):
        with pytest.raises(ValueError):
            benchmark_query_variant(spliced)
