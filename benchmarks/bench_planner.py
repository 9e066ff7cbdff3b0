"""Cost-based planner benchmark: auto vs. the four fixed strategies.

Two cells, both emitted into ``BENCH_planner.json`` as an
estimated-vs-actual cost table:

* **Figure 7-9 workloads** — the Section VII semijoin over the scale
  sweep. ``strategy="auto"`` must land within 10% of the best fixed
  strategy at every scale (it picks per call site from document
  statistics, with no calibration warm-up).
* **Mixed multi-tenant workload** — tenants draw semijoin / tiny
  reference lookup / cross-document jobs. No single fixed strategy is
  right for all three shapes, so auto must beat *every* fixed strategy
  on the simulated total.
"""

import pytest

from repro.decompose import Strategy
from repro.workloads import (
    BENCHMARK_QUERY, build_federation, build_mixed_federation,
    mixed_tenant_jobs,
)

from benchmarks.conftest import print_table, write_json
from benchmarks.figures import SCALES, STRATEGY_ORDER

#: Acceptance band: auto's simulated cost vs. the best fixed strategy.
AUTO_TOLERANCE = 1.10


def _run_cell(federation, query, strategy):
    result = federation.run(query, at="local", strategy=strategy)
    plan = result.stats.plan
    return {
        "strategy": (strategy.value if isinstance(strategy, Strategy)
                     else strategy),
        "chosen_plan": plan.strategy,
        "estimated_s": plan.estimated_s,
        "actual_s": result.stats.times.total,
        "estimated_bytes": plan.estimated_bytes,
        "actual_bytes": result.stats.total_transferred_bytes,
    }


@pytest.fixture(scope="module")
def figure_rows():
    return _figure_workloads()


@pytest.fixture(scope="module")
def mixed_rows():
    return _mixed_workload()


def _figure_workloads():
    rows = []
    table = []
    for scale in SCALES:
        cells = {}
        for strategy in STRATEGY_ORDER:
            # One fresh federation per fixed cell: no calibration
            # leakage between strategies.
            cell = _run_cell(build_federation(scale), BENCHMARK_QUERY,
                             strategy)
            cells[cell["strategy"]] = cell
        auto = _run_cell(build_federation(scale), BENCHMARK_QUERY, "auto")
        cells["auto"] = auto
        best = min((cells[s.value]["actual_s"] for s in STRATEGY_ORDER))
        rows.extend({"workload": "figure7-9", "scale": scale, **cell}
                    for cell in cells.values())
        table.append([
            f"{scale:g}", auto["chosen_plan"],
            f"{best * 1e3:.3f}", f"{auto['actual_s'] * 1e3:.3f}",
            f"{auto['estimated_s'] * 1e3:.3f}",
            f"{auto['actual_s'] / best:.3f}",
        ])

    print_table(
        "Planner vs fixed strategies (Figure 7-9 workloads, ms)",
        ["scale", "auto chose", "best fixed", "auto actual",
         "auto estimate", "ratio"], table)
    return rows


def _mixed_workload():
    jobs = mixed_tenant_jobs(clients=6, rounds=2)
    rows = []
    totals = {}
    for strategy in list(STRATEGY_ORDER) + ["auto"]:
        federation = build_mixed_federation(0.01)
        simulated = 0.0
        estimated = 0.0
        picks: dict[str, int] = {}
        for job in jobs:
            result = federation.run(job.query, at=job.at,
                                    strategy=strategy)
            plan = result.stats.plan
            simulated += result.stats.times.total
            estimated += plan.estimated_s
            picks[plan.strategy] = picks.get(plan.strategy, 0) + 1
        label = (strategy.value if isinstance(strategy, Strategy)
                 else strategy)
        totals[label] = simulated
        rows.append({
            "workload": "mixed-multi-tenant", "scale": 0.01,
            "strategy": label, "jobs": len(jobs),
            "estimated_s": estimated, "actual_s": simulated,
            "plans": picks,
        })

    print_table(
        "Mixed multi-tenant workload: simulated total (ms)",
        ["strategy", "total"],
        [[label, f"{total * 1e3:.3f}"]
         for label, total in sorted(totals.items(), key=lambda kv: kv[1])])

    return rows


def test_planner_figure_workloads(figure_rows):
    """The acceptance criterion: at every scale, a cold planner's
    auto pick lands within 10% of the best fixed strategy, and every
    run exposes its chosen plan + estimate."""
    assert len(figure_rows) == len(SCALES) * 5
    for scale in SCALES:
        cells = {row["strategy"]: row for row in figure_rows
                 if row["scale"] == scale}
        best = min(cells[s.value]["actual_s"] for s in STRATEGY_ORDER)
        auto = cells["auto"]
        assert auto["actual_s"] <= AUTO_TOLERANCE * best, (
            f"auto ({auto['chosen_plan']}) cost {auto['actual_s']:.6f}s "
            f"vs best fixed {best:.6f}s at scale {scale}")
        for row in cells.values():
            assert row["chosen_plan"] and row["estimated_s"] > 0


def test_planner_mixed_workload(mixed_rows):
    """On the mixed tenant mix, per-query auto picks must beat every
    single fixed strategy's simulated total."""
    totals = {row["strategy"]: row["actual_s"] for row in mixed_rows}
    best_fixed = min(total for label, total in totals.items()
                     if label != "auto")
    assert totals["auto"] < best_fixed, (
        f"auto {totals['auto']:.6f}s must beat every fixed strategy "
        f"(best fixed {best_fixed:.6f}s)")


def test_planner_write_json(figure_rows, mixed_rows):
    write_json("planner", figure_rows + mixed_rows,
               scales=list(SCALES), tolerance=AUTO_TOLERANCE)


def test_planner_overhead_timing(benchmark):
    """Planning overhead on the repeated-query path (plan cache warm)."""
    federation = build_federation(SCALES[0])
    federation.run(BENCHMARK_QUERY, at="local", strategy="auto")
    benchmark(lambda: federation.run(BENCHMARK_QUERY, at="local",
                                     strategy="auto"))
