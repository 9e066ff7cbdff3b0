"""Compare two result files of ``run.py``: one row per workload ×
end-to-end metric, with a verdict.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base, B the candidate. Each file holds one or more runs of
the whole set (``run.py --repeat N``); a side's value is the median
over its runs. Verdicts:

* ``regressed`` / ``improved`` — B is worse / better than A by more
  than the metric's bound (a share of A's value);
* ``unchanged`` — within the bound;
* ``unresolved`` — one side's own spread exceeds the bound, so the
  inputs cannot tell. With three or more runs a side's spread is the
  distance between the first and third quartile of its values as a
  share of their median; with fewer it is the disagreement between
  the even and the odd blocks of a run, which ``run.py`` records for
  every timed metric.

Exact metrics (``ops_total``, ``failed_ratio``, ``wire_bytes_per_query``
with one client) must repeat to the digit. The exit code is 1 when any
cell regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import ledger  # noqa: E402

#: Two clients race for the result cache, so bytes repeat only nearly.
TWO_CLIENT_WIRE_BOUND = 0.02


def bound_for(workload: str, metric: str) -> float:
    if workload == "tenant_mix" and metric == "wire_bytes_per_query":
        return TWO_CLIENT_WIRE_BOUND
    return ledger.END_TO_END[metric][2]


def side(runs: list[dict], workload: str, metric: str
         ) -> tuple[float, float]:
    """``(median value, own spread as a share of it)`` of one side."""
    cells = [run[workload]["end_to_end"][metric] for run in runs]
    values = [cell[0] for cell in cells]
    value = statistics.median(values)
    if not value:
        return value, 0.0
    if len(values) >= 3:
        quartiles = statistics.quantiles(values, n=4)
        return value, (quartiles[2] - quartiles[0]) / value
    halves = [abs(cell[3][0] - cell[3][1]) / cell[0]
              for cell in cells if cell[3]]
    between = (max(values) - min(values)) / value
    return value, max([between, *halves])


def verdict(base: float, candidate: float, better: str, bound: float,
            spread: float) -> str:
    if base == candidate:
        return "unchanged"
    if bound == ledger.EXACT or not base:
        if better == "same":
            return "regressed"
        return ("improved" if (candidate < base) == (better == "lower")
                else "regressed")
    if spread > bound:
        return "unresolved"
    worse = (candidate - base) / base
    if better == "higher":
        worse = -worse
    if worse > bound:
        return "regressed"
    return "improved" if worse < -bound else "unchanged"


def compare(base: dict, candidate: dict) -> list[dict]:
    rows = []
    for workload in ledger.WORKLOADS:
        if any(workload not in run
               for run in base["runs"] + candidate["runs"]):
            continue
        for metric, (unit, better, _bound) in ledger.END_TO_END.items():
            a, a_spread = side(base["runs"], workload, metric)
            b, b_spread = side(candidate["runs"], workload, metric)
            bound = bound_for(workload, metric)
            rows.append({
                "workload": workload, "metric": metric, "unit": unit,
                "base": a, "candidate": b,
                "ratio": b / a if a else None, "bound": bound,
                "spread": max(a_spread, b_spread),
                "verdict": verdict(a, b, better, bound,
                                   max(a_spread, b_spread))})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':20s} {'metric':21s} {'A (base)':>12s} "
             f"{'B':>12s} {'B/A':>7s} {'bound':>6s} {'spread':>7s}  verdict"]
    for row in rows:
        share = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        bound = "exact" if not row["bound"] else f"{row['bound']:.0%}"
        lines.append(
            f"{row['workload']:20s} {row['metric']:21s} "
            f"{row['base']:12.4f} {row['candidate']:12.4f} {share:>7s} "
            f"{bound:>6s} {row['spread']:7.1%}  {row['verdict']} "
            f"[{row['unit']}]")
    counts = {name: sum(row["verdict"] == name for row in rows)
              for name in ("improved", "unchanged", "regressed",
                           "unresolved")}
    lines.append("B/A is the candidate's median over the base's median; "
                 "bound and spread are shares of the base.")
    lines.append(", ".join(f"{count} {name}"
                           for name, count in counts.items()))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(base, candidate)
    print(f"A = {argv[0]} ({len(base['runs'])} run(s)), "
          f"B = {argv[1]} ({len(candidate['runs'])} run(s))")
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
