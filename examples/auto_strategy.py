"""Automatic strategy selection: the cost-based planner in action.

Three acts:

1. ``strategy="auto"`` picks the right execution strategy per query —
   projection for the big XMark pair, whole-document shipping for a
   tiny reference table — and ``RunStats.plan`` explains the choice.
2. On a cross-document query the planner builds a *mixed* plan
   (decompose the big document's call site, ship the tiny document)
   that beats every one of the paper's four fixed strategies.
3. A deceptive workload makes the first pick wrong; the
   estimated-vs-observed feedback loop corrects it within a few runs.

Run:  python examples/auto_strategy.py
"""

import os

from repro.decompose import Strategy
from repro.system.federation import Federation
from repro.workloads import (
    BENCHMARK_QUERY, MIXED_CROSS_QUERY, TINY_LOOKUP_QUERY,
    build_mixed_federation,
)

#: The XMark scale factor (CI smoke-tests examples at a tiny scale).
SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "0.01"))


def show(result, title: str) -> None:
    plan = result.stats.plan
    print(f"--- {title}")
    print(f"    chose {plan.strategy}: estimated "
          f"{plan.estimated_s * 1000:.3f} ms, actual "
          f"{result.stats.times.total * 1000:.3f} ms"
          f"{' (plan cache)' if plan.from_cache else ''}")


def act_one_per_query_picks() -> None:
    print("=" * 64)
    print("Act 1: one federation, different best strategies per query")
    federation = build_mixed_federation(SCALE)
    for query, name in ((BENCHMARK_QUERY, "XMark semijoin (big docs)"),
                        (TINY_LOOKUP_QUERY, "tiny reference lookup")):
        result = federation.run(query, at="local", strategy="auto")
        show(result, name)
        print("    "
              + result.stats.plan.explain().replace("\n", "\n    "))


def act_two_mixed_plan() -> None:
    print("=" * 64)
    print("Act 2: a mixed plan no fixed strategy can express")
    federation = build_mixed_federation(SCALE)
    for strategy in Strategy:
        result = federation.run(MIXED_CROSS_QUERY, at="local",
                                strategy=strategy)
        print(f"    {strategy.value:15} "
              f"{result.stats.times.total * 1000:8.3f} ms")
    result = federation.run(MIXED_CROSS_QUERY, at="local",
                            strategy="auto")
    print(f"    {'auto':15} {result.stats.times.total * 1000:8.3f} ms "
          f"<- plan {result.stats.plan.strategy}")


def act_three_feedback() -> None:
    print("=" * 64)
    print("Act 3: a mis-pick corrected by estimated-vs-observed feedback")
    # Every entry matches the predicate, so decomposed responses carry
    # the whole document back — the static estimate (which assumes 50%
    # selectivity) is badly wrong, and data shipping is actually best.
    rows = "".join(
        f"<entry><code>C{index:03d}</code><region>r0</region>"
        f"<note>{'x' * 60}</note></entry>" for index in range(120))
    query = """
    (for $e in doc("xrpc://ref/rates.xml")/child::rates/child::entry
     return if ($e/child::region = "r0") then $e/child::note else (),
     for $e in doc("xrpc://ref/rates.xml")/child::rates/child::entry
     return if ($e/child::region = "r0") then $e/child::code else ())
    """
    federation = Federation()
    federation.add_peer("ref").store("rates.xml", f"<rates>{rows}</rates>")
    federation.add_peer("local")

    best = min(
        (federation.run(query, at="local", strategy=s).stats.times.total,
         s.value) for s in Strategy)
    print(f"    true best strategy: {best[1]} ({best[0] * 1000:.3f} ms)")

    for attempt in range(1, 13):
        result = federation.run(query, at="local", strategy="auto")
        plan = result.stats.plan
        print(f"    run {attempt:2d}: chose {plan.strategy:15} "
              f"actual {result.stats.times.total * 1000:.3f} ms")
        if plan.strategy == best[1]:
            print(f"    converged after {attempt} runs "
                  f"(calibration: "
                  f"{federation.planner.calibration.version} "
                  f"factor writes)")
            break


def main() -> None:
    act_one_per_query_picks()
    act_two_mixed_plan()
    act_three_feedback()


if __name__ == "__main__":
    main()
