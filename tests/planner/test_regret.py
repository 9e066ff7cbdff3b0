"""The planner's regret: ``auto`` against the best fixed strategy.

Regret is ``auto``'s simulated seconds (``stats.times.total``) divided
by the cheapest of the four fixed strategies' on the same federation.
It is judged on actual costs, not on estimates, so a change to the
statistics or the estimator is held to what it picks. The bound is
:data:`BOUND`, for the first ``auto`` run on a fresh federation (no
calibration yet) and for the second one (calibrated by the first).

The corpus: the ten library queries of the equivalence battery, the
Section VII semijoin at two scales, the two sharded queries, the two
mixed-federation queries, and the semijoin's age threshold swept from
keeping no person to keeping all of them. A mixed plan may beat every
fixed strategy (``MIXED_CROSS_QUERY``: regret ≈ 0.84).

Tier-1 runs the fixed corpus and a small seeded sample of generated
thresholds; CI's ``fuzz`` job hunts thresholds under the ``long``
profile.
"""

from hypothesis import given, strategies as st
import pytest

from repro.decompose import Strategy
from repro.workloads import (
    BENCHMARK_QUERY, MIXED_CROSS_QUERY, SHARDED_BENCHMARK_QUERY,
    SHARDED_SCAN_QUERY, TINY_LOOKUP_QUERY, benchmark_query_variant,
    build_federation, build_mixed_federation, build_sharded_federation,
)

from tests.conftest import fuzz_settings
from tests.integration.test_equivalence import QUERIES
from tests.planner.test_planner import q2_federation

#: ``auto`` may cost at most this much more than the best fixed plan.
BOUND = 1.05

_CASES = [
    *((f"library{index}", q2_federation, query)
      for index, query in enumerate(QUERIES)),
    ("semijoin@0.005", lambda: build_federation(0.005), BENCHMARK_QUERY),
    ("semijoin@0.02", lambda: build_federation(0.02), BENCHMARK_QUERY),
    ("sharded-semijoin", lambda: build_sharded_federation(0.005),
     SHARDED_BENCHMARK_QUERY),
    ("sharded-scan", lambda: build_sharded_federation(0.005),
     SHARDED_SCAN_QUERY),
    ("tiny-lookup", lambda: build_mixed_federation(0.005),
     TINY_LOOKUP_QUERY),
    ("mixed-cross", lambda: build_mixed_federation(0.005),
     MIXED_CROSS_QUERY),
    *((f"age<{threshold}@{scale}",
       lambda scale=scale: build_federation(scale),
       benchmark_query_variant(threshold))
      for scale in (0.005, 0.02)
      for threshold in (0, 18, 25, 40, 60, 100, 1000)),
]


def regrets(federation, query: str) -> tuple[float, float]:
    """``auto``'s first and second run on ``federation``, each divided
    by the best fixed strategy's simulated seconds. ``auto`` runs
    first: a fixed run feeds the calibration too."""
    run = lambda strategy: federation.run(  # noqa: E731
        query, at="local", strategy=strategy).stats.times.total
    cold, warm = run("auto"), run("auto")
    best = min(run(strategy) for strategy in Strategy)
    return cold / best, warm / best


@pytest.mark.parametrize("build,query",
                         [case[1:] for case in _CASES],
                         ids=[case[0] for case in _CASES])
def test_auto_is_within_the_bound_of_the_best_fixed_strategy(build, query):
    cold, warm = regrets(build(), query)
    assert cold <= BOUND and warm <= BOUND, (cold, warm)


_thresholds = st.one_of(
    st.integers(0, 200),
    st.decimals(0, 200, places=2).map(lambda value: f"{value:.2f}"))


@given(threshold=_thresholds, scale=st.sampled_from([0.005, 0.01, 0.02]))
@fuzz_settings(6, hunt=300)
def test_generated_thresholds_are_within_the_bound(threshold, scale):
    cold, warm = regrets(build_federation(scale),
                         benchmark_query_variant(threshold))
    assert cold <= BOUND and warm <= BOUND, (threshold, scale, cold, warm)
