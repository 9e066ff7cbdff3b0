"""QueryPlanner behaviour: aliases, plan reports, cache, feedback."""

from functools import cache

from hypothesis import given, strategies as st
import pytest

from repro.decompose import AUTO, Strategy
from repro.net.estimate import CostVector
from repro.planner import feedback
from repro.planner.feedback import CalibrationBook
from repro.planner.planner import PreparedQuery
from repro.runtime.engine import FederationEngine
from repro.system.federation import Federation
from repro.workloads import (
    BENCHMARK_QUERY, MIXED_CROSS_QUERY, TINY_LOOKUP_QUERY,
    benchmark_query_variant, build_federation, build_mixed_federation,
)
from repro.xmark import generate_pair
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize

from tests.conftest import COURSE_XML, Q2, STUDENTS_XML, fuzz_settings


def q2_federation() -> Federation:
    federation = Federation()
    federation.add_peer("A").store("students.xml", STUDENTS_XML)
    federation.add_peer("B").store("course42.xml", COURSE_XML)
    federation.add_peer("local")
    return federation


class TestStrategyCoercion:
    def test_enum_passthrough(self):
        assert Strategy.coerce(Strategy.BY_VALUE) is Strategy.BY_VALUE

    @pytest.mark.parametrize("alias,expected", [
        ("by-projection", Strategy.BY_PROJECTION),
        ("BY_PROJECTION", Strategy.BY_PROJECTION),
        ("By-Fragment", Strategy.BY_FRAGMENT),
        ("data_shipping", Strategy.DATA_SHIPPING),
        (" by-value ", Strategy.BY_VALUE),
    ])
    def test_string_aliases(self, alias, expected):
        assert Strategy.coerce(alias) is expected

    def test_auto_sentinel(self):
        assert Strategy.coerce("auto") == AUTO
        assert Strategy.coerce("AUTO") == AUTO

    def test_unknown_lists_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            Strategy.coerce("by-magic")
        message = str(excinfo.value)
        for name in ("data-shipping", "by-value", "by-fragment",
                     "by-projection", "auto"):
            assert name in message

    def test_federation_run_accepts_alias(self):
        federation = q2_federation()
        enum_run = federation.run(Q2, at="local",
                                  strategy=Strategy.BY_FRAGMENT)
        alias_run = federation.run(Q2, at="local", strategy="BY_FRAGMENT")
        assert alias_run.stats.total_transferred_bytes \
            == enum_run.stats.total_transferred_bytes

    def test_federation_run_rejects_unknown(self):
        with pytest.raises(ValueError, match="by-projection"):
            q2_federation().run(Q2, at="local", strategy="nope")

    def test_engine_submit_accepts_alias_and_auto(self):
        federation = q2_federation()
        with FederationEngine(federation, max_workers=2) as engine:
            fixed = engine.submit(Q2, "local", "by-fragment").result()
            auto = engine.submit(Q2, "local", "auto").result()
            assert fixed.stats.plan.strategy == "by-fragment"
            assert auto.stats.plan is not None
            with pytest.raises(ValueError, match="valid strategies"):
                engine.submit(Q2, "local", "warp-speed")
        plans = federation.metrics.snapshot()["query_plans_total"]
        assert sum(plans.values()) == 2


class TestPlanReports:
    def test_every_run_exposes_plan_and_estimate(self):
        federation = q2_federation()
        for strategy in list(Strategy) + ["auto"]:
            result = federation.run(Q2, at="local", strategy=strategy)
            plan = result.stats.plan
            assert plan is not None
            assert plan.estimated_s > 0
            assert plan.candidates
            assert result.plan is plan
            assert result.stats.summary()["plan"]["strategy"] \
                == plan.strategy

    def test_auto_report_ranks_all_candidates(self):
        federation = build_federation(0.003)
        result = federation.run(BENCHMARK_QUERY, at="local",
                                strategy="auto")
        plan = result.stats.plan
        labels = [label for label, _est in plan.candidates]
        # All four fixed strategies were priced...
        for strategy in Strategy:
            assert strategy.value in labels
        # ...plus at least one mixed (per-site) candidate.
        assert any("+ship[" in label for label in labels)
        # Cheapest first, and the pick is the cheapest.
        estimates = [est for _label, est in plan.candidates]
        assert estimates == sorted(estimates)
        assert plan.strategy == labels[0]
        assert "plan " in plan.explain()

    def test_mixed_plan_beats_fixed_on_cross_query(self):
        federation = build_mixed_federation(0.01)
        result = federation.run(MIXED_CROSS_QUERY, at="local",
                                strategy="auto")
        assert "+ship[refdata]" in result.stats.plan.strategy

    def test_tiny_document_ships(self):
        federation = build_mixed_federation(0.01)
        result = federation.run(TINY_LOOKUP_QUERY, at="local",
                                strategy="auto")
        assert result.stats.plan.strategy == "data-shipping"
        assert result.stats.documents_shipped == 1


class TestPlanCache:
    def test_repeat_query_hits_cache(self):
        federation = build_federation(0.003)
        first = federation.run(BENCHMARK_QUERY, at="local",
                               strategy="auto")
        assert first.stats.plan.from_cache is False
        second = federation.run(BENCHMARK_QUERY, at="local",
                                strategy="auto")
        assert second.stats.plan.from_cache is True
        assert second.stats.plan.strategy == first.stats.plan.strategy
        snapshot = federation.planner.snapshot()
        assert snapshot["cache_hits"] >= 1

    def test_store_invalidates_cached_plan(self):
        federation = q2_federation()
        federation.run(Q2, at="local", strategy="auto")
        federation.peer("A").store("students.xml", STUDENTS_XML)
        result = federation.run(Q2, at="local", strategy="auto")
        assert result.stats.plan.from_cache is False

    def test_distinct_options_planned_separately(self):
        federation = q2_federation()
        federation.run(Q2, at="local", strategy="auto")
        result = federation.run(Q2, at="local", strategy="auto",
                                bulk_rpc=False)
        assert result.stats.plan.from_cache is False


class TestCalibrationBook:
    def test_observe_moves_factor_toward_truth(self):
        book = CalibrationBook()
        assert book.factor("msg", "A", "by-value") == 1.0
        book.observe("msg", "A", "by-value", estimated=100.0,
                     observed=400.0)
        factor = book.factor("msg", "A", "by-value")
        assert 1.0 < factor <= 4.0
        book.observe("msg", "A", "by-value", estimated=100.0,
                     observed=400.0)
        assert book.factor("msg", "A", "by-value") > factor

    def test_factors_clamped(self):
        book = CalibrationBook()
        for _ in range(50):
            book.observe("msg", "A", "by-value", 1.0, 1e9)
        assert book.factor("msg", "A", "by-value") == feedback.LIMIT

    def test_zero_quantities_ignored(self):
        book = CalibrationBook()
        book.observe("msg", "A", "by-value", 0.0, 10.0)
        book.observe("msg", "A", "by-value", 10.0, 0.0)
        assert book.factor("msg", "A", "by-value") == 1.0
        assert book.version == 0

    def test_version_bumps_once_per_factor_write(self):
        """The planner keys its ranking by the version: every write
        moves it, by one, even one that lands on the factor it had."""
        book = CalibrationBook()
        assert book.version == 0
        book.observe("msg", "A", "by-value", 100.0, 400.0)
        assert book.version == 1
        book.observe("doc", "B", "", 10.0, 10.0)
        assert book.version == 2 and book.factor("doc", "B") == 1.0
        for _ in range(50):
            book.observe("exec", "C", "", 1.0, 1e9)
        assert book.version == 52

    def test_ignored_observation_keeps_the_version(self):
        book = CalibrationBook()
        book.observe("exec", "A", "", 1.0, 2.0)
        for estimated, observed in ((0.0, 10.0), (10.0, 0.0),
                                    (-1.0, 5.0)):
            book.observe("exec", "A", "", estimated, observed)
            assert book.version == 1


class TestAdaptiveFeedback:
    def test_repeated_runs_converge_on_true_best(self):
        """A deceptive workload: estimates favour decomposition, but
        the predicate matches everything so responses carry the whole
        document — repeated auto runs must settle on data shipping."""
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
        federation.add_peer("ref").store("rates.xml",
                                         f"<rates>{rows}</rates>")
        federation.add_peer("local")

        baseline = {
            strategy: federation.run(query, at="local",
                                     strategy=strategy).stats.times.total
            for strategy in Strategy
        }
        assert min(baseline, key=baseline.get) is Strategy.DATA_SHIPPING

        chosen = []
        for _ in range(12):
            result = federation.run(query, at="local", strategy="auto")
            chosen.append(result.stats.plan.strategy)
        assert chosen[-1] == "data-shipping", chosen
        assert federation.planner.calibration.version > 0

    def test_calibration_in_snapshot(self):
        federation = build_federation(0.003)
        federation.run(BENCHMARK_QUERY, at="local", strategy="auto")
        snapshot = federation.planner.snapshot()
        assert snapshot["calibration"]
        assert snapshot["stats"]["documents"]


# -- the ranking memo against a fresh pricing ---------------------------------

#: Three texts of one shape, and the run options ``federation.run`` uses.
_TEXTS = tuple(benchmark_query_variant(threshold)
               for threshold in ("20.00", "35.00", "50.00"))
_OPTIONS = ("local", True, True, True)

#: ``auto`` and the four fixed strategies.
_STRATEGIES = (AUTO,) + tuple(strategy.value for strategy in Strategy)
_lookups = st.tuples(st.just("lookup"), st.integers(0, len(_TEXTS) - 1),
                     st.sampled_from(_STRATEGIES))
#: A factor write on a generated key (often one no plan reads), or an
#: observation the book ignores (a zero ratio).
_observations = st.tuples(
    st.just("observe"), st.sampled_from(["msg", "doc", "exec"]),
    st.sampled_from(["peer1", "peer2", "local"]),
    st.sampled_from(["", "by-value", "by-fragment", "by-projection"]),
    st.one_of(st.just(0.0), st.floats(0.05, 20.0)))
#: Which of three people documents (this scale's, two smaller ones) to
#: store, and whether as its canonical text or as a parsed document.
_stores = st.tuples(st.just("store"), st.sampled_from([0.004, 0.003, 0.002]),
                    st.booleans())


@cache
def _people(scale: float) -> str:
    """A people document's text, stored (and so parsed) afresh by each
    federation."""
    people, _ = generate_pair(scale, 20090329,
                              people_uri="xrpc://peer1/people.xml",
                              auctions_uri="xrpc://peer2/auctions.xml")
    return serialize(people)


def _fresh_ranking(planner, text, strategy):
    """The candidates of ``text``'s ``strategy`` variant priced afresh
    now, under the current statistics and factors: per candidate its
    ``(label, estimate)`` and vectors, cheapest first, ties in
    enumeration order."""
    entry, _ = planner._prepared.intern_text(text, _OPTIONS, PreparedQuery,
                                             prolog=True)
    plans = [planner.estimator.reprice(candidate.plan)
             for candidate in entry.value.variants[strategy].candidates]
    priced = [(CostVector.total_of(vectors).total_s(plan.model), index,
               plan.label, vectors)
              for index, (plan, vectors) in enumerate(
                  (plan, plan.priced()) for plan in plans)]
    return sorted(priced, key=lambda row: row[:2])


@given(steps=st.lists(st.one_of(_lookups, _observations, _stores),
                      min_size=1, max_size=14))
@fuzz_settings(60, hunt=500)
def test_memoized_ranking_equals_a_fresh_pricing(steps):
    """Lookups of one shape's texts under ``auto`` or a fixed
    strategy, factor writes and stores of a text or a document in any
    order: after every lookup the report's candidates, chosen plan,
    vectors and estimate are what pricing every candidate afresh
    under the current statistics and factors gives, whether the lookup
    reused the variant's ranking, made a new one, or (a fixed
    strategy) left the pricing to the report's first read."""
    federation = build_federation(0.004)
    planner = federation.planner
    for step in steps:
        if step[0] == "store":
            text = _people(step[1])
            federation.peer("peer1").store(
                "people.xml", text if step[2] else parse_document(
                    text, uri="xrpc://peer1/people.xml"))
        elif step[0] == "observe":
            planner.calibration.observe(*step[1:4], 1.0, step[4])
        else:
            text, strategy = _TEXTS[step[1]], step[2]
            plan, report = planner.plan(text, "local", strategy)
            fresh = _fresh_ranking(planner, text, strategy)
            assert report.candidates == tuple(
                (label, estimate) for estimate, _, label, _ in fresh)
            assert report.plan.decomposition is plan.decomposition
            assert plan is report.plan or strategy != AUTO
            assert report.strategy == fresh[0][2]
            assert report.vectors == fresh[0][3]
            assert report.estimated_s == fresh[0][0]
