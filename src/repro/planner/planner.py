"""Prepared queries: candidate enumeration, the table, and the pick.

``Federation.run`` lands here for every strategy. A query text is first
reduced to its *shape* (:func:`repro.xquery.prepared.scan`: comparison
literals become slots, the text binds values to them), and what can be
derived from the shape is derived once and kept in one
:class:`PreparedQuery`, interned by (shape, origin, run options) in the
federation's bounded table:

1. the parsed module and, per strategy, the decomposition *analysis*
   (:func:`~repro.decompose.prepare`) — these read neither statistics
   nor catalog, so nothing invalidates them;
2. per requested strategy its candidates: a fixed strategy has one,
   ``"auto"`` one per strategy **plus one per proper subset of
   insertion points** (a dropped point's document data-ships instead,
   so mixed plans ship one tiny document while projecting another),
   each realised and lowered into a plan — call-site contracts,
   projection specs, the shared evaluator — which reads neither
   statistics nor catalog either.

Estimates do, so they are stamped (catalog epoch, the federation's
store generation); a moved stamp re-prices and lowers nothing, yet
counts as an enumeration (``from_cache=False``, ``plans_enumerated``
+= candidates). A literal decides no estimate: each candidate is
priced once per shape and stamp, and every text of the shape shares
its factor-free operators. What a literal does decide — the body texts
a run ships — hangs off the text's
:class:`~repro.xquery.prepared.Binding`, which the report carries to
the run. The candidates are priced under the
:class:`~repro.planner.feedback.CalibrationBook`'s current factors
once per (stamp, book version) and the ranking is kept: a ranking
that finds neither moved multiplies nothing. ``auto`` ranks at the
lookup, and its cheapest candidate, with its vectors, is the run's
report; ties go to enumeration order: data-shipping → by-value →
by-fragment → by-projection → mixed. A fixed strategy has one
candidate, whose lowered plan runs whatever the stamp: a lookup that
finds it priced at an older stamp re-prices nothing, and its report
runs the same ranking when first read (most runs' feedback does, a
run served from the result cache never).

After the run, observed bytes/seconds feed back into the calibration
factors; a write bumps the book's version, which re-ranks the next
lookup and invalidates nothing.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import TYPE_CHECKING

from repro.decompose import (
    DecompositionCandidates, InsertionPlan, Strategy, prepare, realize,
)
from repro.net.estimate import CostVector
from repro.net.stats import PlanReport, Ranking
from repro.obs.trace import child_span
from repro.planner.estimator import PlanEstimator
from repro.planner.feedback import CalibrationBook
from repro.planner.ir import (
    BulkBatch, PhysicalPlan, ScatterGather, ShipDocument, XrpcCall,
)
from repro.planner.stats import StatsCatalog
from repro.xquery.ast import Module
from repro.xquery.evaluator import Evaluator
from repro.xquery.prepared import PreparedTable

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.system.federation import Federation, RunResult

#: Site-subset enumeration is exponential; beyond this many insertion
#: points only the all-points candidate is priced per strategy.
MAX_SUBSET_POINTS = 4

#: Enumeration order = tie-break order (cheapest wins; on a dead tie
#: the paper's simpler strategy does).
_DECOMPOSING = (Strategy.BY_VALUE, Strategy.BY_FRAGMENT,
                Strategy.BY_PROJECTION)


class _Candidate:
    """One executable alternative of a shape."""

    __slots__ = ("label", "strategy", "include", "plan")

    def __init__(self, label: str, strategy: Strategy,
                 include: list[InsertionPlan] | None = None,
                 plan: PhysicalPlan | None = None) -> None:
        self.label, self.strategy = label, strategy
        #: The insertion points realised (None: all); the rest data-ship.
        self.include = include
        #: Its lowering, priced at its variant's ``priced`` stamp.
        self.plan = plan


class _Variant:
    """One requested strategy's candidates, the stamp of its last
    lookup, the stamp their estimates were priced at, and their last
    ranking."""

    __slots__ = ("candidates", "stamp", "priced", "ranking")

    def __init__(self, candidates: list[_Candidate],
                 stamp: tuple[int, int] | None = None,
                 priced: tuple[int, int] | None = None,
                 ranking: Ranking | None = None) -> None:
        self.candidates, self.stamp, self.priced = candidates, stamp, priced
        self.ranking = ranking


class PreparedQuery:
    """Everything derived from one query shape at one origin."""

    def __init__(self, module: Module):
        self.module = module
        self.preps: dict[Strategy, DecompositionCandidates] = {}
        #: Requested strategy label (``"auto"`` or a fixed one).
        self.variants: dict[str, _Variant] = {}


class QueryPlanner:
    """Cost-based strategy selection for one federation."""

    def __init__(self, federation: "Federation"):
        self.federation = federation
        self.stats = StatsCatalog(federation)
        self.calibration = CalibrationBook()
        self.estimator = PlanEstimator(federation, self.stats,
                                       self.calibration)
        self._prepared = PreparedTable()
        self._lock = threading.Lock()
        self._plans_enumerated = 0
        self._cache_hits = 0

    # -- planning -----------------------------------------------------------

    def plan(self, query: str, at: str,
             strategy: "Strategy | str" = "auto",
             bulk_rpc: bool = True, code_motion: bool = True,
             let_sinking: bool = True
             ) -> tuple[PhysicalPlan, PlanReport]:
        """The plan for ``query`` originating at ``at`` (shared by every
        text of its shape, read-only) and this call's report over the
        vectors that ranked it, carrying the text's binding.
        ``from_cache`` is False on a shape's first lookup and on the
        first after a moved stamp. A lookup ranks its candidates
        (:meth:`_rank`), except a fixed strategy's whose one candidate
        a moved stamp left stale: that prices nothing, and its report
        re-prices and ranks the candidate when first read."""
        choice = Strategy.coerce(strategy)
        label = choice.value if isinstance(choice, Strategy) else choice
        entry, binding = self._prepared.intern_text(
            query, (at, bulk_rpc, code_motion, let_sinking), PreparedQuery,
            prolog=True)
        prepared: PreparedQuery = entry.value
        with entry.lock:
            variant = prepared.variants.get(label)
            if variant is None:
                variant = prepared.variants[label] = _Variant(
                    self._candidates(prepared, choice, at, let_sinking))
            # Read before pricing: a store racing it must re-price.
            stamp = self._stamp()
            if variant.priced is None:
                with child_span("enumerate", strategy=label,
                                candidates=len(variant.candidates)):
                    for candidate in variant.candidates:
                        self._lower(prepared, candidate, at, bulk_rpc,
                                    code_motion, let_sinking)
                variant.priced = stamp
            # First sight, or every estimate of the shape went stale (a
            # store, a repartition): an enumeration.
            enumerated = variant.stamp != stamp
            variant.stamp = stamp
            stale = variant.priced != stamp
        with self._lock:
            self._plans_enumerated += (len(variant.candidates)
                                       if enumerated else 0)
            self._cache_hits += not enumerated
        if stale and isinstance(choice, Strategy):
            # Its one lowered plan runs whatever the stamp: the report
            # re-prices it if it is read.
            plan = variant.candidates[0].plan
            ranking = partial(self._rank, entry, variant)
        else:
            ranking = self._rank(entry, variant)
            plan = ranking.plan
        return plan, PlanReport(plan.label, ranking,
                                from_cache=not enumerated, binding=binding)

    def _stamp(self) -> tuple[int, int]:
        catalog = self.federation.catalog
        return (catalog.epoch() if catalog is not None else -1,
                self.federation.generation())

    def _rank(self, entry, variant: _Variant) -> Ranking:
        """``variant``'s ranking under the statistics and factors as
        they are now: its last one if neither the stamp nor the
        calibration version moved since, else its candidates re-priced
        if a store moved the stamp they were priced at, then priced
        under the current factors, cheapest first."""
        # Read before pricing: a store or feedback racing it leaves a
        # stale key, and the next ranking re-prices.
        stamp = self._stamp()
        key = (stamp, self.calibration.version)
        ranking = variant.ranking
        if ranking is not None and ranking.key == key:
            return ranking
        with entry.lock:
            if variant.priced != stamp:
                for candidate in variant.candidates:
                    candidate.plan = self.estimator.reprice(candidate.plan)
                variant.priced = stamp
            plans = [candidate.plan for candidate in variant.candidates]
        vectors = [plan.priced() for plan in plans]
        ranked = sorted(
            (CostVector.total_of(ops).total_s(plan.model), index)
            for index, (plan, ops) in enumerate(zip(plans, vectors)))
        chosen = ranked[0][1]
        ranking = variant.ranking = Ranking(
            plans[chosen], vectors[chosen],
            tuple((plans[index].label, estimate)
                  for estimate, index in ranked), key)
        return ranking

    def _lower(self, prepared: PreparedQuery, candidate: _Candidate,
               at: str, bulk_rpc: bool, code_motion: bool,
               let_sinking: bool) -> None:
        """Realise and lower ``candidate``, once per shape: what its
        plan holds beside the operators reads neither statistics nor
        catalog."""
        plan = candidate.plan = self.estimator.lower(
            realize(self._prep(prepared, candidate.strategy, at,
                               let_sinking),
                    include=candidate.include, code_motion=code_motion),
            at, bulk_rpc=bulk_rpc, label=candidate.label)
        plan.evaluator = Evaluator(plan.decomposition.module,
                                   self.federation.static)

    def _prep(self, prepared: PreparedQuery, strategy: Strategy, at: str,
              let_sinking: bool) -> DecompositionCandidates:
        prep = prepared.preps.get(strategy)
        if prep is None:
            prep = prepared.preps[strategy] = prepare(
                prepared.module, strategy, local_host=at,
                let_sinking=let_sinking,
                sibling=next(iter(prepared.preps.values()), None))
        return prep

    def _candidates(self, prepared: PreparedQuery,
                    choice: "Strategy | str", at: str,
                    let_sinking: bool) -> list[_Candidate]:
        if isinstance(choice, Strategy):
            return [_Candidate(choice.value, choice)]
        candidates = [_Candidate(Strategy.DATA_SHIPPING.value,
                                 Strategy.DATA_SHIPPING)]
        for strategy in _DECOMPOSING:
            candidates.append(_Candidate(strategy.value, strategy))
            points = self._prep(prepared, strategy, at, let_sinking).plans
            if not 2 <= len(points) <= MAX_SUBSET_POINTS:
                continue
            # Mixed plans: every proper non-empty subset of the
            # strategy's insertion points; a dropped point's document
            # data-ships instead of decomposing.
            for mask in range(1, (1 << len(points)) - 1):
                include = [point for index, point in enumerate(points)
                           if mask & (1 << index)]
                dropped = sorted({point.host
                                  for index, point in enumerate(points)
                                  if not mask & (1 << index)})
                candidates.append(_Candidate(
                    f"{strategy.value}+ship[{','.join(dropped)}]",
                    strategy, include))
        return candidates

    # -- adaptive feedback --------------------------------------------------

    def observe(self, report: PlanReport, result: "RunResult") -> None:
        """Compare the estimates of ``report`` (its plan's operators as
        priced when it was ranked) with the observed
        :class:`~repro.net.stats.RunStats` and nudge the calibration
        factors. Runs served (partly) from the result cache are
        skipped — their wire truth is not the plan's doing — and leave
        a fixed strategy's report unpriced. This is the only writer of
        factors: with several workers another run's feedback may land
        between the pick and this call, and the estimate judged is
        still the one that picked the plan."""
        stats = result.stats
        if stats.cache_hits > 0:
            return
        # Read before the first factor write, which would price them.
        plan, vectors = report.plan, report.vectors
        if result.messages:
            self._observe_messages(plan, result)

        # Shipped document bytes: RunStats only has the total, so the
        # observed/estimated ratio is apportioned uniformly across the
        # plan's ship operators — each owner still gets its own factor
        # (multi-owner plans, e.g. the Figure 7-9 semijoin, included).
        vector = CostVector.total_of(vectors)
        if stats.document_bytes:
            for op in plan.ops:
                if isinstance(op, ShipDocument) and op.document_bytes:
                    self.calibration.observe(
                        "doc", op.owner, "", vector.document_bytes,
                        float(stats.document_bytes))

        # Execution seconds, attributed to the originator.
        est_exec = vector.local_exec_s + vector.remote_exec_s
        observed_exec = stats.times.local_exec + stats.times.remote_exec
        self.calibration.observe("exec", plan.origin, "",
                                 est_exec, observed_exec)

    def _observe_messages(self, plan: PhysicalPlan,
                          result: "RunResult") -> None:
        """Message bytes, per destination: MessageLog carries the
        observed per-peer truth. (A collection site's messages are
        logged per replica, so it gets no message feedback.)"""
        est_by_dest: dict[str, tuple[float, str]] = {}

        def note(call: XrpcCall) -> None:
            total = ((call.request_bytes + call.response_bytes)
                     * self.calibration.factor("msg", call.dest,
                                               call.semantics))
            previous = est_by_dest.get(call.dest)
            combined = total + (previous[0] if previous else 0.0)
            est_by_dest[call.dest] = (combined, call.semantics)

        for op in plan.ops:
            if isinstance(op, XrpcCall):
                note(op)
            elif isinstance(op, (BulkBatch, ScatterGather)):
                note(op.call)

        observed_by_dest: dict[str, int] = {}
        for message in result.messages:
            observed_by_dest[message.dest] = (
                observed_by_dest.get(message.dest, 0)
                + message.request_bytes + message.response_bytes)
        for dest, observed in observed_by_dest.items():
            entry = est_by_dest.get(dest)
            if entry is None:
                continue
            estimated, semantics = entry
            self.calibration.observe("msg", dest, semantics,
                                     estimated, float(observed))

    # -- introspection ------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        stats = self.stats.snapshot()
        with self._lock:
            return {
                "cached_plans": len(self._prepared),
                "cache_hits": self._cache_hits,
                "plans_enumerated": self._plans_enumerated,
                "stats_keys_built": stats["keys_built"],
                "calibration": self.calibration.snapshot(),
                "stats": stats,
            }
