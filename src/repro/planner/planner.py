"""Prepared queries: candidate enumeration, the table, and the pick.

``Federation.run`` lands here for every strategy. What can be derived
from a query text is derived once and kept in one
:class:`PreparedQuery`, interned by (text digest, origin, run options)
in the federation's bounded table:

1. the parsed module and, per strategy, the decomposition *analysis*
   (:func:`~repro.decompose.prepare`) — these read neither statistics
   nor catalog, so nothing invalidates them;
2. per requested strategy its candidates: a fixed strategy has one,
   ``"auto"`` one per strategy **plus one per proper subset of
   insertion points** (a dropped point's document data-ships instead,
   so mixed plans ship one tiny document while projecting another),
   each lowered into factor-free operators and stamped (catalog epoch,
   statistics version) — a moved stamp re-lowers, nothing more;
3. for the cheapest candidate — ranked on *every* lookup under the
   :class:`~repro.planner.feedback.CalibrationBook`'s current factors;
   ties go to enumeration order: data-shipping → by-value →
   by-fragment → by-projection → mixed — its plan, decomposition and
   shared evaluator. Losers keep label, insertion points and
   operators; one is materialised when the ranking flips to it.

After the run, observed bytes/seconds feed back into the calibration
factors, which re-rank the next lookup and invalidate nothing.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.decompose import (
    DecompositionCandidates, InsertionPlan, Strategy, prepare, realize,
)
from repro.net.estimate import CostVector
from repro.net.stats import PlanReport
from repro.obs.trace import child_span
from repro.planner.estimator import PlanEstimator
from repro.planner.feedback import CalibrationBook
from repro.planner.ir import (
    BulkBatch, PhysicalPlan, ScatterGather, ShipDocument, XrpcCall,
    priced_total,
)
from repro.planner.stats import StatsCatalog
from repro.xquery.ast import Module
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_query
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


@dataclass
class _Candidate:
    """One executable alternative, as little of it as ranking needs."""

    label: str
    strategy: Strategy
    #: The insertion points realised (None: all); the rest data-ship.
    include: list[InsertionPlan] | None = None
    #: Factor-free operators of its last lowering.
    ops: list = field(default_factory=list)


@dataclass
class _Variant:
    """One requested strategy's candidates, and the pick among them."""

    candidates: list[_Candidate]
    stamp: tuple[int, int] | None = None
    pick: int | None = None
    plan: PhysicalPlan | None = None


class PreparedQuery:
    """Everything derived from one query text at one origin."""

    def __init__(self, module: Module):
        self.module = module
        self.preps: dict[Strategy, DecompositionCandidates] = {}
        #: Requested strategy label (``"auto"`` or a fixed one).
        self.variants: dict[str, _Variant] = {}
        #: Concurrent runs of one text share one lowering and evaluator.
        self.lock = threading.Lock()


class QueryPlanner:
    """Cost-based strategy selection for one federation."""

    def __init__(self, federation: "Federation"):
        self.federation = federation
        self.stats = StatsCatalog()
        self.calibration = CalibrationBook()
        self.stats.attach(federation)
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
        """The plan for ``query`` originating at ``at`` (shared by
        every run of the text, read-only) and this call's report: the
        plan as priced right now, ``from_cache`` when the lookup ran
        neither parser, decomposer nor lowerer."""
        self.stats.attach(self.federation)
        choice = Strategy.coerce(strategy)
        label = choice.value if isinstance(choice, Strategy) else choice
        prepared = self._prepared.intern(
            (hashlib.sha256(query.encode()).hexdigest(), at, bulk_rpc,
             code_motion, let_sinking),
            lambda: PreparedQuery(parse_query(query)))
        catalog = self.federation.catalog
        lowered: dict[int, PhysicalPlan] = {}

        def lower(index: int) -> None:
            candidate = variant.candidates[index]
            # The pick's decomposition and evaluator are still at hand.
            kept = variant.plan if index == variant.pick else None
            plan = lowered[index] = self.estimator.lower(
                kept.decomposition if kept is not None else realize(
                    self._prep(prepared, candidate.strategy, at,
                               let_sinking),
                    include=candidate.include, code_motion=code_motion),
                at, bulk_rpc=bulk_rpc, label=candidate.label)
            plan.evaluator = kept.evaluator if kept is not None else None
            candidate.ops = plan.ops

        with prepared.lock:
            variant = prepared.variants.get(label)
            if variant is None:
                variant = prepared.variants[label] = _Variant(
                    self._candidates(prepared, choice, at, let_sinking))
            # Read before lowering: a store racing it must re-lower.
            stamp = (catalog.epoch() if catalog is not None else -1,
                     self.stats.version())
            if variant.stamp != stamp:
                with child_span("enumerate", strategy=label,
                                candidates=len(variant.candidates)):
                    for index in range(len(variant.candidates)):
                        lower(index)
                variant.stamp = stamp
            ranked = sorted(
                (priced_total(candidate.ops, self.calibration, at).total_s(
                    self.estimator.model), index)
                for index, candidate in enumerate(variant.candidates))
            best = ranked[0][1]
            if best != variant.pick and best not in lowered:
                lower(best)      # calibration flipped the ranking
            if best in lowered:
                variant.pick, variant.plan = best, lowered[best]
            plan = variant.plan
            if plan.evaluator is None:
                plan.evaluator = Evaluator(plan.decomposition.module,
                                           self.federation.static)
        with self._lock:
            self._plans_enumerated += len(lowered)
            self._cache_hits += not lowered
        return plan, plan.build_report(
            candidates=tuple((variant.candidates[index].label, estimate)
                             for estimate, index in ranked),
            from_cache=not lowered)

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

    def observe(self, plan: PhysicalPlan, result: "RunResult",
                vectors: list[CostVector]) -> None:
        """Compare ``plan``'s estimates (``vectors``: its operators as
        priced at the end of the run) with the observed
        :class:`~repro.net.stats.RunStats` and nudge the calibration
        factors. Runs served (partly) from the result cache are
        skipped — their wire truth is not the plan's doing."""
        stats = result.stats
        if stats.cache_hits > 0:
            return
        if result.messages:
            self._observe_messages(plan, result)

        # Shipped document bytes: RunStats only has the total, so the
        # observed/estimated ratio is apportioned uniformly across the
        # plan's ship operators — each owner still gets its own factor
        # (multi-owner plans, e.g. the Figure 7-9 semijoin, included).
        vector = CostVector()
        for priced in vectors:
            vector.add(priced)
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
        with self._lock:
            return {
                "cached_plans": len(self._prepared),
                "cache_hits": self._cache_hits,
                "plans_enumerated": self._plans_enumerated,
                "calibration": self.calibration.snapshot(),
                "stats": self.stats.snapshot(),
            }
