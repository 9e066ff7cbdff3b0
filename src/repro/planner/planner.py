"""Candidate enumeration, the plan cache, and the pick.

``Federation.run(strategy="auto")`` lands here. The planner:

1. runs the decomposition *analysis* once per strategy
   (:func:`~repro.decompose.prepare`), giving every strategy's
   candidate insertion points;
2. realises one executable candidate per fixed strategy **plus one per
   proper subset of insertion points** — dropping a point means its
   document data-ships instead, so the candidate space contains mixed
   plans that ship one tiny document while projecting another;
3. prices every candidate with the
   :class:`~repro.planner.estimator.PlanEstimator` and picks the
   cheapest (deterministic tie-break: enumeration order, which ranks
   the paper's strategies data-shipping → by-value → by-fragment →
   by-projection → mixed);
4. caches the pick keyed by (query digest, origin, run options,
   cluster-catalog epoch, statistics version, calibration generation)
   — any of those moving replans;
5. after the run, feeds observed bytes/seconds back into the
   :class:`~repro.planner.feedback.CalibrationBook`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.decompose import (
    DecompositionResult, Strategy, decompose, prepare, realize,
)
from repro.net.stats import PlanReport
from repro.obs.trace import child_span
from repro.planner.estimator import PlanEstimator
from repro.planner.feedback import CalibrationBook
from repro.planner.ir import BulkBatch, PhysicalPlan, ScatterGather, XrpcCall
from repro.planner.stats import StatsCatalog
from repro.xquery.parser import parse_query

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.system.federation import Federation, RunResult

#: Site-subset enumeration is exponential; beyond this many insertion
#: points only the all-points candidate is priced per strategy.
MAX_SUBSET_POINTS = 4

#: Plans kept by the LRU plan cache (the value the end-to-end ledger's
#: ``tenant_mix`` workload — 200 query texts — is defined against).
PLAN_CACHE_SIZE = 128

#: Enumeration order = tie-break order (cheapest wins; on a dead tie
#: the paper's simpler strategy does).
_DECOMPOSING = (Strategy.BY_VALUE, Strategy.BY_FRAGMENT,
                Strategy.BY_PROJECTION)


@dataclass
class PlannedQuery:
    """The planner's answer for one query: what to execute and why.

    ``report`` is this call's own (immutable) record — cache hits get
    a fresh ``from_cache=True`` copy rather than mutating the shared
    cached plan, which another thread may be executing right now.
    """

    decomposition: DecompositionResult
    plan: PhysicalPlan
    report: "PlanReport"
    from_cache: bool = False


class QueryPlanner:
    """Cost-based strategy selection for one federation."""

    def __init__(self, federation: "Federation",
                 stats_catalog: StatsCatalog | None = None,
                 calibration: CalibrationBook | None = None):
        self.federation = federation
        self.stats = stats_catalog if stats_catalog is not None \
            else StatsCatalog()
        self.calibration = calibration if calibration is not None \
            else CalibrationBook()
        self.stats.attach(federation)
        self.estimator = PlanEstimator(federation, self.stats,
                                       self.calibration)
        self._cache: OrderedDict[tuple, PlannedQuery] = OrderedDict()
        self._lock = threading.Lock()
        self._plans_enumerated = 0
        self._cache_hits = 0

    # -- planning -----------------------------------------------------------

    def plan(self, query: str, at: str,
             strategy: "Strategy | str" = "auto",
             bulk_rpc: bool = True, code_motion: bool = True,
             let_sinking: bool = True,
             transport=None) -> PlannedQuery:
        """Choose (or recall) the physical plan for ``query``
        originating at ``at``.

        ``strategy="auto"`` enumerates and picks the cheapest
        candidate; a fixed strategy yields its single lowered plan.
        Both are cached under the same keys, so a multi-tenant sweep
        of identical fixed-strategy queries pays decomposition and
        lowering once, not per run. ``transport`` (the run's, when it
        differs from the federation's) supplies the live replica-load
        signal for scatter queue pricing.
        """
        self.stats.attach(self.federation)
        choice = Strategy.coerce(strategy)
        label = choice.value if isinstance(choice, Strategy) else choice
        key = self._cache_key(query, at, label, bulk_rpc, code_motion,
                              let_sinking)
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._cache.move_to_end(key)
                self._cache_hits += 1
        if hit is not None:
            return PlannedQuery(hit.decomposition, hit.plan,
                                report=replace(hit.report,
                                               from_cache=True),
                                from_cache=True)

        if isinstance(choice, Strategy):
            with child_span("decompose", strategy=label):
                decomposition = decompose(parse_query(query), choice,
                                          local_host=at,
                                          code_motion=code_motion,
                                          let_sinking=let_sinking)
            chosen = self.estimator.lower(decomposition, at,
                                          bulk_rpc=bulk_rpc,
                                          transport=transport)
            report = chosen.build_report()
            with self._lock:
                self._plans_enumerated += 1
        else:
            with child_span("enumerate") as enumerate_span:
                candidates = self._enumerate(query, at, bulk_rpc,
                                             code_motion, let_sinking,
                                             transport)
                if enumerate_span is not None:
                    enumerate_span.set(candidates=len(candidates))
            ranked = sorted(
                enumerate(candidates),
                key=lambda pair: (pair[1].estimated_s, pair[0]))
            chosen = ranked[0][1]
            report = chosen.build_report(candidates=tuple(
                (plan.label, plan.estimated_s) for _index, plan in ranked))
        planned = PlannedQuery(chosen.decomposition, chosen, report=report)
        # Re-key after lowering: pricing may have built value
        # histograms (values_version moved), and this plan *did* see
        # them — storing under the post-planning key lets the next run
        # hit, while plans priced before histograms existed stay
        # unreachable and are re-planned.
        key = self._cache_key(query, at, label, bulk_rpc, code_motion,
                              let_sinking)
        with self._lock:
            self._cache[key] = planned
            while len(self._cache) > PLAN_CACHE_SIZE:
                self._cache.popitem(last=False)
        return planned

    def lower_fixed(self, decomposition: DecompositionResult, at: str,
                    bulk_rpc: bool = True,
                    transport=None) -> PhysicalPlan:
        """The trivial single-candidate plan for an already-decomposed
        query (every run gets a plan report, auto or not). Uncached:
        callers with query text should go through :meth:`plan`."""
        self.stats.attach(self.federation)
        plan = self.estimator.lower(decomposition, at, bulk_rpc=bulk_rpc,
                                    transport=transport)
        plan.build_report()
        return plan

    def _enumerate(self, query: str, at: str, bulk_rpc: bool,
                   code_motion: bool, let_sinking: bool,
                   transport=None) -> list[PhysicalPlan]:
        module = parse_query(query)
        candidates: list[PhysicalPlan] = []

        shipping = prepare(module, Strategy.DATA_SHIPPING, local_host=at,
                           let_sinking=let_sinking)
        candidates.append(self.estimator.lower(
            realize(shipping, code_motion=code_motion), at,
            bulk_rpc=bulk_rpc, transport=transport))

        for strategy in _DECOMPOSING:
            prep = prepare(module, strategy, local_host=at,
                           let_sinking=let_sinking)
            full = realize(prep, code_motion=code_motion)
            candidates.append(self.estimator.lower(
                full, at, bulk_rpc=bulk_rpc, label=strategy.value,
                transport=transport))
            points = prep.plans
            if not 2 <= len(points) <= MAX_SUBSET_POINTS:
                continue
            # Mixed plans: every proper non-empty subset of the
            # strategy's insertion points; a dropped point's document
            # data-ships instead of decomposing.
            for mask in range(1, (1 << len(points)) - 1):
                subset = [point for index, point in enumerate(points)
                          if mask & (1 << index)]
                dropped = sorted({point.host
                                  for index, point in enumerate(points)
                                  if not mask & (1 << index)})
                mixed = realize(prep, include=subset,
                                code_motion=code_motion)
                label = f"{strategy.value}+ship[{','.join(dropped)}]"
                candidates.append(self.estimator.lower(
                    mixed, at, bulk_rpc=bulk_rpc, label=label,
                    transport=transport))
        with self._lock:
            self._plans_enumerated += len(candidates)
        return candidates

    def _cache_key(self, query: str, at: str, label: str, bulk_rpc: bool,
                   code_motion: bool, let_sinking: bool) -> tuple:
        digest = hashlib.sha256(query.encode()).hexdigest()
        catalog = self.federation.catalog
        epoch = catalog.epoch() if catalog is not None else -1
        # values_version tracks value-histogram *availability*: a plan
        # priced with default selectivities before any histogram was
        # built must not be replayed once histograms exist.
        return (digest, at, label, bulk_rpc, code_motion, let_sinking,
                epoch, self.stats.version(), self.stats.values_version(),
                self.calibration.generation())

    # -- adaptive feedback --------------------------------------------------

    def observe(self, plan: PhysicalPlan, result: "RunResult") -> None:
        """Compare ``plan``'s estimates with the observed
        :class:`~repro.net.stats.RunStats` and nudge the calibration
        factors. Runs served (partly) from the result cache are
        skipped — their wire truth is not the plan's doing."""
        stats = result.stats
        if stats.cache_hits > 0:
            return
        monitor = getattr(self.federation, "monitor", None)
        generation_before = (self.calibration.generation()
                             if monitor is not None else 0)

        # Message bytes, per destination: MessageLog carries the
        # observed per-peer truth; collection sites also answer for
        # their replica peers.
        est_by_dest: dict[str, tuple[float, str]] = {}

        def note(call: XrpcCall) -> None:
            total = call.request_bytes + call.response_bytes
            previous = est_by_dest.get(call.dest)
            combined = total + (previous[0] if previous else 0.0)
            est_by_dest[call.dest] = (combined, call.semantics)
            spec = self.federation.collection(call.dest)
            if spec is not None:
                for replica in spec.replica_peers:
                    est_by_dest.setdefault(
                        replica, (combined / max(spec.shard_count, 1),
                                  call.semantics))

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

        # Shipped document bytes: RunStats only has the total, so the
        # observed/estimated ratio is apportioned uniformly across the
        # plan's ship operators — each owner still gets its own factor
        # (multi-owner plans, e.g. the Figure 7-9 semijoin, included).
        est_docs = sum(op.vector.document_bytes for op in plan.ops)
        if est_docs > 0.0 and stats.document_bytes > 0:
            ratio = stats.document_bytes / est_docs
            for op in plan.ops:
                if getattr(op, "owner", None) is None:
                    continue
                share = op.vector.document_bytes
                if share > 0.0:
                    self.calibration.observe("doc", op.owner, "",
                                             share, share * ratio)

        # Execution seconds, attributed to the originator.
        est_exec = (plan.vector.local_exec_s + plan.vector.remote_exec_s)
        observed_exec = stats.times.local_exec + stats.times.remote_exec
        self.calibration.observe("exec", plan.origin, "",
                                 est_exec, observed_exec)

        if monitor is not None:
            generation = self.calibration.generation()
            if generation != generation_before:
                # A factor drifted past the bump threshold: cached
                # plans priced under the old factors are now stale.
                monitor.events.emit(
                    "calibration_bump",
                    f"calibration generation -> {generation} "
                    f"(plan cache keys rotate)",
                    severity="info", generation=generation)

    # -- introspection ------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "cached_plans": len(self._cache),
                "cache_hits": self._cache_hits,
                "plans_enumerated": self._plans_enumerated,
                "calibration": self.calibration.snapshot(),
                "stats": self.stats.snapshot(),
            }
