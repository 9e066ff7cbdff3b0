"""The cost-based federated query planner.

The seed made the caller pick one of the paper's four execution
strategies per query; this package closes the loop the ROADMAP calls
for: it *enumerates* physical plans (one per strategy, plus mixed
plans that ship some documents while decomposing others), *prices*
them with the calibrated cost model against live document statistics
and cluster topology, and *adapts* by comparing every run's estimate
with its observed :class:`~repro.net.stats.RunStats`.

Modules:

* :mod:`repro.planner.stats` — per-peer document statistics
  (:class:`StatsCatalog`), each view kept with the document it
  describes;
* :mod:`repro.planner.ir` — the typed physical-plan IR
  (:class:`PhysicalPlan` and its operators);
* :mod:`repro.planner.estimator` — lowering a decomposition into a
  priced plan (:class:`PlanEstimator`);
* :mod:`repro.planner.feedback` — per-peer calibration factors
  (:class:`CalibrationBook`);
* :mod:`repro.planner.planner` — one :class:`PreparedQuery` per query
  text: candidate enumeration, the bounded table, and the pick
  (:class:`QueryPlanner`).
"""

from repro.planner.estimator import PlanEstimator
from repro.planner.feedback import CalibrationBook
from repro.planner.ir import (
    BulkBatch, LocalEval, PhysicalPlan, ScatterGather, ShipDocument,
    XrpcCall,
)
from repro.planner.planner import PreparedQuery, QueryPlanner
from repro.planner.stats import DocumentStats, StatsCatalog, TagStat

__all__ = [
    "BulkBatch", "CalibrationBook", "DocumentStats", "LocalEval",
    "PhysicalPlan", "PlanEstimator", "PreparedQuery", "QueryPlanner",
    "ScatterGather", "ShipDocument", "StatsCatalog", "TagStat", "XrpcCall",
]
