"""Explain-analyze: estimated-vs-actual accounting per plan operator.

The planner's :class:`~repro.planner.ir.PhysicalPlan` carries one
predicted :class:`~repro.net.estimate.CostVector` per operator; until
now the only feedback was run-level (a run's estimate against its
simulated total, and the
:class:`~repro.planner.feedback.CalibrationBook`'s aggregate factors).
This module closes the loop per query: the run layer records
what each operator *actually* did — wire bytes, calls, simulated
seconds, wall seconds — as ``per_op`` entries of the run's
:class:`~repro.net.stats.RunStats` (a shard call records into its
private stats, merged with the rest of its accounting), and
``RunStats.plan.explain(analyze=True)`` renders the estimated-vs-actual
tree, so a :class:`CalibrationBook` misprediction is inspectable on
the very query that suffered it.

Attribution keys match the plan IR's own handles:

* XRPC call sites key by ``site_id`` (``id(xrpc.body)``); the cluster
  router aliases its per-shard rewritten bodies back to the logical
  site, so a ScatterGather operator's actuals are the sum over shards;
* document ships key by ``(owner, local_name)``;
* local evaluation is the run-level remainder (the ``local_exec``
  seconds computed from the cost counters at the end of the run).

Simulated seconds per call site are *inclusive* (nested shipping or
recursive round trips triggered by the remote body count toward the
site that triggered them), mirroring how the estimator prices sites.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OpAnalysis:
    """One operator row of an analyzed plan: prediction next to truth.

    ``actual_*`` are ``None`` when the run never exercised the operator
    (a cached response made the round trip unnecessary, a shard was
    skipped, a mixed plan's ship was resolved locally)."""

    describe: str                    # the operator's own rendering
    est_s: float
    est_bytes: float
    est_calls: float = 0.0
    actual_s: float | None = None
    actual_bytes: int | None = None
    actual_calls: int | None = None
    actual_wall_s: float | None = None
    cache_hits: int = 0

    @property
    def time_error(self) -> float | None:
        """actual / estimated simulated seconds (None: not comparable)."""
        if self.actual_s is None or self.est_s <= 0.0:
            return None
        return self.actual_s / self.est_s

    def as_dict(self) -> dict[str, object]:
        # Wall-clock stays off the dict form: ``RunStats.summary()``
        # must be identical across transports/runs (simulated
        # accounting only); wall times live on the object and in the
        # rendered tree.
        return {
            "op": self.describe,
            "est_s": self.est_s,
            "est_bytes": self.est_bytes,
            "est_calls": self.est_calls,
            "actual_s": self.actual_s,
            "actual_bytes": self.actual_bytes,
            "actual_calls": self.actual_calls,
            "cache_hits": self.cache_hits,
        }


@dataclass(frozen=True)
class PlanAnalysis:
    """The analyzed plan: per-operator rows plus run-level totals."""

    label: str
    rows: tuple[OpAnalysis, ...] = ()
    est_total_s: float = 0.0
    est_total_bytes: float = 0.0
    actual_total_s: float = 0.0
    actual_total_bytes: int = 0
    wall_s: float = 0.0
    #: How the planner came by the plan (:func:`describe_lookup`).
    lookup: str = ""

    def as_dict(self) -> dict[str, object]:
        return {
            "label": self.label,
            "est_total_s": self.est_total_s,
            "est_total_bytes": self.est_total_bytes,
            "actual_total_s": self.actual_total_s,
            "actual_total_bytes": self.actual_total_bytes,
            "ops": [row.as_dict() for row in self.rows],
        }


def _fmt_bytes(value: float | int | None) -> str:
    if value is None:
        return "-"
    return f"{value / 1024:.1f}KB" if value >= 1024 else f"{value:.0f}B"


def _fmt_ms(value: float | None) -> str:
    return "-" if value is None else f"{value * 1e3:.2f}ms"


def describe_lookup(from_cache: bool, literals: tuple) -> str:
    """What the planner did for this text of the plan's shape: on a
    ``shape hit`` it looked the prepared shape up and at most priced
    it for ``literals`` (the residual per-literal work, counted in
    ``planner.snapshot()["bindings_priced"]``)."""
    return (f"{'shape hit' if from_cache else 'shape planned'}, literals "
            f"({', '.join(map(repr, literals))})")


def render_analysis(analysis: PlanAnalysis) -> str:
    """The estimated-vs-actual tree, one line per operator::

        plan by-projection: est 10.51ms/44.2KB -> actual 11.02ms/45.8KB
          1. xrpc-call by-projection -> peer1 (...)
             est 4.10ms/12.0KB x12 | actual 4.31ms/12.8KB x12 (x1.05)
    """
    lines = [
        f"plan {analysis.label}: "
        f"est {_fmt_ms(analysis.est_total_s)}/"
        f"{_fmt_bytes(analysis.est_total_bytes)} -> actual "
        f"{_fmt_ms(analysis.actual_total_s)}/"
        f"{_fmt_bytes(analysis.actual_total_bytes)} "
        f"(wall {_fmt_ms(analysis.wall_s)})"
    ]
    if analysis.lookup:
        lines.append(f"  {analysis.lookup}")
    for index, row in enumerate(analysis.rows, start=1):
        lines.append(f"  {index}. {row.describe}")
        est_calls = f" x{row.est_calls:.0f}" if row.est_calls else ""
        if row.actual_s is None and row.actual_bytes is None:
            actual = "never exercised"
            if row.cache_hits:
                actual = f"served from cache ({row.cache_hits} hits)"
            lines.append(
                f"     est {_fmt_ms(row.est_s)}/"
                f"{_fmt_bytes(row.est_bytes)}{est_calls} | {actual}")
        else:
            ratio = row.time_error
            ratio_part = f" (x{ratio:.2f})" if ratio is not None else ""
            calls_part = (f" x{row.actual_calls}"
                          if row.actual_calls else "")
            cache_part = (f", {row.cache_hits} cache hits"
                          if row.cache_hits else "")
            lines.append(
                f"     est {_fmt_ms(row.est_s)}/"
                f"{_fmt_bytes(row.est_bytes)}{est_calls} | actual "
                f"{_fmt_ms(row.actual_s)}/"
                f"{_fmt_bytes(row.actual_bytes)}{calls_part}"
                f"{ratio_part}{cache_part}")
    return "\n".join(lines)
