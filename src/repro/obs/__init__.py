"""Unified observability: tracing, metrics, and explain-analyze.

The paper's entire evaluation (Figures 7-11) is an observability
exercise; this package is where each of those measurements now lives,
per query instead of per benchmark run:

==========  ==============================================================
Figure 7    total transferred bytes — ``RunStats.total_transferred_bytes``;
            across runs: ``query_transferred_bytes_total``; per peer:
            the ``wire_message_bytes_total`` /
            ``wire_document_bytes_total`` counters; per shard:
            ``RunStats.per_shard``; per operator: the ``bytes``
            attribute on ``rpc`` / ``ship`` spans and the
            ``RunStats.per_op`` entries behind the ``actual_bytes``
            column of ``plan.explain(analyze=True)``.
Figure 8    the five-component time breakdown — ``RunStats.times``;
            per span: the ``shred`` / ``local_exec`` / ``serialize`` /
            ``remote_exec`` / ``network`` *component leaf spans*, whose
            ``sim_s`` sum reproduces the run totals exactly
            (``Span.component_totals()``).
Figure 9    execution time per strategy — the ``query`` root span's
            wall duration, the ``query_latency_seconds`` histogram
            (one observation per completed ``Federation.run``), and
            the estimated-vs-actual totals in the analyzed plan.
Figure 10   projection precision — the ``used_paths`` / ``returned``
            attributes on by-projection ``rpc`` spans (request sizes
            carry the pruned fragment bytes).
Figure 11   projection/serialisation overhead — the ``serialize``
            component leaves under each ``rpc`` / ``ship`` span, plus
            the ``index_build_seconds_total`` counters for the
            structural/value index work that replaced re-shredding.
==========  ==============================================================

Two parts read the same measurements over time, each installed on
a federation by one call, like the cluster's failure detector:

==============  ==========================================================
as events       the churn behind the numbers — failovers, epoch bumps,
                cache invalidations, shard skips, health demotions — in
                the typed :class:`EventLog`
                (``EventLog().attach(federation)``; JSONL export,
                instant markers on Chrome traces).
per peer        Figure 8's "who is slow" as live health — windowed
                mean/p95 latency and error rate per replica
                (:class:`HealthTracker`,
                ``HealthTracker().attach(federation)``), scored against
                the fleet baseline; the demotions it judges live in the
                cluster's peer view and order replica selection.
==============  ==========================================================

Modules:

* :mod:`repro.obs.trace` — :class:`Tracer` / :class:`Span`: per-query
  span trees with contextvar nesting and simulated-time charge leaves;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` labeled
  series, and :class:`QuantileSketch`, the bounded-error quantile
  sketch behind every histogram and rolling window;
* :mod:`repro.obs.export` — JSON and Chrome trace-event exporters
  (:func:`dump_trace`, :func:`dump_chrome_trace`) plus the schema
  validator CI runs over captured traces;
* :mod:`repro.obs.explain` — per-operator estimated-vs-actual
  accounting behind ``RunStats.plan.explain(analyze=True)``, built
  when first read from the vectors that picked the plan and the run's
  ``per_op`` actuals;
* :mod:`repro.obs.windows` — rolling time-window aggregation, one
  sketch per time bucket;
* :mod:`repro.obs.events` — the typed fleet event log;
* :mod:`repro.obs.health` — per-peer health scoring, judging the
  demotions the cluster's peer view holds for replica selection.
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(globals(), {
    ".explain": "OpAnalysis PlanAnalysis render_analysis",
    ".export": "chrome_trace_events dump_chrome_trace dump_trace "
               "render_tree span_to_dict validate_chrome_trace",
    ".metrics": "GLOBAL_REGISTRY Counter Gauge Histogram MetricsRegistry "
                "QuantileSketch global_registry",
    ".trace": "COMPONENTS NOOP_TRACER NoopTracer Span Tracer "
              "bind_stats_span child_span",
    ".events": "Event EventLog",
    ".windows": "RollingWindow RollingWindowFamily",
    ".health": "HealthTracker PeerHealth",
})
