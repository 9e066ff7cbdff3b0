"""Run statistics: the measurements behind Figures 7-9.

:class:`RunStats` accumulates bytes and simulated time per category
during one federated query execution. ``total_transferred_bytes`` is
Figure 7's y-axis ("total size of XML documents plus total size of XML
messages transferred among peers"); :class:`TimeBreakdown` is the
five-component stack of Figure 8.

A run's ``RunStats`` is the only place its numbers are counted. Each
shard call files one ``per_shard`` entry (its share of bytes and
messages, failovers, skips, the shard's ``local_name``) and
the run-level cluster totals are sums over those entries; each plan
operator's actuals (a call site by ``site_id``, a ship by ``(owner,
local_name)``) are ``per_op`` entries, which explain-analyze reads.
Both dictionaries are folded by one function, :func:`fold_entry`.
Everything counted across queries — the registry's ``scatter_*`` /
``query_*`` series — is folded from a finished run at the end of
``Federation.run``.

Observability hooks: a run traced via ``Federation.run(trace=True)``
binds the active :class:`~repro.obs.trace.Span` to ``RunStats.span``,
and :meth:`RunStats.charge` — the one way simulated time enters
:attr:`times` — charges the same amount into that span, so the trace's
component leaves sum to these totals by construction.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from repro.records import Record

if TYPE_CHECKING:
    from repro.obs.explain import PlanAnalysis


class TimeBreakdown(Record):
    """Simulated seconds per category (Figure 8's stack)."""

    __slots__ = _fields = ("shred", "local_exec", "serialize", "remote_exec",
                           "network")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, shred: float = 0.0, local_exec: float = 0.0,
                 serialize: float = 0.0, remote_exec: float = 0.0,
                 network: float = 0.0) -> None:
        self.shred, self.local_exec = shred, local_exec
        self.serialize = serialize  # "(de)serialize" in the paper
        self.remote_exec, self.network = remote_exec, network

    @property
    def total(self) -> float:
        return (self.shred + self.local_exec + self.serialize
                + self.remote_exec + self.network)

    def as_dict(self) -> dict[str, float]:
        return {
            "shred": self.shred,
            "local exec": self.local_exec,
            "(de)serialize": self.serialize,
            "remote exec": self.remote_exec,
            "network": self.network,
        }


class Ranking(NamedTuple):
    """What a pricing of a prepared variant's candidates decided,
    shared by the reports of every lookup it serves (so nothing in it
    is mutable)."""

    #: The cheapest candidate's :class:`~repro.planner.ir.PhysicalPlan`
    #: (it owns the operator types, so it renders them).
    plan: object
    #: Its operators' cost vectors as priced by this ranking.
    vectors: tuple
    #: Every candidate priced: ``(label, estimated_s)``, cheapest first.
    candidates: tuple[tuple[str, float], ...] = ()
    #: ``(stamp, calibration version)`` read before the pricing.
    key: tuple = ()


class PlanReport:
    """The planner's verdict for one run: which physical plan executed
    and what it was predicted to cost — a view over the
    :class:`Ranking` that picked the plan.

    Attached to :class:`RunStats` for *every* run — fixed strategies
    get the trivial single-candidate report — so estimated-vs-actual
    cells (the ``auto`` cells of ``benchmarks/figures.json``) need
    nothing but the stats object. Nothing is copied out of the ranking,
    and nothing is priced or rendered until it is read: a fixed
    strategy's lookup after a store re-prices nothing, and its report
    is ranked when :attr:`plan`, :attr:`vectors`, :attr:`candidates` or
    an estimate is first read — so such a report first read after a
    later store is priced on the statistics current at that read.
    After the run the federation hands over its actuals with
    :meth:`finish`, and the per-operator
    :class:`~repro.obs.explain.PlanAnalysis` is built when
    :attr:`analysis` is first read (most runs' never are).
    """

    def __init__(self, strategy: str, ranking: object,
                 from_cache: bool = False, binding: object = None) -> None:
        #: The chosen plan's label, e.g. by-projection.
        self.strategy = strategy
        #: The :class:`Ranking` that picked the plan, or a callable making
        #: it when the report is first read.
        self.ranking = ranking
        #: False on the shape's first lookup and on the first after a store
        #: or repartition moved its stamp (that one only re-prices: no
        #: parser, decomposer or lowerer runs); True on every other lookup.
        self.from_cache = from_cache
        #: The :class:`~repro.xquery.prepared.Binding` of the text that was
        #: planned: the run reads its literals from it.
        self.binding = binding
        self._actuals: tuple | None = None
        self._analysis: PlanAnalysis | None = None

    @cached_property
    def _ranked(self) -> Ranking:
        ranking = self.ranking
        return ranking() if callable(ranking) else ranking

    plan = property(lambda self: self._ranked.plan,
                    doc="the plan the vectors price")
    vectors = property(lambda self: self._ranked.vectors,
                       doc="its operators' cost vectors")
    candidates = property(lambda self: self._ranked.candidates,
                          doc="every candidate priced, cheapest first")
    literals = property(lambda self: self.binding.literals,
                        doc="the values the text bound to its shape's slots")
    estimated_s = property(lambda self: self.total.total_s(self.plan.model),
                           doc="predicted simulated seconds")
    estimated_bytes = property(lambda self: int(self.total.wire_bytes),
                               doc="predicted wire bytes (Figure 7)")

    @cached_property
    def total(self):
        """The plan's cost vector: the sum of :attr:`vectors`."""
        from repro.net.estimate import CostVector  # it imports this module
        return CostVector.total_of(self.vectors)

    def finish(self, stats: RunStats, wall_s: float) -> None:
        """Hand over the finished run's actuals: its ``per_op`` entries
        and totals, read now, so the report holds no reference to the
        stats it is attached to."""
        self._actuals = (stats.per_op, stats.times.local_exec,
                         stats.times.total, stats.total_transferred_bytes,
                         wall_s)

    @property
    def analysis(self) -> PlanAnalysis | None:
        """Per-operator estimated-vs-actual rows (None before
        :meth:`finish`)."""
        if self._analysis is None and self._actuals is not None:
            from repro.obs.explain import PlanAnalysis, describe_lookup
            per_op, local_s, actual_s, actual_bytes, wall_s = self._actuals
            self._analysis = PlanAnalysis(
                label=self.strategy,
                rows=self.plan.analysis_rows(self.vectors, per_op, local_s),
                est_total_s=self.estimated_s,
                est_total_bytes=float(self.estimated_bytes),
                actual_total_s=actual_s,
                actual_total_bytes=actual_bytes,
                wall_s=wall_s,
                lookup=describe_lookup(self.from_cache, self.literals))
        return self._analysis

    def explain(self, analyze: bool = False) -> str:
        """The operator-level plan rendering; with ``analyze=True``,
        each operator's *actual* bytes/seconds/cardinality next to the
        estimator's prediction (falls back to the estimate-only text
        when no actuals were recorded)."""
        if analyze and self.analysis is not None:
            from repro.obs.explain import render_analysis
            return render_analysis(self.analysis)
        text = self.plan.explain(self.vectors, self.total)
        return text + "\n  (no actuals recorded)" if analyze else text

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "strategy": self.strategy,
            "estimated_s": self.estimated_s,
            "estimated_bytes": self.estimated_bytes,
            "from_cache": self.from_cache,
            "candidates": [list(entry) for entry in self.candidates],
        }
        if self.analysis is not None:
            out["analysis"] = self.analysis.as_dict()
        return out


def fold_entry(target: dict, key: object, entry: dict) -> None:
    """Fold ``entry`` into ``target[key]``: numbers add, a string (a
    shard's ``local_name``) keeps its first value. The one fold of
    ``per_shard`` and ``per_op`` entries."""
    existing = target.get(key)
    if existing is None:
        target[key] = dict(entry)
        return
    for name, value in entry.items():
        if isinstance(value, str):
            existing.setdefault(name, value)
        else:
            existing[name] = existing.get(name, 0) + value


class RunStats:
    """Byte and message accounting for one query execution."""

    __slots__ = ("document_bytes", "message_bytes", "messages", "rpc_calls",
                 "documents_shipped", "cache_hits", "cache_saved_bytes",
                 "times", "plan", "per_shard", "per_op", "scatters", "span",
                 "__weakref__")

    def __init__(self, document_bytes: int = 0, message_bytes: int = 0,
                 messages: int = 0, rpc_calls: int = 0,
                 documents_shipped: int = 0, cache_hits: int = 0,
                 cache_saved_bytes: int = 0,
                 times: TimeBreakdown | None = None,
                 plan: PlanReport | None = None,
                 per_shard: dict[str, dict] | None = None,
                 per_op: dict[object, dict] | None = None,
                 scatters: dict[str, int] | None = None,
                 span: object | None = None) -> None:
        self.document_bytes = document_bytes  # full documents shipped
        self.message_bytes = message_bytes  # SOAP request + response
        self.messages = messages  # network interactions (message count)
        self.rpc_calls = rpc_calls  # function applications (bulk counts >1)
        self.documents_shipped = documents_shipped
        # Round trips served from the runtime's shared result cache.
        self.cache_hits, self.cache_saved_bytes = cache_hits, cache_saved_bytes
        self.times = TimeBreakdown() if times is None else times
        #: The physical plan that produced this run (set by the federation
        #: for every execution; shard calls report under the run that
        #: scattered them).
        self.plan = plan
        #: One entry per shard (``"collection#sN"``), filed by the cluster
        #: router: ``shard`` (its ``local_name``), ``calls``, its share of
        #: its round trips' ``bytes`` / ``messages`` / ``sim_s`` /
        #: ``cache_hits`` (nested work included), and its own ``failovers``,
        #: ``skipped`` and ``failed`` counts. A scatter nested in a round
        #: trip is counted in both collections' entries, so only the
        #: outermost collection's shares can sum to the run's totals.
        self.per_shard = {} if per_shard is None else per_shard
        #: Per-operator actuals for explain-analyze: a call site's entry
        #: under its ``site_id``, a ship's under ``(owner, local_name)``
        #: (``bytes`` / ``calls`` / ``sim_s`` / ``wall_s`` / ``cache_hits``).
        self.per_op = {} if per_op is None else per_op
        #: Scatter fan-outs per collection.
        self.scatters = {} if scatters is None else scatters
        #: The trace span charges against these stats attribute to (bound
        #: by the run layer while tracing; never exported).
        self.span = span

    @property
    def total_transferred_bytes(self) -> int:
        """Figure 7's metric: documents + messages over the wire."""
        return self.document_bytes + self.message_bytes

    def _shard_total(self, name: str) -> int:
        return sum(entry.get(name, 0) for entry in self.per_shard.values())

    # The run's cluster totals: sums of its shard calls' entries.
    scatter_shards = property(lambda self: self._shard_total("calls"),
                              doc="shard calls, skipped ones included")
    shards_skipped = property(lambda self: self._shard_total("skipped"),
                              doc="shard calls proven empty by a probe")
    failovers = property(lambda self: self._shard_total("failovers"),
                         doc="replica switches after wire faults")
    #: Nothing retries in place (a failed round trip fails over), so
    #: always 0: the end-to-end ledger's worker reads it (ROADMAP item
    #: 9(a) removes it with that read).
    retries = 0

    def record_document_shipped(self, size: int) -> None:
        self.document_bytes += size
        self.documents_shipped += 1

    def record_message(self, size: int) -> None:
        self.message_bytes += size
        self.messages += 1

    def record_op(self, key: object, **actuals) -> None:
        """Add one operator's actuals to its ``per_op`` entry."""
        fold_entry(self.per_op, key, actuals)

    def charge(self, component: str, seconds: float,
               nbytes: int = 0) -> None:
        """Add simulated ``seconds`` to one :class:`TimeBreakdown`
        component (a ``COMPONENTS`` name of :mod:`repro.obs.trace`) and
        mirror the charge onto the bound trace span; ``nbytes`` is the
        wire traffic a network charge moved."""
        times = self.times
        setattr(times, component, getattr(times, component) + seconds)
        self.charge_span(component, seconds, nbytes)

    def charge_span(self, component: str, seconds: float,
                    nbytes: int = 0) -> None:
        """Mirror a simulated-time charge onto the bound trace span
        (no-op — one attribute check — when tracing is off)."""
        if self.span is not None:
            self.span.charge(component, seconds, nbytes)

    def summary(self) -> dict[str, object]:
        out: dict[str, object] = {
            "total_transferred_bytes": self.total_transferred_bytes,
            "document_bytes": self.document_bytes,
            "message_bytes": self.message_bytes,
            "messages": self.messages,
            "rpc_calls": self.rpc_calls,
            "documents_shipped": self.documents_shipped,
            "cache_hits": self.cache_hits,
            "cache_saved_bytes": self.cache_saved_bytes,
            "scatter_shards": self.scatter_shards,
            "shards_skipped": self.shards_skipped,
            "failovers": self.failovers,
            "total_time_s": self.times.total,
            "times": self.times.as_dict(),
            "plan": self.plan.as_dict() if self.plan is not None else None,
        }
        if self.per_shard:
            out["per_shard"] = {key: dict(entry)
                                for key, entry in
                                sorted(self.per_shard.items())}
        return out
