"""Run statistics: the measurements behind Figures 7-9.

:class:`RunStats` accumulates bytes and simulated time per category
during one federated query execution. ``total_transferred_bytes`` is
Figure 7's y-axis ("total size of XML documents plus total size of XML
messages transferred among peers"); :class:`TimeBreakdown` is the
five-component stack of Figure 8.

A run's ``RunStats`` is the only place its numbers are counted. Each
shard call files one ``per_shard`` entry (bytes, messages, retries,
failovers, skips, the shard's ``local_name``) and the run-level cluster
totals are sums over those entries; each plan operator's actuals (a
call site by ``site_id``, a ship by ``(owner, local_name)``) are
``per_op`` entries, which explain-analyze reads. Both dictionaries are
folded by one function, :func:`fold_entry`. Everything counted across
queries — the registry's ``scatter_*`` / ``query_*`` series — is
folded from a finished run at the end of ``Federation.run``.

Observability hooks: a run traced via ``Federation.run(trace=True)``
binds the active :class:`~repro.obs.trace.Span` to ``RunStats.span``,
and :meth:`RunStats.charge` — the one way simulated time enters
:attr:`times` — charges the same amount into that span, so the trace's
component leaves sum to these totals by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from repro.obs.explain import PlanAnalysis, render_analysis


@dataclass
class TimeBreakdown:
    """Simulated seconds per category (Figure 8's stack)."""

    shred: float = 0.0
    local_exec: float = 0.0
    serialize: float = 0.0   # "(de)serialize" in the paper
    remote_exec: float = 0.0
    network: float = 0.0

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

    def components(self) -> dict[str, float]:
        """The same numbers keyed by the span-component names used by
        :mod:`repro.obs.trace` (``Span.component_totals()`` parity)."""
        return {
            "shred": self.shred,
            "local_exec": self.local_exec,
            "serialize": self.serialize,
            "remote_exec": self.remote_exec,
            "network": self.network,
        }


@dataclass
class PlanReport:
    """The planner's verdict for one run: which physical plan executed
    and what it was predicted to cost.

    Attached to :class:`RunStats` for *every* run — fixed strategies
    get the trivial single-candidate report — so estimated-vs-actual
    cells (the ``auto`` cells of ``benchmarks/figures.json``) need
    nothing but the stats object.
    After execution the federation attaches what builds the
    per-operator :class:`~repro.obs.explain.PlanAnalysis`; the rows are
    built when :attr:`analysis` is first read (most runs' never are),
    and :meth:`explain` with ``analyze=True`` renders them.
    """

    strategy: str                 # chosen plan label, e.g. "by-projection"
    estimated_s: float = 0.0      # predicted simulated seconds
    estimated_bytes: int = 0      # predicted wire bytes (Figure 7 metric)
    #: The lookup ran no parser, no ``prepare``/``realize`` and no
    #: structural lowering (pricing a shape for literals seen for the
    #: first time still counts: the shape was prepared).
    from_cache: bool = False
    #: The values the text bound to its prepared shape's slots.
    literals: tuple = ()
    #: Every candidate the planner priced: ``(label, estimated_s)``,
    #: cheapest first. Fixed-strategy runs carry just their own entry.
    candidates: tuple[tuple[str, float], ...] = ()
    explain_text: str = ""        # operator-level plan rendering
    #: Builds the per-operator estimated-vs-actual rows from what the
    #: run recorded; set by the federation after the run (a report is
    #: built per run and belongs to it).
    analyzer: Callable[[], PlanAnalysis] | None = field(
        default=None, repr=False, compare=False)

    @cached_property
    def analysis(self) -> PlanAnalysis | None:
        """Per-operator estimated-vs-actual rows (None before the run)."""
        return self.analyzer() if self.analyzer is not None else None

    def explain(self, analyze: bool = False) -> str:
        """The operator-level plan rendering; with ``analyze=True``,
        each operator's *actual* bytes/seconds/cardinality next to the
        estimator's prediction (falls back to the estimate-only text
        when no actuals were recorded)."""
        if analyze and self.analysis is not None:
            return render_analysis(self.analysis)
        if analyze:
            return self.explain_text + "\n  (no actuals recorded)"
        return self.explain_text

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
    shard's ``local_name``) keeps its first value. The one merge of
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


@dataclass
class RunStats:
    """Byte and message accounting for one query execution."""

    document_bytes: int = 0      # full documents shipped (data shipping)
    message_bytes: int = 0       # SOAP request + response messages
    messages: int = 0            # network interactions (message count)
    rpc_calls: int = 0           # function applications (bulk counts >1)
    documents_shipped: int = 0
    cache_hits: int = 0          # round trips / shipments served from
    cache_saved_bytes: int = 0   # the runtime's shared result cache
    times: TimeBreakdown = field(default_factory=TimeBreakdown)
    #: The physical plan that produced this run (set by the federation
    #: for every execution; ``merge`` keeps the receiver's — shard
    #: calls report under the run that scattered them).
    plan: PlanReport | None = None
    #: One entry per shard (``"collection#sN"``), filed by the cluster
    #: router per shard call: ``shard`` (its ``local_name``), ``calls``,
    #: ``bytes`` / ``messages`` / ``sim_s`` / ``cache_hits`` (inclusive
    #: of nested work), and the call's own ``failovers``, ``retries``,
    #: ``skipped``, ``partial`` and ``failed`` counts.
    per_shard: dict[str, dict] = field(default_factory=dict)
    #: Per-operator actuals for explain-analyze: a call site's entry
    #: under its ``site_id``, a ship's under ``(owner, local_name)``
    #: (``bytes`` / ``calls`` / ``sim_s`` / ``wall_s`` / ``cache_hits``).
    per_op: dict[object, dict] = field(default_factory=dict)
    #: Scatter fan-outs per collection.
    scatters: dict[str, int] = field(default_factory=dict)
    #: The trace span charges against these stats attribute to (bound
    #: by the run layer while tracing; never merged, never exported).
    span: object | None = field(default=None, repr=False, compare=False)

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
    retries = property(lambda self: self._shard_total("retries"),
                       doc="same-replica retries of transient faults")
    partial_shards = property(lambda self: self._shard_total("partial"),
                              doc="shards absent under partial=allow")

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

    def merge(self, other: "RunStats") -> None:
        """Fold another accounting into this one (the cluster router
        gives each scattered shard call a private RunStats and merges
        them in shard order, keeping totals deterministic under
        concurrency). The receiver keeps its own ``plan`` and ``span``;
        ``per_shard`` and ``per_op`` entries fold by key."""
        self.document_bytes += other.document_bytes
        self.message_bytes += other.message_bytes
        self.messages += other.messages
        self.rpc_calls += other.rpc_calls
        self.documents_shipped += other.documents_shipped
        self.cache_hits += other.cache_hits
        self.cache_saved_bytes += other.cache_saved_bytes
        self.times.shred += other.times.shred
        self.times.local_exec += other.times.local_exec
        self.times.serialize += other.times.serialize
        self.times.remote_exec += other.times.remote_exec
        self.times.network += other.times.network
        for key, entry in other.per_shard.items():
            fold_entry(self.per_shard, key, entry)
        for key, entry in other.per_op.items():
            fold_entry(self.per_op, key, entry)
        for collection, count in other.scatters.items():
            self.scatters[collection] = self.scatters.get(collection, 0) + count

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
            "retries": self.retries,
            "partial_shards": self.partial_shards,
            "total_time_s": self.times.total,
            "times": self.times.as_dict(),
            "plan": self.plan.as_dict() if self.plan is not None else None,
        }
        if self.per_shard:
            out["per_shard"] = {key: dict(entry)
                                for key, entry in
                                sorted(self.per_shard.items())}
        return out
