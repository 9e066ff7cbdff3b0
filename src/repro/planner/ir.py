"""The physical-plan IR: typed operators the planner prices and the
execution layer consults.

A :class:`PhysicalPlan` is the lowered form of one
:class:`~repro.decompose.DecompositionResult`: every remote
interaction the rewritten module will perform becomes a typed operator
— :class:`XrpcCall` for a decomposed call site (wrapped in
:class:`BulkBatch` when Bulk RPC coalesces its per-binding calls, or
:class:`ScatterGather` when the destination is a sharded collection),
:class:`ShipDocument` for a ``doc()`` reference that data-ships, and
:class:`LocalEval` for the work left at the originator. Each operator
carries the :class:`~repro.net.estimate.CostVector` the estimator
predicted for it; the plan's total prices the candidate.

Operators are factor-free: a plan prices itself under the
:class:`~repro.planner.feedback.CalibrationBook`'s current factors once
per lookup, when the planner ranks it, so feedback never re-lowers one;
the run's :class:`~repro.net.stats.PlanReport` keeps those vectors and
has the plan render them when it is read.

The run layer reads two things from a plan: each call site's wire
contract (:meth:`PhysicalPlan.call_site` — per-site message semantics
are what lets one mixed plan ship a tiny document while projecting a
big one) and the shared :class:`~repro.xquery.evaluator.Evaluator`
compiled for its module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.decompose import DecompositionResult, Strategy
from repro.net.costmodel import CostModel
from repro.net.estimate import CostVector
from repro.obs.explain import OpAnalysis
from repro.paths.relpath import compile_paths
from repro.planner.feedback import CalibrationBook
from repro.xquery.evaluator import Evaluator
from repro.xquery.prepared import PreparedTable


def _fmt_bytes(value: float) -> str:
    return f"{value / 1024:.1f}KB" if value >= 1024 else f"{value:.0f}B"


@dataclass
class LocalEval:
    """Evaluation at the originating peer (always present)."""

    at: str
    vector: CostVector = field(default_factory=CostVector)

    def describe(self) -> str:
        return (f"local-eval at {self.at} "
                f"(~{self.vector.local_exec_s * 1e3:.2f}ms exec)")


@dataclass
class ShipDocument:
    """Data shipping: serialise ``owner/local_name`` and shred it at
    ``to`` (the originator, or a remote peer whose shipped body opens
    the document)."""

    owner: str
    local_name: str
    to: str
    document_bytes: int
    shards: int = 0                 # >0 when owner is a sharded collection
    vector: CostVector = field(default_factory=CostVector)

    def describe(self) -> str:
        shards = f" x{self.shards} shards" if self.shards else ""
        return (f"ship-document {self.owner}/{self.local_name} -> "
                f"{self.to}{shards} (~{_fmt_bytes(self.document_bytes)})")


@dataclass
class XrpcCall:
    """One decomposed call site: an XRPC round trip to ``dest`` under
    ``semantics``, with ``calls`` function applications expected."""

    dest: str
    semantics: str
    site_id: int                    # id(xrpc.body): the run-layer key
    calls: float = 1.0
    request_bytes: float = 0.0
    response_bytes: float = 0.0
    vector: CostVector = field(default_factory=CostVector)

    def describe(self) -> str:
        return (f"xrpc-call {self.semantics} -> {self.dest} "
                f"(~{self.calls:.0f} calls, req ~"
                f"{_fmt_bytes(self.request_bytes)}, resp ~"
                f"{_fmt_bytes(self.response_bytes)})")


@dataclass
class BulkBatch:
    """Bulk RPC: the wrapped site's per-binding calls coalesce into a
    single message pair (Section V)."""

    call: XrpcCall

    @property
    def vector(self) -> CostVector:
        return self.call.vector

    def describe(self) -> str:
        return f"bulk-batch [{self.call.describe()}]"


@dataclass
class ScatterGather:
    """The wrapped call site's destination is a sharded collection:
    one Bulk RPC per peer of the least cover of its shards (the
    router's :func:`~repro.cluster.router.shard_cover`), each carrying
    one call per (call × shard that peer serves)."""

    collection: str
    shards: int
    peers: int
    call: XrpcCall

    @property
    def vector(self) -> CostVector:
        return self.call.vector

    def describe(self) -> str:
        return (f"scatter-gather {self.collection} x{self.shards} shards "
                f"on {self.peers} peers [{self.call.describe()}]")


class CallSite:
    """One call site's wire contract: message semantics, the projection
    paths a by-projection message carries and the logical site the
    plan priced. Resolved once, for the body the plan knows, and handed
    on explicitly — a scatter's shard-local rewrites of that body are
    new objects, so nothing may look the contract up by their
    identity. The paths are relative to parameters and result, hence
    valid for every rewrite unchanged; each parameter's are compiled
    into one prefix trie when the site is built. The site holds its
    body, so the address it is keyed by cannot be reused while it
    lives. The body's shipped text depends on the literals a run
    binds: the run layer renders it once per
    :class:`~repro.xquery.prepared.Binding`, keyed by this site."""

    __slots__ = ("semantics", "body", "site_id",
                 "param_paths", "used_paths", "returned_paths")

    def __init__(self, semantics: str, spec, body):
        self.semantics = semantics
        self.body = body
        self.site_id = id(body)      # id(xrpc.body): the explain key
        self.param_paths = self.used_paths = self.returned_paths = None
        if semantics == "by-projection" and spec is not None:
            self.param_paths = {
                name: compile_paths(sets.used, sets.returned)
                for name, sets in spec.param_paths.items()}
            self.used_paths = sorted(
                str(p) for p in spec.result_paths.used)
            self.returned_paths = sorted(
                str(p) for p in spec.result_paths.returned)


def priced(op, book: CalibrationBook, origin: str) -> CostVector:
    """``op``'s factor-free estimate under ``book``'s current factors
    (message counts and queueing are never calibrated; the byte
    figures ``describe`` prints stay the raw ones)."""
    exec_s = book.factor("exec", origin)
    documents = messages = 1.0
    if isinstance(op, ShipDocument):
        documents = book.factor("doc", op.owner)
    elif not isinstance(op, LocalEval):
        call = op if isinstance(op, XrpcCall) else op.call
        messages = book.factor("msg", call.dest, call.semantics)
    raw = op.vector
    return CostVector(raw.document_bytes * documents,
                      raw.message_bytes * messages, raw.messages,
                      raw.local_exec_s * exec_s, raw.remote_exec_s * exec_s,
                      raw.queue_s)


@dataclass
class PhysicalPlan:
    """One executable candidate: a decomposition plus its priced ops,
    shared by every text of the prepared query's shape (a run reads
    its literals from its own :class:`~repro.xquery.prepared.Binding`,
    which the planner's report carries)."""

    label: str
    strategy: Strategy
    decomposition: DecompositionResult
    origin: str
    ops: list = field(default_factory=list)
    bulk_rpc: bool = True
    #: Per-site message semantics, keyed by ``id(xrpc.body)`` — the
    #: handle :class:`~repro.system.federation._Run` has on the wire.
    site_semantics: dict[int, str] = field(default_factory=dict)
    #: Projection specs keyed by ``id(xrpc.body)``, computed once
    #: during lowering (when some site uses by-projection) and reused
    #: by the run layer instead of re-analysing the module per run.
    projection_specs: dict[int, object] = field(default_factory=dict)
    model: CostModel = field(default_factory=CostModel)
    #: The live book: :meth:`priced` reads its current factors.
    calibration: CalibrationBook = field(default_factory=CalibrationBook)
    #: For ``decomposition.module``; built when the candidate is lowered.
    evaluator: Evaluator | None = None
    #: One :class:`CallSite` per function body asked about.
    sites: PreparedTable = field(default_factory=PreparedTable,
                                 init=False, repr=False)

    @property
    def default_semantics(self) -> str:
        return self.strategy.semantics

    def semantics_for(self, site_id: int) -> str:
        return self.site_semantics.get(site_id, self.default_semantics)

    def call_site(self, body) -> CallSite:
        """The contract of the call site whose function body is
        ``body``, built when the plan is first asked about that body.
        A body the plan does not own (a peer's parse of a shipped body,
        re-entering through a nested ``execute at``) gets the plan's
        default semantics and no projection."""
        return self.sites.intern(id(body), lambda: CallSite(
            self.semantics_for(id(body)),
            self.projection_specs.get(id(body)), body))

    def priced(self) -> list[CostVector]:
        """Every operator's vector under the current factors: the one
        way a plan prices itself (once per lookup, by the planner)."""
        return [priced(op, self.calibration, self.origin)
                for op in self.ops]

    def explain(self, vectors: list[CostVector], total: CostVector) -> str:
        """Operator-level rendering of this plan as priced by
        ``vectors`` (which sum to ``total``): a report's ``explain()``."""
        lines = [
            f"plan {self.label}: est {total.total_s(self.model) * 1e3:.2f}"
            f"ms, ~{_fmt_bytes(total.wire_bytes)} on the wire"
        ]
        for index, (op, vector) in enumerate(zip(self.ops, vectors),
                                             start=1):
            lines.append(f"  {index}. {op.describe()} "
                         f"[est {vector.total_s(self.model) * 1e3:.2f}ms]")
        return "\n".join(lines)

    def analysis_rows(self, vectors: list[CostVector],
                      per_op: dict[object, dict],
                      local_s: float) -> tuple[OpAnalysis, ...]:
        """The explain-analyze rows: each operator's estimate in
        ``vectors`` next to the run's ``per_op`` entry for it (scatter
        shards record under their logical site, so a ScatterGather row
        sums its per-shard round trips; local evaluation is the run's
        ``local_s``)."""
        rows: list[OpAnalysis] = []
        for op, vector in zip(self.ops, vectors):
            est_s = vector.total_s(self.model)
            est_bytes = vector.wire_bytes
            if isinstance(op, LocalEval):
                actual = {"sim_s": local_s}
                est_calls = 0.0
            elif isinstance(op, ShipDocument):
                actual = per_op.get((op.owner, op.local_name))
                est_calls = float(op.shards or 1)
            else:  # XrpcCall, possibly wrapped in BulkBatch/ScatterGather
                call = op if isinstance(op, XrpcCall) else op.call
                actual = per_op.get(call.site_id)
                est_calls = call.calls
            if actual is None:
                rows.append(OpAnalysis(describe=op.describe(), est_s=est_s,
                                       est_bytes=est_bytes,
                                       est_calls=est_calls))
            else:
                rows.append(OpAnalysis(
                    describe=op.describe(), est_s=est_s,
                    est_bytes=est_bytes, est_calls=est_calls,
                    actual_s=actual["sim_s"],
                    actual_bytes=actual.get("bytes", 0),
                    actual_calls=actual.get("calls", 0),
                    actual_wall_s=actual.get("wall_s", 0.0),
                    cache_hits=actual.get("cache_hits", 0)))
        return tuple(rows)
