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
:class:`~repro.planner.feedback.CalibrationBook`'s current factors when
the planner ranks it (once per stamp and book version), so feedback
never re-lowers one;
the run's :class:`~repro.net.stats.PlanReport` keeps those vectors and
has the plan render them when it is read.

The run layer reads two things from a plan: each call site's wire
contract (:meth:`PhysicalPlan.call_site` — per-site message semantics
are what lets one mixed plan ship a tiny document while projecting a
big one) and the shared :class:`~repro.xquery.evaluator.Evaluator`
compiled for its module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.decompose import DecompositionResult, Strategy
from repro.net.costmodel import CostModel
from repro.net.estimate import CostVector
from repro.paths.relpath import compile_paths
from repro.planner.feedback import CalibrationBook
from repro.xquery.evaluator import Evaluator
from repro.xquery.prepared import PreparedTable

if TYPE_CHECKING:
    from repro.obs.explain import OpAnalysis


def _fmt_bytes(value: float) -> str:
    return f"{value / 1024:.1f}KB" if value >= 1024 else f"{value:.0f}B"


class LocalEval:
    """Evaluation at the originating peer (always present)."""

    __slots__ = ("at", "vector")

    def __init__(self, at: str, vector: CostVector | None = None) -> None:
        self.at = at
        self.vector = CostVector() if vector is None else vector

    def describe(self) -> str:
        return (f"local-eval at {self.at} "
                f"(~{self.vector.local_exec_s * 1e3:.2f}ms exec)")


class ShipDocument:
    """Data shipping: serialise ``owner/local_name`` and shred it at
    ``to`` (the originator, or a remote peer whose shipped body opens
    the document)."""

    __slots__ = ("owner", "local_name", "to", "document_bytes", "shards",
                 "vector")

    def __init__(self, owner: str, local_name: str, to: str,
                 document_bytes: int, shards: int = 0,
                 vector: CostVector | None = None) -> None:
        self.owner, self.local_name, self.to = owner, local_name, to
        self.document_bytes = document_bytes
        self.shards = shards  # >0 when owner is a sharded collection
        self.vector = CostVector() if vector is None else vector

    def describe(self) -> str:
        shards = f" x{self.shards} shards" if self.shards else ""
        return (f"ship-document {self.owner}/{self.local_name} -> "
                f"{self.to}{shards} (~{_fmt_bytes(self.document_bytes)})")


class XrpcCall:
    """One decomposed call site: an XRPC round trip to ``dest`` under
    ``semantics``, with ``calls`` function applications expected."""

    __slots__ = ("dest", "semantics", "site_id", "calls", "request_bytes",
                 "response_bytes", "vector")

    def __init__(self, dest: str, semantics: str, site_id: int,
                 calls: float = 1.0, request_bytes: float = 0.0,
                 response_bytes: float = 0.0,
                 vector: CostVector | None = None) -> None:
        self.dest, self.semantics = dest, semantics
        self.site_id = site_id  # id(xrpc.body): the run-layer key
        self.calls, self.request_bytes = calls, request_bytes
        self.response_bytes = response_bytes
        self.vector = CostVector() if vector is None else vector

    def describe(self) -> str:
        return (f"xrpc-call {self.semantics} -> {self.dest} "
                f"(~{self.calls:.0f} calls, req ~"
                f"{_fmt_bytes(self.request_bytes)}, resp ~"
                f"{_fmt_bytes(self.response_bytes)})")


class BulkBatch:
    """Bulk RPC: the wrapped site's per-binding calls coalesce into a
    single message pair (Section V)."""

    __slots__ = ("call",)

    def __init__(self, call: XrpcCall) -> None:
        self.call = call

    @property
    def vector(self) -> CostVector:
        return self.call.vector

    def describe(self) -> str:
        return f"bulk-batch [{self.call.describe()}]"


class ScatterGather:
    """The wrapped call site's destination is a sharded collection:
    one Bulk RPC per peer of the least cover of its shards (the
    router's :func:`~repro.cluster.router.shard_cover`), each carrying
    one call per (call × shard that peer serves)."""

    __slots__ = ("collection", "shards", "peers", "call")

    def __init__(self, collection: str, shards: int, peers: int,
                 call: XrpcCall) -> None:
        self.collection, self.shards, self.peers = collection, shards, peers
        self.call = call

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
    binds: the run layer renders it into a request head once per
    :class:`~repro.xquery.prepared.Binding` and static context, keyed
    by this site."""

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


class PhysicalPlan:
    """One executable candidate: a decomposition plus its priced ops,
    shared by every text of the prepared query's shape (a run reads
    its literals from its own :class:`~repro.xquery.prepared.Binding`,
    which the planner's report carries)."""

    __slots__ = ("label", "strategy", "decomposition", "origin", "ops",
                 "bulk_rpc", "site_semantics", "projection_specs", "model",
                 "calibration", "evaluator", "sites")

    def __init__(self, label: str, strategy: Strategy,
                 decomposition: DecompositionResult, origin: str,
                 ops: list | None = None, bulk_rpc: bool = True,
                 site_semantics: dict[int, str] | None = None,
                 projection_specs: dict[int, object] | None = None,
                 model: CostModel | None = None,
                 calibration: CalibrationBook | None = None,
                 evaluator: Evaluator | None = None) -> None:
        self.label, self.strategy = label, strategy
        self.decomposition, self.origin = decomposition, origin
        self.ops = [] if ops is None else ops
        self.bulk_rpc = bulk_rpc
        #: Per-site message semantics, keyed by ``id(xrpc.body)`` — the
        #: handle :class:`~repro.system.federation._Run` has on the wire.
        self.site_semantics = {} if site_semantics is None else site_semantics
        #: Projection specs keyed by ``id(xrpc.body)``, computed once
        #: during lowering (when some site uses by-projection) and reused
        #: by the run layer instead of re-analysing the module per run.
        self.projection_specs = {} if projection_specs is None else projection_specs
        self.model = CostModel() if model is None else model
        #: The live book: :meth:`priced` reads its current factors.
        self.calibration = CalibrationBook() if calibration is None else calibration
        #: For ``decomposition.module``; built when the candidate is lowered.
        self.evaluator = evaluator
        #: One :class:`CallSite` per function body asked about.
        self.sites = PreparedTable()

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

    def priced(self) -> tuple[CostVector, ...]:
        """Every operator's vector under the current factors: the one
        way a plan prices itself (by the planner, when it ranks; the
        reports of every lookup the ranking serves share the tuple)."""
        return tuple(priced(op, self.calibration, self.origin)
                     for op in self.ops)

    def explain(self, vectors: tuple[CostVector, ...],
                total: CostVector) -> str:
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

    def analysis_rows(self, vectors: tuple[CostVector, ...],
                      per_op: dict[object, dict],
                      local_s: float) -> tuple[OpAnalysis, ...]:
        """The explain-analyze rows: each operator's estimate in
        ``vectors`` next to the run's ``per_op`` entry for it (scatter
        shards record under their logical site, so a ScatterGather row
        sums its per-shard round trips; local evaluation is the run's
        ``local_s``)."""
        from repro.obs.explain import OpAnalysis
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
