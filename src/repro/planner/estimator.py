"""Lowering a decomposition into a priced :class:`PhysicalPlan`.

Lowering has a structural half, done once per plan shape (call-site
contracts, projection specs), and a pricing pass, done once per shape
and statistics stamp (:meth:`PlanEstimator.lower`, and
:meth:`PlanEstimator.reprice` when a store moved the stamp). A text's
literals take no part: a comparison against a slot prices the same
whatever value the text binds, so a shape has one price. The pricing
pass walks the rewritten module once, doing two jobs at the same
altitude the evaluator will work at:

* **volume estimation** — an abstract interpretation where the value
  of an expression is a ``(items, bytes)`` volume, resolved against
  the :class:`~repro.planner.stats.StatsCatalog` tag histograms when a
  path is rooted in a known document (so ``person`` counts and subtree
  bytes are real numbers, not guesses) and falling back to damped
  defaults when not;
* **operator emission** — every ``execute at`` becomes an
  :class:`~repro.planner.ir.XrpcCall` (wrapped in ``BulkBatch`` /
  ``ScatterGather`` as applicable) and every data-shipped ``doc()``
  reference a :class:`~repro.planner.ir.ShipDocument`, each priced
  into a :class:`~repro.net.estimate.CostVector` with the same cost
  model arithmetic the transport charges at run time.

Unknowable quantities (predicate selectivity, projection compression)
are calibrated defaults. Lowering is factor-free: the per-peer
:class:`~repro.planner.feedback.CalibrationBook` corrections are final
multiplications, applied by :func:`~repro.planner.ir.priced`.
"""

from __future__ import annotations

from copy import copy
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from repro.decompose import DecompositionResult
from repro.decompose.points import split_xrpc_uri
from repro.paths.analysis import (
    ATOMIZES_NODES, OPENS_DOCUMENTS, PASSES_NODES, PSEUDO_STEPS, PathSets,
    analyze_module,
)
from repro.planner.feedback import CalibrationBook
from repro.planner.ir import (
    BulkBatch, LocalEval, PhysicalPlan, ScatterGather, ShipDocument,
    XrpcCall,
)
from repro.planner.stats import DocumentStats, StatsCatalog
from repro.xquery.ast import (
    ArithmeticExpr, ComparisonExpr, ConstructorExpr, ContextItemExpr,
    EmptySequence, Expr, ForExpr, FunCall, IfExpr, LetExpr, Literal,
    LiteralSlot, LogicalExpr, NodeSetExpr, OrderByExpr, PathExpr,
    QuantifiedExpr, RangeExpr, SequenceExpr, TypeswitchExpr, UnaryExpr,
    VarRef, XRPCExpr, walk,
)
from repro.xquery.functions import builtins_in

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.system.federation import Federation


# -- calibrated defaults -----------------------------------------------------

#: SOAP envelope + header bytes per request / response message.
REQUEST_ENVELOPE_BYTES = 430.0
RESPONSE_ENVELOPE_BYTES = 260.0
#: Marshalling wrapper per sequence item in a message payload.
PER_ITEM_OVERHEAD_BYTES = 25.0
#: A by-fragment/by-projection call references fragments per call.
FRAGMENT_REF_BYTES = 20.0
#: One serialised projection path in a request header.
PATH_OVERHEAD_BYTES = 30.0
#: Selectivity of one step predicate / conditional filter, whatever it
#: compares: the one selectivity there is.
FILTER_SELECTIVITY = 0.5
#: Fraction of a subtree's bytes that survive atomisation.
TEXT_FRACTION = 0.35
#: Byte shrink per path step when the document has no statistics.
STEP_BYTES_FACTOR = 0.6
#: Response/request compression from runtime projection when the
#: projection paths give nothing sharper.
PROJECTION_FACTOR = 0.35
#: Bytes assumed for a document we have no statistics for.
DEFAULT_DOC_BYTES = 4096.0
#: Evaluator work per element touched (ticks / axis visits),
#: calibrated against the compiled set-at-a-time engine (index probes
#: and joins tick far less than the per-node walker they
#: replaced).
EXEC_TICKS_PER_ELEMENT = 0.05
EXEC_VISITS_PER_ELEMENT = 0.25


class _Vol(NamedTuple):
    """Abstract value: an estimated sequence volume."""

    items: float = 0.0
    bytes: float = 0.0
    stats: DocumentStats | None = None   # source document, when known
    tag: str | None = None               # element name of the items

    def scaled(self, factor: float) -> "_Vol":
        return _Vol(self.items * factor, self.bytes * factor,
                    self.stats, self.tag)

    def per_item(self) -> "_Vol":
        if self.items <= 1.0:
            return self
        return _Vol(1.0, self.bytes / self.items, self.stats, self.tag)


_EMPTY = _Vol()
_BOOLEAN = _Vol(items=1.0, bytes=8.0)
#: A literal slot by its kind: one atom, whatever value a text binds.
_SLOT = {"integer": _Vol(items=1.0, bytes=8.0),
         "double": _Vol(items=1.0, bytes=8.0),
         "string": _Vol(items=1.0, bytes=16.0)}
#: A call of these answers one small atom; ``root()`` reaches the
#: whole document of its argument (classes of the built-in registry).
_ONE_ATOM = builtins_in("atom")
_ROOTS = builtins_in("root")


def _combine(volumes: list[_Vol]) -> _Vol:
    # Plain + in order, not sum(): 3.12's sum() compensates float
    # rounding, and an estimate must not depend on the interpreter.
    items = total = 0
    for volume in volumes:
        items += volume.items
        total += volume.bytes
    stats = next((v.stats for v in volumes if v.stats is not None), None)
    tags = {v.tag for v in volumes if v.tag is not None}
    tag = tags.pop() if len(tags) == 1 else None
    return _Vol(items=items, bytes=total, stats=stats, tag=tag)


class PlanEstimator:
    """Lower decompositions into priced physical plans."""

    def __init__(self, federation: "Federation",
                 stats_catalog: StatsCatalog,
                 calibration: CalibrationBook):
        self.federation = federation
        self.stats = stats_catalog
        self.calibration = calibration
        self.model = federation.cost_model

    def lower(self, decomposition: DecompositionResult, origin: str,
              bulk_rpc: bool = True, label: str | None = None
              ) -> PhysicalPlan:
        """Lower one decomposition into a plan — what its shape fixes:
        the call-site contracts and projection specs — priced against
        the statistics as they are now."""
        module = decomposition.module
        exprs = [node for decl in module.functions
                 for node in walk(decl.body)] + list(walk(module.body))
        plan = PhysicalPlan(
            label=label or decomposition.strategy.value,
            strategy=decomposition.strategy,
            decomposition=decomposition,
            origin=origin,
            model=self.model,
            calibration=self.calibration,
            bulk_rpc=bulk_rpc,
        )
        # Projection path analysis is only paid when a site will use it
        # (the engine's by-value/by-fragment hot paths skip it); the
        # body-keyed specs are what the pricing pass and the run layer
        # consume, so the analysis happens once per plan.
        calls = [node for node in exprs if isinstance(node, XRPCExpr)]
        if decomposition.strategy.uses_projection and calls:
            specs = analyze_module(module)
            plan.projection_specs.update(
                (id(node.body), specs[id(node)])
                for node in calls if id(node) in specs)
        plan.site_semantics.update(
            (id(node.body), plan.default_semantics) for node in calls)
        plan.ops = _Estimation(self, plan).run()
        return plan

    def reprice(self, plan: PhysicalPlan) -> PhysicalPlan:
        """``plan`` priced against the statistics as they are now (a
        store moved them): new operators, the rest shared. ``plan``
        itself is left as it is for the runs that picked it."""
        repriced = copy(plan)
        repriced.ops = _Estimation(self, repriced).run()
        return repriced

    # -- shared pricing helpers ---------------------------------------------

    def exec_seconds(self, elements: float) -> float:
        return elements * (EXEC_TICKS_PER_ELEMENT * self.model.tick_s
                           + EXEC_VISITS_PER_ELEMENT
                           * self.model.node_visit_s)

    def projection_factor(self, paths: PathSets | None) -> float:
        """How much of a fragment survives runtime projection."""
        if paths is None or (not paths.used and not paths.returned):
            return 1.0
        if any(not path.steps for path in paths.returned):
            return 1.0          # the whole context node is returned
        if not paths.returned:
            return PROJECTION_FACTOR * 0.5   # only used nodes survive
        return PROJECTION_FACTOR

    def scatter_queue_seconds(self, replica_peers: tuple[str, ...]
                              ) -> float:
        """Queueing pressure from live replica load on the federation's
        wire: scattering onto busy replicas waits behind their
        in-flight exchanges."""
        if not replica_peers:
            return 0.0
        peer_load = self.federation.transport.peer_load
        in_flight = sum(peer_load(peer)[0] for peer in replica_peers)
        return (in_flight / len(replica_peers)) * self.model.latency_s


class _Estimation:
    """One pricing pass over a lowered plan's module: volume
    interpretation + operator emission."""

    def __init__(self, estimator: PlanEstimator, plan: PhysicalPlan):
        self.estimator = estimator
        self.federation = estimator.federation
        self.plan = plan
        self.module = plan.decomposition.module
        self.origin = plan.origin
        self.ops: list = []
        self._shipped: set[tuple[str, str, str]] = set()
        #: Elements touched per execution host (exec estimation).
        self._touched: dict[str, float] = {}
        self._inlining: list[tuple[str, int]] = []

    def run(self) -> list:
        result = self.visit(self.module.body, {}, self.origin, 1.0)
        local = LocalEval(at=self.origin)
        local.vector.local_exec_s = self.estimator.exec_seconds(
            self._touched.get(self.origin, 0.0) + result.items * 2.0)
        self.ops.insert(0, local)
        return self.ops

    # -- abstract interpretation --------------------------------------------

    def visit(self, expr: Expr, env: dict[str, _Vol], host: str,
              multiplicity: float) -> _Vol:
        # The leaves and paths first: they are most of any module.
        if isinstance(expr, VarRef):
            return env.get(expr.name, _EMPTY)
        if isinstance(expr, PathExpr):
            return self._visit_path(expr, env, host, multiplicity)
        if isinstance(expr, Literal):
            return _Vol(items=1.0, bytes=float(len(str(expr.value))))
        if isinstance(expr, LiteralSlot):
            return _SLOT[expr.kind]
        if isinstance(expr, EmptySequence):
            return _EMPTY
        if isinstance(expr, ContextItemExpr):
            return env.get(".", _EMPTY)
        if isinstance(expr, SequenceExpr):
            return _combine([self.visit(item, env, host, multiplicity)
                             for item in expr.items])
        if isinstance(expr, LetExpr):
            value = self.visit(expr.value, env, host, multiplicity)
            return self.visit(expr.body, {**env, expr.var: value},
                              host, multiplicity)
        if isinstance(expr, ForExpr):
            seq = self.visit(expr.seq, env, host, multiplicity)
            iterations = max(seq.items, 1.0)
            body_env = {**env, expr.var: seq.per_item()}
            if expr.pos_var is not None:
                body_env[expr.pos_var] = _BOOLEAN
            body = self.visit(expr.body, body_env, host,
                              multiplicity * iterations)
            return body.scaled(iterations)
        if isinstance(expr, IfExpr):
            self.visit(expr.cond, env, host, multiplicity)
            selectivity = FILTER_SELECTIVITY
            then = self.visit(expr.then_branch, env, host,
                              multiplicity * selectivity)
            other = self.visit(expr.else_branch, env, host,
                               multiplicity * (1 - selectivity))
            return _combine([then.scaled(selectivity),
                             other.scaled(1 - selectivity)])
        if isinstance(expr, QuantifiedExpr):
            seq = self.visit(expr.seq, env, host, multiplicity)
            self.visit(expr.cond, {**env, expr.var: seq.per_item()},
                       host, multiplicity * max(seq.items, 1.0))
            return _BOOLEAN
        if isinstance(expr, OrderByExpr):
            seq = self.visit(expr.seq, env, host, multiplicity)
            inner = {**env, expr.var: seq.per_item()}
            for spec in expr.specs:
                self.visit(spec.key, inner, host,
                           multiplicity * max(seq.items, 1.0))
            body = self.visit(expr.body, inner, host,
                              multiplicity * max(seq.items, 1.0))
            return body.scaled(max(seq.items, 1.0))
        if isinstance(expr, TypeswitchExpr):
            operand = self.visit(expr.operand, env, host, multiplicity)
            branches = []
            for case in expr.cases:
                case_env = ({**env, case.var: operand}
                            if case.var else env)
                branches.append(self.visit(case.body, case_env, host,
                                           multiplicity))
            default_env = ({**env, expr.default_var: operand}
                           if expr.default_var else env)
            branches.append(self.visit(expr.default_body, default_env,
                                       host, multiplicity))
            share = 1.0 / len(branches)
            return _combine([b.scaled(share) for b in branches])
        if isinstance(expr, (ComparisonExpr, ArithmeticExpr, LogicalExpr)):
            self.visit(expr.left, env, host, multiplicity)
            self.visit(expr.right, env, host, multiplicity)
            return _BOOLEAN
        if isinstance(expr, UnaryExpr):
            self.visit(expr.operand, env, host, multiplicity)
            return _BOOLEAN
        if isinstance(expr, RangeExpr):
            self.visit(expr.start, env, host, multiplicity)
            self.visit(expr.end, env, host, multiplicity)
            return _Vol(items=8.0, bytes=24.0)
        if isinstance(expr, NodeSetExpr):
            return _combine([self.visit(expr.left, env, host, multiplicity),
                             self.visit(expr.right, env, host,
                                        multiplicity)])
        if isinstance(expr, ConstructorExpr):
            if expr.name_expr is not None:
                self.visit(expr.name_expr, env, host, multiplicity)
            content = _combine([self.visit(part, env, host, multiplicity)
                                for part in expr.content])
            overhead = 2.0 * len(expr.name or "e") + 5.0
            return _Vol(items=1.0, bytes=content.bytes + overhead)
        if isinstance(expr, FunCall):
            return self._visit_funcall(expr, env, host, multiplicity)
        if isinstance(expr, XRPCExpr):
            return self._visit_xrpc(expr, env, host, multiplicity)
        # Unknown expression kind: recurse generically.
        return _combine([self.visit(child, env, host, multiplicity)
                         for child in expr.child_exprs()])

    # -- paths --------------------------------------------------------------

    def _visit_path(self, expr: PathExpr, env: dict[str, _Vol], host: str,
                    multiplicity: float) -> _Vol:
        current = self.visit(expr.input, env, host, multiplicity)
        for step in expr.steps:
            current = self._apply_step(current, step.axis, step.test)
            for predicate in step.predicates:
                self.visit(predicate, {**env, ".": current.per_item()},
                           host, multiplicity * max(current.items, 1.0))
                current = current.scaled(FILTER_SELECTIVITY)
        return current

    def _apply_step(self, current: _Vol, axis: str, test: str) -> _Vol:
        stats = current.stats
        if stats is None:
            if axis == "attribute":
                return _Vol(items=current.items,
                            bytes=current.items * 8.0)
            if test == "text()":
                return _Vol(items=current.items,
                            bytes=current.bytes * TEXT_FRACTION)
            return _Vol(items=current.items,
                        bytes=current.bytes * STEP_BYTES_FACTOR)
        # Scale the whole-document histogram by how much of the source
        # tag's population the incoming sequence still covers.
        fraction = 1.0
        if current.tag is not None:
            source = stats.tag(current.tag)
            if source is not None and source.count > 0:
                fraction = min(current.items / source.count, 1.0)
        if axis == "attribute":
            key = "@" + test if test not in ("node()", "*") else None
            if key is not None:
                stat = stats.tag(key)
                if stat is None:
                    return _Vol(stats=stats)
                return _Vol(items=stat.count * fraction,
                            bytes=stat.subtree_bytes * fraction
                            + stat.count * fraction * 4.0,
                            stats=stats, tag=key)
            return _Vol(items=current.items * 2.0,
                        bytes=current.items * 16.0, stats=stats)
        if test == "text()":
            stat = stats.tag("#text")
            if stat is None:
                return _Vol(stats=stats)
            return _Vol(items=stat.count * fraction,
                        bytes=stat.subtree_bytes * fraction, stats=stats)
        if test in ("node()", "*"):
            return _Vol(items=stats.elements * fraction,
                        bytes=current.bytes, stats=stats)
        if axis in ("parent", "ancestor", "ancestor-or-self", "root()"):
            return _Vol(items=current.items,
                        bytes=stats.serialized_bytes * fraction,
                        stats=stats)
        stat = stats.tag(test)
        if stat is None:
            return _Vol(stats=stats)
        return _Vol(items=stat.count * fraction,
                    bytes=stat.subtree_bytes * fraction,
                    stats=stats, tag=test)

    # -- function calls -----------------------------------------------------

    def _visit_funcall(self, expr: FunCall, env: dict[str, _Vol],
                       host: str, multiplicity: float) -> _Vol:
        name, arity = expr.name, len(expr.args)
        decl = self.module.function(name, arity)
        if decl is not None and (name, arity) not in self._inlining:
            args = [self.visit(arg, env, host, multiplicity)
                    for arg in expr.args]
            body_env = {param.name: volume
                        for param, volume in zip(decl.params, args)}
            self._inlining.append((name, arity))
            try:
                return self.visit(decl.body, body_env, host, multiplicity)
            finally:
                self._inlining.pop()

        if name in OPENS_DOCUMENTS:
            return self._visit_doc(expr, env, host, multiplicity)
        if (name, arity) in PSEUDO_STEPS:
            for arg in expr.args[:-1]:
                self.visit(arg, env, host, multiplicity)
            inner = self.visit(expr.args[-1], env, host, multiplicity)
            if name in _ROOTS:
                return inner if inner.stats is None else _Vol(
                    items=inner.items, bytes=inner.stats.serialized_bytes,
                    stats=inner.stats)
            avg = (inner.stats.avg_element_bytes
                   if inner.stats is not None else 64.0)
            return _Vol(items=inner.items, bytes=inner.items * avg,
                        stats=inner.stats)
        if name in PASSES_NODES:
            return _combine([self.visit(arg, env, host, multiplicity)
                             for arg in expr.args])
        if name in _ONE_ATOM:
            for arg in expr.args:
                self.visit(arg, env, host, multiplicity)
            return _BOOLEAN
        if name in ATOMIZES_NODES:
            volumes = [self.visit(arg, env, host, multiplicity)
                       for arg in expr.args]
            combined = _combine(volumes)
            if combined.tag is not None and combined.tag.startswith("@"):
                return combined      # attribute values: already text
            return combined._replace(bytes=combined.bytes * TEXT_FRACTION)
        return _combine([self.visit(arg, env, host, multiplicity)
                         for arg in expr.args])

    # -- documents (data shipping) ------------------------------------------

    def _visit_doc(self, expr: FunCall, env: dict[str, _Vol], host: str,
                   multiplicity: float) -> _Vol:
        for arg in expr.args:
            self.visit(arg, env, host, multiplicity)
        if len(expr.args) != 1 or not isinstance(expr.args[0], Literal) \
                or not isinstance(expr.args[0].value, str):
            return _Vol(items=1.0, bytes=DEFAULT_DOC_BYTES)
        uri = expr.args[0].value
        parts = split_xrpc_uri(uri)
        if parts is None:
            owner, local_name = host, uri     # host-relative document
        else:
            owner, local_name = parts
        stats = self.estimator.stats.document_stats(owner, local_name)
        if owner != host:
            self._emit_ship(owner, local_name, host, stats)
        self._touch(host, stats, multiplicity)
        if stats is None:
            return _Vol(items=1.0, bytes=DEFAULT_DOC_BYTES)
        return _Vol(items=1.0, bytes=float(stats.serialized_bytes),
                    stats=stats)

    def _touch(self, host: str, stats: DocumentStats | None,
               multiplicity: float) -> None:
        elements = stats.elements if stats is not None else 64.0
        self._touched[host] = (self._touched.get(host, 0.0)
                               + elements * max(multiplicity, 1.0))

    def _emit_ship(self, owner: str, local_name: str, to: str,
                   stats: DocumentStats | None) -> None:
        key = (owner, local_name, to)
        if key in self._shipped:
            return
        self._shipped.add(key)
        size = (stats.serialized_bytes if stats is not None
                else DEFAULT_DOC_BYTES)
        spec = self.federation.collection(owner)
        shards = spec.shard_count if spec is not None else 0
        op = ShipDocument(owner=owner, local_name=local_name, to=to,
                          document_bytes=int(size), shards=shards)
        op.vector.document_bytes = size
        op.vector.messages = float(shards if shards else 1)
        exec_s = self.estimator.exec_seconds(
            (stats.elements if stats is not None else 64.0) * 0.2)
        if to == self.origin:
            op.vector.local_exec_s = exec_s
        else:
            op.vector.remote_exec_s = exec_s
        if spec is not None:
            op.vector.queue_s = self.estimator.scatter_queue_seconds(
                spec.replica_peers)
        self.ops.append(op)

    # -- call sites ---------------------------------------------------------

    def _visit_xrpc(self, expr: XRPCExpr, env: dict[str, _Vol], host: str,
                    multiplicity: float) -> _Vol:
        if isinstance(expr.dest, Literal) and isinstance(expr.dest.value,
                                                         str):
            dest = expr.dest.value
            parts = split_xrpc_uri(dest)
            if parts is not None:
                dest = parts[0]
        else:
            self.visit(expr.dest, env, host, multiplicity)
            dest = host                      # dynamic dest: assume local
        semantics = self.plan.semantics_for(id(expr.body))
        spec = self.plan.projection_specs.get(id(expr.body))

        param_volumes: dict[str, _Vol] = {}
        for param in expr.params:
            param_volumes[param.name] = self.visit(param.value, env, host,
                                                   multiplicity)

        collection = self.federation.collection(dest)
        if collection is not None:
            from repro.cluster.gather import gather_plan
            if gather_plan(expr.body, collection.name) is None:
                # Not scatter-safe: the router falls back to evaluating
                # at the originator over the merged collection document.
                stats = self.estimator.stats.document_stats(
                    collection.name, collection.document)
                self._emit_ship(collection.name, collection.document, host,
                                stats)
                self._touch(host, stats, multiplicity)
                body_env = {name: volume
                            for name, volume in param_volumes.items()}
                return self.visit(expr.body, body_env, host, multiplicity)

        calls = max(multiplicity, 1.0)
        remote_host = dest
        body_env = {name: volume for name, volume in param_volumes.items()}
        response = self.visit(expr.body, body_env, remote_host, calls)
        response = response.per_item() if calls > 1 else response

        # Request payload per the site's message semantics.
        param_bytes = param_items = 0
        for volume in param_volumes.values():   # plain +, as in _combine
            param_bytes += volume.bytes
            param_items += volume.items
        path_count = 0
        if semantics == "by-projection" and spec is not None:
            factors = [self.estimator.projection_factor(paths)
                       for paths in spec.param_paths.values()]
            if factors:
                param_bytes *= max(factors)
            for paths in spec.param_paths.values():
                path_count += len(paths.used) + len(paths.returned)
            path_count += (len(spec.result_paths.used)
                           + len(spec.result_paths.returned))
        if semantics == "by-value":
            payload = calls * (param_bytes
                               + param_items * PER_ITEM_OVERHEAD_BYTES)
        else:
            # Fragments ship once per message; calls carry references.
            payload = (param_bytes
                       + param_items * PER_ITEM_OVERHEAD_BYTES
                       + calls * param_items * FRAGMENT_REF_BYTES)
        request_bytes = (REQUEST_ENVELOPE_BYTES
                         + path_count * PATH_OVERHEAD_BYTES + payload)

        response_factor = 1.0
        if semantics == "by-projection":
            response_factor = self.estimator.projection_factor(
                spec.result_paths if spec is not None else None)
        response_bytes = (RESPONSE_ENVELOPE_BYTES
                          + calls * (response.bytes * response_factor
                                     + response.items
                                     * PER_ITEM_OVERHEAD_BYTES))

        bulk = self.plan.bulk_rpc or calls <= 1.0
        messages = 2.0 if bulk else 2.0 * calls

        call = XrpcCall(dest=dest, semantics=semantics,
                        site_id=id(expr.body), calls=calls,
                        request_bytes=request_bytes,
                        response_bytes=response_bytes)
        call.vector.message_bytes = request_bytes + response_bytes
        call.vector.messages = messages
        call.vector.remote_exec_s = self.estimator.exec_seconds(
            self._touched.pop(remote_host, 0.0)) \
            if remote_host != self.origin else 0.0

        op: object = call
        if collection is not None:
            # One message pair per cover peer, as the router sends.
            from repro.cluster.router import serving_replicas, shard_cover
            peers = len(shard_cover(collection.shards, partial(
                serving_replicas, self.federation.peer_view)))
            call.vector.messages *= peers
            call.vector.message_bytes += (
                (request_bytes + RESPONSE_ENVELOPE_BYTES) * (peers - 1))
            call.vector.queue_s = self.estimator.scatter_queue_seconds(
                collection.replica_peers)
            op = ScatterGather(collection=collection.name,
                               shards=collection.shard_count, peers=peers,
                               call=call)
        elif bulk and calls > 1.0:
            op = BulkBatch(call=call)
        self.ops.append(op)

        # The caller sees the unprojected result volume (projection
        # drops what the caller provably never touches).
        return response.scaled(calls)._replace(stats=None)
