"""The decomposition driver tying Sections III-VI together. Every
``repro`` import loads it, so the pipeline loads on first use."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.decompose.points import InsertionPlan
    from repro.dgraph.graph import DGraph
    from repro.xquery.ast import Module

#: The planner sentinel: ``Federation.run(strategy="auto")`` lets the
#: cost-based planner pick (and mix) strategies per call site.
AUTO = "auto"


class Strategy(enum.Enum):
    """The four execution strategies of the paper's evaluation."""

    DATA_SHIPPING = "data-shipping"
    BY_VALUE = "by-value"
    BY_FRAGMENT = "by-fragment"
    BY_PROJECTION = "by-projection"

    @property
    def decomposes(self) -> bool:
        return self is not Strategy.DATA_SHIPPING

    @property
    def uses_fragments(self) -> bool:
        return self in (Strategy.BY_FRAGMENT, Strategy.BY_PROJECTION)

    @property
    def uses_projection(self) -> bool:
        return self is Strategy.BY_PROJECTION

    @property
    def semantics(self) -> str:
        """The message semantics a call site under this strategy uses
        on the wire (data shipping has no call sites; its nominal
        semantics is pass-by-value, the W3C default)."""
        if self is Strategy.BY_PROJECTION:
            return "by-projection"
        if self is Strategy.BY_FRAGMENT:
            return "by-fragment"
        return "by-value"

    @classmethod
    def coerce(cls, value: "Strategy | str") -> "Strategy | str":
        """Resolve a strategy given as an enum member or a string.

        Strings are matched case-insensitively against member values
        and names, with ``_``/``-`` interchangeable (``"by-projection"``,
        ``"BY_PROJECTION"``, ``"By-Value"`` all work); ``"auto"`` maps
        to the :data:`AUTO` sentinel. Anything else raises a
        ``ValueError`` listing every valid name.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            normalized = value.strip().lower().replace("_", "-")
            if normalized == AUTO:
                return AUTO
            try:
                return cls(normalized)   # by value: one dict lookup
            except ValueError:
                pass
        valid = ", ".join([member.value for member in cls] + [AUTO])
        raise ValueError(
            f"unknown strategy {value!r}; valid strategies: {valid}")


def strategy_label(value: "Strategy | str") -> str:
    """The display name of a (possibly string) strategy argument."""
    coerced = Strategy.coerce(value)
    return coerced.value if isinstance(coerced, Strategy) else coerced


class DecompositionResult:
    """Everything the pipeline produced, for inspection and tests."""

    __slots__ = ("strategy", "module", "normalized", "graph", "dpoints",
                 "ipoints", "plans")

    def __init__(self, strategy: Strategy, module: Module, normalized: Module,
                 graph: DGraph, dpoints: set[int] | None = None,
                 ipoints: list[int] | None = None,
                 plans: list[InsertionPlan] | None = None) -> None:
        self.strategy = strategy
        self.module = module  # the rewritten module
        self.normalized = normalized  # after let-sinking
        self.graph = graph  # d-graph of the normalised query
        self.dpoints = set() if dpoints is None else dpoints  # I(G)
        self.ipoints = [] if ipoints is None else ipoints  # I'(G)
        self.plans = [] if plans is None else plans


class DecompositionCandidates:
    """The per-point candidate set of one strategy's pipeline, before
    any insertion is committed.

    ``plans`` are the insertion points the strategy would realise; the
    cost-based planner prices *subsets* of them (shipping the documents
    of the excluded points instead), so one decomposition run yields a
    whole family of executable candidates via :func:`realize`.
    """

    __slots__ = ("strategy", "normalized", "graph", "dpoints", "ipoints",
                 "plans")

    def __init__(self, strategy: Strategy, normalized: Module, graph: DGraph,
                 dpoints: set[int] | None = None,
                 ipoints: list[int] | None = None,
                 plans: list[InsertionPlan] | None = None) -> None:
        self.strategy, self.normalized = strategy, normalized
        self.graph = graph
        self.dpoints = set() if dpoints is None else dpoints
        self.ipoints = [] if ipoints is None else ipoints
        self.plans = [] if plans is None else plans


def prepare(module: Module, strategy: Strategy,
            local_host: str | None = None, let_sinking: bool = True,
            sibling: DecompositionCandidates | None = None
            ) -> DecompositionCandidates:
    """Run the analysis half of the pipeline: normalise, build the
    d-graph, and compute the strategy's insertion candidates — without
    rewriting the AST yet.

    ``sibling``: another strategy's result for the same arguments; its
    normalised module and d-graph (strategy-independent) are shared."""
    from repro.decompose.conditions import valid_decomposition_points
    from repro.decompose.points import interesting_points, select_insertions
    from repro.dgraph.graph import build_dgraph
    from repro.xquery.normalize import normalize
    if sibling is not None:
        normalized, graph = sibling.normalized, sibling.graph
    else:
        normalized = normalize(module) if let_sinking else module
        graph = build_dgraph(normalized)
    if not strategy.decomposes:
        return DecompositionCandidates(strategy, normalized, graph)
    dpoints = valid_decomposition_points(graph, strategy.value)
    ipoints = interesting_points(graph, dpoints)
    plans = select_insertions(graph, ipoints, local_host)
    graph.forget_reachability()
    return DecompositionCandidates(strategy, normalized, graph,
                                   dpoints, ipoints, plans)


def realize(candidates: DecompositionCandidates,
            include: Iterable[InsertionPlan] | None = None,
            code_motion: bool = True) -> DecompositionResult:
    """Commit a (sub)set of the candidate insertions into a rewritten
    module. ``include=None`` realises every candidate point (the fixed
    strategies); the planner passes subsets to build mixed plans that
    ship some documents while decomposing others."""
    strategy = candidates.strategy
    if include is None:
        plans = candidates.plans
    else:
        keep = {id(plan) for plan in include}
        plans = [plan for plan in candidates.plans if id(plan) in keep]
    if not strategy.decomposes:
        return DecompositionResult(strategy, candidates.normalized,
                                   candidates.normalized, candidates.graph,
                                   candidates.dpoints, candidates.ipoints,
                                   plans)
    from repro.decompose.code_motion import apply_code_motion
    from repro.decompose.rewrite import insert_xrpc
    rewritten = insert_xrpc(candidates.normalized, plans)
    if strategy.uses_fragments and code_motion:
        rewritten = apply_code_motion(rewritten)
    return DecompositionResult(strategy, rewritten, candidates.normalized,
                               candidates.graph, candidates.dpoints,
                               candidates.ipoints, plans)


def decompose(module: Module, strategy: Strategy,
              local_host: str | None = None,
              code_motion: bool = True,
              let_sinking: bool = True) -> DecompositionResult:
    """Run the full decomposition pipeline for one strategy.

    ``local_host`` is the originator peer's name: interesting points
    whose documents live there are pointless to ship. The
    ``code_motion`` / ``let_sinking`` switches exist for the ablation
    benchmarks; both default to the paper's configuration.
    """
    candidates = prepare(module, strategy, local_host=local_host,
                         let_sinking=let_sinking)
    return realize(candidates, code_motion=code_motion)
