"""Per-query distributed tracing: span trees over the federated stack.

A :class:`Tracer` produces one span tree per query::

    query                      <- Federation.run(trace=True)
      plan                     <- planner: enumerate (lower) on a miss,
                                  price for a first-seen literal binding
      rpc                      <- one XRPC round trip (dest, semantics)
        serialize / network    <- component leaves (simulated seconds)
      scatter                  <- cluster fan-out over a collection
        shard                  <- one round trip (its peer and shards)
          rpc                  <- the Bulk RPC it issued
      ship                     <- a data-shipped document
      local_exec / remote_exec <- component leaves on the query root

Nesting uses a :mod:`contextvars` variable, so the engine (one thread
per query, a worker's or the waiting caller's, whose scatters and shard
round trips run on that thread; a caller runs its query in a fresh
context, as a worker does) attributes work to the right query even when
many run at once.

Two attribution channels exist on purpose:

* **structural spans** are opened with :func:`child_span` (or
  :meth:`Tracer.start` for the root) and nest via the context
  variable;
* **time/byte charges** follow the :class:`~repro.net.stats.RunStats`
  object being charged (``stats.span``): every place that adds
  simulated seconds to a run's :class:`~repro.net.stats.TimeBreakdown`
  also calls :meth:`Span.charge` on the span bound to those stats.
  Component charges become *leaf spans* when the parent closes, so
  summing every leaf's ``sim_s`` per component reproduces the run's
  ``RunStats.times`` exactly — the Figure 8 stack, now attributed to
  the operator that spent it.

Tracing is zero-cost when off: no tracer is constructed, ``stats.span``
stays ``None`` (one attribute check per charge site), and
:func:`child_span` returns a shared no-op context manager after a
single context-variable read.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar

from repro.clock import REAL_CLOCK, Clock

#: The TimeBreakdown components a span may be charged with (Figure 8's
#: five categories; leaf spans carry exactly these names).
COMPONENTS = ("shred", "local_exec", "serialize", "remote_exec", "network")

_current_span: ContextVar["Span | None"] = ContextVar(
    "repro_obs_current_span", default=None)


class Span:
    """One node of the trace tree.

    Attributes are typed-but-free-form (``set(shard=2, bytes=123)``);
    ``charge`` accumulates simulated seconds/bytes per TimeBreakdown
    component, materialised as leaf child spans on :meth:`close`.
    Thread-safe: a lock guards children, attributes and charges, so a
    tree may be read from a thread other than the one building it. A
    span reads the clock it was opened on (a child span: its parent's).
    """

    __slots__ = ("name", "attrs", "start_s", "end_s", "children",
                 "components", "component_bytes", "thread_id", "_lock",
                 "kind", "clock")

    def __init__(self, name: str, attrs: dict | None = None,
                 kind: str = "span", clock: Clock = REAL_CLOCK):
        self.name = name
        self.attrs: dict = attrs if attrs is not None else {}
        self.clock = clock
        self.start_s = clock()
        self.end_s: float | None = None
        self.children: list[Span] = []
        self.components: dict[str, float] = {}
        self.component_bytes: dict[str, int] = {}
        self.thread_id = threading.get_ident()
        self._lock = threading.Lock()
        self.kind = kind

    # -- tree -----------------------------------------------------------------

    def add_child(self, child: "Span") -> None:
        with self._lock:
            self.children.append(child)

    @property
    def closed(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else self.clock()
        return end - self.start_s

    def close(self) -> None:
        """End the span and materialise charged components as leaf
        child spans (idempotent)."""
        if self.end_s is not None:
            return
        with self._lock:
            if self.end_s is not None:  # pragma: no cover - double close race
                return
            end = self.clock()
            for component, seconds in self.components.items():
                leaf = Span(component, {"sim_s": seconds}, "component",
                            self.clock)
                nbytes = self.component_bytes.get(component, 0)
                if nbytes:
                    leaf.attrs["bytes"] = nbytes
                leaf.start_s, leaf.end_s = self.start_s, end
                leaf.thread_id = self.thread_id
                self.children.append(leaf)
            self.end_s = end

    # -- attributes & charges -------------------------------------------------

    def set(self, **attrs) -> "Span":
        """Attach typed attributes (last write wins per key)."""
        with self._lock:
            self.attrs.update(attrs)
        return self

    def charge(self, component: str, seconds: float,
               nbytes: int = 0) -> None:
        """Accumulate simulated seconds (and optionally wire bytes)
        under one TimeBreakdown ``component`` of this span."""
        with self._lock:
            self.components[component] = (
                self.components.get(component, 0.0) + seconds)
            if nbytes:
                self.component_bytes[component] = (
                    self.component_bytes.get(component, 0) + nbytes)

    # -- reductions -----------------------------------------------------------

    def iter_spans(self):
        """Depth-first iteration over the subtree (self included)."""
        yield self
        for child in list(self.children):
            yield from child.iter_spans()

    def leaves(self) -> list["Span"]:
        """Every component leaf in the subtree."""
        return [span for span in self.iter_spans()
                if span.kind == "component"]

    def component_totals(self) -> dict[str, float]:
        """Simulated seconds per component summed over every leaf of
        the subtree — comparable to ``RunStats.times.as_dict()`` keys
        by construction (see :data:`COMPONENTS`)."""
        totals: dict[str, float] = {}
        for leaf in self.leaves():
            totals[leaf.name] = (totals.get(leaf.name, 0.0)
                                 + leaf.attrs.get("sim_s", 0.0))
        return totals

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in document (depth-first) order."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if not self.closed else f"{self.duration_s * 1e3:.2f}ms"
        return f"<Span {self.name} {state} attrs={self.attrs!r}>"


class _SpanContext:
    """Context manager entering/exiting one real span."""

    __slots__ = ("span", "parent", "_token")

    def __init__(self, span: Span, parent: Span | None):
        self.span = span
        self.parent = parent
        self._token = None

    def __enter__(self) -> Span:
        if self.parent is not None:
            self.parent.add_child(self.span)
        self._token = _current_span.set(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.span.set(error=f"{type(exc).__name__}: {exc}")
        self.span.close()
        _current_span.reset(self._token)


class _NoopSpanContext:
    """Shared do-nothing context manager (tracing off)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP_CONTEXT = _NoopSpanContext()


def child_span(name: str, **attrs) -> "_SpanContext | _NoopSpanContext":
    """Open a span under the context's current span. When there is no
    active span — tracing off — this returns a shared no-op context
    manager whose ``as`` value is ``None``, so instrumentation sites
    cost one context-variable read."""
    parent = _current_span.get()
    if parent is None:
        return _NOOP_CONTEXT
    return _SpanContext(Span(name, attrs or None, clock=parent.clock),
                        parent)


class _BindStatsSpan:
    """Temporarily bind ``stats.span`` to ``span`` (restores on exit),
    so transport charges inside the window attribute to ``span``."""

    __slots__ = ("stats", "span", "_previous")

    def __init__(self, stats, span: Span | None):
        self.stats = stats
        self.span = span
        self._previous = None

    def __enter__(self):
        if self.span is not None:
            self._previous = self.stats.span
            self.stats.span = self.span
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.span is not None:
            self.stats.span = self._previous


def bind_stats_span(stats, span: Span | None) -> _BindStatsSpan:
    """Charge-attribution window: while active, simulated-time charges
    against ``stats`` land on ``span`` (no-op when ``span`` is None)."""
    return _BindStatsSpan(stats, span)


class Tracer:
    """Produces one span tree; owns the root.

    Usage::

        tracer = Tracer()
        with tracer.start("query", at="local") as root:
            with child_span("plan"):
                ...
        tree = tracer.root          # closed span tree
    """

    __slots__ = ("root", "clock")

    #: Real tracers are enabled; :data:`NOOP_TRACER` overrides this.
    enabled = True

    def __init__(self, clock: Clock = REAL_CLOCK) -> None:
        self.root: Span | None = None
        self.clock = clock

    def start(self, name: str = "query", **attrs) -> _SpanContext:
        """Open the root span (also enters it as the context's current
        span, so nested :func:`child_span` calls attach to it)."""
        span = Span(name, attrs or None, clock=self.clock)
        if self.root is None:
            self.root = span
        else:  # a second root: attach under the first (defensive)
            self.root.add_child(span)
        return _SpanContext(span, parent=None)


class NoopTracer:
    """The disabled tracer: every span is the shared no-op context."""

    __slots__ = ()

    enabled = False
    root = None

    def start(self, name: str = "query", **attrs) -> _NoopSpanContext:
        return _NOOP_CONTEXT


NOOP_TRACER = NoopTracer()
