"""The metrics registry: Counter / Gauge / Histogram primitives with
labeled series, one uniform read path for every layer's counters.

Before this module, counts were smeared across the stack — the
transport kept private wire/in-flight dicts, the result cache its own
``CacheStats``, the index layers counted nothing. Now each layer
registers typed series in a :class:`MetricsRegistry` (the federation
owns one; module-level code like the index builders uses the
process-global registry) and every consumer — benchmarks, tests,
``FederationEngine.summary()`` — reads the same ``snapshot()`` /
``render_text()`` export. What one query did is counted in its
:class:`~repro.net.stats.RunStats`; the ``query_*`` and ``scatter_*``
series are folded from each finished run at the end of
``Federation.run``.

Naming convention (one prefix per layer, so registries can be shared):

=============  ==========================================================
``wire_*``     transport truth (messages, bytes, in-flight) per peer
``cache_*``    result-cache hits/misses/evictions/invalidations
``scatter_*``  cluster fan-out, skips, failovers per collection, heat
               per shard
``index_*``    structural/value index builds (count and seconds)
``query_*``    per-query aggregation (latency, plans) over every run
=============  ==========================================================

All primitives are thread-safe (one small lock per series; series
creation locks the registry). A histogram is one
:class:`QuantileSketch`: its memory does not grow with the observation
count, its count / sum / mean / max are exact, and its p50 / p95 / p99
are nearest-rank within relative error :data:`EPS`. The sketch is the
one quantile implementation in the package; the fleet windows keep
one per time bucket and merge them on read.
"""

from __future__ import annotations

import math
import threading

#: Relative error of every quantile a histogram or a rolling window
#: reports.
EPS = 0.01


class QuantileSketch:
    """Bounded-relative-error quantile sketch for non-negative streams.

    Values are assigned to logarithmic buckets with ratio
    ``gamma = (1 + eps) / (1 - eps)``; a bucket's representative value
    (the geometric midpoint ``2 * gamma**i / (gamma + 1)``) is within
    relative error ``eps`` of every value in the bucket, so the
    nearest-rank quantile estimate is within ``eps`` of the true item
    at that rank. Non-positive values (clock underflow artefacts) land
    in a dedicated zero bucket and report as ``0.0``.
    """

    __slots__ = ("eps", "_gamma", "_log_gamma", "_buckets", "_zero",
                 "count", "sum", "min", "max")

    def __init__(self, eps: float = EPS):
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps {eps} out of range (0, 1)")
        self.eps = eps
        self._gamma = (1.0 + eps) / (1.0 - eps)
        self._log_gamma = math.log(self._gamma)
        self._buckets: dict[int, int] = {}
        self._zero = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float, count: int = 1) -> None:
        if count <= 0:
            return
        self.count += count
        self.sum += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self._zero += count
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self._buckets[index] = self._buckets.get(index, 0) + count

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (exact: bucket counts add).
        Requires the same ``eps`` (bucket boundaries must line up)."""
        if other.eps != self.eps:
            raise ValueError(
                f"cannot merge sketches with eps {other.eps} into {self.eps}")
        if other.count == 0:
            return
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._zero += other._zero
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (0-100, nearest rank) within
        relative error ``eps``; 0.0 on an empty sketch."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} out of range")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        if rank <= self._zero:
            return max(0.0, self.min)
        seen = self._zero
        estimate = self.max
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                estimate = 2.0 * self._gamma ** index / (self._gamma + 1.0)
                break
        # Clamping into the observed range can only reduce the error.
        return min(max(estimate, self.min, 0.0), self.max)

    def snapshot(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.quantile(50),
            "p95": self.quantile(95),
            "p99": self.quantile(99),
            "max": self.max if self.count else 0.0,
        }


class _Series:
    """Shared machinery of one unlabeled series (or one labeled child)."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()


class Counter(_Series):
    """A monotonically increasing count (float increments allowed —
    ``index_build_seconds_total`` accumulates seconds)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value


class Gauge(_Series):
    """A value that goes up and down (in-flight exchanges, pool sizes)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self):
        with self._lock:
            return self._value


class Histogram(_Series):
    """A summary of observations: count, sum, mean, max and p50 / p95 /
    p99, held in one :class:`QuantileSketch`."""

    __slots__ = ("_sketch",)

    def __init__(self) -> None:
        super().__init__()
        self._sketch = QuantileSketch()

    def observe(self, value: float) -> None:
        with self._lock:
            self._sketch.add(value)

    def snapshot_value(self) -> dict[str, float]:
        with self._lock:
            return self._sketch.snapshot()


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _label_sort_key(item: tuple) -> tuple[str, ...]:
    """Deterministic ordering for labeled children: compare label
    values by their string form, so exports stay stable (and never
    raise) even when one label mixes value types (peer names next to
    shard indexes)."""
    return tuple(str(part) for part in item[0])


class LabeledMetric:
    """A family of series keyed by label values (``labels("peer1")`` or
    ``labels(peer="peer1")`` — positional follows the declared order)."""

    __slots__ = ("name", "kind", "labelnames", "_children", "_lock")

    def __init__(self, name: str, kind: str, labelnames: tuple[str, ...]):
        self.name = name
        self.kind = kind
        self.labelnames = labelnames
        self._children: dict[tuple, _Series] = {}
        self._lock = threading.Lock()

    def labels(self, *values, **kv):
        if kv:
            if values:
                raise TypeError("mix of positional and keyword labels")
            try:
                values = tuple(kv[name] for name in self.labelnames)
            except KeyError as exc:
                raise KeyError(
                    f"metric {self.name!r} has labels "
                    f"{self.labelnames}, got {sorted(kv)}") from exc
        else:
            values = tuple(values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects {len(self.labelnames)} "
                f"label value(s) {self.labelnames}, got {values!r}")
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.setdefault(values,
                                                  _KINDS[self.kind]())
        return child

    def get(self, *values) -> "_Series | None":
        """The child for ``values`` if it already exists (non-creating
        read — live-load lookups must not mint zero series)."""
        return self._children.get(tuple(values))

    def series(self) -> dict[tuple, "_Series"]:
        """A point-in-time copy of every child."""
        with self._lock:
            return dict(self._children)


class MetricsRegistry:
    """Typed, labeled series under unique names.

    ``counter``/``gauge``/``histogram`` are idempotent per name: the
    same call shape returns the existing series (so layers can look up
    a shared registry's series without threading handles around), and
    a kind or label mismatch raises rather than silently aliasing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, tuple[str, tuple[str, ...], object]] = {}
        self._help: dict[str, str] = {}

    # -- registration ---------------------------------------------------------

    def _register(self, name: str, kind: str, help_text: str,
                  labels: tuple[str, ...]):
        labels = tuple(labels)
        with self._lock:
            entry = self._metrics.get(name)
            if entry is not None:
                existing_kind, existing_labels, metric = entry
                if existing_kind != kind or existing_labels != labels:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing_kind}{existing_labels}, not "
                        f"{kind}{labels}")
                return metric
            if labels:
                metric: object = LabeledMetric(name, kind, labels)
            else:
                metric = _KINDS[kind]()
            self._metrics[name] = (kind, labels, metric)
            if help_text:
                self._help[name] = help_text
            return metric

    def counter(self, name: str, help: str = "",
                labels: tuple[str, ...] = ()) -> "Counter | LabeledMetric":
        return self._register(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: tuple[str, ...] = ()) -> "Gauge | LabeledMetric":
        return self._register(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: tuple[str, ...] = ()
                  ) -> "Histogram | LabeledMetric":
        return self._register(name, "histogram", help, labels)

    def get(self, name: str):
        """The registered metric under ``name`` (None when absent)."""
        with self._lock:
            entry = self._metrics.get(name)
        return entry[2] if entry is not None else None

    # -- the uniform read path ------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Every series' current value, as plain data: unlabeled series
        map name → value; labeled series map name → {label values
        (comma-joined) → value}. Histograms export their summary dict.
        """
        with self._lock:
            metrics = dict(self._metrics)
        out: dict[str, object] = {}
        for name in sorted(metrics):
            kind, labels, metric = metrics[name]
            if labels:
                series = metric.series()
                out[name] = {
                    ",".join(map(str, key)):
                        (child.snapshot_value() if kind == "histogram"
                         else child.value)
                    for key, child in sorted(series.items(),
                                             key=_label_sort_key)
                }
            elif kind == "histogram":
                out[name] = metric.snapshot_value()
            else:
                out[name] = metric.value
        return out

    def render_text(self) -> str:
        """A Prometheus-flavoured text rendering (for humans, examples
        and benchmark logs — not a wire-format guarantee). Fully
        deterministic: series are emitted in sorted name order and
        labeled children in sorted (stringified) label order, so two
        renderings of the same state diff cleanly in CI artifacts."""
        with self._lock:
            metrics = dict(self._metrics)
            helps = dict(self._help)
        lines: list[str] = []
        for name in sorted(metrics):
            kind, labels, metric = metrics[name]
            if name in helps:
                lines.append(f"# HELP {name} {helps[name]}")
            lines.append(f"# TYPE {name} {kind}")
            if labels:
                for key, child in sorted(metric.series().items(),
                                         key=_label_sort_key):
                    pairs = ",".join(
                        f'{label}="{value}"'
                        for label, value in zip(labels, key))
                    if kind == "histogram":
                        summary = child.snapshot_value()
                        lines.append(f"{name}_count{{{pairs}}} "
                                     f"{summary['count']}")
                        lines.append(f"{name}_sum{{{pairs}}} "
                                     f"{summary['sum']}")
                        lines.append(f"{name}_p99{{{pairs}}} "
                                     f"{summary['p99']}")
                    else:
                        lines.append(f"{name}{{{pairs}}} {child.value}")
            elif kind == "histogram":
                summary = metric.snapshot_value()
                lines.append(f"{name}_count {summary['count']}")
                lines.append(f"{name}_sum {summary['sum']}")
                lines.append(f"{name}_p99 {summary['p99']}")
            else:
                lines.append(f"{name} {metric.value}")
        return "\n".join(lines)


#: The process-global registry: the home for metrics emitted by code
#: with no component handle (the per-document index builders). Scoped
#: consumers (transport, cache, engine) use the federation's registry.
GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    return GLOBAL_REGISTRY
