"""Trace exporters: span-tree JSON and Chrome trace-event format.

Two serialisations of one :class:`~repro.obs.trace.Span` tree:

* :func:`span_to_dict` / :func:`dump_trace` — a nested JSON document
  mirroring the tree (name, wall µs, attributes, component charges,
  children), the machine-readable form tests and tooling consume;
* :func:`chrome_trace_events` / :func:`dump_chrome_trace` — the Chrome
  trace-event format (``chrome://tracing`` / https://ui.perfetto.dev):
  one complete ``"ph": "X"`` event per span, ``ts``/``dur`` in
  microseconds relative to the root, ``tid`` mapped to compact
  per-thread ids so the engine's worker threads land on separate
  rows. Component leaves (simulated
  seconds, not wall time) are exported under ``"cat": "simulated"``
  with their simulated duration, so the Figure 8 stack is visible as
  flame-graph blocks next to the wall-clock spans that charged it.

:func:`validate_chrome_trace` checks the invariants the format needs
(every event carries name/ph/pid/tid, non-negative ts; ``dur`` on
complete events) — CI runs it over a freshly captured trace so the
export cannot silently rot.

Fleet events ride along: pass an iterable of
:class:`~repro.obs.events.Event` (or an
:class:`~repro.obs.events.EventLog`) to :func:`chrome_trace_events` /
:func:`dump_chrome_trace` and each entry becomes an instant
(``"ph": "i"``) marker on the timeline — failovers, epoch bumps and
demotions visible next to the spans they interrupted. Events share the
spans' ``perf_counter`` clock, so placement is exact; entries outside
the root span's window are clamped to its edges (a marker slightly
off-screen beats a marker silently dropped).
"""

from __future__ import annotations

import json

from repro.obs.trace import Span


def span_to_dict(span: Span) -> dict:
    """The nested JSON form of one span (and its subtree)."""
    out: dict = {
        "name": span.name,
        "kind": span.kind,
        "start_us": round(span.start_s * 1e6, 3),
        "duration_us": round(span.duration_s * 1e6, 3),
        "closed": span.closed,
        "thread": span.thread_id,
    }
    if span.attrs:
        out["attrs"] = dict(span.attrs)
    children = [span_to_dict(child) for child in list(span.children)]
    if children:
        out["children"] = children
    return out


def dump_trace(span: Span, path) -> dict:
    """Write the span tree as JSON to ``path`` (returns the document)."""
    document = {"format": "repro-trace-v1", "trace": span_to_dict(span)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, default=str)
        handle.write("\n")
    return document


def chrome_trace_events(span: Span, pid: int = 1,
                        events=None) -> list[dict]:
    """Flatten a span tree into Chrome trace events.

    Timestamps are microseconds relative to the root span's start.
    Wall-clock spans become ``cat: "span"`` events with their real
    duration; component leaves become ``cat: "simulated"`` events whose
    duration is the *simulated* seconds they carry (scaled to µs) —
    they start where their parent started, so the stack reads as "this
    much simulated work happened inside this span".

    ``events`` (an iterable of :class:`~repro.obs.events.Event`, or an
    :class:`~repro.obs.events.EventLog`) adds one instant ``ph: "i"``
    marker per entry at its ``perf_s`` timestamp, clamped into the
    root span's window.
    """
    origin = span.start_s
    events_arg = events        # the local list below shadows the param
    tid_map: dict[int, int] = {}
    events = []

    def tid_of(thread_id: int) -> int:
        tid = tid_map.get(thread_id)
        if tid is None:
            tid = tid_map[thread_id] = len(tid_map) + 1
        return tid

    def emit(node: Span) -> None:
        ts = max(0.0, (node.start_s - origin) * 1e6)
        if node.kind == "component":
            duration = max(0.0, node.attrs.get("sim_s", 0.0) * 1e6)
            category = "simulated"
        else:
            duration = max(0.0, node.duration_s * 1e6)
            category = "span"
        args = {key: value for key, value in node.attrs.items()
                if isinstance(value, (str, int, float, bool))}
        for key, value in node.attrs.items():
            if isinstance(value, dict):
                args[key] = json.dumps(value, default=str)
        events.append({
            "name": node.name,
            "cat": category,
            "ph": "X",
            "ts": round(ts, 3),
            "dur": round(duration, 3),
            "pid": pid,
            "tid": tid_of(node.thread_id),
            "args": args,
        })
        for child in list(node.children):
            emit(child)

    emit(span)

    if events_arg is not None:
        entries = (events_arg.recent() if hasattr(events_arg, "recent")
                   else list(events_arg))
        end_us = max(0.0, (span.end_s - origin) * 1e6) \
            if span.end_s is not None else None
        for entry in entries:
            ts = (entry.perf_s - origin) * 1e6
            ts = max(0.0, ts)
            if end_us is not None:
                ts = min(ts, end_us)
            args = {"message": entry.message, "seq": entry.seq,
                    "severity": entry.severity}
            for key, value in entry.attrs.items():
                if isinstance(value, (str, int, float, bool)):
                    args[key] = value
            events.append({
                "name": entry.kind,
                "cat": "event",
                "ph": "i",
                "s": "p",           # process-scoped instant marker
                "ts": round(ts, 3),
                "pid": pid,
                "tid": 1,
                "args": args,
            })
    return events


def dump_chrome_trace(span: Span, path, pid: int = 1,
                      events=None) -> dict:
    """Write the Chrome trace-event JSON for ``span`` to ``path`` —
    load it in ``chrome://tracing`` or https://ui.perfetto.dev.
    ``events`` adds instant markers (see :func:`chrome_trace_events`).
    """
    document = {
        "traceEvents": chrome_trace_events(span, pid=pid, events=events),
        "displayTimeUnit": "ms",
        "otherData": {"format": "repro-chrome-trace-v1"},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, default=str)
        handle.write("\n")
    return document


def validate_chrome_trace(document: dict) -> list[str]:
    """Schema-check a Chrome trace document; returns the violations
    (empty list = valid). Checked invariants: a ``traceEvents`` list
    exists and is non-empty; every event has a ``name``, ``ph``,
    ``pid``, ``tid`` and a non-negative numeric ``ts``; complete
    (``"X"``) events additionally carry a non-negative ``dur``
    (instant ``"i"`` markers have none by definition)."""
    problems: list[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    for index, event in enumerate(events):
        where = f"event[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                problems.append(f"{where}: missing {field!r}")
        checked = ("ts", "dur") if event.get("ph") == "X" else ("ts",)
        for field in checked:
            value = event.get(field)
            if not isinstance(value, (int, float)):
                problems.append(f"{where}: {field!r} missing or "
                                f"non-numeric ({value!r})")
            elif value < 0:
                problems.append(f"{where}: {field!r} negative ({value})")
    return problems


def render_tree(span: Span, max_depth: int | None = None,
                _depth: int = 0) -> str:
    """A compact text rendering of the span tree (README excerpts)::

        query 12.41ms {at=local}
          plan 1.02ms {strategy=by-projection}
          scatter 8.17ms {collection=people-c, shards=4}
            shard 2.50ms {shard=0}
              rpc 2.41ms {dest=node1}
                serialize [sim 0.31ms, 20.1KB]
    """
    lines: list[str] = []
    indent = "  " * _depth
    if span.kind == "component":
        sim_ms = span.attrs.get("sim_s", 0.0) * 1e3
        size = span.attrs.get("bytes")
        size_part = f", {size / 1024:.1f}KB" if size else ""
        lines.append(f"{indent}{span.name} [sim {sim_ms:.2f}ms{size_part}]")
    else:
        attrs = {key: value for key, value in span.attrs.items()
                 if not isinstance(value, dict)}
        attr_part = (" {" + ", ".join(f"{k}={v}" for k, v in
                                      sorted(attrs.items())) + "}"
                     if attrs else "")
        lines.append(f"{indent}{span.name} "
                     f"{span.duration_s * 1e3:.2f}ms{attr_part}")
    if max_depth is None or _depth < max_depth:
        for child in list(span.children):
            lines.append(render_tree(child, max_depth, _depth + 1))
    return "\n".join(lines)
