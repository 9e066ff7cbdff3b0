"""Shared benchmark helpers: a results table on stdout, a
machine-readable ``BENCH_{name}.json`` per benchmark, and the replayable
virtual wire of the drills. The paper's figures are
``benchmarks/figures.py``."""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.runtime import Transport, VirtualClock


def on_virtual_wire(federation):
    """Put ``federation`` on the wire of a replayable drill: virtual
    time, and the modelled network time charged per transmission (on a
    zero-delay wire every healthy latency is exactly 0, the health
    baseline is 0 and a degraded replica is never demoted). Call before
    attaching monitors, so they adopt the virtual clock."""
    federation.transport = Transport(
        federation.cost_model, metrics=federation.metrics,
        clock=VirtualClock(), time_scale=1.0)
    return federation


def write_json(name: str, rows: list[dict], **meta) -> Path:
    """Persist one benchmark's cells as ``BENCH_{name}.json`` so the
    perf trajectory is machine-readable across PRs (CI uploads the
    files as artifacts).

    ``rows`` is one dict per benchmark cell; ``meta`` adds run-level
    context (scale, sweep parameters). The output directory defaults
    to the working directory and is overridable via ``BENCH_OUT_DIR``.
    No timestamps: the file is a pure function of the run, so repeated
    runs of a deterministic benchmark diff clean.
    """
    out_dir = Path(os.environ.get("BENCH_OUT_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    payload = {"benchmark": name, **meta, "rows": rows}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n[bench] wrote {path}")
    return path


def print_table(title: str, header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(str(row[i])) for row in [header] + rows)
              for i in range(len(header))]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))
