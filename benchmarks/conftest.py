"""Shared benchmark helpers.

Each ``bench_fig*.py`` regenerates one figure of the paper's Section
VII: it prints the same series the figure plots (so the shape can be
compared directly) and registers one representative timing with
pytest-benchmark.

Scales are laptop-sized; the paper's 10-160 MB documents map onto the
same x2 geometric sweep at ~40-700 KB. Only relative behaviour is
meaningful.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.decompose import Strategy
from repro.runtime import Transport, VirtualClock
from repro.workloads import run_all_strategies

#: The x2 geometric sweep mirroring XMark factors 0.1 .. 1.6.
SCALES = (0.0025, 0.005, 0.01, 0.02, 0.04)

STRATEGY_ORDER = (Strategy.DATA_SHIPPING, Strategy.BY_VALUE,
                  Strategy.BY_FRAGMENT, Strategy.BY_PROJECTION)


@pytest.fixture(scope="session")
def sweep():
    """All four strategies over the full scale sweep (computed once)."""
    return {scale: run_all_strategies(scale) for scale in SCALES}


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
