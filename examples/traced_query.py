"""Distributed tracing end to end: run one sharded query with
``trace=True``, print the span tree, dump both trace exports, and show
the unified metrics registry plus explain-analyze.

The span tree attributes every simulated component (Figure 8's shred /
exec / serialize / network stack) to the operator that spent it; the
Chrome export loads in ``chrome://tracing`` or https://ui.perfetto.dev.

Run:  PYTHONPATH=src python examples/traced_query.py [scale]
"""

import json
import os
import sys
import tempfile

from repro import Strategy
from repro.obs import (dump_chrome_trace, dump_trace, render_analysis,
                       render_tree, validate_chrome_trace)
from repro.workloads import (
    SHARDED_BENCHMARK_QUERY, build_sharded_federation,
)

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "0.01"))


def main(scale: float = SCALE) -> None:
    print(f"Sharded XMark federation at scale {scale}; "
          "running the Section VII benchmark query with trace=True ...")
    federation = build_sharded_federation(scale)
    result = federation.run(SHARDED_BENCHMARK_QUERY, at="local",
                            strategy=Strategy.BY_PROJECTION, trace=True)
    root = result.trace

    print("\nSpan tree (wall ms per span, simulated ms per component):")
    print(render_tree(root, max_depth=3))

    totals = root.component_totals()
    print("\nLeaf components vs RunStats.times (they match exactly):")
    for component, seconds in sorted(totals.items()):
        recorded = getattr(result.stats.times, component)
        print(f"  {component:12s} leaves {seconds * 1e3:8.3f} ms | "
              f"stats {recorded * 1e3:8.3f} ms")

    out_dir = os.environ.get("REPRO_TRACE_DIR", tempfile.mkdtemp())
    trace_path = os.path.join(out_dir, "trace.json")
    chrome_path = os.path.join(out_dir, "chrome_trace.json")
    dump_trace(root, trace_path)
    chrome = dump_chrome_trace(root, chrome_path)
    problems = validate_chrome_trace(chrome)
    print(f"\nWrote {trace_path}")
    print(f"Wrote {chrome_path} "
          f"({len(chrome['traceEvents'])} events, "
          f"{'valid' if not problems else problems})"
          " — open it in chrome://tracing or https://ui.perfetto.dev")

    print("\nExplain-analyze (estimated vs actual per operator):")
    print(render_analysis(result.stats.plan.analysis))

    summary = result.stats.summary()
    print(f"\nThe same run as plain data (RunStats.summary(), "
          f"{len(json.dumps(summary))} bytes of JSON):")
    for key, value in summary.items():
        if not isinstance(value, dict):
            print(f"  {key:24s} {value}")
    print(f"  plan: {summary['plan']['strategy']}, "
          f"{len(summary['plan']['analysis']['ops'])} operators analysed; "
          f"per_shard: {len(summary['per_shard'])} shards")

    print("\nUnified metrics registry (federation scope):")
    print(federation.metrics.render_text())


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else SCALE)
