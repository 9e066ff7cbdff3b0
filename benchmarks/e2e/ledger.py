"""The names of the ledger: workloads, end-to-end metrics with their
bounds, per-layer metrics. Later issues cite these verbatim.

``BENCHMARK.json`` at the repository root is this file rendered
(``python benchmarks/e2e/ledger.py`` prints it; a test keeps the two
equal). It carries the six bounded metrics the harness contract can
hold: a metric there must never read 0 and its run length is given in
seconds, so ``failed_ratio`` and ``ops_total`` travel as the result
line's ``failed`` / ``attempted`` and ``wire_bytes_per_query`` (0 on
``local_paths``, by design) as the layer metric
``net.wire_bytes_per_query``. ``run.py`` prints and ``compare.py``
judges all nine.
"""

from __future__ import annotations

import json

RUN_SECONDS = 10
COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

#: name → why it exists (one line each; ≤ 200 characters).
WORKLOADS: dict[str, str] = {
    "semijoin_projection":
        "Paper's winning strategy on its Fig. 7-9 query, 1 client, no "
        "engine or cache: the wire codec (XML parse, marshal, message "
        "encode) does most of the work, cluster and cache none.",
    "semijoin_shipping":
        "Paper's baseline: two whole documents shipped and parsed, then "
        "a local join; no XRPC message is built, so a scanner fast path "
        "must move it and an XRPC-side change must not.",
    "sharded_semijoin":
        "Same query over 4 shards x 2 replicas: a thread pool per "
        "scatter, requests duplicated to every shard, gather - the "
        "cluster layer does most of the work.",
    "tenant_mix":
        "Ad-hoc multi-tenant traffic: 2 clients, Zipf over 200 query "
        "texts against a 128-entry plan cache, strategy auto - planner "
        "miss path, result cache, batcher and the GIL do the work.",
    "local_paths":
        "Zero bytes on the wire: 11 single-peer queries per op (reverse "
        "and sibling axes, positional predicate, order-by, constructor) "
        "- evaluator and indexes do all the work.",
    "store_churn":
        "Writes beside reads: every 10th op re-stores people.xml, so "
        "caches, statistics, indexes and serializer memo run in "
        "invalidate-and-rebuild mode; p95 is the first read after a write.",
}

EXACT = 0.0

#: name → (unit, better, bound). ``bound`` is the share of the base
#: value by which the metric may get worse; ``EXACT`` metrics must
#: repeat exactly (``wire_bytes_per_query``: 2 % on the two-client
#: ``tenant_mix``, see ``compare.py``). One bound serves all six
#: workloads, so the noisiest sets it: ``tenant_mix`` (two threads on
#: the GIL through a cold-to-warm transient) spreads 8-15 % from seed
#: to seed on the timed metrics, and three times that is past the
#: harness maximum of 25 %. The single-thread workloads hold 0.5-9 %
#: (README, "Host normalisation").
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "query_ms_p50": ("ms", "lower", 0.25),
    "query_ms_p95": ("ms", "lower", 0.25),
    "throughput_qps": ("ops/s", "higher", 0.25),
    "cpu_ms_per_query": ("ms", "lower", 0.25),
    "wire_bytes_per_query": ("bytes", "lower", EXACT),
    "failed_ratio": ("ratio", "lower", EXACT),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "ops_total": ("count", "same", EXACT),
}

#: The subset ``BENCHMARK.json`` can carry (see the module docstring).
CONTRACT_END_TO_END = ("query_ms_p50", "query_ms_p95", "throughput_qps",
                       "cpu_ms_per_query", "peak_rss_mb", "setup_s")

_TIMED_LAYERS = (
    "xmldb.parse", "xmldb.serialize", "xrpc.encode", "xrpc.decode",
    "xrpc.marshal", "xrpc.unmarshal", "xrpc.handle", "xquery.parse",
    "xquery.eval", "planner.plan", "decompose.decompose",
    "runtime.exchange", "runtime.fetch_document", "cluster.scatter",
    "system.run_self", "system.store",
)

#: name → (unit, better). Timed ones are mean self time per op in
#: reference-host ms from the traced pass, each with a ``_calls`` twin.
PER_LAYER: dict[str, tuple[str, str]] = {
    **{f"{layer}_ms": ("ms", "lower") for layer in _TIMED_LAYERS},
    **{f"{layer}_calls": ("count", "lower") for layer in _TIMED_LAYERS},
    "xmldb.parse_kb": ("KB", "lower"),
    "xmldb.index_builds": ("count", "lower"),
    "xmldb.index_build_ms": ("ms", "lower"),
    "planner.cache_hit_ratio": ("ratio", "higher"),
    "planner.plans_enumerated": ("count", "lower"),
    "runtime.cache_hit_ratio": ("ratio", "higher"),
    "runtime.cache_saved_kb_per_query": ("KB", "higher"),
    "runtime.cache_evictions": ("count", "lower"),
    "runtime.batch_merge_ratio": ("ratio", "higher"),
    "runtime.queue_wait_ms": ("ms", "lower"),
    "cluster.shard_busy_ms": ("ms", "lower"),
    "cluster.shards_per_query": ("count", "lower"),
    "cluster.shards_skipped_per_query": ("count", "higher"),
    "cluster.failovers": ("count", "lower"),
    "cluster.retries": ("count", "lower"),
    "net.messages_per_query": ("count", "lower"),
    "net.message_kb_per_query": ("KB", "lower"),
    "net.document_kb_per_query": ("KB", "lower"),
    "net.wire_bytes_per_query": ("bytes", "lower"),
    "net.sim_ms_per_query": ("ms", "lower"),
    "net.sim_shred_ms": ("ms", "lower"),
    "net.sim_serialize_ms": ("ms", "lower"),
    "net.sim_network_ms": ("ms", "lower"),
    "net.sim_local_exec_ms": ("ms", "lower"),
    "net.sim_remote_exec_ms": ("ms", "lower"),
    "system.attributed_ratio": ("ratio", "higher"),
    "obs.wrap_overhead_ratio": ("ratio", "lower"),
    "obs.trace_on_ratio": ("ratio", "lower"),
    "host.calib_ms_p50": ("ms", "lower"),
    "host.calib_spread": ("ratio", "lower"),
    "host.scale_factor": ("ratio", "higher"),
    "host.raw_query_ms_p50": ("ms", "lower"),
}

#: Layer metrics that need the traced pass (the rest are counted after
#: the untraced pass and present in every result).
TRACED_ONLY = frozenset(
    [f"{layer}_{kind}" for layer in _TIMED_LAYERS
     for kind in ("ms", "calls")]
    + ["xmldb.parse_kb", "cluster.shard_busy_ms",
       "system.attributed_ratio", "obs.wrap_overhead_ratio",
       "obs.trace_on_ratio"])


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": END_TO_END[name][0],
             "better": END_TO_END[name][1], "bound": END_TO_END[name][2]}
            for name in CONTRACT_END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in PER_LAYER.items()],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
