"""One workload, measured in this process (``run.py`` starts one fresh
interpreter per workload and reads the JSON this prints).

Order of events:

1. **set-up** (timed → ``setup_s``): import the program, draw the op
   sequence from the seed, compute the oracle, build the system, run
   the warm-up ops.
2. **untraced pass**: the op sequence in blocks. Each block is
   bracketed by calibration-kernel samples with the clients parked;
   every time measured in the block is multiplied by the block's
   factor (see ``calibrate.py``). Answers are checked against the
   oracle after the block, outside every timed interval. All
   end-to-end metrics and all counted layer metrics come from here.
3. **traced pass** (``--trace`` only): a fresh system, the first
   quarter of the blocks with the wrappers of ``spans.py`` installed,
   then two short slices with the program's own ``trace=`` off and on.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import threading
import time
import traceback
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _path in (HERE, HERE.parents[1] / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import calibrate  # noqa: E402

#: Set-up includes importing the program, so its kernel samples and
#: its clock are taken here, before that import.
_BOOT = (calibrate.sample(), time.perf_counter())

import ledger  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.obs.metrics import global_registry  # noqa: E402

#: ``RunStats`` fields summed per block (simulated seconds separately).
_STAT_FIELDS = ("messages", "message_bytes", "document_bytes",
                "scatter_shards", "shards_skipped", "failovers", "retries")
_SIM_FIELDS = ("shred", "serialize", "network", "local_exec", "remote_exec")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100] (the
    benchmark's own, so that no change to the program's
    ``obs.metrics.percentile`` can move a committed number)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """``VmHWM`` of this process."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- blocks -----------------------------------------------------------------

def run_block(instance, ops, first_op: int, clients: int, expected,
              recorder=None, trace_on: bool = False) -> dict:
    """Run ``ops`` closed-loop from ``clients`` threads and return the
    block's raw measurements (seconds), its calibration, its summed
    ``RunStats`` and its failures."""
    queue = deque(enumerate(ops))
    done: list = [None] * len(ops)
    engine = instance.engine

    def client() -> None:
        while True:
            try:
                index, op = queue.popleft()
            except IndexError:
                return
            if recorder is not None:
                recorder.begin_op(first_op + index)
                if engine is not None:
                    for text in op.texts:
                        recorder.announce(text, first_op + index)
            answer = error = None
            started = time.perf_counter()
            try:
                if op.kind == "store":
                    instance.store(op.version)
                else:
                    answer = [instance.query(text, trace=trace_on)
                              for text in op.texts]
            except Exception:  # a failed op is a result, not a crash
                error = traceback.format_exc()
            ended = time.perf_counter()
            if recorder is not None:
                recorder.end_op()
            done[index] = (started, ended, answer, error)

    records_before = len(engine.metrics.records) if engine else 0
    before = calibrate.sample()
    cpu_started = time.process_time()
    started = time.perf_counter()
    if clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client, name=f"client-{n}")
                   for n in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    samples = before + calibrate.sample()

    block = {"ops": len(ops), "queries": 0, "elapsed": elapsed, "cpu": cpu,
             "cal_ms": statistics.median(samples),
             "factor": calibrate.factor(samples),
             "query_s": [], "failures": [], "queue_wait": 0.0,
             **{name: 0 for name in _STAT_FIELDS},
             **{f"sim_{name}": 0.0 for name in _SIM_FIELDS}}
    submitted = 0.0
    for (op_started, op_ended, answer, error), op in zip(done, ops):
        if error is not None:
            block["failures"].append(error)
        if op.kind != "query":
            continue
        block["queries"] += 1
        block["query_s"].append(op_ended - op_started)
        submitted += op_started
        if error is not None:
            continue
        if (workloads.answer_digest(answer)
                != expected[(op.texts, op.version)]):
            block["failures"].append(
                f"wrong answer for {op.texts[-1][:60]!r} "
                f"(document version {op.version})")
        for result in answer:
            for name in _STAT_FIELDS:
                block[name] += getattr(result.stats, name)
            for name in _SIM_FIELDS:
                block[f"sim_{name}"] += getattr(result.stats.times, name)
    if engine is not None:
        # The loop is closed, so the records added during this block
        # are exactly its queries, and a mean wait does not depend on
        # which record pairs with which submit time.
        records = engine.metrics.records[records_before:]
        if len(records) == block["queries"]:
            block["queue_wait"] = (sum(r.started_at for r in records)
                                   - submitted)
    return block


def run_pass(instance, ops, block_ops: int, clients: int, expected,
             recorder=None, trace_on: bool = False) -> list[dict]:
    """Block after block, with a full garbage collection between them
    (outside the timed intervals). Without it ``peak_rss_mb`` measured
    the generational collector's timing, not the program: 20 000 more
    long-lived objects anywhere moved ``semijoin_shipping`` from 27 to
    45 MB. With it the peak is live data plus one block's garbage."""
    blocks = []
    for start in range(0, len(ops), block_ops):
        blocks.append(run_block(instance, ops[start:start + block_ops],
                                start, clients, expected, recorder,
                                trace_on))
        gc.collect()
    return blocks


def scaled(blocks: list[dict], key: str) -> float:
    """Σ block[key] × block factor — a reference-host total."""
    return sum(block[key] * block["factor"] for block in blocks)


def failures(blocks: list[dict]) -> list[str]:
    return [failure for block in blocks for failure in block["failures"]]


# -- counters the program publishes -----------------------------------------

def read_counters(instance) -> dict[str, float]:
    registry = global_registry().snapshot()
    planner = instance.federation.planner.snapshot()
    out = {
        "index_builds": sum(registry.get("index_builds_total",
                                         {}).values()),
        "index_build_s": sum(registry.get("index_build_seconds_total",
                                          {}).values()),
        "plan_cache_hits": planner["cache_hits"],
        "plans_enumerated": planner["plans_enumerated"],
    }
    if instance.engine is not None:
        cache = instance.engine.cache.stats
        batcher = instance.engine.batcher.snapshot()
        out.update(cache_hits=cache.hits, cache_lookups=cache.lookups,
                   cache_saved_bytes=cache.saved_bytes,
                   cache_evictions=cache.evictions,
                   batch_round_trips=batcher["round_trips"],
                   batch_coalesced=batcher["coalesced"])
    return out


# -- metrics ----------------------------------------------------------------

def timed_end_to_end(blocks: list[dict]) -> dict[str, float]:
    """The four timed metrics, in reference-host units.

    ``query_ms_p95`` is the median over blocks of each block's own
    95th percentile: the host changes speed faster than a block lasts,
    so a pooled tail mostly reports the blocks whose calibration
    missed, and held no better than 9-17 % run to run. A tail the
    program makes (a plan miss, the first read after a write) sits in
    most blocks and survives the median."""
    ops = sum(b["ops"] for b in blocks)
    latencies = [s * b["factor"] * 1e3 for b in blocks for s in b["query_s"]]
    return {
        "query_ms_p50": percentile(latencies, 50),
        "query_ms_p95": statistics.median(
            percentile(b["query_s"], 95) * b["factor"] * 1e3
            for b in blocks),
        "throughput_qps": ops / scaled(blocks, "elapsed"),
        "cpu_ms_per_query": scaled(blocks, "cpu") / ops * 1e3,
    }


def end_to_end(blocks: list[dict], setup_s: float, rss_mb: float) -> dict:
    """name → ``[value, unit, n, split]``; ``split`` is the metric on
    the even and on the odd blocks alone — two interleaved half-runs,
    whose disagreement is this run's own spread (``compare.py``)."""
    ops = sum(b["ops"] for b in blocks)
    queries = sum(b["queries"] for b in blocks)
    wire = sum(b["message_bytes"] + b["document_bytes"] for b in blocks)
    timed = timed_end_to_end(blocks)
    halves = ([timed_end_to_end(blocks[0::2]), timed_end_to_end(blocks[1::2])]
              if len(blocks) > 1 else [timed, timed])
    samples = {"query_ms_p50": queries, "query_ms_p95": queries,
               "throughput_qps": ops, "cpu_ms_per_query": ops}
    cells = {name: (value, samples[name], [half[name] for half in halves])
             for name, value in timed.items()}
    cells.update({
        "setup_s": (setup_s, 1, None),
        "wire_bytes_per_query": (wire / queries, queries, None),
        "failed_ratio": (len(failures(blocks)) / ops, ops, None),
        "peak_rss_mb": (rss_mb, 1, None),
        "ops_total": (ops, ops, None),
    })
    return {name: [value, ledger.END_TO_END[name][0], n, split]
            for name, (value, n, split) in cells.items()}


def with_units(layers: dict[str, float]) -> dict[str, list]:
    return {name: [value, ledger.PER_LAYER[name][0]]
            for name, value in layers.items()}


def counted_layers(blocks: list[dict], before: dict,
                   after: dict) -> dict[str, float]:
    """Layer metrics read from the program's public counters."""
    queries = sum(b["queries"] for b in blocks)
    delta = {key: after[key] - before[key] for key in after}
    factors = [b["factor"] for b in blocks]
    cal = [b["cal_ms"] for b in blocks]
    deciles = (statistics.quantiles(cal, n=10) if len(cal) > 1
               else [cal[0]] * 9)
    total = {name: sum(b[name] for b in blocks) for name in _STAT_FIELDS}
    sim = {name: sum(b[f"sim_{name}"] for b in blocks) * 1e3 / queries
           for name in _SIM_FIELDS}
    wire = total["message_bytes"] + total["document_bytes"]
    return {
        "xmldb.index_builds": delta["index_builds"],
        "xmldb.index_build_ms": (delta["index_build_s"] * 1e3
                                 * statistics.fmean(factors)),
        "planner.cache_hit_ratio": ratio(delta["plan_cache_hits"], queries),
        "planner.plans_enumerated": delta["plans_enumerated"],
        "runtime.cache_hit_ratio": ratio(delta.get("cache_hits", 0),
                                         delta.get("cache_lookups", 0)),
        "runtime.cache_saved_kb_per_query":
            delta.get("cache_saved_bytes", 0) / 1024 / queries,
        "runtime.cache_evictions": delta.get("cache_evictions", 0),
        "runtime.batch_merge_ratio":
            ratio(delta.get("batch_coalesced", 0),
                  delta.get("batch_round_trips", 0)),
        "runtime.queue_wait_ms": (scaled(blocks, "queue_wait") * 1e3
                                  / queries),
        "cluster.shards_per_query": total["scatter_shards"] / queries,
        "cluster.shards_skipped_per_query":
            total["shards_skipped"] / queries,
        "cluster.failovers": total["failovers"],
        "cluster.retries": total["retries"],
        "net.messages_per_query": total["messages"] / queries,
        "net.message_kb_per_query": total["message_bytes"] / 1024 / queries,
        "net.document_kb_per_query": (total["document_bytes"] / 1024
                                      / queries),
        "net.wire_bytes_per_query": wire / queries,
        "net.sim_ms_per_query": sum(sim.values()),
        **{f"net.sim_{name}_ms": value for name, value in sim.items()},
        "host.calib_ms_p50": statistics.median(cal),
        "host.calib_spread": deciles[-1] / deciles[0],
        "host.scale_factor": statistics.fmean(factors),
        "host.raw_query_ms_p50": percentile(
            [s * 1e3 for b in blocks for s in b["query_s"]], 50),
    }


def traced_layers(recorder: spans.Recorder, blocks: list[dict],
                  block_ops: int, untraced: list[dict]) -> dict[str, float]:
    """Mean self time and calls per op, per layer, from the spans."""
    ops = sum(b["ops"] for b in blocks)
    self_ms = dict.fromkeys(spans.TARGETS, 0.0)
    calls = dict.fromkeys(spans.TARGETS, 0)
    busy_ms = 0.0
    for op, cells in spans.fold(recorder.spans).items():
        if op is None:   # oracle checks between blocks: part of no op
            continue
        factor = blocks[op // block_ops]["factor"]
        for name, cell in cells.items():
            self_ms[name] += cell["self"] * factor * 1e3
            calls[name] += cell["calls"]
            busy_ms += cell["orphan"] * factor * 1e3
    run_total_ms = sum(
        (ended - started) * blocks[op // block_ops]["factor"] * 1e3
        for _id, _parent, op, _thread, name, started, ended
        in recorder.spans if name == spans.RUN and op is not None)
    out = {}
    for name in spans.TARGETS:
        label = "system.run_self" if name == spans.RUN else name
        out[f"{label}_ms"] = self_ms[name] / ops
        out[f"{label}_calls"] = calls[name] / ops
    out["xmldb.parse_kb"] = recorder.chars["xmldb.parse"] / 1024 / ops
    out["cluster.shard_busy_ms"] = busy_ms / ops
    out["system.attributed_ratio"] = 1 - ratio(self_ms[spans.RUN],
                                               run_total_ms)
    same = untraced[:len(blocks)]
    out["obs.wrap_overhead_ratio"] = ratio(
        scaled(blocks, "elapsed") / ops,
        scaled(same, "elapsed") / sum(b["ops"] for b in same))
    return out


# -- the whole measurement --------------------------------------------------

def warmed(workload: workloads.Workload) -> workloads.Instance:
    instance = workload.build()
    for text in workload.warm_texts:
        instance.query(text)
    return instance


def measure(name: str, seed: int, seconds: float, trace: bool = False,
            smoke: bool = False, setup_only: bool = False,
            out_dir: Path | None = None,
            oracle=workloads.expected_digests,
            boot: tuple[list[float], float] | None = None) -> dict:
    """Set up and measure workload ``name``; returns the result dict
    ``run.py`` aggregates. ``oracle`` is a parameter so the tests can
    corrupt it; ``boot`` is the kernel samples and the clock taken when
    set-up began (now, by default)."""
    before, started = boot or (calibrate.sample(), time.perf_counter())
    workload = workloads.WORKLOADS[name]
    block_ops = min(workload.block_ops, 10) if smoke else workload.block_ops
    count = 2 * block_ops if smoke else workload.ops_for(seconds)
    ops = workload.draw(seed, count)
    expected = oracle(workload, ops)
    instance = warmed(workload)
    setup_s = ((time.perf_counter() - started)
               * calibrate.factor(before + calibrate.sample()))
    result: dict = {"workload": name, "seed": seed, "setup_s": setup_s}
    if setup_only:
        instance.close()
        return result

    before = read_counters(instance)
    try:
        blocks = run_pass(instance, ops, block_ops, workload.clients,
                          expected)
        after = read_counters(instance)
    finally:
        instance.close()
    result["end_to_end"] = end_to_end(blocks, setup_s, peak_rss_mb())
    result["per_layer"] = with_units(counted_layers(blocks, before, after))
    result["failed"] = len(failures(blocks))
    result["failures"] = failures(blocks)[:5]
    result["op_digest"] = hashlib.sha256(repr(ops).encode()).hexdigest()
    if not trace:
        return result

    quarter = ops[:max(1, len(blocks) // 4) * block_ops]
    instance = warmed(workload)
    recorder = spans.Recorder(clients=workload.clients)
    try:
        with recorder:
            traced = run_pass(instance, quarter, block_ops,
                              workload.clients, expected, recorder)
    finally:
        instance.close()
    layers = traced_layers(recorder, traced, block_ops, blocks)
    result["failures"] += failures(traced)[:5]
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        recorder.dump(out_dir / f"spans-{name}.jsonl")

    # The program's own tracer, off then on, each on a fresh system so
    # neither slice inherits the other's caches.
    piece = ops[:max(1, min(100, len(ops) // 12) // block_ops) * block_ops]
    cost = {}
    for trace_on in (False, True):
        instance = warmed(workload)
        try:
            sliced = run_pass(instance, piece, block_ops,
                              workload.clients, expected,
                              trace_on=trace_on)
        finally:
            instance.close()
        cost[trace_on] = scaled(sliced, "elapsed")
        result["failures"] += failures(sliced)[:5]
    layers["obs.trace_on_ratio"] = ratio(cost[True], cost[False])
    result["per_layer"].update(with_units(layers))
    return result


def run(argv: list[str] | None = None, oracle=workloads.expected_digests,
        boot: tuple[list[float], float] | None = None) -> dict:
    """:func:`measure` from a command line (``run.py`` calls this
    through a fresh interpreter, the tests in-process)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    return measure(args.workload, args.seed, args.seconds, args.trace,
                   args.smoke, args.setup_only, args.out, oracle, boot)


if __name__ == "__main__":
    print(json.dumps(run(boot=_BOOT)))
