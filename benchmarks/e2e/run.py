"""The end-to-end ledger: six workloads, nine end-to-end metrics,
per-layer self time, every time normalised to a reference host.

    python3 benchmarks/e2e/run.py                      # all six workloads
    python3 benchmarks/e2e/run.py --workload tenant_mix --seed 7
    python3 benchmarks/e2e/run.py --trace              # + traced pass
    python3 benchmarks/e2e/run.py --smoke --trace      # seconds, not minutes
    python3 benchmarks/e2e/run.py --repeat 3 --history # a set for compare.py

Each workload is set up and measured in a fresh interpreter
(``worker.py``); set-up is repeated in two more, so ``setup_s`` is a
median of three. Every metric is printed by name with its unit and
sample count, every answer is checked against an oracle, and the exit
code is non-zero if any op failed or any named metric is missing.

The harness contract (``BENCHMARK.json``) calls this with ``--workload
W --seed N --seconds S --trace 0|1`` and reads the last line of
standard output: one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the bounded end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Op counts are
fixed per workload and scale with ``--seconds`` (10 → about ten
seconds of timed section on the reference host), so one seed always
runs the same ops.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import ledger  # noqa: E402

DEFAULT_SEED = 20090329
SETUPS = 3


def spawn_worker(arguments: list[str]) -> dict:
    """Run ``worker.py`` in a fresh interpreter, wait for it to end and
    return the JSON it printed. String hashing is pinned so that set
    and dict orders — and with them the counted metrics — repeat."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *arguments],
        stdout=subprocess.PIPE, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": "0"})
    return json.loads(completed.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_dir: Path,
                 worker: Callable[[list[str]], dict] = spawn_worker) -> dict:
    base = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    result = worker(base + ["--out", str(out_dir)]
                    + (["--trace"] if trace else []))
    setups = [result["setup_s"]] + [
        worker(base + ["--setup-only"])["setup_s"]
        for _ in range(SETUPS - 1)]
    result["end_to_end"]["setup_s"] = [statistics.median(setups), "s",
                                       SETUPS, None]
    del result["setup_s"]
    return result


def missing_metrics(result: dict, trace: bool) -> list[str]:
    wanted_layers = [name for name in ledger.PER_LAYER
                     if trace or name not in ledger.TRACED_ONLY]
    return ([name for name in ledger.END_TO_END
             if name not in result["end_to_end"]]
            + [name for name in wanted_layers
               if name not in result["per_layer"]])


def print_result(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}) ==")
    for name, (value, unit, n, _split) in result["end_to_end"].items():
        print(f"  {name:34s} {value:14.4f} {unit:6s} n={n}")
    for name, (value, unit) in sorted(result["per_layer"].items()):
        print(f"  {name:34s} {value:14.4f} {unit}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure.strip().splitlines()[-1]}")


def contract_line(result: dict, trace: bool) -> str:
    """The harness contract's result object for one workload."""
    attempted = result["end_to_end"]["ops_total"][0]
    failed = result["failed"]
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
    else:
        metrics = {name: {"value": result["end_to_end"][name][0],
                          "unit": result["end_to_end"][name][1]}
                   for name in ledger.CONTRACT_END_TO_END}
    return json.dumps({"correct": not result["failures"],
                       "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def append_history(runs: list[dict]) -> None:
    """One row of the trajectory: commit, date and the headline cells
    (median over the runs) of every workload measured."""
    commit = subprocess.run(
        ["git", "-C", str(HERE), "rev-parse", "--short", "HEAD"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True).stdout.strip()
    row = {"commit": commit or "unknown",
           "date": datetime.date.today().isoformat()}
    for name in runs[0]:
        for metric in ("query_ms_p50", "throughput_qps"):
            row[f"{name}.{metric}"] = round(statistics.median(
                run[name]["end_to_end"][metric][0] for run in runs), 4)
    with open(HERE / "history.jsonl", "a") as history:
        history.write(json.dumps(row) + "\n")


def main(argv: list[str] | None = None,
         worker: Callable[[list[str]], dict] = spawn_worker) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(ledger.WORKLOADS),
                        help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=ledger.RUN_SECONDS,
                        help="sizes the fixed op counts (default 10)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add the traced pass (per-layer self time)")
    parser.add_argument("--smoke", action="store_true",
                        help="at most 20 ops per workload")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs of the set kept in one result file")
    parser.add_argument("--history", action="store_true",
                        help="append the headline cells to history.jsonl")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for result.json and spans-*.jsonl")
    args = parser.parse_args(argv)
    if not (HERE.parents[1] / "src" / "repro").is_dir():
        print("benchmarks/e2e needs the program under src/repro",
              file=sys.stderr)
        return 2

    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(ledger.WORKLOADS)
    runs = []
    problems = 0
    for _ in range(args.repeat):
        runs.append({})
        for name in names:
            result = run_workload(name, args.seed, args.seconds, trace,
                                  args.smoke, args.out, worker)
            print_result(result)
            missing = missing_metrics(result, trace)
            if missing:
                print(f"  MISSING: {', '.join(missing)}")
            problems += len(missing) + len(result["failures"])
            runs[-1][name] = result
    args.out.mkdir(parents=True, exist_ok=True)
    target = args.out / (f"result-{args.workload}.json" if args.workload
                         else "result.json")
    target.write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "trace": trace,
         "smoke": args.smoke, "runs": runs}, indent=1) + "\n")
    print(f"wrote {target}")
    if args.history and not problems:
        append_history(runs)
    if args.workload:
        print(contract_line(runs[-1][args.workload], trace))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
