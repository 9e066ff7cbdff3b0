"""Tests of the benchmark itself (outside tier-1's ``testpaths``):

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SINGLE_CLIENT = [name for name, workload in workloads.WORKLOADS.items()
                 if workload.clients == 1]


def load_runs(directory: Path, name: str = "result.json") -> list[dict]:
    return json.loads((directory / name).read_text())["runs"]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> Path:
    """The whole set in ``--smoke --trace`` mode, workers in-process."""
    out = tmp_path_factory.mktemp("smoke")
    assert run.main(["--smoke", "--trace", "--out", str(out)],
                    worker=worker.run) == 0
    return out


def test_smoke_emits_every_named_metric_with_its_unit(smoke):
    (results,) = load_runs(smoke)
    assert list(results) == list(ledger.WORKLOADS)
    for result in results.values():
        for name, (unit, _better, _bound) in ledger.END_TO_END.items():
            assert result["end_to_end"][name][1] == unit, name
        for name, (unit, _better) in ledger.PER_LAYER.items():
            assert result["per_layer"][name][1] == unit, name
        assert result["end_to_end"]["ops_total"][0] <= 20
        assert result["end_to_end"]["failed_ratio"][0] == 0


def test_same_seed_same_ops_and_bytes(smoke, tmp_path):
    assert run.main(["--smoke", "--out", str(tmp_path)],
                    worker=worker.run) == 0
    (first,), (second,) = load_runs(smoke), load_runs(tmp_path)
    for name in ledger.WORKLOADS:
        assert first[name]["op_digest"] == second[name]["op_digest"]
        for metric in ("ops_total", "failed_ratio"):
            assert (first[name]["end_to_end"][metric][0]
                    == second[name]["end_to_end"][metric][0])
    for name in SINGLE_CLIENT:
        assert (first[name]["end_to_end"]["wire_bytes_per_query"][0]
                == second[name]["end_to_end"]["wire_bytes_per_query"][0])


def test_seed_drives_the_draws():
    tenant_mix = workloads.WORKLOADS["tenant_mix"]
    assert tenant_mix.draw(1, 60) == tenant_mix.draw(1, 60)
    assert tenant_mix.draw(1, 60) != tenant_mix.draw(2, 60)
    churn = workloads.WORKLOADS["store_churn"]
    stores = [op for op in churn.draw(5, 40) if op.kind == "store"]
    assert [op.version for op in stores] == [1, 2, 1, 2]


def test_span_parents_resolve_and_self_times_sum(smoke):
    for name in ledger.WORKLOADS:
        recorded = [tuple(json.loads(line)) for line in
                    (smoke / f"spans-{name}.jsonl").read_text().splitlines()]
        assert recorded, name
        by_id = {span[0]: span for span in recorded}
        for span_id, parent, _op, thread, *_rest in recorded:
            if parent:
                assert by_id[parent][3] == thread   # same thread's stack

        def root_of(span):
            while span[1]:
                span = by_id[span[1]]
            return span

        own = spans.self_times(recorded)
        tree_self: dict[int, float] = {}
        for span in recorded:
            root = root_of(span)
            tree_self[root[0]] = tree_self.get(root[0], 0.0) + own[span[0]]
        ops = {}
        for root_id, total in tree_self.items():
            root = by_id[root_id]
            if root[4].startswith("system.") and root[2] is not None:
                summed, whole = ops.get(root[2], (0.0, 0.0))
                ops[root[2]] = (summed + total, whole + root[6] - root[5])
        assert ops, name
        for summed, whole in ops.values():
            assert summed == pytest.approx(whole, rel=0.05)


def test_traced_pass_attributes_the_time(smoke):
    (results,) = load_runs(smoke)
    for name, result in results.items():
        assert result["per_layer"]["system.attributed_ratio"][0] >= 0.9, name
        assert result["per_layer"]["obs.wrap_overhead_ratio"][0] > 0


def test_corrupt_oracle_digest_fails_the_run(tmp_path):
    def corrupt(workload, ops):
        expected = workloads.expected_digests(workload, ops)
        key = next(iter(expected))
        expected[key] = expected[key][::-1]
        return expected

    code = run.main(["--smoke", "--workload", "semijoin_projection",
                     "--out", str(tmp_path)],
                    worker=lambda argv: worker.run(argv, oracle=corrupt))
    assert code != 0
    (results,) = load_runs(tmp_path, "result-semijoin_projection.json")
    assert results["semijoin_projection"]["end_to_end"]["failed_ratio"][0] > 0


def test_wrappers_are_fully_removed(smoke):
    recorder = spans.Recorder()
    recorder.install()
    patched = recorder.patched()
    assert len(patched) > len(spans.TARGETS)   # importers are rebound too
    recorder.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "repro":
            continue
        for value in list(vars(module).values()):
            assert not hasattr(value, "__wrapped_by_bench__")
            if isinstance(value, type):
                for member in vars(value).values():
                    member = getattr(member, "__func__", member)
                    assert not hasattr(member, "__wrapped_by_bench__")


def test_benchmark_json_is_the_ledger_and_within_the_contract():
    committed = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert committed == ledger.benchmark_json()
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    assert 2 <= len(committed["workloads"]) <= 8
    for workload in committed["workloads"]:
        assert name.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(committed["per_layer"]) <= 128
    metrics = committed["end_to_end"] + committed["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for metric in metrics:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": ledger.END_TO_END["setup_s"][2]} in committed["end_to_end"]
    assert set(workloads.WORKLOADS) == set(ledger.WORKLOADS)


@pytest.mark.parametrize("trace, names", [
    ("0", set(ledger.CONTRACT_END_TO_END)), ("1", set(ledger.PER_LAYER))])
def test_contract_invocation_prints_the_result_line(tmp_path, trace, names):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "semijoin_projection", "--seed", "3", "--seconds", "0.5",
         "--trace", trace, "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=180)
    line = json.loads(completed.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == names
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}


# -- compare.py -------------------------------------------------------------

def result_file(**values) -> dict:
    """One run of one workload with the given end-to-end values."""
    cells = {name: [1.0, unit, 1, None]
             for name, (unit, _b, _x) in ledger.END_TO_END.items()}
    for name, value in values.items():
        cells[name] = [value, ledger.END_TO_END[name][0], 1, None]
    return {"runs": [{"semijoin_projection": {"end_to_end": cells}}]}


def verdicts(base: dict, candidate: dict) -> dict[str, str]:
    return {row["metric"]: row["verdict"]
            for row in compare.compare(base, candidate)}


def test_compare_verdicts():
    latency_bound = ledger.END_TO_END["query_ms_p50"][2]
    rate_bound = ledger.END_TO_END["throughput_qps"][2]
    base = result_file(query_ms_p50=10.0, throughput_qps=100.0,
                       ops_total=900)
    worse = result_file(query_ms_p50=10 * (1.05 + latency_bound),
                        throughput_qps=100 * (0.95 - rate_bound),
                        ops_total=901)
    better = result_file(query_ms_p50=10 * (0.95 - latency_bound),
                         throughput_qps=100 * (1.05 + rate_bound),
                         ops_total=900)
    near = result_file(query_ms_p50=10 * (1 + latency_bound / 2),
                       ops_total=900)
    assert verdicts(base, worse)["query_ms_p50"] == "regressed"
    assert verdicts(base, worse)["throughput_qps"] == "regressed"
    assert verdicts(base, worse)["ops_total"] == "regressed"
    assert verdicts(base, better)["query_ms_p50"] == "improved"
    assert verdicts(base, better)["throughput_qps"] == "improved"
    assert verdicts(base, better)["ops_total"] == "unchanged"
    assert verdicts(base, near)["query_ms_p50"] == "unchanged"


def test_compare_reports_unresolved_when_a_side_disagrees_with_itself():
    noisy = result_file(query_ms_p50=10.0)
    noisy["runs"][0]["semijoin_projection"]["end_to_end"][
        "query_ms_p50"][3] = [8.0, 12.0]   # its halves disagree by 40 %
    assert verdicts(noisy, result_file(query_ms_p50=14.0)
                    )["query_ms_p50"] == "unresolved"


def test_compare_exit_code(tmp_path):
    base, worse = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(result_file(query_ms_p50=10.0)))
    worse.write_text(json.dumps(result_file(query_ms_p50=20.0)))
    assert compare.main([str(base), str(base)]) == 0
    assert compare.main([str(base), str(worse)]) == 1
