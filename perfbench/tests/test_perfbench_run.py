import json
import time

import layers
import run
import workloads


def test_benchmark_json_names_the_metrics_reported():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_traced_run_reports_every_layer_metric():
    ref = workloads.load_reference()
    result = run.run_workload("risk-ftg", 0, 0.0, True, ref, time.perf_counter())
    assert result["problems"] == []
    assert len(result["plain"]) == len(result["traced"]) == 2
    assert [c["stdout"] for c in result["plain"]] == [c["stdout"] for c in result["traced"]]
    metrics = run.metrics_of(result, True)
    assert metrics.keys() == layers.METRICS.keys()
    assert metrics["risk.simulate_aggregate.calls"]["value"] == 1
    assert metrics["sample.ftg_rvs.draws"]["value"] > 1.5e6
    plain = run.metrics_of(result, False)
    assert all(plain[m]["value"] > 0 for m in run.END_TO_END)
