"""Three windows of every workload against real child processes."""

import json
import os

import pytest

import run
from world import spinners


@pytest.mark.parametrize("name", ["fig6_rt", "fig6_aio", "bulk_mixed", "sim_fig6"])
def test_three_windows(name):
    workload = run.workloads()[name]
    with spinners(os.sched_getaffinity(0)):
        outcome = workload.run(3, 3)
    assert outcome.failed == 0, outcome.errors
    assert outcome.attempted > 0
    assert len(outcome.plain.windows) >= 3
    assert len(outcome.setup_s) == 5
    metrics = run.end_to_end_metrics(workload, outcome)
    declared = {m["name"] for m in run.declared()["end_to_end"]}
    assert set(metrics) == declared
    assert all(value > 0 for value in metrics.values()), metrics


def test_benchmark_json_names_what_run_py_runs():
    spec = run.declared()
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads())
    assert spec["command"][-1] == "benchmarks/e2e/run.py"
    json.dumps(spec)
