"""The repo's end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py                      # everything, both passes
    python3 benchmarks/e2e/run.py --workload fig6_rt --seed 7 --seconds 16 --trace 0
    python3 benchmarks/e2e/run.py compare before.jsonl after.jsonl

Each run checks the program's outputs, prints every metric by name and
unit, and ends with one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Names, units and bounds live in
``BENCHMARK.json`` at the root of the checkout; README.md defines them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402 - after the path line, like the repro imports below

#: no run may take longer than this; the alarm fails it instead
RUN_DEADLINE_S = 170


@dataclass(frozen=True)
class Workload:
    name: str
    #: (seed, seconds) -> Outcome of the plain windows
    run: Callable
    #: window kinds the rate/CPU and the latency metrics are taken from
    rate_kind: str
    latency_kind: str


def workloads() -> dict[str, Workload]:
    from workloads import run_bulk, run_fig6, run_sim

    table = (
        Workload("fig6_rt", lambda seed, s: run_fig6("threaded", seed, s), "c2", "c1"),
        Workload("fig6_aio", lambda seed, s: run_fig6("aio", seed, s), "c2", "c1"),
        Workload("bulk_mixed", run_bulk, "cycles", "cycles"),
        Workload("sim_fig6", run_sim, "rep", "rep"),
    )
    return {w.name: w for w in table}


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end_metrics(workload: Workload, outcome) -> dict[str, float]:
    from estimator import end_to_end

    metrics = end_to_end(outcome.plain.windows, workload.rate_kind, workload.latency_kind)
    metrics["rss_peak_mb"] = outcome.rss_peak_mb
    metrics["setup_s"] = statistics.median(outcome.setup_s)
    return metrics


def run_one(workload: Workload, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    """One pass of one workload; the result row (its JSON line)."""
    from world import spinners

    with spinners(os.sched_getaffinity(0)):
        if trace:
            from layers import traced

            metrics, report, outcome = traced(
                workload.name, seed, workload.rate_kind, workload.latency_kind
            )
            print(report)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            outcome = workload.run(seed, seconds)
            metrics = end_to_end_metrics(workload, outcome)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics measured and metrics declared differ: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    for name in units:
        print(f"{workload.name} {name} {metrics[name]:.6g} {units[name]}")
    for why in outcome.errors:
        print(f"{workload.name} FAILED {why}")
    cals = [w.cal_us for w in outcome.plain.windows]
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "cal_us": statistics.median(cals),
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }


def history_row(rows: list[dict], seed: int) -> dict:
    """One line of the trajectory: where, on what, and every median."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "t": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": commit, "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "seed": seed,
        "machine.cal_us": statistics.median(r["cal_us"] for r in rows),
        "cal_ref_us": calibrate.CAL_REF_US,
        "end_to_end": {
            r["workload"]: {n: m["value"] for n, m in r["metrics"].items()} for r in rows
        },
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 end-to-end pass, 1 per-layer pass; default: both")
    parser.add_argument("--out", help="append every result row to this JSONL file")
    args = parser.parse_args(argv)

    calibrate.assert_stdlib_only()
    spec = declared()
    table = workloads()
    names = args.workload or list(table)
    unknown = [n for n in names if n not in table]
    if unknown:
        parser.error(f"unknown workload {unknown}; choose from {list(table)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    passes = (0, 1) if args.trace is None else (args.trace,)

    def out_of_time(*_):
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S}s")

    signal.signal(signal.SIGALRM, out_of_time)
    rows = []
    for name in names:
        for trace in passes:
            signal.alarm(RUN_DEADLINE_S)
            row = run_one(table[name], args.seed, seconds, trace, spec)
            signal.alarm(0)
            rows.append(row)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(row) + "\n")
    plain = [r for r in rows if r["trace"] == 0]
    if len(plain) == len(table):
        with open(HERE / "history.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(history_row(plain, args.seed)) + "\n")
    for row in rows:
        print(json.dumps({k: row[k] for k in ("correct", "attempted", "failed", "metrics")}))
    # a wrong output is reported in the row (correct, failed), not by the exit code
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
