"""``run.py compare BASE NEW``: two result files, one verdict per
workload x end-to-end metric.

A result file is what ``run.py --out FILE`` appends to: one JSON row per
run.  Each row of the table gives both medians with their quartiles, the
ratio NEW/BASE (the base is always the first file), and

- ``regressed``  — NEW's median is worse than BASE's by more than the
  metric's bound in ``BENCHMARK.json``;
- ``unresolved`` — not regressed, but a side has fewer than two runs or a
  quartile spread wider than the bound, so "unchanged" cannot be claimed;
- ``ok``         — neither.

Exit code 1 on any regression.  Two files from the same commit make the
A/A test: everything should read ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per untraced run]}}`` of a result file."""
    out: dict[str, dict[str, list[float]]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            if row.get("trace"):
                continue
            for name, metric in row["metrics"].items():
                out.setdefault(row["workload"], {}).setdefault(name, []).append(metric["value"])
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    b1, b_med, b3 = summary(base)
    n1, n_med, n3 = summary(new)
    worse_by = (n_med - b_med) / b_med if better == "lower" else (b_med - n_med) / b_med
    if worse_by > bound:
        return "regressed"
    spreads = ((b3 - b1) / b_med, (n3 - n1) / n_med)
    if min(len(base), len(new)) < 2 or max(spreads) > bound:
        return "unresolved"
    return "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    base, new = load(argv[0]), load(argv[1])
    print(
        f"{'workload':<11s} {'metric':<15s} {'unit':<5s} "
        f"{'base q1/median/q3 (n)':<38s} {'new q1/median/q3 (n)':<38s} "
        f"{'new/base':>8s} {'bound':>6s}  verdict"
    )
    regressed = 0
    for workload in base:
        if workload not in new:
            continue
        for metric in metrics:
            name = metric["name"]
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            what = verdict(b, n, metric["better"], metric["bound"])
            regressed += what == "regressed"
            cells = [
                "{:.5g}/{:.5g}/{:.5g} ({})".format(*summary(side), len(side))
                for side in (b, n)
            ]
            print(
                f"{workload:<11s} {name:<15s} {metric['unit']:<5s} "
                f"{cells[0]:<38s} {cells[1]:<38s} "
                f"{summary(n)[1] / summary(b)[1]:8.4f} {metric['bound']:6.2f}  {what}"
            )
    return 1 if regressed else 0
