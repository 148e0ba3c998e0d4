"""Result containers and plain-text rendering for experiment runs.

The benchmark harness prints the same rows/series the paper's figures
plot; :func:`render_table` and :func:`render_ascii_plot` keep the output
readable in a terminal and diffable in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.util.stats import OnlineStats


@dataclass
class RunResult:
    """Statistics of one test-client run at a fixed client count."""

    clients: int
    duration: float
    transmitted: int = 0
    not_sent: int = 0
    errors: int = 0
    latency: OnlineStats = field(default_factory=OnlineStats)

    @property
    def per_minute(self) -> float:
        """Messages per minute — the y-axis of Figures 5 and 6."""
        if self.duration <= 0:
            return 0.0
        return self.transmitted * 60.0 / self.duration



@dataclass
class Series:
    """One labelled curve: client counts → run results."""

    label: str
    results: list[RunResult] = field(default_factory=list)

    def add(self, result: RunResult) -> None:
        self.results.append(result)

    def xs(self) -> list[int]:
        return [r.clients for r in self.results]


def render_table(
    series_list: list[Series],
    value: str = "per_minute",
    title: str = "",
) -> str:
    """Tab-separated table: one row per client count, one column per series."""
    getter = {
        "per_minute": lambda r: f"{r.per_minute:.0f}",
        "transmitted": lambda r: str(r.transmitted),
        "not_sent": lambda r: str(r.not_sent),
    }[value]
    xs = sorted({x for s in series_list for x in s.xs()})
    lines = []
    if title:
        lines.append(f"# {title} [{value}]")
    lines.append("clients\t" + "\t".join(s.label for s in series_list))
    for x in xs:
        row = [str(x)]
        for s in series_list:
            hit = next((r for r in s.results if r.clients == x), None)
            row.append(getter(hit) if hit is not None else "-")
        lines.append("\t".join(row))
    return "\n".join(lines)


def render_ascii_plot(
    series_list: list[Series],
    value: str = "per_minute",
    width: int = 60,
    log_y: bool = False,
    title: str = "",
) -> str:
    """Rough horizontal-bar plot, one block per series per x value."""
    getter = {
        "per_minute": lambda r: r.per_minute,
        "transmitted": lambda r: float(r.transmitted),
        "not_sent": lambda r: float(r.not_sent),
    }[value]
    rows: list[tuple[int, str, float]] = []
    for s in series_list:
        for r in s.results:
            rows.append((r.clients, s.label, getter(r)))
    if not rows:
        return "(no data)"
    values = [v for _, _, v in rows]
    top = max(values) or 1.0

    def scale(v: float) -> int:
        if log_y:
            if v <= 0:
                return 0
            return int(width * math.log10(1 + v) / math.log10(1 + top))
        return int(width * v / top)

    lines = [f"# {title} [{value}]{' (log)' if log_y else ''}"] if title else []
    label_w = max(len(lbl) for _, lbl, _ in rows)
    for clients, label, v in sorted(rows, key=lambda t: (t[0], t[1])):
        bar = "#" * scale(v)
        lines.append(f"{clients:>6} {label:<{label_w}} |{bar} {v:.0f}")
    return "\n".join(lines)
