"""Command-line experiment runner.

Regenerate any of the paper's tables/figures (or the ablations) from a
shell::

    python -m repro.experiments fig6 --clients 1,10,30,50 --duration 60
    python -m repro.experiments table1
    python -m repro.experiments fig4 --paper-scale
    python -m repro.experiments msgbox-bug

Output is the same rows/series the benchmarks record, printed to stdout.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import (
    ablations,
    chaos,
    crashrecovery,
    drain,
    fig4,
    fig5,
    fig6,
    registryfailover,
    table1,
)
from repro.workload.results import render_ascii_plot


def _parse_counts(text: str | None) -> list[int] | None:
    if not text:
        return None
    return [int(x) for x in text.split(",") if x.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "fig4", "fig5", "fig6", "table1",
            "msgbox-bug", "pool-sizing", "batching", "reliability", "chaos",
            "crash-recovery", "drain", "registry-failover", "failover",
        ],
    )
    parser.add_argument(
        "--runtime",
        choices=drain.RUNTIMES,
        default="threaded",
        help="dispatcher backend for the drain experiment",
    )
    parser.add_argument(
        "--clients",
        help="comma-separated client counts (figures) or count (table1)",
    )
    parser.add_argument(
        "--duration", type=float,
        help="seconds per point (default 20; fig6 60, failover 30)",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's full parameters",
    )
    parser.add_argument(
        "--plot", action="store_true", help="append an ASCII plot"
    )
    args = parser.parse_args(argv)

    counts = _parse_counts(args.clients)
    name = args.experiment

    if name in ("fig4", "fig5", "fig6"):
        module = {"fig4": fig4, "fig5": fig5, "fig6": fig6}[name]
        if args.paper_scale:
            counts = module.PAPER_CLIENT_COUNTS
            duration = module.PAPER_DURATION
        else:
            # Fig 6's dispatcher-only curve collapses only once its
            # WsThreads have burned enough connect timeouts: below the
            # paper's 60 s per point its "slowest" check cannot decide
            duration = args.duration or (
                fig6.PAPER_DURATION if module is fig6 else 20.0
            )
        report = module.run(client_counts=counts, duration=duration)
        print(report.render())
        if args.plot:
            value = "transmitted" if name == "fig4" else "per_minute"
            print()
            print(render_ascii_plot(report.series, value, title=name))
        failures = module.check_shape(report)
    elif name == "table1":
        clients = counts[0] if counts else 10
        report = table1.run(clients=clients, duration=args.duration or 20.0)
        print(report.render())
        failures = table1.check_shape(report)
    elif name == "msgbox-bug":
        report = ablations.msgbox_bug(client_counts=counts)
        print(report.render())
        failures = ablations.check_msgbox_bug(report)
    elif name == "pool-sizing":
        report = ablations.pool_sizing(
            clients=counts[0] if counts else 20,
            duration=args.duration or 15.0,
        )
        print(report.render())
        failures = ablations.check_pool_sizing(report)
    elif name == "batching":
        report = ablations.batching(
            clients=counts[0] if counts else 20,
            duration=args.duration or 15.0,
        )
        print(report.render())
        failures = ablations.check_batching(report)
    elif name == "chaos":
        messages = counts[0] if counts else 120
        report = chaos.run(messages=messages)
        print(report.render())
        failures = chaos.check_shape(report)
    elif name == "crash-recovery":
        messages = counts[0] if counts else 80
        report = crashrecovery.run(messages=messages)
        print(report.render())
        failures = crashrecovery.check_shape(report)
    elif name == "drain":
        messages = counts[0] if counts else 400
        report = drain.run(runtime=args.runtime, messages=messages)
        print(report.render())
        failures = drain.check_shape(report)
    elif name == "failover":
        report = ablations.failover(duration=args.duration or 30.0)
        print(report.render())
        failures = ablations.check_failover(report)
    elif name == "registry-failover":
        report = registryfailover.run()
        print(report.render())
        failures = registryfailover.check_shape(report)
    else:  # reliability
        report = ablations.reliability()
        print(report.render())
        failures = ablations.check_reliability(report)

    if failures:
        print("\nSHAPE CHECK FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall shape checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
