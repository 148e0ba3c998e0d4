"""Figure 4 — RPC communication under "bad" conditions (low broadband).

Paper setup: test client on the cable-modem host (iuLow, 2333/288 kbps,
P3@850) calling the echo WS on inriaSlow (P3@1GHz) for one minute per
point, clients ∈ {10, 100, 200, 500, 1000, 1500, 2000}, direct vs via the
RPC-Dispatcher.  Reported: packets transmitted and packets not sent
(log-scale y).

Expected shape (paper §4.3.1): no loss for small client counts; the limit
is reached "somewhere between 100 and 500 concurrent connections"; at 500
lost ≈ delivered; at 2000 lost ≈ 1000× delivered; the dispatcher has
"little negative impact on scalability".

Mechanisms that produce this here: the client host's connection table
(256 on the consumer stack) rejects connects beyond it instantly — each
rejected echo is a packet "not sent" — while the 288 kbps uplink congests
the connects/requests that do get through, pushing latencies toward the
response timeout.
"""

from __future__ import annotations

from repro.experiments.common import (
    CLIENT_CALL_OVERHEAD,
    ExperimentReport,
    build_rpc_scenario,
    paper_shape_summary,
)
from repro.simnet.scenarios import CABLE_MODEM_US, INRIA_SLOW
from repro.workload.results import Series, render_table
from repro.workload.sim_testclient import SimRampConfig, SimRampTester

#: the paper's x axis
PAPER_CLIENT_COUNTS = [10, 100, 200, 500, 1000, 1500, 2000]
PAPER_DURATION = 60.0


def run(
    client_counts: list[int] | None = None,
    duration: float = PAPER_DURATION,
    retry_backoff: float = 0.12,
    response_timeout: float = 15.0,
) -> ExperimentReport:
    """Reproduce Figure 4; returns series 'direct' and 'dispatcher'.

    ``retry_backoff`` is the test client's pause after a failed send —
    it sets the not-sent accumulation rate for starved clients (the paper
    does not report theirs; 120 ms reproduces the observed magnitudes).
    """
    counts = client_counts or PAPER_CLIENT_COUNTS
    report = ExperimentReport(
        experiment="Figure 4",
        description=(
            "RPC communication, low broadband (iuLow cable modem -> "
            "inriaSlow), packets transmitted / not sent vs clients"
        ),
    )
    series_direct = Series("direct")
    series_disp = Series("dispatcher")
    for via, series in ((False, series_direct), (True, series_disp)):
        for clients in counts:
            scenario = build_rpc_scenario(
                CABLE_MODEM_US,
                INRIA_SLOW,
                via_dispatcher=via,
                ws_workers=32,
            )
            tester = SimRampTester(
                scenario.net,
                scenario.client_host,
                scenario.entry_host,
                scenario.entry_port,
                scenario.entry_path,
            )
            config = SimRampConfig(
                clients=clients,
                duration=duration,
                connect_timeout=10.0,
                response_timeout=response_timeout,
                retry_backoff=retry_backoff,
                think_time=CLIENT_CALL_OVERHEAD
                * CABLE_MODEM_US.cpu_factor,
            )
            series.add(tester.run(config))
    report.series = [series_direct, series_disp]
    report.tables = [
        render_table(report.series, "transmitted", title="Fig4 transmitted"),
        render_table(report.series, "not_sent", title="Fig4 not sent"),
    ]
    report.notes.append(paper_shape_summary(report.series))
    return report


def check_shape(report: ExperimentReport) -> list[str]:
    """Assertions from the paper's prose; returns failed checks."""
    failures: list[str] = []
    for label in ("direct", "dispatcher"):
        s = report.series_by_label(label)
        by_clients = {r.clients: r for r in s.results}
        small = min(by_clients)
        if by_clients[small].not_sent > 0:
            failures.append(f"{label}: loss at smallest count {small}")
        big = max(by_clients)
        if big >= 500:
            r = by_clients[big]
            if r.not_sent < r.transmitted:
                failures.append(
                    f"{label}: expected heavy loss at {big} clients "
                    f"(lost {r.not_sent} vs sent {r.transmitted})"
                )
    # dispatcher ~ direct ("little negative impact")
    d = report.series_by_label("direct")
    w = report.series_by_label("dispatcher")
    for rd, rw in zip(d.results, w.results):
        if rd.transmitted > 50 and rw.transmitted < 0.4 * rd.transmitted:
            failures.append(
                f"dispatcher collapses at {rd.clients} clients: "
                f"{rw.transmitted} vs direct {rd.transmitted}"
            )
    return failures
