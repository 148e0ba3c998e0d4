"""Figure 6 — asynchronous communication (messaging mode).

Paper setup ("good" environment): a firewalled client exchanges one-way
WS-Addressing echo messages, one minute per point, clients ∈ 1..50.
Three configurations:

- **One way (response blocked) with WS-MSG** — client sends directly to
  the messaging WS; the WS's attempts to reply to the firewalled client
  hang on dropped SYNs, starving its sender pool, which throttles how
  fast it accepts new messages.
- **With MSG-Dispatcher** — the dispatcher forwards requests fine, but
  its WsThreads burn connect timeouts trying to deliver *responses* to
  the firewalled client endpoints; delivery slots starve, queues fill,
  and the full accept queue holds the HTTP workers.  The paper calls
  this "the slowest performance".
- **With MSG-D and MsgBox** — responses go to a WS-MsgBox mailbox next to
  the dispatcher; every hop is between accessible endpoints, so this is
  "the best from [a] performance perspective when the number of
  concurrent connections is higher than 10".

Measured: one-way echo messages per minute successfully handed to the
entry point (the paper's "how many calls were made").
"""

from __future__ import annotations

from repro.core.sim_dispatcher import SimMsgDispatcherConfig
from repro.experiments.common import (
    CLIENT_CALL_OVERHEAD,
    ExperimentReport,
    build_iu_deployment,
    paper_shape_summary,
)
from repro.util.ids import IdGenerator
from repro.workload.results import Series, render_table
from repro.workload.sim_testclient import SimRampConfig
from repro.wsa import EndpointReference

PAPER_CLIENT_COUNTS = [1, 5, 10, 20, 30, 40, 50]
PAPER_DURATION = 60.0

MODES = ("one-way direct (response blocked)", "MSG-Dispatcher", "MSG-D + MsgBox")


def run(
    client_counts: list[int] | None = None,
    duration: float = PAPER_DURATION,
    reply_connect_timeout: float = 4.0,
) -> ExperimentReport:
    """Reproduce Figure 6; three series per :data:`MODES`."""
    counts = client_counts or PAPER_CLIENT_COUNTS
    report = ExperimentReport(
        experiment="Figure 6",
        description=(
            "Asynchronous communication: one-way echo messages/minute vs "
            "clients for direct / dispatcher / dispatcher+msgbox"
        ),
    )
    for mode in MODES:
        series = Series(mode)
        for clients in counts:
            # the WS's 32 reply senders are a container-default pool; the
            # dispatcher's WsThread pool is smaller
            world = build_iu_deployment(
                reply_connect_timeout=reply_connect_timeout,
                dispatcher=None if mode == MODES[0] else SimMsgDispatcherConfig(
                    cx_workers=4,
                    ws_workers=8,
                    accept_queue=128,
                    destination_queue=16,
                    parallel_per_destination=4,
                    connect_timeout=reply_connect_timeout,
                ),
                mailbox="cohosted" if mode == MODES[2] else None,
            )
            if world.msgbox is not None:
                # one mailbox per client, co-hosted with the dispatcher
                reply_tos = world.open_mailboxes(max(clients, 1))
            else:
                # replies target per-client endpoints on the firewalled host
                reply_tos = [
                    EndpointReference(f"http://inria:{20000 + i}/reply")
                    for i in range(max(clients, 1))
                ]
            tester = world.tester(IdGenerator("fig6", seed=clients), reply_tos)
            config = SimRampConfig(
                clients=clients,
                duration=duration,
                connect_timeout=10.0,
                response_timeout=10.0,
                think_time=CLIENT_CALL_OVERHEAD,
            )
            result = tester.run(config)
            series.add(result)
            key = f"{mode}@{clients}"
            # what the point cost the simulator (not rendered)
            report.extras[key + ":kernel"] = {
                "events": world.sim.events_processed,
                "processes": world.sim.processes_started,
            }
            if world.dispatcher is not None:
                report.extras[key] = dict(world.dispatcher.stats)
            if world.msgbox is not None:
                report.extras[key + ":deposits"] = world.msgbox.stats.get(
                    "deposits", 0
                )
        report.series.append(series)
    report.tables = [
        render_table(report.series, "per_minute", title="Fig6 messages/minute"),
    ]
    report.notes.append(paper_shape_summary(report.series))
    return report


def check_shape(report: ExperimentReport) -> list[str]:
    """Paper-prose checks; returns failed checks."""
    failures: list[str] = []
    direct = report.series_by_label(MODES[0])
    disp = report.series_by_label(MODES[1])
    mbox = report.series_by_label(MODES[2])
    for rd, rw, rm in zip(direct.results, disp.results, mbox.results):
        clients = rm.clients
        if clients > 10:
            if not (rm.per_minute >= rd.per_minute and rm.per_minute >= rw.per_minute):
                failures.append(
                    f"msgbox not best at {clients} clients: "
                    f"mb={rm.per_minute:.0f} direct={rd.per_minute:.0f} "
                    f"disp={rw.per_minute:.0f}"
                )
            if rw.per_minute > rd.per_minute:
                failures.append(
                    f"dispatcher-without-msgbox should be slowest at "
                    f"{clients} clients (disp={rw.per_minute:.0f} > "
                    f"direct={rd.per_minute:.0f})"
                )
    return failures
