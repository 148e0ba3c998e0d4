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
  the dispatcher sheds load.  The paper calls this "the slowest
  performance".
- **With MSG-D and MsgBox** — responses go to a WS-MsgBox mailbox next to
  the dispatcher; every hop is between accessible endpoints, so this is
  "the best from [a] performance perspective when the number of
  concurrent connections is higher than 10".

Measured: one-way echo messages per minute successfully handed to the
entry point (the paper's "how many calls were made").
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import SimMsgDispatcher, SimMsgDispatcherConfig
from repro.experiments.common import (
    CLIENT_CALL_OVERHEAD,
    DISPATCHER_SERVICE_TIME,
    ExperimentReport,
    SOAP_SERVICE_TIME,
    paper_shape_summary,
)
from repro.http import Headers, HttpRequest
from repro.msgbox import MailboxStore, MsgBoxService
from repro.msgbox.service import make_mailbox_epr
from repro.rt.service import RequestContext, SoapHttpApp
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.kernel import Simulator
from repro.simnet.scenarios import BACKBONE_IU, INRIA, add_site
from repro.simnet.services import SimAsyncEchoService
from repro.simnet.topology import Network
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message
from repro.workload.results import Series, render_table
from repro.workload.sim_testclient import SimRampConfig, SimRampTester
from repro.wsa import EndpointReference

PAPER_CLIENT_COUNTS = [1, 5, 10, 20, 30, 40, 50]
PAPER_DURATION = 60.0

MODES = ("one-way direct (response blocked)", "MSG-Dispatcher", "MSG-D + MsgBox")


def _build(mode: str, clients: int, reply_connect_timeout: float):
    """Assemble one fig6 configuration; returns (net, tester pieces)."""
    sim = Simulator()
    net = Network(sim)
    client_host = add_site(net, INRIA, name="inria")
    ws_host = add_site(net, replace(BACKBONE_IU, name="iuWS"), open_ports=(9000,))
    wsd_host = add_site(
        net, replace(BACKBONE_IU, name="iuWSD"), open_ports=(8000, 8500)
    )

    echo_ws = SimAsyncEchoService(
        net,
        ws_host,
        reply_senders=32,  # a container-default pool; the dispatcher's
        connect_timeout=reply_connect_timeout,  # WsThread pool is smaller
    )
    SimHttpServer(
        net, ws_host, 9000, echo_ws.handler, workers=32,
        service_time=SOAP_SERVICE_TIME,
    )

    ids = IdGenerator("fig6", seed=clients)
    extras: dict[str, object] = {"echo_ws": echo_ws}

    if mode == "one-way direct (response blocked)":
        # replies target per-client endpoints on the firewalled host
        def factory(counter=[0]):
            counter[0] += 1
            port = 20000 + counter[0] % max(clients, 1)
            env = make_echo_message(
                to=f"http://iuWS:9000/echo",
                message_id=ids.next(),
                reply_to=EndpointReference(f"http://inria:{port}/reply"),
            )
            headers = Headers()
            headers.set("Content-Type", SOAP11_CONTENT_TYPE)
            return HttpRequest("POST", "/echo", headers=headers, body=env.to_bytes())

        tester = SimRampTester(net, client_host, "iuWS", 9000, "/echo", factory)
        return net, tester, extras

    registry = ServiceRegistry()
    registry.register("echo", "http://iuWS:9000/echo")
    config = SimMsgDispatcherConfig(
        cx_workers=4,
        ws_workers=8,
        accept_queue=128,
        destination_queue=16,
        parallel_per_destination=4,
        connect_timeout=reply_connect_timeout,
        shed_on_full=False,  # paper-faithful: no admission control
    )
    dispatcher = SimMsgDispatcher(
        net, wsd_host, registry, own_address="http://iuWSD:8000/msg", config=config
    )
    SimHttpServer(
        net, wsd_host, 8000, dispatcher.handler, workers=32,
        service_time=DISPATCHER_SERVICE_TIME,
    )
    extras["dispatcher"] = dispatcher

    if mode == "MSG-Dispatcher":
        def factory(counter=[0]):
            counter[0] += 1
            port = 20000 + counter[0] % max(clients, 1)
            env = make_echo_message(
                to="urn:wsd:echo",
                message_id=ids.next(),
                reply_to=EndpointReference(f"http://inria:{port}/reply"),
            )
            headers = Headers()
            headers.set("Content-Type", SOAP11_CONTENT_TYPE)
            return HttpRequest(
                "POST", "/msg/echo", headers=headers, body=env.to_bytes()
            )

        tester = SimRampTester(net, client_host, "iuWSD", 8000, "/msg/echo", factory)
        return net, tester, extras

    # MSG-D + MsgBox: mailbox service co-located with the dispatcher
    store = MailboxStore(clock=sim.clock, max_messages_per_box=100_000)
    msgbox = MsgBoxService(store, base_url="http://iuWSD:8500/mailbox")
    mb_app = SoapHttpApp()
    mb_app.mount("/mailbox", msgbox)
    SimHttpServer(
        net, wsd_host, 8500, mb_app,  # recorded on the host: co-hosted (§4.3.2)
        workers=32,
        service_time=SOAP_SERVICE_TIME,
    )
    extras["msgbox"] = msgbox

    # one mailbox per client (created out of band; the RPC create call is
    # cheap and not part of the measured steady state)
    eprs = [
        make_mailbox_epr("http://iuWSD:8500/mailbox", store.create())
        for _ in range(max(clients, 1))
    ]

    def factory(counter=[0]):
        counter[0] += 1
        env = make_echo_message(
            to="urn:wsd:echo",
            message_id=ids.next(),
            reply_to=eprs[counter[0] % len(eprs)],
        )
        headers = Headers()
        headers.set("Content-Type", SOAP11_CONTENT_TYPE)
        return HttpRequest("POST", "/msg/echo", headers=headers, body=env.to_bytes())

    tester = SimRampTester(net, client_host, "iuWSD", 8000, "/msg/echo", factory)
    return net, tester, extras


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
            net, tester, extras = _build(mode, clients, reply_connect_timeout)
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
                "events": net.sim.events_processed,
                "processes": net.sim.processes_started,
            }
            if "dispatcher" in extras:
                report.extras[key] = dict(extras["dispatcher"].stats)
            if "msgbox" in extras:
                report.extras[key + ":deposits"] = extras["msgbox"].stats.get(
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
