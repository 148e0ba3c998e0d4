"""Table 1 — possible interactions between Web Service peers using WSD.

The paper's matrix (client style × service style) with its verdicts:

=====================  ==========================  ===========================
                       RPC based service           Messaging based service
=====================  ==========================  ===========================
Peer acting as         (1) Limited but very        (2) Very limited (may not
RPC client             popular (RPC connection     work at all if message
                       is forwarded)               reply comes too late)
Peer acting as         (3) Limited: RPC server is  (4) Unlimited (no transport
messaging client       a bottleneck (translation   time limit on sending
                       of semantics)               response)
=====================  ==========================  ===========================

We operationalise each verdict:

- *works_fast*  — a call with a sub-second service time completes.
- *works_slow*  — a call whose service needs longer than every HTTP/TCP
  timeout on the path still completes.  Only quadrant 4 can.
- *throughput*  — messages/minute at a moderate service delay with ten
  concurrent clients: quadrant 3's translation holds a dispatcher
  connection per in-flight call, so it trails quadrant 4 (the
  "bottleneck").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import (
    SimMsgDispatcher,
    SimMsgDispatcherConfig,
    SimRpcDispatcher,
)
from repro.experiments.common import (
    DISPATCHER_SERVICE_TIME,
    ExperimentReport,
    SOAP_SERVICE_TIME,
)
from repro.http import Headers, HttpRequest
from repro.msgbox import MailboxStore, MsgBoxService
from repro.msgbox.service import make_mailbox_epr
from repro.rt.service import SoapHttpApp
from repro.simnet.httpsim import SimHttpServer, sim_http_request
from repro.simnet.kernel import Simulator
from repro.simnet.scenarios import BACKBONE_IU, INRIA, add_site
from repro.simnet.services import SimAsyncEchoService
from repro.simnet.topology import Network
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.util.ids import IdGenerator
from repro.workload.echo import EchoService, make_echo_message, make_echo_request
from repro.workload.results import RunResult
from repro.workload.sim_testclient import SimRampConfig, SimRampTester

#: every HTTP timeout on the paths below is <= this; a service slower than
#: this can only answer via messaging
SLOW_DELAY = 45.0
FAST_DELAY = 0.2
MODERATE_DELAY = 1.0

QUADRANTS = {
    1: "RPC client -> RPC service",
    2: "RPC client -> MSG service",
    3: "MSG client -> RPC service",
    4: "MSG client -> MSG service",
}

PAPER_VERDICTS = {
    1: "limited but very popular",
    2: "very limited",
    3: "limited: RPC server is a bottleneck",
    4: "unlimited",
}


@dataclass
class QuadrantResult:
    quadrant: int
    works_fast: bool
    works_slow: bool
    throughput_per_min: float

    @property
    def verdict(self) -> str:
        if self.works_slow:
            return "unlimited"
        if self.works_fast:
            return "limited"
        return "broken"


def _build_world(service_delay: float, rpc_service: bool):
    """Common world: firewalled client, service + dispatcher stack at IU."""
    sim = Simulator()
    net = Network(sim)
    client = add_site(net, INRIA, name="inria")
    ws_host = add_site(net, replace(BACKBONE_IU, name="iuWS"), open_ports=(9000,))
    wsd_host = add_site(
        net, replace(BACKBONE_IU, name="iuWSD"),
        open_ports=(8000, 8100, 8200, 8500),
    )
    registry = ServiceRegistry()
    registry.register("echo", "http://iuWS:9000/echo")

    if rpc_service:
        app = SoapHttpApp()
        app.mount("/echo", EchoService())

        def slow_handler(request):
            yield sim.timeout(service_delay)
            return app.handle_request(request, None)

        SimHttpServer(net, ws_host, 9000, slow_handler, workers=64,
                      service_time=SOAP_SERVICE_TIME)
        echo_service = None
    else:
        echo_service = SimAsyncEchoService(
            net, ws_host, reply_senders=64, response_delay=service_delay
        )
        SimHttpServer(net, ws_host, 9000, echo_service.handler, workers=64,
                      service_time=SOAP_SERVICE_TIME)

    msg_config = SimMsgDispatcherConfig(
        ws_workers=16,
        response_timeout=30.0,
        accept_queue=128,
        destination_queue=64,
        parallel_per_destination=4,
    )
    msg_disp = SimMsgDispatcher(
        net, wsd_host, registry, own_address="http://iuWSD:8000/msg",
        config=msg_config,
    )
    SimHttpServer(net, wsd_host, 8000, msg_disp.handler, workers=64,
                  service_time=DISPATCHER_SERVICE_TIME)
    SimHttpServer(net, wsd_host, 8100,
                  lambda req: msg_disp.bridge_handler(req, bridge_timeout=30.0),
                  workers=64, service_time=DISPATCHER_SERVICE_TIME)
    rpc_disp = SimRpcDispatcher(net, wsd_host, registry, response_timeout=30.0)
    SimHttpServer(net, wsd_host, 8200, rpc_disp.handler, workers=64,
                  service_time=DISPATCHER_SERVICE_TIME)

    store = MailboxStore(clock=sim.clock, max_messages_per_box=100_000)
    msgbox = MsgBoxService(store, base_url="http://iuWSD:8500/mailbox")
    mb_app = SoapHttpApp()
    mb_app.mount("/mailbox", msgbox)
    SimHttpServer(net, wsd_host, 8500, mb_app, workers=64,
                  service_time=SOAP_SERVICE_TIME)
    handles = {"msgbox": msgbox, "msg_disp": msg_disp, "rpc_disp": rpc_disp}
    return sim, net, client, store, handles


def _single_call(quadrant: int, service_delay: float) -> bool:
    """One call through the quadrant's path; True when the reply arrives."""
    rpc_service = quadrant in (1, 3)
    sim, net, client, store, _handles = _build_world(service_delay, rpc_service)
    ids = IdGenerator("t1", seed=quadrant)
    outcome: list[bool] = []

    def rpc_style_call(port: int, path: str):
        body = make_echo_request().to_bytes()
        headers = Headers()
        headers.set("Content-Type", SOAP11_CONTENT_TYPE)
        req = HttpRequest("POST", path, headers=headers, body=body)
        try:
            resp = yield from sim_http_request(
                net, client, "iuWSD", port, req,
                connect_timeout=10.0, response_timeout=60.0,
            )
            outcome.append(resp.status == 200 and bool(resp.body))
        except Exception:
            outcome.append(False)

    def msg_style_call():
        mailbox_id = store.create()
        epr = make_mailbox_epr("http://iuWSD:8500/mailbox", mailbox_id)
        env = make_echo_message(
            to="urn:wsd:echo", message_id=ids.next(), reply_to=epr
        )
        headers = Headers()
        headers.set("Content-Type", SOAP11_CONTENT_TYPE)
        req = HttpRequest("POST", "/msg/echo", headers=headers,
                          body=env.to_bytes())
        try:
            resp = yield from sim_http_request(
                net, client, "iuWSD", 8000, req,
                connect_timeout=10.0, response_timeout=10.0,
            )
            if resp.status != 202:
                outcome.append(False)
                return
        except Exception:
            outcome.append(False)
            return
        # poll the mailbox (in simulated time) for the response
        deadline = sim.now + service_delay + 90.0
        while sim.now < deadline:
            if store.peek_count(mailbox_id) > 0:
                outcome.append(True)
                return
            yield sim.timeout(1.0)
        outcome.append(False)

    if quadrant == 1:
        proc = sim.process(rpc_style_call(8200, "/rpc/echo"))
    elif quadrant == 2:
        proc = sim.process(rpc_style_call(8100, "/bridge/echo"))
    else:
        proc = sim.process(msg_style_call())
    sim.run(until=proc)
    return bool(outcome and outcome[0])


def _throughput(quadrant: int, clients: int, duration: float) -> RunResult:
    """Concurrent echo load at a moderate service delay."""
    rpc_service = quadrant in (1, 3)
    sim, net, client, store, handles = _build_world(MODERATE_DELAY, rpc_service)
    ids = IdGenerator("t1-load", seed=quadrant)

    if quadrant in (1, 2):
        port, path = (8200, "/rpc/echo") if quadrant == 1 else (8100, "/bridge/echo")
        tester = SimRampTester(net, client, "iuWSD", port, path)
    else:
        eprs = [
            make_mailbox_epr("http://iuWSD:8500/mailbox", store.create())
            for _ in range(clients)
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
            return HttpRequest("POST", "/msg/echo", headers=headers,
                               body=env.to_bytes())

        tester = SimRampTester(net, client, "iuWSD", 8000, "/msg/echo", factory)
    result = tester.run(SimRampConfig(
        clients=clients, duration=duration,
        connect_timeout=10.0, response_timeout=35.0,
    ))
    if quadrant in (3, 4):
        # the throughput that matters is *completed* exchanges: responses
        # actually landing in mailboxes (acceptance alone just buffers)
        deposits = handles["msgbox"].stats.get("deposits", 0)
        result.transmitted = deposits
    return result


def run(clients: int = 10, duration: float = 30.0) -> ExperimentReport:
    """Reproduce Table 1's verdicts; returns per-quadrant results."""
    report = ExperimentReport(
        experiment="Table 1",
        description="Interaction matrix: RPC/messaging client x RPC/messaging service",
    )
    rows = ["quadrant\tpath\tfast\tslow\tmsgs/min\tpaper verdict"]
    results: dict[int, QuadrantResult] = {}
    for quadrant in (1, 2, 3, 4):
        works_fast = _single_call(quadrant, FAST_DELAY)
        works_slow = _single_call(quadrant, SLOW_DELAY)
        tp = _throughput(quadrant, clients, duration)
        qr = QuadrantResult(quadrant, works_fast, works_slow, tp.per_minute)
        results[quadrant] = qr
        rows.append(
            f"({quadrant})\t{QUADRANTS[quadrant]}\t"
            f"{'yes' if works_fast else 'NO'}\t"
            f"{'yes' if works_slow else 'NO'}\t"
            f"{tp.per_minute:.0f}\t{PAPER_VERDICTS[quadrant]}"
        )
    report.tables = ["\n".join(rows)]
    report.extras["results"] = results
    return report


def check_shape(report: ExperimentReport) -> list[str]:
    """Paper-verdict checks; returns failed checks."""
    results: dict[int, QuadrantResult] = report.extras["results"]  # type: ignore[assignment]
    failures: list[str] = []
    for q in (1, 2, 3, 4):
        if not results[q].works_fast:
            failures.append(f"quadrant {q} broken even for a fast service")
    for q in (1, 2, 3):
        if results[q].works_slow:
            failures.append(
                f"quadrant {q} should hit transport time limits for slow services"
            )
    if not results[4].works_slow:
        failures.append("quadrant 4 must work regardless of service delay")
    if not results[4].throughput_per_min > results[3].throughput_per_min:
        failures.append(
            "quadrant 3 (translation to RPC) should be the bottleneck vs 4"
        )
    return failures
