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

from dataclasses import dataclass

from repro.core.sim_dispatcher import SimMsgDispatcherConfig
from repro.experiments.common import (
    BRIDGE_PORT,
    MSGD_PORT,
    RPCD_PORT,
    ExperimentReport,
    build_iu_deployment,
)
from repro.http.session import soap_post
from repro.simnet.httpsim import sim_http_request
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message, make_echo_request
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

#: where an RPC client calls each RPC quadrant: the RPC-Dispatcher, the
#: sync bridge
RPC_DOORS = {1: (RPCD_PORT, "/rpc/echo"), 2: (BRIDGE_PORT, "/bridge/echo")}
#: the MSG-Dispatcher in front of every quadrant's echo
MSGD_CONFIG = SimMsgDispatcherConfig(
    ws_workers=16,
    response_timeout=30.0,
    accept_queue=128,
    destination_queue=64,
    parallel_per_destination=4,
)

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


def _single_call(quadrant: int, service_delay: float) -> bool:
    """One call through the quadrant's path; True when the reply arrives."""
    world = build_iu_deployment(
        workers=64, rpc_echo=quadrant in (1, 3), echo_delay=service_delay,
        dispatcher=MSGD_CONFIG, rpc_doors=True,
    )
    sim = world.sim
    ids = IdGenerator("t1", seed=quadrant)
    outcome: list[bool] = []

    def rpc_style_call(port: int, path: str):
        req = soap_post(make_echo_request().to_bytes(), path)
        try:
            resp = yield from sim_http_request(
                world.net, world.client, "iuWSD", port, req,
                connect_timeout=10.0, response_timeout=60.0,
            )
            outcome.append(resp.status == 200 and bool(resp.body))
        except Exception:
            outcome.append(False)

    def msg_style_call():
        (epr,) = world.open_mailboxes(1)
        env = make_echo_message(
            to="urn:wsd:echo", message_id=ids.next(), reply_to=epr
        )
        req = soap_post(env.to_bytes(), "/msg/echo")
        try:
            resp = yield from sim_http_request(
                world.net, world.client, "iuWSD", MSGD_PORT, req,
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
            if world.store.peek_count(world.mailboxes[0]) > 0:
                outcome.append(True)
                return
            yield sim.timeout(1.0)
        outcome.append(False)

    if quadrant in RPC_DOORS:
        proc = sim.process(rpc_style_call(*RPC_DOORS[quadrant]))
    else:
        proc = sim.process(msg_style_call())
    sim.run(until=proc)
    return bool(outcome and outcome[0])


def _throughput(quadrant: int, clients: int, duration: float) -> RunResult:
    """Concurrent echo load at a moderate service delay."""
    world = build_iu_deployment(
        workers=64, rpc_echo=quadrant in (1, 3), echo_delay=MODERATE_DELAY,
        dispatcher=MSGD_CONFIG, rpc_doors=True,
    )
    if quadrant in RPC_DOORS:
        port, path = RPC_DOORS[quadrant]
        tester = SimRampTester(world.net, world.client, "iuWSD", port, path)
    else:
        tester = world.tester(
            IdGenerator("t1-load", seed=quadrant), world.open_mailboxes(clients)
        )
    result = tester.run(SimRampConfig(
        clients=clients, duration=duration,
        connect_timeout=10.0, response_timeout=35.0,
    ))
    if quadrant in (3, 4):
        # the throughput that matters is *completed* exchanges: responses
        # actually landing in mailboxes (acceptance alone just buffers)
        result.transmitted = world.msgbox.stats.get("deposits", 0)
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
