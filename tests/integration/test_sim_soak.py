"""Deterministic soak test: mixed workload, conservation invariants.

Runs a long (simulated) mixed workload through the full simulated
deployment and checks *accounting identities*: every message the
dispatcher accepted is either delivered, dropped for a counted reason, or
still queued; every mailbox deposit is a delivered response; no
connection slots leak.
"""

import pytest

from dataclasses import replace

from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import SimMsgDispatcher, SimMsgDispatcherConfig
from repro.http import Headers, HttpRequest
from repro.msgbox import MailboxStore, MsgBoxService
from repro.msgbox.service import make_mailbox_epr
from repro.rt.service import SoapHttpApp
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.kernel import Simulator
from repro.simnet.scenarios import BACKBONE_IU, INRIA, add_site
from repro.simnet.services import SimAsyncEchoService
from repro.simnet.topology import Network
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message
from repro.workload.sim_testclient import SimRampConfig, SimRampTester


@pytest.mark.slow
def test_soak_accounting_identities():
    sim = Simulator()
    net = Network(sim)
    client_host = add_site(net, INRIA, name="inria")
    ws_host = add_site(net, replace(BACKBONE_IU, name="iuWS"), open_ports=(9000,))
    wsd_host = add_site(
        net, replace(BACKBONE_IU, name="iuWSD"), open_ports=(8000, 8500)
    )

    echo = SimAsyncEchoService(net, ws_host, reply_senders=32)
    SimHttpServer(net, ws_host, 9000, echo.handler, workers=32, service_time=0.002)

    registry = ServiceRegistry()
    registry.register("echo", "http://iuWS:9000/echo")
    dispatcher = SimMsgDispatcher(
        net,
        wsd_host,
        registry,
        own_address="http://iuWSD:8000/msg",
        config=SimMsgDispatcherConfig(
            cx_workers=4,
            ws_workers=8,
            parallel_per_destination=4,
            shed_on_full=True,
        ),
    )
    SimHttpServer(net, wsd_host, 8000, dispatcher.handler, workers=32,
                  service_time=0.002)

    store = MailboxStore(clock=sim.clock, max_messages_per_box=1_000_000)
    msgbox = MsgBoxService(store, base_url="http://iuWSD:8500/mailbox")
    app = SoapHttpApp()
    app.mount("/mailbox", msgbox)
    # served as an app, so the host records it: the dispatcher derives
    # that this mailbox is co-hosted and passes its ReplyTo through
    SimHttpServer(net, wsd_host, 8500, app, workers=32, service_time=0.002)

    ids = IdGenerator("soak", seed=99)
    boxes = [store.create() for _ in range(20)]
    eprs = [make_mailbox_epr("http://iuWSD:8500/mailbox", b) for b in boxes]

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
    result = tester.run(SimRampConfig(clients=20, duration=120.0))
    # drain: let in-flight deliveries and replies settle
    sim.run(until=sim.now + 40.0)

    stats = dispatcher.stats
    accepted = stats.get("accepted", 0)
    routed = stats.get("routed_requests", 0)
    delivered = stats.get("delivered", 0)
    failures = stats.get("delivery_failures", 0)
    backlog = dispatcher.backlog()

    assert accepted > 1000  # a real soak, not a trickle

    # (1) everything accepted is routed or still in the accept queue or
    #     dropped for a counted reason
    dropped = (
        stats.get("dropped_unroutable", 0)
        + stats.get("dropped_destination_queue_full", 0)
        + stats.get("unknown_service", 0)
        + stats.get("dropped_no_reply_to", 0)
    )
    assert routed + dropped + backlog >= accepted - 5  # in-flight slack
    # (2) routed requests are delivered, failed, or queued
    assert delivered + failures + backlog >= routed
    # (3) the WS saw exactly the delivered requests
    assert echo.stats["received"] == delivered
    # (4) every reply the WS sent landed in a mailbox (passthrough path)
    replies = echo.stats.get("replies_sent", 0)
    deposited = sum(store.stats(b)["deposits"] for b in boxes)
    assert deposited == replies
    # replies are produced for every received message eventually
    assert replies >= echo.stats["received"] - 64  # minus in-flight senders
    # (5) client-side counts match the dispatcher's acceptance, up to the
    #     posts whose 202 was still in flight when the window closed
    assert 0 <= accepted - result.transmitted <= 20

    # (6) connection slots do not leak once traffic stops
    sim.run(until=sim.now + 60.0)
    for host in (client_host, ws_host, wsd_host):
        # pooled keep-alive connections may persist; bound, not growing
        assert host.active_connections <= 80
