#!/usr/bin/env python
"""Recreate the paper's trans-Atlantic testbed in the simulator.

Builds INRIA (firewalled, France) ↔ Indiana University (US backbone) with
the paper's measured bandwidths and realistic 2005 RTTs, deploys the
MSG-Dispatcher + WS-MsgBox at IU, and sweeps the client count to show the
Figure 6 effect live: with the mailbox the system scales; pointing
replies at the firewalled client collapses it.

Run:  python examples/transatlantic_simulation.py
"""

from dataclasses import replace

from repro.core import ServiceRegistry
from repro.core.sim_dispatcher import SimMsgDispatcher, SimMsgDispatcherConfig
from repro.http import Headers, HttpRequest
from repro.msgbox import MailboxStore, MsgBoxService
from repro.msgbox.service import make_mailbox_epr
from repro.rt.service import SoapHttpApp
from repro.simnet import (
    BACKBONE_IU,
    INRIA,
    SimHttpServer,
    Simulator,
)
from repro.simnet.scenarios import add_site
from repro.simnet.services import SimAsyncEchoService
from repro.simnet.topology import Network
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message
from repro.workload.sim_testclient import SimRampConfig, SimRampTester
from repro.wsa import EndpointReference


def build_world(use_mailbox: bool, clients: int):
    sim = Simulator()
    net = Network(sim)
    inria = add_site(net, INRIA, name="inria")
    iu_ws = add_site(net, replace(BACKBONE_IU, name="iuWS"), open_ports=(9000,))
    iu_wsd = add_site(
        net, replace(BACKBONE_IU, name="iuWSD"), open_ports=(8000, 8500)
    )

    echo = SimAsyncEchoService(net, iu_ws, reply_senders=32, connect_timeout=4.0)
    SimHttpServer(net, iu_ws, 9000, echo.handler, workers=32, service_time=0.004)

    registry = ServiceRegistry()
    registry.register("echo", "http://iuWS:9000/echo")
    config = SimMsgDispatcherConfig(
        cx_workers=4, ws_workers=8, accept_queue=128, destination_queue=16,
        parallel_per_destination=4, connect_timeout=4.0,
    )
    dispatcher = SimMsgDispatcher(
        net, iu_wsd, registry, own_address="http://iuWSD:8000/msg", config=config
    )
    SimHttpServer(net, iu_wsd, 8000, dispatcher.handler, workers=32,
                  service_time=0.003)

    store = MailboxStore(clock=sim.clock, max_messages_per_box=100_000)
    msgbox = MsgBoxService(store, base_url="http://iuWSD:8500/mailbox")
    mb_app = SoapHttpApp()
    mb_app.mount("/mailbox", msgbox)
    SimHttpServer(net, iu_wsd, 8500, mb_app,
                  workers=32, service_time=0.004)

    ids = IdGenerator("example", seed=clients)
    if use_mailbox:
        eprs = [
            make_mailbox_epr("http://iuWSD:8500/mailbox", store.create())
            for _ in range(clients)
        ]
        reply_for = lambda n: eprs[n % len(eprs)]
    else:
        reply_for = lambda n: EndpointReference(
            f"http://inria:{20000 + n % clients}/reply"
        )

    def factory(counter=[0]):
        counter[0] += 1
        env = make_echo_message(
            to="urn:wsd:echo", message_id=ids.next(), reply_to=reply_for(counter[0])
        )
        headers = Headers()
        headers.set("Content-Type", SOAP11_CONTENT_TYPE)
        return HttpRequest("POST", "/msg/echo", headers=headers, body=env.to_bytes())

    tester = SimRampTester(net, inria, "iuWSD", 8000, "/msg/echo", factory)
    return tester, dispatcher, msgbox


def main() -> None:
    print("Simulated testbed: INRIA (1335/1262 kbps, firewalled) "
          "<-> IU backbone (3655/2739 kbps), RTT ~130 ms\n")
    header = f"{'clients':>8} {'with mailbox':>14} {'replies->client':>16}"
    print(header)
    print("-" * len(header))
    for clients in (1, 10, 25, 50):
        row = [f"{clients:>8}"]
        for use_mailbox in (True, False):
            tester, dispatcher, msgbox = build_world(use_mailbox, clients)
            result = tester.run(
                SimRampConfig(clients=clients, duration=30.0,
                              connect_timeout=10.0, response_timeout=10.0,
                              think_time=0.004)
            )
            row.append(f"{result.per_minute:>13.0f}{'*' if not use_mailbox else ' '}")
        print(" ".join(row))
    print("\n(*) without the mailbox the dispatcher burns connect timeouts "
          "against the INRIA firewall and collapses — Figure 6's finding.")


if __name__ == "__main__":
    main()
