#!/usr/bin/env python
"""Quickstart: stand up the full WS-Dispatcher stack in one process.

Builds the paper's Figure 1 deployment on real threads and real HTTP
framing (over the in-process transport, so it runs anywhere with zero
setup):

- an echo Web Service in the "inaccessible zone",
- the intermediary host with Registry, RPC-Dispatcher, MSG-Dispatcher and
  WS-MsgBox,
- a client that calls the service both ways: synchronous SOAP-RPC through
  the RPC-Dispatcher, and asynchronous messaging with a mailbox.

Run:  python examples/quickstart.py
"""

import re

from repro.core import MsgDispatcher, MsgDispatcherConfig, RpcDispatcher, ServiceRegistry
from repro.http import HttpRequest
from repro.msgbox import MailboxSecurity, MailboxStore, MsgBoxClient, MsgBoxService
from repro.obs import Introspection
from repro.rt import HttpClient, HttpServer, SoapHttpApp
from repro.soap import parse_rpc_response
from repro.transport import InprocNetwork
from repro.util.ids import IdGenerator
from repro.workload import AsyncEchoService, EchoService, make_echo_message, make_echo_request


def main() -> None:
    net = InprocNetwork()

    # ------------------------------------------------------------------
    # Inaccessible zone: the Web Service host (think: behind a firewall)
    # ------------------------------------------------------------------
    ws_http = HttpClient(net)
    ws_app = SoapHttpApp()
    ws_app.mount("/echo-rpc", EchoService())            # classic request/response
    ws_app.mount("/echo-msg", AsyncEchoService(ws_http))  # one-way messaging
    ws_server = HttpServer(
        net.listen("internal.example:9000"), ws_app.handle_request, workers=4
    ).start()
    print(f"[ws]   echo services listening at {ws_server.url}")

    # ------------------------------------------------------------------
    # Intermediary: Registry + both dispatchers + WS-MsgBox
    # ------------------------------------------------------------------
    registry = ServiceRegistry()
    registry.register(
        "echo-rpc", "http://internal.example:9000/echo-rpc",
        metadata={"desc": "RPC echo"},
    )
    registry.register(
        "echo-msg", "http://internal.example:9000/echo-msg",
        metadata={"desc": "messaging echo"},
    )

    wsd_http = HttpClient(net)
    rpc_dispatcher = RpcDispatcher(registry, wsd_http)
    msg_dispatcher = MsgDispatcher(
        registry,
        wsd_http,
        own_address="http://wsd.example:8000/msg",
        config=MsgDispatcherConfig(cx_threads=2, ws_threads=4),
    )
    msgbox = MsgBoxService(
        MailboxStore(),
        security=MailboxSecurity(b"quickstart-secret"),
        base_url="http://wsd.example:8000/mailbox",
    )
    intro = Introspection(title="WS-Dispatcher status")
    intro.add_source("msg-dispatcher", msg_dispatcher)
    intro.add_source("rpc-dispatcher", rpc_dispatcher)
    intro.add_source("msgbox", msgbox)
    intro.add_source("registry", lambda: registry.stats)

    app = SoapHttpApp()
    app.mount("/msg", msg_dispatcher)
    app.mount("/mailbox", msgbox)
    intro.mount(app)  # GET /metrics, /trace, /health, ...

    def front_door(request, peer=None):
        if request.target.startswith("/rpc"):
            return rpc_dispatcher.handle_request(request, peer)
        return app.handle_request(request, peer)

    wsd_server = HttpServer(
        net.listen("wsd.example:8000"), front_door, workers=8
    ).start()
    print(f"[wsd]  dispatcher listening at {wsd_server.url}")

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    client = HttpClient(net)

    # 1) synchronous SOAP-RPC through the RPC-Dispatcher
    reply = client.call_soap("http://wsd.example:8000/rpc/echo-rpc", make_echo_request())
    echoed = parse_rpc_response(reply).result("return")
    print(f"[rpc]  synchronous echo returned {len(echoed or '')} bytes of payload")

    # 2) asynchronous messaging with a mailbox (the firewalled-client path)
    mailbox = MsgBoxClient(client, "http://wsd.example:8000/mailbox")
    mailbox.create()
    print(f"[mbox] created mailbox {mailbox.mailbox_id[:12]}…")

    ids = IdGenerator("quickstart", seed=1)
    message = make_echo_message(
        to="urn:wsd:echo-msg", message_id=ids.next(), reply_to=mailbox.epr()
    )
    status = client.post_envelope("http://wsd.example:8000/msg/echo-msg", message).status
    print(f"[msg]  one-way message accepted with HTTP {status}")

    responses = mailbox.poll(expected=1, timeout=5)
    body = parse_rpc_response(responses[0])
    print(f"[mbox] picked up {len(responses)} response; echo payload intact: "
          f"{body.result('return') is not None}")

    # the ops view: live counters of every component over plain GET, one
    # repro_component_stat{component=,stat=} line per counter
    exposition = client.request(
        "http://wsd.example:8000/metrics", HttpRequest("GET", "/metrics")
    ).body.decode()
    print("[status]")
    shown = None
    for line in exposition.splitlines():
        if not line.startswith("repro_component_stat{"):
            continue
        labels, value = line.rsplit(" ", 1)
        component, stat = re.findall(r'"([^"]*)"', labels)
        if component != shown:
            print(f"    [{component}]")
            shown = component
        print(f"      {stat} = {value}")
    mailbox.destroy()
    client.close()
    msg_dispatcher.stop()
    wsd_server.stop()
    ws_server.stop()
    print("done.")


if __name__ == "__main__":
    main()
