"""repro — a full reproduction of *Asynchronous Peer-to-Peer Web Services
and Firewalls* (Caromel, di Costanzo, Gannon, Slominski — IPDPS 2005).

The package rebuilds the paper's entire system in Python:

- **WS-Dispatcher** — the intermediary that lets Web Service peers behind
  firewalls interact: :class:`~repro.core.rpc_dispatcher.RpcDispatcher`
  (SOAP-aware forwarding proxy) and
  :class:`~repro.core.msg_dispatcher.MsgDispatcher` (asynchronous
  WS-Addressing router with CxThread/WsThread pools).
- **WS-MsgBox** — the post-office mailbox for clients with no network
  endpoint (:mod:`repro.msgbox`), including the paper's §4.3.2
  thread-explosion bug as a reproducible mode.
- **Registry** — logical→physical service naming (:mod:`repro.core.registry`).
- **The whole substrate**, from scratch: XML (:mod:`repro.xmlmini`),
  SOAP 1.1/1.2 (:mod:`repro.soap`), WS-Addressing (:mod:`repro.wsa`),
  HTTP/1.1 wire protocol (:mod:`repro.http`), threaded runtime
  (:mod:`repro.rt`), and a deterministic discrete-event network simulator
  (:mod:`repro.simnet`) that recreates the paper's trans-Atlantic testbed.
- **Future work, implemented**: hold/retry reliable delivery and mailbox
  owner tokens (:mod:`repro.reliable`, :mod:`repro.msgbox.security`).

Quick taste (see ``examples/quickstart.py`` for the full tour)::

    from repro.core import ServiceRegistry, RpcDispatcher
    from repro.rt import HttpClient, HttpServer, SoapHttpApp
    from repro.transport import InprocNetwork
    from repro.workload import EchoService, make_echo_request
    from repro.soap import parse_rpc_response

    net = InprocNetwork()
    app = SoapHttpApp(); app.mount("/echo", EchoService())
    HttpServer(net.listen("ws:9000"), app.handle_request).start()

    registry = ServiceRegistry()
    registry.register("echo", "http://ws:9000/echo")
    wsd = RpcDispatcher(registry, HttpClient(net))
    HttpServer(net.listen("wsd:8000"), wsd.handle_request).start()

    client = HttpClient(net)
    reply = client.call_soap("http://wsd:8000/rpc/echo", make_echo_request())
    print(parse_rpc_response(reply).result("return"))
"""

__version__ = "1.0.0"

from repro import errors
from repro.core import (
    MsgDispatcher,
    MsgDispatcherConfig,
    RpcDispatcher,
    ServiceRegistry,
)
from repro.msgbox import MailboxStore, MsgBoxClient, MsgBoxService
from repro.soap import Envelope
from repro.wsa import AddressingHeaders, EndpointReference

__all__ = [
    "__version__",
    "errors",
    "ServiceRegistry",
    "RpcDispatcher",
    "MsgDispatcher",
    "MsgDispatcherConfig",
    "MsgBoxService",
    "MsgBoxClient",
    "MailboxStore",
    "Envelope",
    "AddressingHeaders",
    "EndpointReference",
]
