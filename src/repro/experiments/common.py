"""Shared experiment plumbing: scenario assembly and reporting.

Calibration constants: the paper's stack was Java/XSUL on 2005 hardware.
We charge explicit CPU costs per SOAP message so throughput magnitudes
land in the paper's range — the *shape* of every curve comes from the
modelled network/firewall/thread mechanics, not from these constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import (
    SimMsgDispatcher,
    SimMsgDispatcherConfig,
    SimRpcDispatcher,
)
from repro.msgbox import MailboxStore, MsgBoxService
from repro.msgbox.service import make_mailbox_epr
from repro.rt.service import SoapHttpApp
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.scenarios import BACKBONE_IU, INRIA, SiteSpec, add_site
from repro.simnet.kernel import Simulator
from repro.simnet.services import SimAsyncEchoService
from repro.simnet.topology import Host, Network
from repro.util.ids import IdGenerator
from repro.workload.echo import EchoService
from repro.workload.results import Series
from repro.workload.sim_testclient import SimRampTester, echo_request_factory
from repro.wsa import EndpointReference

#: CPU seconds a speed-1.0 host spends parsing+serializing one SOAP/HTTP
#: message in a 2005 Java stack (XSUL measured a few ms per message).
SOAP_SERVICE_TIME = 0.004
#: Dispatcher per-message processing (header parse, registry lookup, rewrite).
DISPATCHER_SERVICE_TIME = 0.003
#: Client-side cost to produce/consume one call (test client serialization).
CLIENT_CALL_OVERHEAD = 0.004


@dataclass
class ExperimentReport:
    """Uniform result object: labelled series + rendered text blocks."""

    experiment: str
    description: str
    series: list[Series] = field(default_factory=list)
    tables: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: free-form per-run extras (stats dicts, classifications)
    extras: dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        parts = [f"== {self.experiment} ==", self.description, ""]
        parts.extend(self.tables)
        if self.notes:
            parts.append("")
            parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)


@dataclass
class RpcScenario:
    """A built RPC measurement scenario (fresh simulator per point)."""

    sim: Simulator
    net: Network
    client_host: Host
    entry_host: str
    entry_port: int
    entry_path: str
    ws_server: SimHttpServer
    dispatcher: SimRpcDispatcher | None = None


def build_rpc_scenario(
    client_spec: SiteSpec,
    server_spec: SiteSpec,
    via_dispatcher: bool,
    ws_workers: int = 64,
    dispatcher_workers: int = 64,
    ws_port: int = 8080,
    dispatcher_port: int = 8000,
    service_time: float = SOAP_SERVICE_TIME,
) -> RpcScenario:
    """Client site → (optional RPC-Dispatcher →) echo WS.

    The WS and dispatcher ports are opened in the server site's firewall
    (the paper's services were reachable); the *client* site keeps its
    outbound-only posture, which is irrelevant for RPC since replies ride
    the same connection.
    """
    sim = Simulator()
    net = Network(sim)
    client_host = add_site(net, client_spec)
    server_host = add_site(
        net, server_spec, open_ports=(ws_port, dispatcher_port)
    )

    app = SoapHttpApp()
    app.mount("/echo", EchoService())
    ws_server = SimHttpServer(
        net,
        server_host,
        ws_port,
        lambda req: app.handle_request(req, None),
        workers=ws_workers,
        service_time=service_time,
    )
    dispatcher = None
    if via_dispatcher:
        registry = ServiceRegistry()
        registry.register("echo", f"http://{server_host.name}:{ws_port}/echo")
        dispatcher = SimRpcDispatcher(net, server_host, registry)
        SimHttpServer(
            net,
            server_host,
            dispatcher_port,
            dispatcher.handler,
            workers=dispatcher_workers,
            service_time=DISPATCHER_SERVICE_TIME,
        )
        return RpcScenario(
            sim, net, client_host, server_host.name, dispatcher_port,
            "/rpc/echo", ws_server, dispatcher,
        )
    return RpcScenario(
        sim, net, client_host, server_host.name, ws_port, "/echo", ws_server
    )


#: the §4.3 testbed's doors: the echo WS on ``iuWS``; on ``iuWSD`` the
#: MSG-Dispatcher, Table 1's sync bridge and RPC-Dispatcher, and the
#: WS-MsgBox
WS_PORT, MSGD_PORT, BRIDGE_PORT, RPCD_PORT, MAILBOX_PORT = (
    9000, 8000, 8100, 8200, 8500
)
MAILBOX_URL = f"http://iuWSD:{MAILBOX_PORT}/mailbox"
#: every transport timeout behind Table 1's bridge and RPC-Dispatcher
DOOR_TIMEOUT = 30.0


@dataclass
class IuDeployment:
    """The §4.3 testbed, built: a firewalled INRIA client, the echo WS on
    ``iuWS``, and the WS-Dispatcher (and WS-MsgBox) on ``iuWSD``."""

    sim: Simulator
    net: Network
    client: Host
    ws_host: Host
    wsd_host: Host
    echo: SimAsyncEchoService | None = None
    dispatcher: SimMsgDispatcher | None = None
    rpc_dispatcher: SimRpcDispatcher | None = None
    store: MailboxStore | None = None
    msgbox: MsgBoxService | None = None
    #: ids of the mailboxes :meth:`open_mailboxes` created
    mailboxes: list[str] = field(default_factory=list)

    def open_mailboxes(self, count: int) -> list[EndpointReference]:
        """Create ``count`` mailboxes out of band (the RPC create call is
        cheap and not part of any measured steady state); their EPRs."""
        boxes = [self.store.create() for _ in range(count)]
        self.mailboxes.extend(boxes)
        return [make_mailbox_epr(MAILBOX_URL, box) for box in boxes]

    def deposits(self) -> int:
        """Replies deposited in the mailboxes :meth:`open_mailboxes` made."""
        return sum(self.store.stats(box)["deposits"] for box in self.mailboxes)

    def tester(
        self, ids: IdGenerator, reply_tos: list[EndpointReference]
    ) -> SimRampTester:
        """Clients posting one-way echoes whose ReplyTo cycles through
        ``reply_tos``: to the MSG-Dispatcher, or to the WS without one."""
        if self.dispatcher is None:
            server, port, path = "iuWS", WS_PORT, "/echo"
            to = f"http://iuWS:{WS_PORT}/echo"
        else:
            server, port, path, to = "iuWSD", MSGD_PORT, "/msg/echo", "urn:wsd:echo"
        factory = echo_request_factory(to, path, ids, reply_tos)
        return SimRampTester(self.net, self.client, server, port, path, factory)


def build_iu_deployment(
    *,
    workers: int = 32,
    rpc_echo: bool = False,
    echo_delay: float = 0.0,
    reply_connect_timeout: float = 21.0,
    dispatcher: SimMsgDispatcherConfig | None = None,
    rpc_doors: bool = False,
    mailbox: str | None = "cohosted",
) -> IuDeployment:
    """Figure 6's and Table 1's testbed on a fresh simulator.

    ``workers`` sizes every server's worker pool and the async echo's
    reply senders.  The echo is the RPC :class:`EchoService` behind
    ``echo_delay`` of think time (``rpc_echo``) or a
    :class:`SimAsyncEchoService` answering ``echo_delay`` late and giving
    up on a reply connect after ``reply_connect_timeout``.  Without a
    ``dispatcher`` config only the WS serves (Fig 6's direct mode);
    ``rpc_doors`` adds Table 1's sync bridge and RPC-Dispatcher.  The
    WS-MsgBox is ``"cohosted"`` — served as the app itself, so the host
    records it and the dispatcher passes a ReplyTo naming it through
    (§4.3.2) — or ``"relayed"`` — served through a handler the host
    cannot see into, so the dispatcher relays every reply — or absent
    (None).  Everything is created in one fixed order, so simultaneous
    events fall the same way on every run.
    """
    sim = Simulator()
    net = Network(sim)
    doors = (MSGD_PORT, BRIDGE_PORT, RPCD_PORT) if rpc_doors else (MSGD_PORT,)
    world = IuDeployment(
        sim,
        net,
        add_site(net, INRIA, name="inria"),
        add_site(net, replace(BACKBONE_IU, name="iuWS"), open_ports=(WS_PORT,)),
        add_site(
            net, replace(BACKBONE_IU, name="iuWSD"),
            open_ports=doors + (MAILBOX_PORT,),
        ),
    )

    def serve(host: Host, port: int, handler, service_time: float) -> None:
        SimHttpServer(
            net, host, port, handler, workers=workers, service_time=service_time
        )

    if rpc_echo:
        app = SoapHttpApp()
        app.mount("/echo", EchoService())

        def slow_echo(request):
            yield sim.timeout(echo_delay)
            return app.handle_request(request, None)

        serve(world.ws_host, WS_PORT, slow_echo, SOAP_SERVICE_TIME)
    else:
        world.echo = SimAsyncEchoService(
            net, world.ws_host, reply_senders=workers,
            connect_timeout=reply_connect_timeout, response_delay=echo_delay,
        )
        serve(world.ws_host, WS_PORT, world.echo.handler, SOAP_SERVICE_TIME)
    if dispatcher is None:
        return world

    registry = ServiceRegistry()
    registry.register("echo", f"http://iuWS:{WS_PORT}/echo")
    msgd = world.dispatcher = SimMsgDispatcher(
        net, world.wsd_host, registry,
        own_address=f"http://iuWSD:{MSGD_PORT}/msg", config=dispatcher,
    )
    serve(world.wsd_host, MSGD_PORT, msgd.handler, DISPATCHER_SERVICE_TIME)
    if rpc_doors:
        serve(
            world.wsd_host, BRIDGE_PORT,
            lambda req: msgd.bridge_handler(req, bridge_timeout=DOOR_TIMEOUT),
            DISPATCHER_SERVICE_TIME,
        )
        world.rpc_dispatcher = SimRpcDispatcher(
            net, world.wsd_host, registry, response_timeout=DOOR_TIMEOUT
        )
        serve(
            world.wsd_host, RPCD_PORT, world.rpc_dispatcher.handler,
            DISPATCHER_SERVICE_TIME,
        )
    if mailbox is None:
        return world

    world.store = MailboxStore(clock=sim.clock, max_messages_per_box=100_000)
    world.msgbox = MsgBoxService(world.store, base_url=MAILBOX_URL)
    mb_app = SoapHttpApp()
    mb_app.mount("/mailbox", world.msgbox)
    # the app itself is recorded on the host; its bound handle_request is
    # a plain handler the host cannot see behind
    served = mb_app.handle_request if mailbox == "relayed" else mb_app
    serve(world.wsd_host, MAILBOX_PORT, served, SOAP_SERVICE_TIME)
    return world


def paper_shape_summary(series: list[Series]) -> str:
    """One-line-per-series max/min summary to eyeball curve shapes."""
    lines = []
    for s in series:
        if not s.results:
            continue
        peak = max(s.results, key=lambda r: r.per_minute)
        lines.append(
            f"{s.label}: peak {peak.per_minute:.0f}/min at {peak.clients} clients, "
            f"total lost {sum(r.not_sent for r in s.results)}"
        )
    return "\n".join(lines)
