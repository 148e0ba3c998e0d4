"""A ReplyTo naming the dispatcher's own co-hosted WS-MsgBox passes through
(paper section 4.3.2) — derived from the mount table, decided per EPR.

Run against the threaded and the asyncio dispatcher through the
``dispatcher_backend`` fixture.  There is no network: the dispatcher's
HTTP client is a loopback that serves the wsd's own origin from its
:class:`SoapHttpApp` and hands everything else to a stub service.

The predicate is one (:meth:`DispatchCore.cohost`), so the mount-order and
look-alike cases also run on the simulator (``EVERY_RUNTIME``): there the
wsd is a :class:`Host` whose port 8000 serves the same
:class:`SoapHttpApp` through a :class:`SimHttpServer`.
"""

import time

import pytest

from repro.core.msg_dispatcher import MsgDispatcherConfig
from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import SimMsgDispatcher
from repro.http import Headers, HttpRequest, HttpResponse
from repro.msgbox import MailboxStore, MsgBoxService
from repro.msgbox.service import make_mailbox_epr
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.rt.service import FunctionService, RequestContext, SoapHttpApp
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.kernel import Simulator
from repro.simnet.topology import AccessLink, Network
from repro.soap import Envelope, Fault, parse_envelope
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.util.ids import IdGenerator
from repro.workload.echo import EchoService, make_echo_message
from repro.wsa import AddressingHeaders, EndpointReference
from tests.conftest import epr_shape, wait_for

WSD = "http://wsd:8000"
OWN = WSD + "/msg"
MAILBOX = WSD + "/mailbox"
PRIVATE = EndpointReference("http://client:7000/inbox")
RELAYED = (OWN, [])


class LoopbackClient:
    """What the dispatcher sends to its own origin is served by ``app``;
    the rest is recorded and answered by ``service(url, envelope)``."""

    def __init__(self, app, service=None):
        self.app = app
        self.service = service or (lambda url, envelope: HttpResponse(status=202))
        self.forwarded: list[AddressingHeaders] = []

    def prepare(self, url, request):
        return request

    def request(self, url, request):
        if url.startswith(WSD + "/"):
            post = HttpRequest(
                "POST", url[len(WSD):], headers=request.headers, body=request.body
            )
            return self.app.handle_request(post, None)
        envelope = parse_envelope(request.body)
        self.forwarded.append(AddressingHeaders.from_envelope(envelope))
        return self.service(url, envelope)

    def close(self):
        pass


class World:
    """One wsd: an app, a dispatcher on it, and mailboxes mounted at will."""

    def __init__(self, backend, service=None, own_address=OWN):
        self.backend = backend
        self.app = SoapHttpApp()
        self.client = LoopbackClient(self.app, service)
        registry = ServiceRegistry()
        registry.register("echo", "http://ws:9000/echo")
        self.dispatcher = backend.make_dispatcher(
            registry, self.client, own_address=own_address,
            config=MsgDispatcherConfig(cx_threads=1, ws_threads=2, batch_size=1),
            metrics=MetricsRegistry(), traces=TraceStore(enabled=False),
        )
        self.ids = IdGenerator("cohost", seed=3)

    def mailbox(self, base_url=MAILBOX):
        if self.backend.kind == "aio":
            from repro.aio import AioMsgBoxService

            return AioMsgBoxService(MailboxStore(), base_url=base_url)
        return MsgBoxService(MailboxStore(), base_url=base_url)

    def send(self, reply_to=None, fault_to=None, count=1):
        """Admit ``count`` such messages; returns the headers the service
        was sent for the first."""
        before = len(self.client.forwarded)
        for _ in range(count):
            self.admit(reply_to, fault_to)
        assert wait_for(lambda: len(self.client.forwarded) == before + count)
        return self.client.forwarded[before]

    def admit(self, reply_to, fault_to):
        msg = make_echo_message(
            to="urn:wsd:echo", message_id=self.ids.next(), reply_to=reply_to
        )
        if fault_to is not None:
            headers = AddressingHeaders.from_envelope(msg)
            headers.fault_to = fault_to
            headers.attach(msg)
        self.dispatcher.handle(msg, RequestContext(path="/msg/echo"))


class SimWorld(World):
    """The same wsd on the simulator: a :class:`Host` whose port 8000
    serves ``app``; messages are admitted straight into the dispatcher's
    HTTP handler, and the service is a recording sink on another host."""

    def __init__(self, backend):
        self.backend = backend
        self.sim = Simulator()
        self.net = Network(self.sim)
        link = AccessLink(5000, 5000, 0.005)
        self.host = self.net.add_host("wsd", link)
        self.app = SoapHttpApp()
        SimHttpServer(self.net, self.host, 8000, self.app)
        self.client = self  # the sink keeps ``forwarded``, as the loopback does
        self.forwarded: list[AddressingHeaders] = []
        SimHttpServer(self.net, self.net.add_host("ws", link), 9000, self.sink)
        registry = ServiceRegistry()
        registry.register("echo", "http://ws:9000/echo")
        self.dispatcher = SimMsgDispatcher(
            self.net, self.host, registry, own_address=OWN,
            metrics=MetricsRegistry(), traces=TraceStore(enabled=False),
        )
        self.ids = IdGenerator("cohost", seed=3)

    def sink(self, request):
        envelope = parse_envelope(request.body)
        self.forwarded.append(AddressingHeaders.from_envelope(envelope))
        return HttpResponse(status=202)

    def admit(self, reply_to, fault_to):
        msg = make_echo_message(
            to="urn:wsd:echo", message_id=self.ids.next(), reply_to=reply_to
        )
        headers = Headers()
        headers.set("Content-Type", SOAP11_CONTENT_TYPE)
        post = HttpRequest("POST", "/msg/echo", headers=headers, body=msg.to_bytes())
        self.sim.run(self.sim.process(self.dispatcher.handler(post)))
        self.sim.run(until=self.sim.now + 1.0)


#: the cases that exercise only the co-hosting predicate run on all three
EVERY_RUNTIME = pytest.mark.parametrize(
    "dispatcher_backend", ["rt", "aio", "sim"], indirect=True
)


@pytest.fixture
def world(dispatcher_backend):
    worlds = []

    def make(**kwargs):
        if dispatcher_backend.kind == "sim":
            worlds.append(SimWorld(dispatcher_backend, **kwargs))
        else:
            worlds.append(World(dispatcher_backend, **kwargs))
        return worlds[-1]

    yield make
    for w in worlds:
        w.dispatcher.stop()


# -- mount order -------------------------------------------------------------

@pytest.mark.parametrize("order", ["dispatcher-first", "mailbox-first"])
@EVERY_RUNTIME
def test_passthrough_does_not_depend_on_mount_order(world, order):
    w = world()
    mailbox = w.mailbox()
    mounts = [("/msg", w.dispatcher), ("/mailbox", mailbox)]
    for prefix, service in mounts if order == "dispatcher-first" else mounts[::-1]:
        w.app.mount(prefix, service)
    epr = make_mailbox_epr(MAILBOX, mailbox.store.create())
    assert epr_shape(w.send(reply_to=epr).reply_to) == epr_shape(epr)
    assert wait_for(lambda: w.dispatcher.pending_correlations() == 0)


@EVERY_RUNTIME
def test_a_mailbox_mounted_after_traffic_started_is_seen(world):
    w = world()
    w.app.mount("/msg", w.dispatcher)
    mailbox = w.mailbox()
    epr = make_mailbox_epr(MAILBOX, mailbox.store.create())
    assert epr_shape(w.send(reply_to=epr).reply_to) == RELAYED
    w.app.mount("/mailbox", mailbox)
    assert epr_shape(w.send(reply_to=epr).reply_to) == epr_shape(epr)


def test_default_port_is_the_same_origin(world):
    w = world(own_address="http://wsd/msg")
    w.app.mount("/msg", w.dispatcher)
    w.app.mount("/mailbox", w.mailbox(base_url="http://wsd:80/mailbox"))
    epr = EndpointReference("http://wsd:80/mailbox/deposit/abc")
    assert w.send(reply_to=epr).reply_to.address == epr.address


# -- look-alikes that must still be relayed ----------------------------------

@pytest.mark.parametrize("address", [
    WSD + "/mailbox-evil/deposit/x",
    WSD + "/mailbox/depositx",
    WSD + "/mailbox/deposit",
    WSD + "/mailbox",
    "http://wsd:8001/mailbox/deposit/x",
    "http://wsd/mailbox/deposit/x",
    "http://evil:8000/mailbox/deposit/x",
    "http://wsd:8000.evil/mailbox/deposit/x",
    "https://wsd:8000/mailbox/deposit/x",
])
@EVERY_RUNTIME
def test_look_alike_addresses_are_relayed(world, address):
    w = world()
    w.app.mount("/msg", w.dispatcher)
    w.app.mount("/mailbox", w.mailbox())
    w.app.mount("/mailbox-evil", FunctionService(lambda envelope, ctx: None))
    assert epr_shape(w.send(reply_to=EndpointReference(address)).reply_to) == RELAYED
    assert w.dispatcher.pending_correlations() == 1  # kept for the relay


@EVERY_RUNTIME
def test_a_declared_prefix_with_no_mailbox_behind_it_is_relayed(world):
    """The mailbox says /mailbox but is mounted elsewhere: the path it
    declares resolves to nothing (or to someone else)."""
    w = world()
    w.app.mount("/msg", w.dispatcher)
    w.app.mount("/mb", w.mailbox(base_url=MAILBOX))
    epr = EndpointReference(MAILBOX + "/deposit/x")
    assert epr_shape(w.send(reply_to=epr).reply_to) == RELAYED
    w.app.mount("/mailbox", FunctionService(lambda envelope, ctx: None))
    assert epr_shape(w.send(reply_to=epr).reply_to) == RELAYED


def test_a_mailbox_without_a_base_url_declares_nothing(world):
    w = world()
    w.app.mount("/msg", w.dispatcher)
    w.app.mount("/mailbox", w.mailbox(base_url=""))
    epr = EndpointReference(MAILBOX + "/deposit/x")
    assert epr_shape(w.send(reply_to=epr).reply_to) == RELAYED


@EVERY_RUNTIME
def test_a_mailbox_on_a_different_app_is_relayed(world):
    """Same origin on paper, but not a mounted peer of this dispatcher."""
    w = world()
    w.app.mount("/msg", w.dispatcher)
    SoapHttpApp().mount("/mailbox", w.mailbox())
    epr = EndpointReference(MAILBOX + "/deposit/x")
    assert epr_shape(w.send(reply_to=epr).reply_to) == RELAYED


@pytest.mark.parametrize("mount", ["mount", "mount_raw"])
@EVERY_RUNTIME
def test_a_handler_inside_the_deposit_subtree_disqualifies_the_mailbox(world, mount):
    """Not every path under the declared prefix reaches the mailbox."""
    w = world()
    w.app.mount("/msg", w.dispatcher)
    w.app.mount("/mailbox", w.mailbox())
    epr = EndpointReference(MAILBOX + "/deposit/x")
    assert w.send(reply_to=epr).reply_to.address == epr.address
    if mount == "mount":
        w.app.mount("/mailbox/deposit/x", FunctionService(lambda envelope, ctx: None))
    else:
        w.app.mount_raw("/mailbox/deposit/x", lambda request: HttpResponse(status=202))
    assert epr_shape(w.send(reply_to=epr).reply_to) == RELAYED


@EVERY_RUNTIME
def test_every_cohosted_mailbox_is_honoured(world):
    """There is no hand-set prefix any more: each mailbox the wsd serves
    is derived, side by side."""
    w = world()
    w.app.mount("/msg", w.dispatcher)
    w.app.mount("/mailbox", w.mailbox())
    w.app.mount("/mailbox2", w.mailbox(base_url=WSD + "/mailbox2"))
    for address in (WSD + "/mailbox2/deposit/x", MAILBOX + "/deposit/y"):
        assert w.send(reply_to=EndpointReference(address)).reply_to.address == address


@pytest.mark.parametrize("dispatcher_backend", ["sim"], indirect=True)
def test_a_mailbox_on_another_port_of_the_same_host(world):
    """The simulator's deployments put the mailbox on its own port of the
    wsd machine: co-hosted iff that very port serves the app the mailbox
    is mounted on — a port serving a *different* app is still relayed."""
    w = world()
    mb_app = SoapHttpApp()
    mb_app.mount("/mailbox", w.mailbox(base_url="http://wsd:8500/mailbox"))
    mb_app.mount("/other", w.mailbox(base_url="http://wsd:8700/other"))
    SimHttpServer(w.net, w.host, 8500, mb_app)
    SimHttpServer(w.net, w.host, 8700, SoapHttpApp())
    here = EndpointReference("http://wsd:8500/mailbox/deposit/x")
    assert w.send(reply_to=here).reply_to.address == here.address
    elsewhere = EndpointReference("http://wsd:8700/other/deposit/x")
    assert epr_shape(w.send(reply_to=elsewhere).reply_to) == RELAYED


# -- FaultTo is decided per EPR ------------------------------------------------

@pytest.mark.parametrize("reply_cohosted", [True, False])
@pytest.mark.parametrize("fault_cohosted", [True, False])
def test_fault_to_does_not_ride_on_reply_to(world, reply_cohosted, fault_cohosted):
    w = world()
    w.app.mount("/msg", w.dispatcher)
    mailbox = w.mailbox()
    w.app.mount("/mailbox", mailbox)
    reply_to = make_mailbox_epr(MAILBOX, mailbox.store.create()) if reply_cohosted else PRIVATE
    fault_to = make_mailbox_epr(MAILBOX, mailbox.store.create()) if fault_cohosted else PRIVATE
    seen = w.send(reply_to=reply_to, fault_to=fault_to)
    assert epr_shape(seen.reply_to) == (epr_shape(reply_to) if reply_cohosted else RELAYED)
    assert epr_shape(seen.fault_to) == (epr_shape(fault_to) if fault_cohosted else RELAYED)
    # the entry outlives delivery unless nothing can come back; the core
    # drops it *before* it counts the delivery, so the count is the event
    both = reply_cohosted and fault_cohosted
    assert wait_for(lambda: w.dispatcher.stats.get("delivered") == 1)
    assert w.dispatcher.pending_correlations() == (0 if both else 1)


def faulting_service(client_of):
    """A messaging service that fails: posts a Fault to the FaultTo it was
    given, echoing the EPR's reference properties (WS-Addressing binding)."""

    def service(url, envelope):
        request = AddressingHeaders.from_envelope(envelope)
        fault = Envelope(Fault("Server", "boom").to_element())
        AddressingHeaders(
            to=request.fault_to.address,
            message_id="uuid:fault-1",
            relates_to=[request.message_id],
            reference_headers=[p.copy() for p in request.fault_to.reference_properties],
        ).attach(fault)
        post = HttpRequest("POST", "/", body=fault.to_bytes())
        assert client_of().request(request.fault_to.address, post).status == 202
        return HttpResponse(status=202)

    return service


def test_a_fault_reaches_a_cohosted_fault_to(world):
    w = world(service=faulting_service(lambda: w.client))
    w.app.mount("/msg", w.dispatcher)
    mailbox = w.mailbox()
    w.app.mount("/mailbox", mailbox)
    faults = mailbox.store.create()
    seen = w.send(reply_to=PRIVATE, fault_to=make_mailbox_epr(MAILBOX, faults))
    assert epr_shape(seen.reply_to) == RELAYED
    assert wait_for(lambda: mailbox.store.peek_count(faults) == 1)
    assert parse_envelope(mailbox.store.take(faults)[0]).is_fault()
    assert "routed_responses" not in w.dispatcher.stats


# -- Table 1 quadrant 3 ----------------------------------------------------------

def test_inband_answer_is_still_translated_and_delivered(world):
    """An RPC-style service answers in the HTTP response: the dispatcher
    turns that into a one-way reply and delivers it to the (co-hosted,
    passed-through) ReplyTo, and the entry that let it do so is gone."""
    rpc_echo = EchoService()

    def service(url, envelope):
        reply = rpc_echo.handle(envelope, RequestContext(path="/echo"))
        return HttpResponse(status=200, body=reply.to_bytes())

    w = world(service=service)
    w.app.mount("/msg", w.dispatcher)
    mailbox = w.mailbox()
    w.app.mount("/mailbox", mailbox)
    box = mailbox.store.create()
    epr = make_mailbox_epr(MAILBOX, box)
    seen = w.send(reply_to=epr)
    assert epr_shape(seen.reply_to) == epr_shape(epr)
    assert wait_for(lambda: mailbox.store.peek_count(box) == 1)
    reply = AddressingHeaders.from_envelope(parse_envelope(mailbox.store.take(box)[0]))
    assert reply.relates_to == [seen.message_id]
    assert w.dispatcher.stats.get("inband_responses") == 1
    assert w.dispatcher.stats.get("routed_responses") == 1
    assert w.dispatcher.pending_correlations() == 0


# -- the correlation table ---------------------------------------------------------

class CountingDict(dict):
    """Counts every key, value or item a caller looks at."""

    visits = 0

    def __getitem__(self, key):
        self.visits += 1
        return super().__getitem__(key)

    def __iter__(self):
        for key in super().__iter__():
            self.visits += 1
            yield key

    def items(self):
        for item in super().items():
            self.visits += 1
            yield item

    def values(self):
        for value in super().values():
            self.visits += 1
            yield value


def visits_per_routed_message(w, live):
    """Dict visits one routed message costs with ``live`` pending entries."""
    table = w.dispatcher._correlations = CountingDict()
    w.send(reply_to=PRIVATE, count=live)
    assert w.dispatcher.pending_correlations() == live
    table.visits = 0
    w.send(reply_to=PRIVATE)
    return table.visits


def test_expiry_cost_does_not_grow_with_the_live_entries(world):
    w = world()
    w.app.mount("/msg", w.dispatcher)
    small = visits_per_routed_message(w, 50)
    large = visits_per_routed_message(w, 200)
    assert large < 2 * small, (small, large)


def test_an_expired_head_is_collected(world):
    w = world()
    w.app.mount("/msg", w.dispatcher)
    w.dispatcher.config.correlation_ttl = 0.05
    w.send(reply_to=PRIVATE, count=3)
    assert w.dispatcher.pending_correlations() == 3
    time.sleep(0.06)
    w.dispatcher.config.correlation_ttl = 120.0
    w.send(reply_to=PRIVATE)
    assert w.dispatcher.pending_correlations() == 1
    assert w.dispatcher.stats.get("expired_correlations") == 3
