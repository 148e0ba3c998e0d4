"""End-to-end fast-path tests: the dispatcher hot path must never fall
back to a full DOM parse, and an envelope the scanner refuses must be
delivered identically through the DOM slow path on every hosting."""


import pytest

from repro.core.msg_dispatcher import MsgDispatcher, MsgDispatcherConfig
from repro.core.registry import ServiceRegistry
from repro.core.rpc_dispatcher import RpcDispatcher
from repro.core.sim_dispatcher import SimMsgDispatcher
from repro.http import HttpResponse
from repro.msgbox import MailboxStore, MsgBoxService
from repro.msgbox.client import MsgBoxClient
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import SoapHttpApp
from repro.simnet.httpsim import SimHttpServer, sim_http_request
from repro.simnet.kernel import Simulator
from repro.simnet.topology import AccessLink, Network
from repro.soap import (
    Envelope,
    fastpath_counter,
    parse_rpc_request,
    parse_rpc_response,
)
from repro.util.ids import IdGenerator
from repro.workload.echo import (
    EchoService,
    make_echo_message,
    make_echo_request,
)
from repro.wsa import AddressingHeaders
from tests.conftest import DispatcherBackend, RecordingEcho, epr_shape, wait_for
from tests.core.test_sim_dispatcher import soap_post


def fastpath_outcomes(registry) -> dict[str, float]:
    return {
        labels["outcome"]: child.get()
        for labels, child in fastpath_counter(registry).samples()
        if child.get()
    }


def declare_latin1(raw: bytes) -> bytes:
    """The same document in ISO-8859-1, behind the declaration that says
    so: the scanner refuses it, the DOM parser reads it (how ``bulk_mixed``
    reaches the slow path)."""
    assert raw.count(b'encoding="UTF-8"') == 1
    relabelled = raw.replace(b'encoding="UTF-8"', b'encoding="ISO-8859-1"')
    return relabelled.decode("utf-8").encode("latin-1")


@pytest.fixture
def msg_world(inproc):
    """Async echo WS + MSG dispatcher + mailbox with a private registry."""
    metrics = MetricsRegistry()
    ws_client = HttpClient(inproc)
    echo = RecordingEcho(ws_client, ids=IdGenerator("ws", seed=1))
    ws_app = SoapHttpApp(metrics=metrics)
    ws_app.mount("/echo", echo)
    ws = HttpServer(
        inproc.listen("ws:9000"), ws_app.handle_request, workers=4, metrics=metrics
    ).start()

    registry = ServiceRegistry()
    registry.register("echo", "http://ws:9000/echo")
    dispatcher = MsgDispatcher(
        registry,
        HttpClient(inproc),
        own_address="http://wsd:8000/msg",
        config=MsgDispatcherConfig(cx_threads=2, ws_threads=4),
        metrics=metrics,
    )
    msgbox = MsgBoxService(MailboxStore(), base_url="http://wsd:8000/mailbox")
    app = SoapHttpApp(metrics=metrics)
    app.mount("/msg", dispatcher)
    app.mount("/mailbox", msgbox)
    front = HttpServer(
        inproc.listen("wsd:8000"), app.handle_request, workers=8, metrics=metrics
    ).start()
    # a second mailbox on an origin of its own: replies to it are relayed
    remote_app = SoapHttpApp(metrics=metrics)
    remote_app.mount(
        "/mailbox", MsgBoxService(MailboxStore(), base_url="http://mb:8500/mailbox")
    )
    remote = HttpServer(
        inproc.listen("mb:8500"), remote_app.handle_request, metrics=metrics
    ).start()

    client = HttpClient(inproc)
    ids = IdGenerator("client", seed=2)
    yield metrics, dispatcher, client, ids, echo
    dispatcher.stop()
    ws.stop()
    front.stop()
    remote.stop()
    client.close()
    ws_client.close()


def five_roundtrips_via(mailbox_url, msg_world, inproc):
    """Five echo round trips replying to a fresh mailbox at
    ``mailbox_url``; asserts no parse left the fast path."""
    metrics, dispatcher, client, ids, echo = msg_world
    mbc = MsgBoxClient(HttpClient(inproc), mailbox_url)
    mbc.create()
    for _ in range(5):
        msg = make_echo_message(
            to="urn:wsd:echo", message_id=ids.next(), reply_to=mbc.epr()
        )
        client.post_envelope("http://wsd:8000/msg/echo", msg)
    messages = mbc.poll(expected=5, timeout=5)
    assert len(messages) == 5
    assert parse_rpc_response(messages[0]).result("return") is not None

    outcomes = fastpath_outcomes(metrics)
    # request ingest at the front door and the WS, reply ingest after it
    assert outcomes.get("fast", 0) >= 10
    bailed = {k: v for k, v in outcomes.items() if k != "fast"}
    assert bailed == {}, f"hot path fell back to the DOM parser: {bailed}"
    return mbc


def test_hot_path_never_falls_back_to_dom_parse(msg_world, inproc):
    """Co-hosted mailbox: the WS deposits its replies itself (§4.3.2)."""
    metrics, dispatcher, client, ids, echo = msg_world
    mbc = five_roundtrips_via("http://wsd:8000/mailbox", msg_world, inproc)
    # only the requests were forwarded — spliced, not re-serialized
    assert dispatcher.stats.get("forwarded_spliced", 0) == 5
    assert "routed_responses" not in dispatcher.stats
    assert [epr_shape(r.reply_to) for r in echo.requests] == [epr_shape(mbc.epr())] * 5


def test_hot_path_stays_fast_when_the_reply_is_relayed(msg_world, inproc):
    metrics, dispatcher, client, ids, echo = msg_world
    five_roundtrips_via("http://mb:8500/mailbox", msg_world, inproc)
    # requests and relayed replies were spliced, not re-serialized
    assert dispatcher.stats.get("forwarded_spliced", 0) >= 10
    assert dispatcher.stats.get("routed_responses") == 5


class _CapturingClient:
    """Stands in for the dispatcher's HTTP client; keeps what it is sent."""

    def __init__(self):
        self.bodies = []

    def prepare(self, url, request):
        return request

    def request(self, url, request):
        self.bodies.append(request.body)
        return HttpResponse(status=202)

    def close(self):
        pass


def _forward_threaded_or_aio(kind: str, raw: bytes):
    backend = DispatcherBackend(kind)
    metrics = MetricsRegistry()
    client = _CapturingClient()
    registry = ServiceRegistry(metrics=metrics)
    registry.register("echo", "http://ws:9000/echo")
    dispatcher = backend.make_dispatcher(
        registry, client, own_address="http://wsd:8000/msg",
        config=MsgDispatcherConfig(cx_threads=1, ws_threads=2),
        metrics=metrics, traces=TraceStore(enabled=False),
    )
    app = SoapHttpApp(metrics=metrics)
    app.mount("/msg", dispatcher)
    try:
        assert app.handle_request(soap_post("/msg/echo", raw), None).status == 202
        assert wait_for(lambda: client.bodies)
        return client.bodies[0], metrics, dispatcher.stats
    finally:
        dispatcher.stop()
        backend.close()


def _forward_sim(raw: bytes):
    sim = Simulator()
    net = Network(sim)
    link = AccessLink(5000, 5000, 0.005)
    client, ws_host, wsd_host = (
        net.add_host(name, link) for name in ("client", "ws", "wsd")
    )
    received = []

    def sink(request):
        received.append(request.body)
        return HttpResponse(status=202)

    SimHttpServer(net, ws_host, 9000, sink)
    metrics = MetricsRegistry()
    registry = ServiceRegistry(metrics=metrics)
    registry.register("echo", "http://ws:9000/echo")
    dispatcher = SimMsgDispatcher(
        net, wsd_host, registry, own_address="http://wsd:8000/msg",
        metrics=metrics, traces=TraceStore(enabled=False),
    )
    SimHttpServer(net, wsd_host, 8000, dispatcher.handler)

    def post():
        response = yield from sim_http_request(
            net, client, "wsd", 8000, soap_post("/msg/echo", raw)
        )
        return response.status

    assert sim.run(sim.process(post())) == 202
    sim.run(until=10.0)
    return received[0], metrics, dispatcher.stats


@pytest.mark.parametrize("hosting", ["rt", "aio", "sim"])
def test_scanner_bail_out_delivers_the_same_message(hosting):
    """One addressed envelope, once scanner-friendly and once behind an
    ``encoding="ISO-8859-1"`` declaration: the slow path is reached by
    input, and what reaches the service is the same message."""
    forward = (
        _forward_sim
        if hosting == "sim"
        else lambda raw: _forward_threaded_or_aio(hosting, raw)
    )
    friendly = make_echo_message(
        to="urn:wsd:echo", message_id="uuid:fastpath-é"
    ).to_bytes().replace(b"<text>", "<text>déjà vu ".encode(), 1)
    latin1 = declare_latin1(friendly)
    assert "déjà vu".encode("latin-1") in latin1 and "é".encode() not in latin1

    fast_bytes, fast_metrics, fast_stats = forward(friendly)
    slow_bytes, slow_metrics, slow_stats = forward(latin1)

    assert fastpath_outcomes(fast_metrics) == {"fast": 1}
    assert fastpath_outcomes(slow_metrics) == {"encoding": 1}
    # spliced from the original bytes vs re-serialized from a tree ...
    assert fast_stats.get("forwarded_spliced", 0) == 1
    assert slow_stats.get("forwarded_spliced", 0) == 0
    # ... and the same envelope either way
    fast_env = Envelope.from_bytes(fast_bytes)
    slow_env = Envelope.from_bytes(slow_bytes)
    assert fast_env.version is slow_env.version
    assert fast_env.headers == slow_env.headers
    assert fast_env.body == slow_env.body
    # ... the text that was sent, forwarded as UTF-8 and labelled so
    assert slow_bytes.startswith(b'<?xml version="1.0" encoding="UTF-8"?>')
    assert parse_rpc_request(slow_env).param("text").startswith("déjà vu x")
    assert AddressingHeaders.from_envelope(slow_env).message_id == "uuid:fastpath-é"


@pytest.fixture
def rpc_world(inproc, own_sinks):
    metrics, _ = own_sinks
    app = SoapHttpApp(metrics=metrics)
    app.mount("/echo", EchoService())
    ws = HttpServer(inproc.listen("ws:9000"), app.handle_request, workers=4).start()
    registry = ServiceRegistry()
    registry.register("echo", "http://ws:9000/echo")
    dispatcher = RpcDispatcher(registry, HttpClient(inproc))
    front = HttpServer(
        inproc.listen("wsd:8000"), dispatcher.handle_request, workers=4
    ).start()
    client = HttpClient(inproc)
    yield metrics, dispatcher, client
    ws.stop()
    front.stop()
    client.close()


def test_rpc_dispatcher_forwards_bytes_verbatim(rpc_world):
    metrics, dispatcher, client = rpc_world
    reply = client.call_soap("http://wsd:8000/rpc/echo", make_echo_request())
    assert parse_rpc_response(reply).result("return")
    outcomes = fastpath_outcomes(metrics)
    assert outcomes.get("fast", 0) >= 1
    assert dispatcher.stats["forwarded"] == 1


def test_rpc_dispatcher_copies_what_the_scanner_refuses(rpc_world):
    """A request the scanner bails on still gets the paper's parse +
    copy-to-a-new-document, and the same answer."""
    metrics, dispatcher, client = rpc_world
    raw = declare_latin1(make_echo_request().to_bytes())
    response = client.request(
        "http://wsd:8000/rpc/echo", soap_post("/rpc/echo", raw)
    )
    assert response.status == 200
    assert parse_rpc_response(Envelope.from_bytes(response.body)).result("return")
    assert fastpath_outcomes(metrics).get("encoding") == 1
    assert dispatcher.stats["forwarded"] == 1
