"""Tests for the threaded MSG-Dispatcher, and its refusals on every runtime."""

import time

import pytest

from repro.core.msg_dispatcher import MsgDispatcher, MsgDispatcherConfig
from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import SimMsgDispatcher, SimMsgDispatcherConfig
from repro.http.session import soap_post
from repro.msgbox import MailboxStore, MsgBoxService
from repro.msgbox.client import MsgBoxClient
from repro.obs import MetricsRegistry, TraceStore
from repro.reliable import FixedDelay
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import SoapHttpApp
from repro.simnet.kernel import Simulator
from repro.simnet.topology import AccessLink, Network
from repro.soap import Fault, parse_envelope, parse_rpc_response
from repro.util.ids import IdGenerator
from repro.workload.echo import EchoService, make_echo_message
from repro.wsa import EndpointReference
from tests.conftest import RecordingEcho, epr_shape
from tests.core.test_dispatcher_robustness import FakeClient

#: a second WS-MsgBox, on an origin of its own: replies to it are relayed
REMOTE_MAILBOX = "http://mb:8500/mailbox"


@pytest.fixture
def world(inproc):
    """Async echo WS + dispatcher + mailbox, threaded over inproc."""
    ws_client = HttpClient(inproc)
    echo = RecordingEcho(ws_client, ids=IdGenerator("ws", seed=1))
    ws_app = SoapHttpApp()
    ws_app.mount("/echo", echo)
    ws = HttpServer(inproc.listen("ws:9000"), ws_app.handle_request, workers=4).start()
    remote_app = SoapHttpApp()
    remote_app.mount("/mailbox", MsgBoxService(MailboxStore(), base_url=REMOTE_MAILBOX))
    remote = HttpServer(inproc.listen("mb:8500"), remote_app.handle_request).start()

    registry = ServiceRegistry()
    registry.register("echo", "http://ws:9000/echo")

    dispatcher = MsgDispatcher(
        registry,
        HttpClient(inproc),
        own_address="http://wsd:8000/msg",
        config=MsgDispatcherConfig(cx_threads=2, ws_threads=4,
                                   destination_idle_ttl=0.5),
    )
    msgbox = MsgBoxService(MailboxStore(), base_url="http://wsd:8000/mailbox")
    app = SoapHttpApp()
    app.mount("/msg", dispatcher)
    app.mount("/mailbox", msgbox)
    front = HttpServer(inproc.listen("wsd:8000"), app.handle_request, workers=8).start()

    client = HttpClient(inproc)
    ids = IdGenerator("client", seed=2)
    yield registry, dispatcher, msgbox, client, ids, echo
    dispatcher.stop()
    ws.stop()
    front.stop()
    remote.stop()
    client.close()
    ws_client.close()


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def test_one_way_message_forwarded(world):
    registry, dispatcher, msgbox, client, ids, echo = world
    msg = make_echo_message(to="urn:wsd:echo", message_id=ids.next())
    resp = client.post_envelope("http://wsd:8000/msg/echo", msg)
    assert resp.status == 202
    assert wait_for(lambda: echo.received == 1)
    assert dispatcher.stats.get("routed_requests") == 1


def roundtrip_via(mailbox_url, world, inproc):
    """One echo round trip with ``ReplyTo`` = a fresh mailbox at
    ``mailbox_url``; returns the mailbox client."""
    registry, dispatcher, msgbox, client, ids, echo = world
    mbc = MsgBoxClient(HttpClient(inproc), mailbox_url)
    mbc.create()
    msg = make_echo_message(
        to="urn:wsd:echo", message_id=ids.next(), reply_to=mbc.epr()
    )
    client.post_envelope("http://wsd:8000/msg/echo", msg)
    messages = mbc.poll(expected=1, timeout=5)
    assert len(messages) == 1
    parsed = parse_rpc_response(messages[0])
    assert parsed.result("return") is not None
    return mbc


def test_response_routed_to_mailbox(world, inproc):
    """Co-hosted mailbox (paper §4.3.2): the WS deposits its reply itself."""
    registry, dispatcher, msgbox, client, ids, echo = world
    mbc = roundtrip_via("http://wsd:8000/mailbox", world, inproc)
    assert "routed_responses" not in dispatcher.stats
    # the WS was sent the client's own mailbox EPR, MailboxId and all
    assert epr_shape(echo.requests[0].reply_to) == epr_shape(mbc.epr())
    assert wait_for(lambda: dispatcher.pending_correlations() == 0)


def test_response_relayed_to_mailbox_on_another_origin(world, inproc):
    registry, dispatcher, msgbox, client, ids, echo = world
    roundtrip_via(REMOTE_MAILBOX, world, inproc)
    assert dispatcher.stats.get("routed_responses") == 1
    # the WS only ever saw the dispatcher's return address
    assert epr_shape(echo.requests[0].reply_to) == ("http://wsd:8000/msg", [])


def test_unknown_service_counted(world):
    registry, dispatcher, msgbox, client, ids, echo = world
    msg = make_echo_message(to="urn:wsd:ghost", message_id=ids.next())
    resp = client.post_envelope("http://wsd:8000/msg/ghost", msg)
    assert resp.status == 202  # accepted before routing (async semantics)
    assert wait_for(lambda: dispatcher.stats.get("unknown_service", 0) == 1)


def test_correlation_expires(world):
    registry, dispatcher, msgbox, client, ids, echo = world
    dispatcher.config.correlation_ttl = 0.0  # expire immediately
    msg = make_echo_message(
        to="urn:wsd:echo",
        message_id=ids.next(),
        reply_to=EndpointReference("http://client:1/inbox"),
    )
    client.post_envelope("http://wsd:8000/msg/echo", msg)
    assert wait_for(
        lambda: dispatcher.stats.get("expired_correlations", 0) >= 1
        or dispatcher.pending_correlations() == 0
    )


def test_batching_multiple_messages(world):
    registry, dispatcher, msgbox, client, ids, echo = world
    for _ in range(10):
        msg = make_echo_message(to="urn:wsd:echo", message_id=ids.next())
        client.post_envelope("http://wsd:8000/msg/echo", msg)
    assert wait_for(lambda: echo.received == 10)
    assert dispatcher.stats.get("delivered") == 10


def test_delivery_failure_counted(world):
    registry, dispatcher, msgbox, client, ids, echo = world
    registry.register("dead", "http://nowhere:1/x")
    msg = make_echo_message(to="urn:wsd:dead", message_id=ids.next())
    client.post_envelope("http://wsd:8000/msg/dead", msg)
    assert wait_for(lambda: dispatcher.stats.get("delivery_failures", 0) == 1)


def test_retry_policy_applied(world, inproc):
    registry, dispatcher, msgbox, client, ids, echo = world
    dispatcher.config.retry = FixedDelay(max_attempts=3, delay=0.01)
    registry.register("flaky", "http://flaky:9300/x")
    msg = make_echo_message(to="urn:wsd:flaky", message_id=ids.next())
    client.post_envelope("http://wsd:8000/msg/flaky", msg)
    # service never comes up: 3 attempts then failure
    assert wait_for(lambda: dispatcher.stats.get("delivery_failures", 0) == 1)
    assert dispatcher.stats.get("retries", 0) == 2


def answer_back_to_back(backend, n, **config):
    """The dispatcher's HTTP answers to ``n`` messages admitted back to
    back on ``backend``'s runtime, with nothing routing in between: rt
    has no CxThread, aio admits all ``n`` in one loop step, and sim runs
    each handler without a kernel step."""
    registry = ServiceRegistry()
    registry.register("echo", "http://ws:9000/echo")
    ids = IdGenerator("full", seed=3)
    requests = [
        soap_post(make_echo_message(to="urn:wsd:echo", message_id=ids.next())
                  .to_bytes(), "/msg/echo")
        for _ in range(n)
    ]
    if backend.kind == "sim":
        net = Network(Simulator())
        host = net.add_host("wsd", AccessLink(5000, 5000, 0.005))
        dispatcher = SimMsgDispatcher(
            net, host, registry, own_address="http://wsd:8000/msg",
            config=SimMsgDispatcherConfig(shed_on_full=True, **config),
            metrics=MetricsRegistry(), traces=TraceStore(enabled=False),
        )
        answers = []
        for request in requests:
            with pytest.raises(StopIteration) as done:
                next(dispatcher.handler(request))  # a refusal never waits
            answers.append(done.value.value)
        return answers
    dispatcher = backend.make_dispatcher(
        registry, FakeClient(failing=False), own_address="http://wsd:8000/msg",
        config=MsgDispatcherConfig(cx_threads=0, **config),
        metrics=MetricsRegistry(), traces=TraceStore(enabled=False),
    )
    app = SoapHttpApp()
    app.mount("/msg", dispatcher)
    try:
        return backend.call(lambda: [app.handle_request(r) for r in requests])
    finally:
        dispatcher.stop()


def refusal(response) -> tuple:
    fault = Fault.from_element(parse_envelope(response.body).body)
    return response.status, response.headers.get("Retry-After"), fault.code, fault.reason


@pytest.mark.parametrize(
    "dispatcher_backend", ["rt", "aio", "sim"], indirect=True
)
def test_rejects_when_accept_queue_full(dispatcher_backend):
    """A full accept queue and an overload shed are the same refusal on
    every runtime: a SOAP Fault in a 503 that says when to come back."""
    first, second = answer_back_to_back(dispatcher_backend, 2, accept_queue=1)
    assert first.status == 202
    assert refusal(second) == (503, "1", "Server", "dispatcher accept queue full")
    [shed] = answer_back_to_back(dispatcher_backend, 1, max_inflight=0)
    assert refusal(shed) == (503, "1", "Server", "dispatcher overloaded")


def test_inband_rpc_response_translated(world, inproc):
    """Quadrant 3: messaging client, RPC service behind the dispatcher."""
    registry, dispatcher, msgbox, client, ids, echo = world
    app = SoapHttpApp()
    app.mount("/rpc-echo", EchoService())
    ws = HttpServer(inproc.listen("rpcws:9400"), app.handle_request).start()
    registry.register("rpc-echo", "http://rpcws:9400/rpc-echo")

    mbc = MsgBoxClient(HttpClient(inproc), "http://wsd:8000/mailbox")
    mbc.create()
    msg = make_echo_message(
        to="urn:wsd:rpc-echo", message_id=ids.next(), reply_to=mbc.epr()
    )
    client.post_envelope("http://wsd:8000/msg/rpc-echo", msg)
    messages = mbc.poll(expected=1, timeout=5)
    assert len(messages) == 1
    assert dispatcher.stats.get("inband_responses") == 1
    ws.stop()
