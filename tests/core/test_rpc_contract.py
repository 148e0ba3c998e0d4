"""The RPC-Dispatcher's contract as one table, run over the core and end to
end over each runtime.

A row is one client request and what the service behind the dispatcher
answers its forward with.  It states the status the client gets, the
counters that move, the ``rpcd_rejected_total`` reason, the
``Retry-After``, and — when the request is forwarded — what the service
saw: the body verbatim (the scanner proved it) or the paper's copy to a
new document (the DOM path), the request's ``Content-Type`` (else the
envelope version's), the ``SOAPAction``, the physical path, and no
``Via``.  The client hears status, ``Content-Type`` and body, no more.

``[core]`` drives :meth:`repro.core.rpc.RpcCore.forward` with the
service's answer in place of the wire; ``[rt]`` / ``[aio]`` / ``[sim]``
put each runtime's driver behind its server, in front of a spy service,
on the in-process transport, loopback TCP and the simulated network.
"""

from __future__ import annotations

import asyncio
import pathlib
import socket
import sys
import threading
from dataclasses import dataclass, field

import pytest

from repro.aio import AioHttpClient, AioHttpServer, AioRpcDispatcher
from repro.core.dispatch import REQUEST
from repro.core.registry import ServiceRegistry
from repro.core.rpc import RpcCore
from repro.core.rpc_dispatcher import RpcDispatcher
from repro.core.sim_dispatcher import SimRpcDispatcher
from repro.errors import (
    AuthError,
    ConnectionRefused,
    HttpParseError,
    ReproError,
    SimInterrupt,
)
from repro.http import Headers, HttpRequest, HttpResponse
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import soap_fault_response, soap_response
from repro.simnet.httpsim import SimHttpServer, sim_http_request
from repro.simnet.kernel import Simulator
from repro.simnet.topology import AccessLink, Network
from repro.soap import (
    Fault,
    LazyEnvelope,
    RpcResponse,
    build_rpc_response,
    parse_envelope,
)
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.util.clock import ManualClock
from repro.workload.echo import make_echo_request
from tests.core.test_fastpath import declare_latin1

ACTION = '"urn:repro:echo#echo"'
FAST = make_echo_request().to_bytes()
SLOW = declare_latin1(FAST)
#: what the DOM path forwards for SLOW: a new document, re-serialized
COPY = parse_envelope(SLOW).to_bytes()
BODIES = {"fast": FAST, "slow": SLOW, "garbage": b"garbage", "none": b""}
REPLY = build_rpc_response(RpcResponse("urn:repro:echo", "echo", [("return", "hi")]))


def refuse_echo(envelope, logical):
    raise AuthError("no credentials")


def seal_echo(envelope, logical):
    raise ReproError("sealed")


@dataclass
class Row:
    name: str
    status: int
    #: ``dispatcher.stats`` afterwards
    counters: dict
    #: the ``rpcd_rejected_total`` label that moved, if any
    reason: str | None = None
    method: str = "POST"
    path: str = "/rpc/echo"
    body: str = "fast"
    content_type: str | None = "text/xml"
    #: attribute → value set on the dispatcher first; ``unavailable``
    #: switches the registry off
    setup: dict = field(default_factory=dict)
    #: what the service answers a forward with
    service: str = "reply"
    #: None (nothing reached the service), "verbatim" or "copy"
    forwarded: str | None = None
    retry_after: str | None = None


FORWARDED = {"forwarded": 1}
REJECTED = {"rejected": 1}

ROWS = [
    Row("forward-verbatim-on-the-fast-path", 200, FORWARDED, forwarded="verbatim"),
    Row("forward-a-copy-on-the-dom-path", 200, FORWARDED, body="slow", forwarded="copy"),
    Row("content-type-from-the-envelope-when-absent", 200, FORWARDED,
        content_type=None, forwarded="verbatim"),
    Row("service-fault-relayed", 500, FORWARDED, service="fault", forwarded="verbatim"),
    Row("not-post", 405, {}, method="GET", body="none"),
    Row("body-too-large", 413, REJECTED, "body_too_large", setup={"max_body": 10}),
    Row("bad-target", 404, REJECTED, "bad_target", path="/rpc"),
    Row("invalid-soap", 400, REJECTED, "invalid_soap", body="garbage"),
    Row("inspector-auth-error", 401, REJECTED, "auth", setup={"inspector": refuse_echo}),
    Row("inspector-refuses", 403, REJECTED, "inspector", setup={"inspector": seal_echo}),
    Row("unknown-service", 404, REJECTED, "unknown_service", path="/rpc/ghost"),
    Row("registry-unavailable", 503, REJECTED, "registry_unavailable",
        setup={"unavailable": True}, retry_after="1"),
    Row("shed", 503, {"shed": 1}, setup={"max_inflight": 0}, retry_after="1"),
    Row("unreachable-service", 502, {"failed": 1}, path="/rpc/dead"),
]

ROW_IDS = [row.name for row in ROWS]


def client_request(row: Row) -> HttpRequest:
    headers = Headers()
    if row.content_type is not None:
        headers.set("Content-Type", row.content_type)
    headers.set("SOAPAction", ACTION)
    return HttpRequest(row.method, row.path, headers=headers, body=BODIES[row.body])


def answer(kind: str) -> HttpResponse:
    """What the service answers: a reply, or a SOAP fault, plus a header
    of its own that must not reach the client."""
    if kind == "fault":
        response = soap_fault_response(Fault("Server", "deliberate"))
    else:
        response = soap_response(REPLY)
    response.headers.set("X-Service", "spy")
    return response


class Spy:
    """The service: records each forward, answers with the row's reply."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.seen: list[HttpRequest] = []

    def __call__(self, request: HttpRequest, peer=None) -> HttpResponse:
        self.seen.append(request)
        return answer(self.kind)


def registry_for(echo_url: str, dead_url: str) -> ServiceRegistry:
    registry = ServiceRegistry(metrics=MetricsRegistry())
    registry.register("echo", echo_url)
    registry.register("dead", dead_url)
    return registry


def apply(row: Row, dispatcher: RpcCore) -> None:
    for name, value in row.setup.items():
        if name == "unavailable":
            dispatcher.registry.set_available(False)
        else:
            setattr(dispatcher, name, value)


def check(row: Row, dispatcher: RpcCore, response: HttpResponse, spy: Spy) -> None:
    assert response.status == row.status
    assert response.headers.get("Via") is None
    assert response.headers.get("X-Service") is None
    assert response.headers.get("Retry-After") == row.retry_after
    assert dispatcher.stats == row.counters
    rejected = dispatcher.metrics.counter("rpcd_rejected_total")
    assert {labels["reason"]: child.get() for labels, child in rejected.samples()} == (
        {row.reason: 1} if row.reason else {}
    )
    shed = dispatcher.metrics.counter("dispatcher_shed_total")
    assert {labels["component"]: child.get() for labels, child in shed.samples()} == (
        {dispatcher.component: 1} if "shed" in row.counters else {}
    )
    if row.forwarded is None:
        assert spy.seen == []
        return
    (forward,) = spy.seen
    assert (forward.method, forward.target) == ("POST", "/echo")
    assert forward.headers.get("Via") is None
    assert forward.headers.get("Content-Type") == (row.content_type or SOAP11_CONTENT_TYPE)
    assert forward.headers.get("SOAPAction") == ACTION
    assert forward.body == (COPY if row.forwarded == "copy" else BODIES[row.body])
    assert response.headers.get("Content-Type") == SOAP11_CONTENT_TYPE
    assert response.body == answer(spy.kind).body


def quiet() -> dict:
    return dict(metrics=MetricsRegistry(), traces=TraceStore(enabled=False))


# -- [core]: the steps, the service's answer in place of the wire ----------------

DEAD = "http://nowhere:1/svc"


def test_the_copy_is_a_new_document():
    assert isinstance(parse_envelope(FAST), LazyEnvelope)
    assert not isinstance(parse_envelope(SLOW), LazyEnvelope)
    assert COPY != SLOW


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_contract_core(row):
    core = RpcCore(registry_for("http://ws:9000/echo", DEAD), None, **quiet())
    core.clock = ManualClock()
    apply(row, core)
    spy = Spy(row.service)
    steps = core.forward(client_request(row))
    try:
        op, url, forward = next(steps)
        assert op is REQUEST and url in ("http://ws:9000/echo", DEAD)
        if url == DEAD:
            steps.throw(ConnectionRefused(url))
        steps.send(spy(forward))
    except StopIteration as done:
        response = done.value
    check(row, core, response, spy)


@pytest.mark.parametrize("error", [SimInterrupt("stop"), ValueError("bug")])
def test_only_a_wire_error_is_a_502_and_the_slot_is_released(error):
    core = RpcCore(
        registry_for("http://ws:9000/echo", DEAD), None, max_inflight=1, **quiet()
    )
    steps = core.forward(client_request(ROWS[0]))
    next(steps)
    with pytest.raises(type(error)):
        steps.throw(error)
    assert core.stats == {}
    # the slot came back: the next request is admitted, and a garbled
    # answer from the service is a wire error
    steps = core.forward(client_request(ROWS[0]))
    next(steps)
    with pytest.raises(StopIteration) as done:
        steps.throw(HttpParseError("garbled"))
    assert done.value.value.status == 502
    assert core.stats == {"failed": 1}


def test_the_rpc_decisions_are_written_once():
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    for marker in ("rpcd_rejected_total", "urn:wsd:sync:"):
        homes = [
            path.relative_to(src).as_posix() for path in sorted(src.rglob("*.py"))
            if marker in path.read_text(encoding="utf-8")
        ]
        assert len(homes) == 1, (marker, homes)


# -- [rt]: the threaded driver on the in-process transport ----------------------

@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_contract_rt(row, inproc):
    spy = Spy(row.service)
    ws = HttpServer(inproc.listen("ws:9000"), spy, workers=2).start()
    dispatcher = RpcDispatcher(
        registry_for("http://ws:9000/echo", DEAD), HttpClient(inproc), **quiet()
    )
    apply(row, dispatcher)
    front = HttpServer(inproc.listen("wsd:8000"), dispatcher.handle_request, workers=2).start()
    client = HttpClient(inproc)
    try:
        response = client.request(f"http://wsd:8000{row.path}", client_request(row))
        check(row, dispatcher, response, spy)
    finally:
        client.close()
        front.stop()
        ws.stop()


# -- [aio]: the loop driver over loopback TCP -------------------------------------

def closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_contract_aio(row):
    spy = Spy(row.service)

    async def main():
        async with AioHttpServer(spy) as ws:
            dispatcher = AioRpcDispatcher(
                registry_for(f"{ws.url}/echo", f"http://127.0.0.1:{closed_port()}/svc"),
                AioHttpClient(), **quiet(),
            )
            apply(row, dispatcher)
            async with AioHttpServer(dispatcher.handle_request) as front:
                client = AioHttpClient()
                response = await client.request(f"{front.url}{row.path}", client_request(row))
                client.close()
            dispatcher.client.close()
        return dispatcher, response

    dispatcher, response = asyncio.run(main())
    check(row, dispatcher, response, spy)


# -- [sim]: the simulated driver, its forward inside the worker slot ------------

@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_contract_sim(row):
    net = Network(Simulator())
    link = AccessLink(5000, 5000, 0.005)
    client, ws, wsd = (net.add_host(name, link) for name in ("client", "ws", "wsd"))
    spy = Spy(row.service)
    SimHttpServer(net, ws, 9000, spy)
    dispatcher = SimRpcDispatcher(
        net, wsd, registry_for("http://ws:9000/echo", "http://ws:9999/dead"), **quiet()
    )
    apply(row, dispatcher)
    SimHttpServer(net, wsd, 8000, dispatcher.handler)

    def call():
        return (yield from sim_http_request(
            net, client, "wsd", 8000, client_request(row), response_timeout=60.0
        ))

    response = net.sim.run(net.sim.process(call()))
    check(row, dispatcher, response, spy)


def test_the_admission_slot_count_survives_concurrent_forwards(inproc):
    """Many server threads take and give back ``max_inflight`` slots at
    once: every request is forwarded or shed, and the count returns to 0."""
    ws = HttpServer(inproc.listen("ws:9000"), Spy("reply"), workers=4).start()
    dispatcher = RpcDispatcher(
        registry_for("http://ws:9000/echo", DEAD), HttpClient(inproc),
        max_inflight=2, **quiet(),
    )
    front = HttpServer(inproc.listen("wsd:8000"), dispatcher.handle_request, workers=16).start()
    statuses: list[int] = []

    def client_loop():
        client = HttpClient(inproc)
        for _ in range(5):
            response = client.request("http://wsd:8000/rpc/echo", client_request(ROWS[0]))
            statuses.append(response.status)
        client.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client_loop) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        front.stop()
        ws.stop()
    assert set(statuses) <= {200, 503} and len(statuses) == 60
    stats = dispatcher.stats
    assert stats.get("forwarded", 0) + stats.get("shed", 0) == 60
    assert stats.get("forwarded", 0) == statuses.count(200)
    assert dispatcher._inflight == 0
