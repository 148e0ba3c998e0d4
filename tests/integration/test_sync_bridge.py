"""Table 1 quadrant 2 on real sockets: an RPC client in front of a messaging
service, through ``bridge_handler`` on the threaded and the asyncio
MSG-Dispatcher.

The bridge holds the client's connection while the request goes through
the normal pipeline and the service's one-way reply comes back to the
dispatcher; a reply later than ``bridge_timeout`` gets the client a 504
("may not work at all if message reply comes too late").  The simulated
twin is in ``tests/core/test_sim_dispatcher.py``.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core import MsgDispatcher, ServiceRegistry
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import SoapHttpApp
from repro.soap import Envelope, parse_rpc_request, parse_rpc_response
from repro.transport.tcp import TcpConnector, TcpListener
from repro.workload.echo import AsyncEchoService, make_echo_request


class Gated:
    """A messaging echo that sends its reply only once released."""

    def __init__(self, echo: AsyncEchoService) -> None:
        self.echo = echo
        self.release = threading.Event()

    def handle(self, envelope, ctx):
        self.release.wait(10.0)
        return self.echo.handle(envelope, ctx)


def wait_for(predicate, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


@contextmanager
def bridged(runtime: str, gated: bool, bridge_timeout: float):
    """The echo service on a threaded server, the dispatcher on ``runtime``
    with ``bridge_handler`` under ``/bridge``; yields (url, dispatcher,
    service)."""
    connector = TcpConnector()
    service = AsyncEchoService(HttpClient(connector))
    if gated:
        service = Gated(service)
    ws_app = SoapHttpApp()
    ws_app.mount("/echo", service)
    ws_listener = TcpListener("127.0.0.1:0")
    ws = HttpServer(ws_listener, ws_app.handle_request, workers=4).start()
    registry = ServiceRegistry(metrics=MetricsRegistry())
    registry.register("echo", f"http://127.0.0.1:{ws_listener.endpoint.port}/echo")
    quiet = dict(metrics=MetricsRegistry(), traces=TraceStore(enabled=False))
    app = SoapHttpApp()

    def front(request, peer=None):
        if request.target.startswith("/bridge"):
            return dispatcher.bridge_handler(request, bridge_timeout=bridge_timeout)
        return app.handle_request(request, peer)

    if runtime == "rt":
        listener = TcpListener("127.0.0.1:0")
        base = f"http://127.0.0.1:{listener.endpoint.port}"
        dispatcher = MsgDispatcher(
            registry, HttpClient(connector), own_address=f"{base}/msg", **quiet
        )
        app.mount("/msg", dispatcher)
        # a bridged call holds its server thread until the reply, and the
        # reply needs a thread of its own (Table 1's limit): size for both
        server = HttpServer(listener, front, workers=32).start()
        stop = server.stop
    else:
        from repro.aio import AioHttpClient, AioHttpServer, AioLoopThread, AioMsgDispatcher

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        base = f"http://127.0.0.1:{sock.getsockname()[1]}"
        loop_thread = AioLoopThread(name="test-bridge-loop").start()

        async def boot():
            built = AioMsgDispatcher(
                registry, AioHttpClient(), own_address=f"{base}/msg", **quiet
            )
            app.mount("/msg", built)
            return built, await AioHttpServer(front, sock=sock).start()

        dispatcher, server = loop_thread.run(boot())

        def stop():
            loop_thread.run(server.stop())
            loop_thread.stop()

    try:
        yield f"{base}/bridge/echo", dispatcher, service
    finally:
        if gated:
            service.release.set()
        dispatcher.stop()
        stop()
        ws.stop()


@pytest.mark.parametrize("runtime", ["rt", "aio"])
def test_a_fast_async_echo_answers_in_band(runtime):
    client = HttpClient(TcpConnector())
    with bridged(runtime, gated=False, bridge_timeout=5.0) as (url, dispatcher, _):
        request = make_echo_request()
        response = client.post_envelope(url, request)
        assert response.status == 200
        reply = parse_rpc_response(Envelope.from_bytes(response.body))
        assert reply.result("return") == parse_rpc_request(request).param("text")
        assert dispatcher.stats.get("bridged_responses") == 1
        assert dispatcher.pending_correlations() == 0
    client.close()


@pytest.mark.parametrize("runtime", ["rt", "aio"])
def test_a_reply_later_than_the_bridge_timeout_is_a_504(runtime):
    client = HttpClient(TcpConnector())
    with bridged(runtime, gated=True, bridge_timeout=0.2) as (url, dispatcher, service):
        response = client.post_envelope(url, make_echo_request())
        assert response.status == 504
        assert dispatcher.stats.get("bridge_timeouts") == 1
        # the late reply still comes back, and goes nowhere
        service.release.set()
        assert wait_for(lambda: dispatcher.pending_correlations() == 0)
        assert "bridged_responses" not in dispatcher.stats
    client.close()


def test_concurrent_bridged_calls_each_get_their_own_reply():
    """Server threads park on waiters while routing threads wake them:
    every caller gets the reply to its own request, and the sentinel
    table and the correlation table both end empty."""
    texts: dict[int, str] = {}
    replies: dict[int, str] = {}

    def caller(n: int, url: str) -> None:
        client = HttpClient(TcpConnector())
        request = make_echo_request(600 + 13 * n)  # a text of its own length
        texts[n] = parse_rpc_request(request).param("text")
        response = client.post_envelope(url, request)
        assert response.status == 200
        replies[n] = parse_rpc_response(Envelope.from_bytes(response.body)).result("return")
        client.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with bridged("rt", gated=False, bridge_timeout=10.0) as (url, dispatcher, _):
            threads = [threading.Thread(target=caller, args=(n, url)) for n in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert replies == texts and len(replies) == 12
            assert dispatcher.stats.get("bridged_responses") == 12
            assert dispatcher._waiters == {}
            assert dispatcher.pending_correlations() == 0
    finally:
        sys.setswitchinterval(interval)
