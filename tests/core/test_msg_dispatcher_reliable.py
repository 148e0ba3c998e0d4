"""Tests for the MSG-Dispatcher + HoldRetryStore integration (WS-RM mode)."""

import time

import pytest

from repro.core.msg_dispatcher import MsgDispatcher, MsgDispatcherConfig
from repro.core.registry import ServiceRegistry
from repro.errors import TransportError
from repro.http import HttpRequest
from repro.reliable import FixedDelay, HoldRetryStore
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import SoapHttpApp
from repro.util.ids import IdGenerator
from repro.workload.echo import AsyncEchoService, make_echo_message


def wait_for(predicate, timeout=8.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def test_held_message_delivered_after_service_comes_up(inproc):
    registry = ServiceRegistry()
    registry.register("late", "http://late:9500/echo")

    disp_client = HttpClient(inproc, connect_timeout=0.2, response_timeout=1.0)

    def deliver(msg):
        response = disp_client.request(
            msg.target_url,
            HttpRequest("POST", "/", body=msg.envelope_bytes),
        )
        if response.status >= 400:
            raise TransportError(f"HTTP {response.status}")

    hold_store = HoldRetryStore(
        deliver, policy=FixedDelay(max_attempts=50, delay=0.1), default_ttl=30.0
    )
    dispatcher = MsgDispatcher(
        registry,
        disp_client,
        own_address="http://wsd:8000/msg",
        config=MsgDispatcherConfig(cx_threads=1, ws_threads=2),
        hold_store=hold_store,
        hold_pump_interval=0.05,
    )
    app = SoapHttpApp()
    app.mount("/msg", dispatcher)
    front = HttpServer(inproc.listen("wsd:8000"), app.handle_request).start()

    client = HttpClient(inproc)
    ids = IdGenerator("rel", seed=1)
    msg = make_echo_message(to="urn:wsd:late", message_id=ids.next())
    assert client.post_envelope("http://wsd:8000/msg/late", msg).status == 202

    # delivery fails (nothing listening); the message must be held — and
    # each failed redelivery (through the destination queue, the store's
    # own ``deliver`` unused) parks it again, so count at least one
    assert wait_for(lambda: dispatcher.stats.get("held_for_retry", 0) >= 1)
    assert hold_store.pending() == 1

    # now the service appears — the pump should deliver the held message
    ws_http = HttpClient(inproc)
    echo = AsyncEchoService(ws_http)
    ws_app = SoapHttpApp()
    ws_app.mount("/echo", echo)
    ws = HttpServer(inproc.listen("late:9500"), ws_app.handle_request).start()

    assert wait_for(lambda: echo.received == 1)
    assert hold_store.pending() == 0
    assert hold_store.stats["delivered"] == 1

    dispatcher.stop()
    front.stop()
    ws.stop()
    client.close()
    ws_http.close()
    disp_client.close()


def test_without_hold_store_failures_are_final(inproc):
    registry = ServiceRegistry()
    registry.register("void", "http://void:1/x")
    dispatcher = MsgDispatcher(
        registry,
        HttpClient(inproc, connect_timeout=0.1),
        own_address="http://wsd:8000/msg",
        config=MsgDispatcherConfig(cx_threads=1, ws_threads=1),
    )
    ids = IdGenerator("rel", seed=2)
    msg = make_echo_message(to="urn:wsd:void", message_id=ids.next())
    from repro.rt.service import RequestContext

    dispatcher.handle(msg, RequestContext(path="/msg/void"))
    assert wait_for(lambda: dispatcher.stats.get("delivery_failures", 0) == 1)
    assert dispatcher.stats.get("held_for_retry", 0) == 0
    dispatcher.stop()
