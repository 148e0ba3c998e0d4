"""Breakers, hold-store parking, and overload shedding — the same
semantic matrix asserted against the threaded and asyncio dispatchers
via the ``dispatcher_backend`` fixture."""

import time

import pytest

from repro.core.msg_dispatcher import MsgDispatcherConfig
from repro.core.registry import ServiceRegistry
from repro.core.rpc_dispatcher import RpcDispatcher
from repro.errors import TransportError
from repro.http import Headers, HttpRequest, HttpResponse
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.reliable import BreakerConfig, FixedDelay, HoldRetryStore
from repro.rt.service import RequestContext, SoapHttpApp
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message


class FakeClient:
    """Counts requests; fails while ``failing`` is set."""

    def __init__(self, failing=True):
        self.failing = failing
        self.calls = 0

    def request(self, url, request):
        self.calls += 1
        if self.failing:
            raise TransportError(f"injected failure for {url}")
        return HttpResponse(status=202)

    def prepare(self, url, request):
        return request

    def close(self):
        pass


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def make_dispatcher(
    backend, client, metrics, hold_store=None, breaker=None, registry=None,
    **kwargs
):
    if registry is None:
        registry = ServiceRegistry()
        registry.register("echo", "http://dead:9000/echo")
    config_kw = {
        k: kwargs.pop(k)
        for k in ("max_inflight", "dedupe_window") if k in kwargs
    }
    config = MsgDispatcherConfig(
        cx_threads=1, ws_threads=2, batch_size=1,
        breaker=breaker
        or BreakerConfig(consecutive_failures=2, open_for=60.0),
        **config_kw,
    )
    return backend.make_dispatcher(
        registry, client, own_address="http://wsd:8000/msg", config=config,
        metrics=metrics, traces=TraceStore(enabled=False),
        hold_store=hold_store, **kwargs,
    )


def feed(dispatcher, n, seed=1):
    ids = IdGenerator("rob", seed=seed)
    for _ in range(n):
        env = make_echo_message(to="urn:wsd:echo", message_id=ids.next())
        dispatcher.handle(env, RequestContext(path="/msg/echo"))


def test_breaker_opens_and_stops_network_attempts(dispatcher_backend):
    metrics = MetricsRegistry()
    client = FakeClient(failing=True)
    dispatcher = make_dispatcher(dispatcher_backend, client, metrics)
    try:
        feed(dispatcher, 10)
        # two consecutive failures trip the breaker; the other eight are
        # refused locally without touching the (dead) network
        assert wait_for(
            lambda: dispatcher.stats.get("dropped_breaker_open", 0) == 8
        ), dispatcher.stats
        assert client.calls == 2
        snap = dispatcher.breakers.snapshot()
        assert snap["destinations"]["dead:9000"]["state"] == "open"
        rendered = metrics.render_prometheus()
        assert 'rt_breaker_state{dest="dead:9000"} 1' in rendered
        assert 'msgd_dropped_total{reason="breaker_open"} 8' in rendered
    finally:
        dispatcher.stop()


def test_open_breaker_parks_messages_in_hold_store(dispatcher_backend):
    metrics = MetricsRegistry()
    client = FakeClient(failing=True)
    hold_store = HoldRetryStore(
        policy=FixedDelay(max_attempts=1000, delay=30.0), default_ttl=600.0
    )
    dispatcher = make_dispatcher(
        dispatcher_backend, client, metrics, hold_store=hold_store
    )
    try:
        feed(dispatcher, 10)
        assert wait_for(
            lambda: dispatcher.stats.get("held_breaker_open", 0)
            + dispatcher.stats.get("held_for_retry", 0) == 10
        ), dispatcher.stats
        assert client.calls == 2
        assert hold_store.pending() == 10
        health = dispatcher.health_snapshot()
        assert health["breakers"]["states"]["open"] == 1
        assert health["hold_store"]["held"] == 10
    finally:
        dispatcher.stop()


def test_recovery_closes_breaker_and_redelivers_held(dispatcher_backend):
    metrics = MetricsRegistry()
    client = FakeClient(failing=True)
    hold_store = HoldRetryStore(
        policy=FixedDelay(max_attempts=1000, delay=0.05), default_ttl=600.0
    )
    dispatcher = make_dispatcher(
        dispatcher_backend, client, metrics, hold_store=hold_store,
        breaker=BreakerConfig(consecutive_failures=2, open_for=0.2),
        hold_pump_interval=0.05,
    )
    try:
        feed(dispatcher, 5)
        assert wait_for(lambda: hold_store.pending() == 5), dispatcher.stats
        client.failing = False  # the destination comes back
        # half-open probe succeeds, breaker closes, the pump drains the store
        assert wait_for(lambda: hold_store.pending() == 0, timeout=10.0), (
            dispatcher.stats, hold_store.stats,
        )
        assert hold_store.stats["delivered"] == 5
        assert hold_store.stats["expired"] == 0
        snap = dispatcher.breakers.snapshot()
        assert snap["destinations"]["dead:9000"]["state"] == "closed"
    finally:
        dispatcher.stop()


@pytest.mark.parametrize(
    "dispatcher_backend", ["rt", "aio", "rt-sharded", "aio-sharded"], indirect=True
)
def test_registry_outage_parks_then_redelivers(dispatcher_backend):
    """RegistryUnavailable mid-drain parks the message pre-resolution;
    when the registry comes back the pump re-routes and delivers it —
    without the redelivery being absorbed as a duplicate.  The sharded
    classes run it too: shard ownership is a rule of the same routing
    pass, so the from-hold path cannot be shadowed."""
    metrics = MetricsRegistry()
    client = FakeClient(failing=False)
    registry = ServiceRegistry()
    registry.register("echo", "http://ws:9000/echo")
    registry.set_available(False)
    hold_store = HoldRetryStore(
        policy=FixedDelay(max_attempts=1000, delay=0.05), default_ttl=600.0
    )
    dispatcher = make_dispatcher(
        dispatcher_backend, client, metrics, hold_store=hold_store,
        registry=registry, hold_pump_interval=0.05, dedupe_window=600.0,
    )
    try:
        feed(dispatcher, 3)
        assert wait_for(
            lambda: dispatcher.stats.get("hold_registry_unavailable", 0) == 3
        ), dispatcher.stats
        # parked, not dead-lettered, and the dead registry was never a
        # reason to touch the network
        assert dispatcher.stats.get("dropped_unroutable", 0) == 0
        assert hold_store.pending() == 3
        assert client.calls == 0

        registry.set_available(True)
        assert wait_for(lambda: hold_store.pending() == 0, timeout=10.0), (
            dispatcher.stats, hold_store.stats,
        )
        assert wait_for(
            lambda: dispatcher.stats.get("delivered", 0) == 3
        ), dispatcher.stats
        assert client.calls == 3
        # the MessageIDs were recorded on the admission pass that parked
        # them; the from-hold routing pass must skip the duplicate filter
        assert dispatcher.stats.get("duplicates_suppressed", 0) == 0
        assert hold_store.stats["delivered"] == 3
    finally:
        dispatcher.stop()


def test_registry_outage_without_hold_store_dead_letters(dispatcher_backend):
    metrics = MetricsRegistry()
    client = FakeClient(failing=False)
    registry = ServiceRegistry()
    registry.register("echo", "http://ws:9000/echo")
    registry.set_available(False)
    dispatcher = make_dispatcher(
        dispatcher_backend, client, metrics, registry=registry
    )
    try:
        feed(dispatcher, 2)
        assert wait_for(
            lambda: dispatcher.stats.get("dropped_unroutable", 0) == 2
        ), dispatcher.stats
        assert client.calls == 0
    finally:
        dispatcher.stop()


def test_msg_dispatcher_shed_maps_to_503_with_retry_after(dispatcher_backend):
    metrics = MetricsRegistry()
    dispatcher = make_dispatcher(
        dispatcher_backend, FakeClient(), metrics, max_inflight=0
    )
    app = SoapHttpApp()
    app.mount("/msg", dispatcher)
    try:
        env = make_echo_message(to="urn:wsd:echo", message_id="uuid:shed-1")
        headers = Headers()
        headers.set("Content-Type", SOAP11_CONTENT_TYPE)
        request = HttpRequest("POST", "/msg/echo", headers=headers,
                              body=env.to_bytes())
        response = app.handle_request(request, None)
        assert response.status == 503
        assert response.headers.get("Retry-After") == "1"
        assert b"overloaded" in response.body
        assert dispatcher.stats.get("shed_overload") == 1
        assert (
            'dispatcher_shed_total{component="msgd"} 1'
            in metrics.render_prometheus()
        )
        assert dispatcher.health_snapshot()["shed"] == 1
    finally:
        dispatcher.stop()


def test_rpc_dispatcher_shed_maps_to_503_with_retry_after():
    metrics = MetricsRegistry()
    dispatcher = RpcDispatcher(
        ServiceRegistry(), FakeClient(), metrics=metrics,
        traces=TraceStore(enabled=False), max_inflight=0,
        shed_retry_after=2.5,
    )
    request = HttpRequest("POST", "/rpc/echo", body=b"<x/>")
    response = dispatcher.handle_request(request)
    assert response.status == 503
    assert response.headers.get("Retry-After") == "2.5"
    assert dispatcher.stats["shed"] == 1
    assert (
        'dispatcher_shed_total{component="rpcd"} 1'
        in metrics.render_prometheus()
    )
