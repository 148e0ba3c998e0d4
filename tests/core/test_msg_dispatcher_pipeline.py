"""Pipelined batch delivery on the threaded MSG-Dispatcher drain path.

Exercises the delivery step directly (``_deliver``, the threaded
driver's trampoline for :meth:`DispatchCore.deliver`, on deterministic
batches) and through the full pipeline: per-item retry/hold semantics
must survive the switch from serial round trips to one pipelined burst,
and every burst with traced items must record a ``pipeline-burst`` span
parenting the items' ``deliver`` spans.
"""

import asyncio
import threading
import time

import pytest

from repro.aio import AioHttpClient

from repro.core.msg_dispatcher import (
    MsgDispatcher,
    MsgDispatcherConfig,
    _OutboundItem,
)
from repro.core.registry import ServiceRegistry
from repro.http import HttpResponse
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceContext, TraceStore, attach_trace
from repro.reliable import FixedDelay
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.util.ids import IdGenerator
from repro.workload.echo import AsyncEchoService, make_echo_message
from repro.rt.service import RequestContext, SoapHttpApp
from repro.transport.tcp import TcpConnector, TcpListener


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


@pytest.fixture
def sink(inproc):
    """HTTP sink answering per-body: b"fail" -> 500, else 202."""
    served = []

    def handler(request, peer=None):
        served.append(request.body)
        if b"fail" in request.body:
            return HttpResponse(status=500)
        return HttpResponse(status=202)

    srv = HttpServer(inproc.listen("sink:9100"), handler, workers=4).start()
    yield served
    srv.stop()


@pytest.fixture
def dispatcher(inproc):
    metrics = MetricsRegistry()
    traces = TraceStore()
    registry = ServiceRegistry(metrics=metrics)
    d = MsgDispatcher(
        registry,
        HttpClient(inproc, metrics=metrics),
        own_address="http://wsd:8000/msg",
        config=MsgDispatcherConfig(cx_threads=1, ws_threads=2),
        metrics=metrics,
        traces=traces,
    )
    yield d
    d.stop()
    d.client.close()


def _item(body: bytes, trace: TraceContext | None = None) -> _OutboundItem:
    return _OutboundItem(
        envelope_bytes=body,
        target_url="http://sink:9100/svc",
        message_id=None,
        trace=trace,
        parent_span_id=trace.parent_span_id if trace else None,
        enqueued_at=0.0,
    )


def test_deliver_batch_delivers_every_item_in_order(sink, dispatcher):
    batch = [_item(b"<m%d/>" % i) for i in range(5)]
    dispatcher._deliver(batch)
    assert dispatcher.stats.get("delivered") == 5
    assert sink == [b"<m0/>", b"<m1/>", b"<m2/>", b"<m3/>", b"<m4/>"]
    assert dispatcher.client._m_pipeline_bursts.labels().get() == 1


def test_burst_span_parents_per_item_deliver_spans(sink, dispatcher):
    traces = dispatcher.traces
    ctxs = [
        TraceContext(f"trace-p{i}", parent_span_id=f"route-{i}")
        for i in range(3)
    ]
    batch = [_item(b"<t%d/>" % i, trace=ctxs[i]) for i in range(3)]
    dispatcher._deliver(batch)
    burst_sids = set()
    for ctx in ctxs:
        spans = traces.get(ctx.trace_id)
        burst = [s for s in spans if s.name == "pipeline-burst"]
        deliver = [s for s in spans if s.name == "deliver"]
        assert len(burst) == 1
        assert len(deliver) == 1
        # the burst span hangs off the item's route span; the item's
        # deliver span hangs off the shared burst span
        assert burst[0].parent_id.startswith("route-")
        assert deliver[0].parent_id == burst[0].span_id
        assert burst[0].attrs["size"] == "3"
        burst_sids.add(burst[0].span_id)
    assert len(burst_sids) == 1  # one shared burst span id across the batch


def test_failed_item_in_burst_takes_retry_path(sink, dispatcher):
    dispatcher.config.retry = FixedDelay(max_attempts=2, delay=0.0)
    batch = [_item(b"<ok-a/>"), _item(b"<fail/>"), _item(b"<ok-b/>")]
    # the burst is on the wire when the dispatcher stops: the retry backs
    # off and then has no queue to go back on
    dispatcher.stop()
    dispatcher._deliver(batch)
    # the two good items delivered; the 500 item took the retry path
    assert dispatcher.stats.get("delivered") == 2
    assert dispatcher.stats.get("retries") == 1
    # ... and, refused by the closed queue, the core's park-or-drop: no
    # hold store here, so a counted, dead-lettered drop — never a silent
    # loss
    assert dispatcher.stats.get("delivery_failures") == 1
    assert (
        'msgd_dropped_total{reason="delivery_failure"} 1'
        in dispatcher.metrics.render_prometheus()
    )
    assert batch[1].attempts == 1


def test_failed_item_in_burst_parks_in_hold_store(inproc, sink):
    held = []

    class HoldStub:
        def is_held(self, message_id):
            return False

        def hold(self, message_id, target_url, body):
            held.append((message_id, target_url, body))

        def take_due(self, now):
            return []

    metrics = MetricsRegistry()
    registry = ServiceRegistry(metrics=metrics)
    d = MsgDispatcher(
        registry,
        HttpClient(inproc, metrics=metrics),
        own_address="http://wsd:8000/msg",
        config=MsgDispatcherConfig(cx_threads=1, ws_threads=2),
        hold_store=HoldStub(),
        metrics=metrics,
        traces=TraceStore(),
    )
    try:
        good, bad = _item(b"<ok/>"), _item(b"<fail/>")
        bad.message_id = "uuid:held-1"
        d._deliver([good, bad])
        assert d.stats.get("delivered") == 1
        assert held == [("uuid:held-1", "http://sink:9100/svc", b"<fail/>")]
        assert d.stats.get("held_for_retry") == 1
    finally:
        d.stop()
        d.client.close()


def test_unreachable_destination_fails_every_item(inproc, dispatcher):
    batch = [
        _OutboundItem(b"<x%d/>" % i, "http://nowhere:1/x") for i in range(3)
    ]
    dispatcher._deliver(batch)
    assert dispatcher.stats.get("delivery_failures") == 3
    assert dispatcher.stats.get("delivered") is None


def test_one_goes_alone_eight_as_one_burst(dispatcher_backend):
    """The drain picks its path from the batch it drew, not from a
    switch: one queued message is a plain request/response, eight queued
    behind it are one pipelined burst (threaded and asyncio alike)."""
    first_in, release = threading.Event(), threading.Event()

    def handler(request, peer=None):
        if not first_in.is_set():
            first_in.set()
            assert release.wait(5.0)
        return HttpResponse(status=202)

    sink = HttpServer(TcpListener("127.0.0.1:0"), handler, workers=2).start()
    metrics = MetricsRegistry()
    traces = TraceStore()
    registry = ServiceRegistry(metrics=metrics)
    registry.register("echo", sink.url + "/echo")
    if dispatcher_backend.kind == "aio":
        client = AioHttpClient(metrics=metrics)
    else:
        client = HttpClient(TcpConnector(), metrics=metrics)

    async def close_on_loop():
        client.close()
        await asyncio.sleep(0)  # let the transports finish closing
    d = dispatcher_backend.make_dispatcher(
        registry, client, own_address="http://wsd:8000/msg",
        config=MsgDispatcherConfig(cx_threads=1, ws_threads=1, batch_size=8),
        metrics=metrics, traces=traces,
    )

    def feed(count, prefix):
        ctxs = [TraceContext(f"{prefix}-{i}") for i in range(count)]
        for ctx in ctxs:
            msg = make_echo_message(
                to="urn:wsd:echo", message_id=f"uuid:{ctx.trace_id}"
            )
            attach_trace(msg, ctx)
            d.handle(msg, RequestContext(path="/msg/echo"))
        return ctxs

    try:
        (lone,) = feed(1, "lone")
        assert first_in.wait(5.0)  # its exchange now holds the only WsThread
        backlog = feed(8, "backlog")
        depth = metrics.gauge("msgd_destination_queue_depth").labels(
            dest=sink.url.removeprefix("http://")
        )
        assert wait_for(lambda: depth.get() == 8)
        release.set()
        assert wait_for(lambda: d.stats.get("delivered", 0) == 9), d.stats
        names = [s.name for s in traces.get(lone.trace_id)]
        assert "deliver" in names and "pipeline-burst" not in names
        burst_sids = {
            s.span_id
            for ctx in backlog
            for s in traces.get(ctx.trace_id)
            if s.name == "pipeline-burst"
        }
        assert len(burst_sids) == 1
        bursts = metrics.counter(
            f"{dispatcher_backend.kind}_client_pipeline_bursts_total"
        )
        assert bursts.labels().get() == 1
    finally:
        release.set()
        d.stop()
        if dispatcher_backend.kind == "aio":
            dispatcher_backend.loop_thread.run(close_on_loop())
        else:
            client.close()
        sink.stop()


def test_serial_and_pipelined_drain_agree_end_to_end(inproc):
    """Same traffic drained one message at a time and in bursts of up to
    eight: identical delivery counts."""
    outcomes = {}
    for batch_size in (1, 8):
        net_ns = type(inproc)()  # fresh inproc namespace per mode
        metrics = MetricsRegistry()
        ws_client = HttpClient(net_ns, metrics=metrics)
        echo = AsyncEchoService(ws_client, ids=IdGenerator("ws", seed=3))
        ws_app = SoapHttpApp()
        ws_app.mount("/echo", echo)
        ws = HttpServer(
            net_ns.listen("ws:9000"), ws_app.handle_request, workers=4
        ).start()
        registry = ServiceRegistry(metrics=metrics)
        registry.register("echo", "http://ws:9000/echo")
        d = MsgDispatcher(
            registry,
            HttpClient(net_ns, metrics=metrics),
            own_address="http://wsd:8000/msg",
            config=MsgDispatcherConfig(
                cx_threads=2, ws_threads=2, batch_size=batch_size,
                destination_idle_ttl=0.5,
            ),
            metrics=metrics,
            traces=TraceStore(),
        )
        app = SoapHttpApp()
        app.mount("/msg", d)
        front = HttpServer(
            net_ns.listen("wsd:8000"), app.handle_request, workers=8
        ).start()
        client = HttpClient(net_ns, metrics=metrics)
        ids = IdGenerator("cli", seed=4)
        for _ in range(12):
            msg = make_echo_message(to="urn:wsd:echo", message_id=ids.next())
            client.post_envelope("http://wsd:8000/msg/echo", msg)
        assert wait_for(lambda: echo.received == 12)
        assert wait_for(lambda: d.stats.get("delivered", 0) == 12)
        outcomes[batch_size] = d.stats.get("delivered")
        d.stop()
        front.stop()
        ws.stop()
        client.close()
        ws_client.close()
    assert outcomes[1] == outcomes[8] == 12
