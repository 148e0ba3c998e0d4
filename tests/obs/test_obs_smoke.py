"""Operator-plane smoke: boot a dispatcher, scrape every telemetry page.

A threaded deployment serving the message path *and* the full
introspection surface (metrics, traces, SLOs, flight recorder, metrics
history, span-report ingestion) on one server, with every page returning
a well-formed body after real traffic.
"""

import json

import pytest

from repro.core import MsgDispatcher, MsgDispatcherConfig, ServiceRegistry
from repro.http import Headers, HttpRequest
from repro.msgbox import MailboxStore, MsgBoxClient, MsgBoxService
from repro.obs import (
    FlightRecorder,
    Introspection,
    MetricsRegistry,
    MetricsSnapshotter,
    SloTracker,
    TraceStore,
    ensure_trace,
)
from repro.obs.spanreport import (
    SPAN_REPORT_PATH,
    ReportingTraceStore,
    SpanReportHandler,
    make_span_report_request,
)
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import SoapHttpApp
from repro.util.ids import IdGenerator
from repro.workload.echo import AsyncEchoService, make_echo_message
from tests.core.test_dispatcher_robustness import wait_for

PAGES = (
    "/metrics",
    "/health",
    "/slo",
    "/flightrecorder",
    "/metrics/history",
    "/deadletters",
)


@pytest.fixture
def telemetry_deployment(inproc):
    """A one-process WSD deployment with the full telemetry plane on."""
    metrics = MetricsRegistry()
    traces = TraceStore(span_prefix="wsd")
    flight = FlightRecorder()
    snapshotter = MetricsSnapshotter(metrics, interval=0.05, capacity=64)

    ws_client = HttpClient(inproc, metrics=metrics)
    echo = AsyncEchoService(ws_client, ids=IdGenerator("ws", seed=1), traces=traces)
    ws_app = SoapHttpApp()
    ws_app.mount("/echo-msg", echo)
    ws_server = HttpServer(
        inproc.listen("internal:9000"), ws_app.handle_request,
        workers=4, name="ws", metrics=metrics,
    ).start()

    registry = ServiceRegistry(metrics=metrics)
    registry.register("echo-msg", "http://internal:9000/echo-msg")
    disp_client = HttpClient(inproc, metrics=metrics)
    dispatcher = MsgDispatcher(
        registry, disp_client,
        own_address="http://wsd:8000/msg",
        config=MsgDispatcherConfig(cx_threads=2, ws_threads=4),
        metrics=metrics, traces=traces, flight=flight,
    )
    msgbox = MsgBoxService(
        MailboxStore(), base_url="http://wsd:8000/mailbox",
        metrics=metrics, traces=traces,
    )
    intro = Introspection(
        metrics=metrics, traces=traces, flight=flight,
        slo=SloTracker(metrics), history=snapshotter,
    )
    app = SoapHttpApp()
    app.mount("/msg", dispatcher)
    app.mount("/mailbox", msgbox)
    app.mount_raw(SPAN_REPORT_PATH, SpanReportHandler(traces, metrics=metrics))
    intro.mount(app)
    front = HttpServer(
        inproc.listen("wsd:8000"), app.handle_request,
        workers=8, name="front", metrics=metrics,
    ).start()
    snapshotter.start()

    yield inproc, metrics, traces, flight, snapshotter, dispatcher
    snapshotter.stop(final_sample=False)
    dispatcher.stop()
    front.stop()
    ws_server.stop()
    ws_client.close()
    disp_client.close()


def _get(client, path):
    return client.request(
        f"http://wsd:8000{path}", HttpRequest("GET", path)
    )


def test_scrape_all_pages_after_traffic(telemetry_deployment):
    inproc, metrics, traces, flight, snapshotter, dispatcher = telemetry_deployment
    client = HttpClient(inproc, metrics=metrics)
    try:
        # drive one real message through the pipeline first
        mbc = MsgBoxClient(client, "http://wsd:8000/mailbox")
        mbc.create()
        msg = make_echo_message(
            to="urn:wsd:echo-msg",
            message_id=IdGenerator("cli", seed=3).next(),
            reply_to=mbc.epr(),
        )
        ctx = ensure_trace(msg)
        assert client.post_envelope("http://wsd:8000/msg/echo-msg", msg).status == 202
        assert mbc.poll(timeout=5.0) is not None
        # the reply can be taken before the delivery that caused it has
        # settled, and before the snapshotter's first interval has passed:
        # the pages below show both, so wait for both
        assert wait_for(
            lambda: dispatcher.stats.get("delivered") and len(snapshotter)
        ), "no delivery or no sample"

        for path in PAGES:
            response = _get(client, path)
            assert response.status == 200, f"{path} -> {response.status}"
            assert response.body, f"{path} returned an empty body"

        # /metrics speaks Prometheus text format with histogram series
        text = _get(client, "/metrics").body.decode()
        assert "# TYPE msgd_stage_seconds histogram" in text
        assert "msgd_stage_seconds_bucket{" in text

        # /health embeds the SLO verdict next to the liveness payload
        health = json.loads(_get(client, "/health").body)
        assert health["slo"]["met"] is True

        # /slo carries the full evaluation
        slo = json.loads(_get(client, "/slo").body)
        assert slo["delivery"]["delivered"] >= 1
        assert set(slo["stages"]) == {
            "admit", "journal", "queue_accept", "queue_destination", "deliver"
        }

        # /trace/<id> renders the timeline for the message we sent
        trace_page = _get(client, f"/trace/{ctx.trace_id}")
        assert trace_page.status == 200
        assert ctx.trace_id.encode() in trace_page.body

        # /flightrecorder is live (empty ring is fine on a healthy run)
        fr = json.loads(_get(client, "/flightrecorder").body)
        assert fr["enabled"] is True and "events" in fr

        # /metrics/history has at least one sample from the snapshotter
        history = json.loads(_get(client, "/metrics/history").body)
        assert len(history["samples"]) >= 1

        # POSTing a span report lands remote spans in the local store
        remote = ReportingTraceStore(span_prefix="probe")
        remote.record(ctx.trace_id, "probe", "probe", 0.0, 0.1)
        report = make_span_report_request(remote.drain_reports())
        response = client.request(
            f"http://wsd:8000{SPAN_REPORT_PATH}", report
        )
        assert response.status == 202
        assert json.loads(response.body)["absorbed"] == 1
        assert any(
            s.component == "probe" for s in traces.get(ctx.trace_id)
        )
    finally:
        client.close()
