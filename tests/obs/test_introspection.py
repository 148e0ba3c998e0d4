"""Unit tests for the /metrics + /trace introspection surface."""

import inspect
import json

import pytest

from repro.http import Headers, HttpRequest
from repro.obs.flight import FlightRecorder
from repro.obs.http import Introspection
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore


class FakeComponent:
    def __init__(self, **stats):
        self._stats = stats

    @property
    def stats(self):
        return dict(self._stats)


def make_introspection():
    return Introspection(metrics=MetricsRegistry(), traces=TraceStore())


def get(target: str, accept: str | None = None) -> HttpRequest:
    headers = Headers()
    if accept:
        headers.set("Accept", accept)
    return HttpRequest("GET", target, headers=headers)


class TestSources:
    def test_stats_property_and_callable_sources(self):
        intro = make_introspection()
        intro.add_source("svc", FakeComponent(handled=3))
        intro.add_source("fn", lambda: {"x": 1})
        assert intro.components_snapshot() == {
            "svc": {"handled": 3},
            "fn": {"x": 1},
        }

    def test_duplicate_name_rejected(self):
        intro = make_introspection()
        intro.add_source("svc", FakeComponent())
        with pytest.raises(ValueError, match="already registered"):
            intro.add_source("svc", FakeComponent())

    def test_duplicate_name_suffixed_on_request(self):
        intro = make_introspection()
        assert intro.add_source("svc", FakeComponent(a=1)) == "svc"
        assert (
            intro.add_source("svc", FakeComponent(a=2), on_duplicate="suffix")
            == "svc#2"
        )
        assert (
            intro.add_source("svc", FakeComponent(a=3), on_duplicate="suffix")
            == "svc#3"
        )
        snap = intro.components_snapshot()
        assert snap["svc"] == {"a": 1}
        assert snap["svc#2"] == {"a": 2}
        assert snap["svc#3"] == {"a": 3}

    def test_unknown_duplicate_policy_rejected(self):
        with pytest.raises(ValueError, match="on_duplicate"):
            make_introspection().add_source(
                "svc", FakeComponent(), on_duplicate="overwrite"
            )

    def test_source_without_stats_rejected(self):
        with pytest.raises(TypeError, match="needs .stats"):
            make_introspection().add_source("bad", object())

    def test_broken_source_becomes_error_entry(self):
        intro = make_introspection()

        def boom():
            raise RuntimeError("dead component")

        intro.add_source("svc", boom)
        snap = intro.components_snapshot()
        assert "dead component" in snap["svc"]["error"]


class TestMetricsEndpoint:
    def test_prometheus_by_default(self):
        intro = make_introspection()
        intro.metrics.counter("req_total", "requests").inc(2)
        intro.add_source("svc", FakeComponent(handled=3, label="x"))
        response = intro.metrics_handler(get("/metrics"))
        assert response.status == 200
        assert "version=0.0.4" in (response.headers.get("Content-Type") or "")
        text = response.body.decode()
        assert "req_total 2" in text
        # component stats ride along as synthetic gauges (numeric only)
        assert 'repro_component_stat{component="svc",stat="handled"} 3' in text
        assert "label" not in text

    def test_json_via_query_and_accept(self):
        intro = make_introspection()
        intro.metrics.gauge("depth").labels().set_function(lambda: 4)
        intro.traces.record("t1", "admit", "msgd", 0.0, 1.0)
        for request in (
            get("/metrics?format=json"),
            get("/metrics", accept="application/json"),
        ):
            payload = json.loads(intro.metrics_handler(request).body)
            assert payload["metrics"]["depth"]["samples"][0]["value"] == 4
            assert payload["traces"] == {"count": 1, "ids": ["t1"]}


class TestTraceEndpoint:
    def test_known_trace_as_json(self):
        intro = make_introspection()
        intro.traces.record("t1", "admit", "msgd", 0.0, 1.0)
        response = intro.trace_handler(get("/trace/t1"))
        assert response.status == 200
        doc = json.loads(response.body)
        assert doc["trace_id"] == "t1"
        assert [s["name"] for s in doc["spans"]] == ["admit"]

    def test_text_timeline(self):
        intro = make_introspection()
        intro.traces.record("t1", "admit", "msgd", 0.0, 1.0)
        response = intro.trace_handler(get("/trace/t1?format=text"))
        assert b"msgd/admit" in response.body

    def test_unknown_trace_is_404(self):
        response = make_introspection().trace_handler(get("/trace/nope"))
        assert response.status == 404
        assert "unknown trace" in json.loads(response.body)["error"]

    def test_bare_trace_path_lists_recent_ids(self):
        intro = make_introspection()
        intro.traces.record("t1", "a", "c", 0.0, 1.0)
        intro.traces.record("t2", "a", "c", 0.0, 1.0)
        payload = json.loads(intro.trace_handler(get("/trace/")).body)
        assert payload == {"traces": ["t1", "t2"]}


class TestMount:
    def test_mounts_all_pages(self):
        mounted = {}

        class FakeApp:
            def mount_page(self, path, handler):
                mounted[path] = handler

        intro = make_introspection()
        intro.mount(FakeApp())
        assert set(mounted) == {
            "/metrics", "/trace", "/health", "/deadletters",
            "/slo", "/flightrecorder",
        }

    def test_the_paths_are_not_options(self):
        assert list(inspect.signature(Introspection.mount).parameters) == [
            "self", "app",
        ]


class TestFlightRecorderEndpoint:
    @staticmethod
    def page(target: str):
        flight = FlightRecorder()
        for i in range(5):
            flight.record("drop" if i % 2 else "hold", "msgd", t=float(i))
        intro = Introspection(
            metrics=MetricsRegistry(), traces=TraceStore(), flight=flight
        )
        response = intro.flight_handler(get(target))
        return response.status, json.loads(response.body)

    def test_last_keeps_the_newest(self):
        status, payload = self.page("/flightrecorder?last=2")
        assert status == 200
        assert [e["t"] for e in payload["events"]] == [3.0, 4.0]

    def test_last_zero_is_no_events(self):
        assert self.page("/flightrecorder?last=0") == (200, {"events": []})

    @pytest.mark.parametrize("last", ["-1", "-2", "two"])
    def test_a_bad_last_is_a_400(self, last):
        status, payload = self.page(f"/flightrecorder?last={last}")
        assert status == 400 and "bad last" in payload["error"]

    def test_kind_and_last_filter_together(self):
        status, payload = self.page("/flightrecorder?kind=drop&last=1")
        assert [(e["kind"], e["t"]) for e in payload["events"]] == [("drop", 3.0)]


class TestDeadletters:
    def test_deadletters_page_renders_journal_snapshots(self):
        from repro.store import DEAD, MessageJournal

        intro = make_introspection()
        journal = MessageJournal(sync="lazy", flush_threshold=1)
        seq = journal.append("m1", "/msg/echo", b"<x/>")
        journal.mark(seq, DEAD, reason="expired")
        intro.add_deadletter_source("msgd", journal.deadletter_snapshot)
        payload = json.loads(intro.deadletters_handler(get("/deadletters")).body)
        assert payload["msgd"]["total"] == 1
        assert payload["msgd"]["by_reason"] == {"expired": 1}
        assert payload["msgd"]["recent"][0]["message_id"] == "m1"
        # and the JSON metrics snapshot grows a deadletters section
        assert intro.json_snapshot()["deadletters"]["msgd"]["total"] == 1
        journal.close()

    def test_duplicate_source_rejected_and_errors_captured(self):
        intro = make_introspection()
        intro.add_deadletter_source("msgd", lambda: {"total": 0})
        try:
            intro.add_deadletter_source("msgd", lambda: {})
        except ValueError:
            pass
        else:  # pragma: no cover - the assert below fails loudly
            raise AssertionError("duplicate source name not rejected")

        def broken():
            raise RuntimeError("journal gone")

        intro.add_deadletter_source("broken", broken)
        snapshot = intro.deadletters_snapshot()
        assert snapshot["msgd"] == {"total": 0}
        assert "journal gone" in snapshot["broken"]["error"]


def test_live_deployment_status(inproc):
    """GET /metrics on a live deployment reflects real traffic counters."""
    from repro.core import RpcDispatcher, ServiceRegistry
    from repro.rt.client import HttpClient
    from repro.rt.server import HttpServer
    from repro.rt.service import SoapHttpApp
    from repro.workload.echo import EchoService, make_echo_request

    app = SoapHttpApp()
    app.mount("/echo", EchoService())
    ws = HttpServer(inproc.listen("ws:9000"), app.handle_request).start()

    registry = ServiceRegistry()
    registry.register("echo", "http://ws:9000/echo")
    dispatcher = RpcDispatcher(registry, HttpClient(inproc))

    intro = make_introspection()
    intro.add_source("rpc-dispatcher", dispatcher)
    intro.add_source("registry", lambda: registry.stats)

    front_app = SoapHttpApp()
    intro.mount(front_app)

    def front(request, peer=None):
        if request.target.startswith("/rpc"):
            return dispatcher.handle_request(request, peer)
        return front_app.handle_request(request, peer)

    wsd = HttpServer(inproc.listen("wsd:8000"), front).start()
    client = HttpClient(inproc)
    for _ in range(3):
        client.post_envelope("http://wsd:8000/rpc/echo", make_echo_request())

    resp = client.request("http://wsd:8000/metrics", get("/metrics"))
    text = resp.body.decode()
    assert resp.status == 200
    assert 'repro_component_stat{component="rpc-dispatcher",stat="forwarded"} 3' in text
    assert 'repro_component_stat{component="registry",stat="lookups"} 3' in text
    ws.stop()
    wsd.stop()
    client.close()
