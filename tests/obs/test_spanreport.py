"""Span-report protocol: codec, handler, outbox store."""

import json

import pytest

from repro.http import HttpRequest
from repro.obs.metrics import MetricsRegistry
from repro.obs.spanreport import (
    SPAN_REPORT_PATH,
    ReportingTraceStore,
    SpanReportHandler,
    decode_span_report,
    encode_span_report,
    make_span_report_request,
)
from repro.obs.trace import TraceStore


def _span_dicts(store, n=3, trace_id="trace-x"):
    for i in range(n):
        store.record(trace_id, f"op-{i}", "client", float(i), float(i) + 0.5)
    return store.drain_reports()


class TestCodec:
    def test_round_trip(self):
        store = ReportingTraceStore(span_prefix="client")
        spans = _span_dicts(store)
        assert decode_span_report(encode_span_report(spans)) == spans

    def test_decode_rejects_malformed(self):
        with pytest.raises(ValueError):
            decode_span_report(b"[1, 2, 3]")
        with pytest.raises(ValueError):
            decode_span_report(b'{"spans": "nope"}')
        with pytest.raises(ValueError):
            decode_span_report(b"not json")


class TestHandler:
    def test_absorbs_spans_into_the_aggregator(self):
        remote = ReportingTraceStore(span_prefix="client")
        spans = _span_dicts(remote, n=2)
        aggregator = TraceStore(span_prefix="wsd")
        metrics = MetricsRegistry()
        handler = SpanReportHandler(aggregator, metrics=metrics)
        response = handler(make_span_report_request(spans))
        assert response.status == 202
        assert json.loads(response.body)["absorbed"] == 2
        # span ids arrive verbatim — the prefix scheme prevents collisions
        assert {s.span_id for s in aggregator.get("trace-x")} == {
            "client-1", "client-2"
        }
        snap = metrics.snapshot()
        assert snap["obs_spans_ingested_total"]["samples"][0]["value"] == 2

    def test_rejects_non_post_and_bad_payloads(self):
        handler = SpanReportHandler(TraceStore(), metrics=MetricsRegistry())
        assert handler(HttpRequest("GET", SPAN_REPORT_PATH)).status == 405
        bad = HttpRequest("POST", SPAN_REPORT_PATH, body=b"garbage")
        assert handler(bad).status == 400


class TestReportingTraceStore:
    def test_recorded_spans_buffer_for_shipping(self):
        store = ReportingTraceStore(span_prefix="svc")
        store.record("trace-1", "absorb", "service", 0.0, 1.0)
        assert store.pending == 1
        batch = store.drain_reports()
        assert store.pending == 0
        assert batch[0]["span_id"] == "svc-1"
        assert store.shipped_total == 1

    def test_drain_respects_batch_and_requeue_restores_order(self):
        store = ReportingTraceStore(span_prefix="svc")
        _ = [store.record("t", f"op-{i}", "svc", 0.0, 1.0) for i in range(5)]
        first = store.drain_reports(max_spans=2)
        assert [s["name"] for s in first] == ["op-0", "op-1"]
        store.requeue_reports(first)
        assert store.pending == 5
        assert store.shipped_total == 0
        again = store.drain_reports()
        assert [s["name"] for s in again] == [f"op-{i}" for i in range(5)]

    def test_ingested_spans_are_not_rebuffered(self):
        upstream = ReportingTraceStore(span_prefix="client")
        spans = _span_dicts(upstream, n=2)
        downstream = ReportingTraceStore(span_prefix="wsd")
        assert downstream.ingest(spans) == 2
        assert downstream.pending == 0  # no report loop
        assert len(downstream.get("trace-x")) == 2

    def test_outbox_overflow_drops_oldest(self):
        store = ReportingTraceStore(span_prefix="c", outbox_capacity=2)
        for i in range(4):
            store.record("t", f"op-{i}", "c", 0.0, 1.0)
        assert [s["name"] for s in store.drain_reports()] == ["op-2", "op-3"]
