"""Unit tests for trace context propagation and the span ring buffer."""

import pytest

from repro.obs.trace import (
    Q_TRACE,
    TraceContext,
    TraceStore,
    attach_trace,
    default_trace_store,
    ensure_trace,
    extract_trace,
    propagate_trace,
    set_default_trace_store,
)
from repro.soap import Envelope
from repro.xmlmini import Element, QName


def make_envelope() -> Envelope:
    return Envelope(Element(QName("urn:svc", "ping")))


class TestTraceContext:
    def test_new_has_fresh_id_and_no_parent(self):
        a, b = TraceContext.new(), TraceContext.new()
        assert a.trace_id.startswith("trace-")
        assert a.trace_id != b.trace_id
        assert a.parent_span_id is None

    def test_child_keeps_trace_id(self):
        ctx = TraceContext("trace-1").child("span-7")
        assert ctx == TraceContext("trace-1", parent_span_id="span-7")


class TestHeaderRoundtrip:
    def test_attach_extract(self):
        env = make_envelope()
        attach_trace(env, TraceContext("trace-1", parent_span_id="span-2"))
        assert extract_trace(env) == TraceContext("trace-1", "span-2")

    def test_attach_replaces_previous_header(self):
        env = make_envelope()
        attach_trace(env, TraceContext("trace-old"))
        attach_trace(env, TraceContext("trace-new"))
        assert extract_trace(env).trace_id == "trace-new"
        assert sum(1 for h in env.headers if h.name == Q_TRACE) == 1

    def test_untraced_extracts_none(self):
        assert extract_trace(make_envelope()) is None

    def test_survives_the_wire(self):
        env = make_envelope()
        attach_trace(env, TraceContext("trace-1", parent_span_id="span-2"))
        parsed = Envelope.from_bytes(env.to_bytes())
        assert extract_trace(parsed) == TraceContext("trace-1", "span-2")

    def test_ensure_trace_creates_once(self):
        env = make_envelope()
        ctx = ensure_trace(env)
        assert extract_trace(env) == ctx
        assert ensure_trace(env) == ctx  # second call reuses, not recreates

    def test_propagate_onto_new_envelope(self):
        request, reply = make_envelope(), make_envelope()
        attach_trace(request, TraceContext("trace-1", parent_span_id="span-2"))
        out = propagate_trace(request, reply, parent_span_id="span-9")
        assert out == TraceContext("trace-1", "span-9")
        assert extract_trace(reply) == out

    def test_propagate_untraced_source_is_noop(self):
        reply = make_envelope()
        assert propagate_trace(make_envelope(), reply) is None
        assert extract_trace(reply) is None


class TestTraceStore:
    def test_record_and_get(self):
        store = TraceStore()
        span = store.record("t1", "admit", "msgd", 1.0, 1.5, dest="ws:9000")
        assert span.duration == pytest.approx(0.5)
        assert span.attrs == {"dest": "ws:9000"}
        spans = store.get("t1")
        assert [s.span_id for s in spans] == [span.span_id]
        assert "t1" in store
        assert len(store.ids()) == 1
        assert store.get("missing") == []

    def test_new_span_ids_are_unique(self):
        store = TraceStore()
        assert store.new_span_id() != store.new_span_id()

    def test_parent_linkage(self):
        store = TraceStore()
        sid = store.new_span_id()
        store.record("t1", "route", "msgd", 0.0, 0.0, span_id=sid)
        child = store.record("t1", "deliver", "msgd", 0.0, 1.0, parent_id=sid)
        assert child.parent_id == sid

    def test_capacity_evicts_oldest_trace(self):
        store = TraceStore(capacity=2)
        for i in range(3):
            store.record(f"t{i}", "s", "c", float(i), float(i))
        assert store.ids() == ["t1", "t2"]
        assert "t0" not in store

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)

    def test_wall_time_spans_first_start_to_last_end(self):
        store = TraceStore()
        store.record("t1", "a", "c", 1.0, 2.0)
        store.record("t1", "b", "c", 1.5, 4.0)
        assert store.to_json("t1")["wall_time"] == pytest.approx(3.0)
        assert store.to_json("missing")["wall_time"] == 0.0

    def test_disabled_store_records_nothing(self):
        store = TraceStore(enabled=False)
        assert store.record("t1", "a", "c", 0.0, 1.0) is None
        assert len(store.ids()) == 0
        # span-id allocation still works so propagation stays identical
        assert store.new_span_id().startswith("span-")

    def test_to_json_sorts_spans_by_time(self):
        store = TraceStore()
        store.record("t1", "late", "c", 2.0, 3.0)
        store.record("t1", "early", "c", 0.0, 1.0)
        doc = store.to_json("t1")
        assert [s["name"] for s in doc["spans"]] == ["early", "late"]
        assert doc["wall_time"] == pytest.approx(3.0)

    def test_render_timeline(self):
        store = TraceStore()
        store.record("t1", "admit", "msgd", 0.0, 0.5)
        store.record("t1", "deliver", "msgd", 0.5, 1.0)
        text = store.render_timeline("t1")
        assert "trace t1" in text
        assert "msgd/admit" in text
        assert "msgd/deliver" in text
        assert "#" in text
        assert "(no spans)" in store.render_timeline("missing")


class TestDefaultStore:
    def test_swap_and_restore(self):
        mine = TraceStore()
        previous = set_default_trace_store(mine)
        try:
            assert default_trace_store() is mine
        finally:
            set_default_trace_store(previous)
        assert default_trace_store() is previous
