"""Hop-by-hop message tracing for the dispatcher pipeline.

The question this answers is the one the paper's architecture makes hard:
*where did message X spend its time* on the client → CxThread → WsThread
queue → service → reply path.  A :class:`TraceContext` (trace id + parent
span id) rides each message as a SOAP header block in its own namespace,
next to the WS-Addressing headers; because the dispatchers copy unknown
headers verbatim when forwarding, the context survives every rewrite and
both transport stacks (real sockets and simnet) for free.  Components
that *build new envelopes* in response to a message (echo services,
WS-MsgBox acknowledgements) re-attach the context with
:func:`propagate_trace`.

Spans land in a :class:`TraceStore` — a bounded in-memory ring buffer of
recent traces with a per-trace ASCII timeline — served over HTTP by
:mod:`repro.obs.http` as ``GET /trace/<id>``.

Timestamps are whatever clock the recording component uses (wall
monotonic in the threaded runtime, simulated seconds under simnet); one
trace should stay within one clock domain, which holds whenever the whole
deployment shares a clock, as every experiment here does.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.soap.envelope import Envelope
from repro.util.ids import new_uuid
from repro.xmlmini import Element, QName

#: namespace of the trace header block (sits alongside WS-Addressing)
TRACE_NS = "urn:repro:obs"

Q_TRACE = QName(TRACE_NS, "Trace")
Q_TRACE_ID = QName(TRACE_NS, "TraceId")
Q_PARENT_SPAN = QName(TRACE_NS, "ParentSpanId")


@dataclass
class TraceContext:
    """The propagated part of a trace: its id and the upstream span."""

    trace_id: str
    parent_span_id: str | None = None

    @classmethod
    def new(cls) -> "TraceContext":
        return cls(trace_id=f"trace-{new_uuid()}")

    def child(self, parent_span_id: str) -> "TraceContext":
        """The context downstream hops should see."""
        return TraceContext(self.trace_id, parent_span_id=parent_span_id)


def attach_trace(envelope: Envelope, ctx: TraceContext) -> Envelope:
    """Replace the envelope's trace header with ``ctx`` (in place)."""
    envelope.remove_headers(TRACE_NS)
    block = Element(Q_TRACE)
    block.children.append(Element(Q_TRACE_ID, text=ctx.trace_id))
    if ctx.parent_span_id:
        block.children.append(Element(Q_PARENT_SPAN, text=ctx.parent_span_id))
    envelope.headers.append(block)
    return envelope


def extract_trace(envelope: Envelope) -> TraceContext | None:
    """Decode the trace header, or None for untraced messages."""
    block = envelope.find_header(Q_TRACE)
    if block is None:
        return None
    trace_id: str | None = None
    parent: str | None = None
    for child in block.element_children():
        if child.name == Q_TRACE_ID:
            trace_id = child.text.strip()
        elif child.name == Q_PARENT_SPAN:
            parent = child.text.strip()
    if not trace_id:
        return None
    return TraceContext(trace_id, parent_span_id=parent or None)


def ensure_trace(envelope: Envelope) -> TraceContext:
    """Extract the trace context, creating and attaching one if absent."""
    ctx = extract_trace(envelope)
    if ctx is None:
        ctx = TraceContext.new()
        attach_trace(envelope, ctx)
    return ctx


def propagate_trace(
    source: Envelope, target: Envelope, parent_span_id: str | None = None
) -> TraceContext | None:
    """Copy the trace context of ``source`` onto ``target``.

    Used by components that answer a message with a *new* envelope (the
    echo services, WS-MsgBox acks): forwarding copies headers already, but
    a freshly built reply does not.  Returns the propagated context.
    """
    ctx = extract_trace(source)
    if ctx is None:
        return None
    out = ctx if parent_span_id is None else ctx.child(parent_span_id)
    attach_trace(target, out)
    return out


@dataclass
class Span:
    """One timed hop segment inside a trace."""

    trace_id: str
    span_id: str
    name: str
    component: str
    start: float
    end: float
    parent_id: str | None = None
    attrs: dict[str, str] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "component": self.component,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "parent_id": self.parent_id,
            "attrs": dict(self.attrs),
        }


class TraceStore:
    """Bounded in-memory ring buffer of recent traces.

    Holds at most ``capacity`` traces; starting a new trace evicts the
    oldest.  ``enabled=False`` turns every record into a no-op (the
    tracing half of the benchmark guard's disabled mode).
    """

    def __init__(
        self,
        capacity: int = 512,
        enabled: bool = True,
        span_prefix: str = "span",
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.enabled = enabled
        self.span_prefix = span_prefix
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, list[Span]]" = OrderedDict()
        self._span_seq = itertools.count(1)

    def new_span_id(self) -> str:
        """Pre-allocate a span id (to advertise downstream before recording).

        ``span_prefix`` keeps ids from colliding when several processes —
        each with its own store counting from 1 — hand one message on
        (a shard fleet's relays), so a parent id names one process.
        """
        return f"{self.span_prefix}-{next(self._span_seq)}"

    def record(
        self,
        trace_id: str,
        name: str,
        component: str,
        start: float,
        end: float,
        span_id: str | None = None,
        parent_id: str | None = None,
        **attrs: str,
    ) -> Span | None:
        """Append one span to a trace; returns it (None when disabled)."""
        if not self.enabled:
            return None
        span = Span(
            trace_id=trace_id,
            span_id=span_id or self.new_span_id(),
            name=name,
            component=component,
            start=start,
            end=end,
            parent_id=parent_id,
            attrs={k: str(v) for k, v in attrs.items()},
        )
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                while len(self._traces) >= self.capacity:
                    self._traces.popitem(last=False)
                spans = []
                self._traces[trace_id] = spans
            spans.append(span)
        return span

    # -- retrieval --------------------------------------------------------
    def get(self, trace_id: str) -> list[Span]:
        with self._lock:
            return list(self._traces.get(trace_id, ()))

    def __contains__(self, trace_id: str) -> bool:
        with self._lock:
            return trace_id in self._traces

    def ids(self) -> list[str]:
        """Trace ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def to_json(self, trace_id: str) -> dict:
        spans = sorted(self.get(trace_id), key=lambda s: (s.start, s.end))
        return {
            "trace_id": trace_id,
            "spans": [s.to_dict() for s in spans],
            "wall_time": (
                max(s.end for s in spans) - min(s.start for s in spans)
                if spans
                else 0.0
            ),
        }

    def render_timeline(self, trace_id: str, width: int = 48) -> str:
        """ASCII per-trace timeline: one bar per span, time left to right."""
        spans = sorted(self.get(trace_id), key=lambda s: (s.start, s.end))
        if not spans:
            return f"trace {trace_id}: (no spans)\n"
        t0 = min(s.start for s in spans)
        t1 = max(s.end for s in spans)
        total = max(t1 - t0, 1e-12)
        label_w = max(
            len(f"{s.component}/{s.name}") for s in spans
        )
        lines = [f"trace {trace_id}  wall={total:.6g}s  spans={len(spans)}"]
        for s in spans:
            lo = int((s.start - t0) / total * width)
            hi = max(lo + 1, int((s.end - t0) / total * width))
            bar = " " * lo + "#" * (hi - lo)
            label = f"{s.component}/{s.name}".ljust(label_w)
            lines.append(f"  {label} |{bar.ljust(width)}| {s.duration:.6g}s")
        return "\n".join(lines) + "\n"


# -- process-wide default trace store -------------------------------------
_default_lock = threading.Lock()
_default_store = TraceStore()


def default_trace_store() -> TraceStore:
    """The process-wide store components record spans into by default."""
    with _default_lock:
        return _default_store


def set_default_trace_store(store: TraceStore) -> TraceStore:
    """Swap the process-wide default; returns the previous one."""
    global _default_store
    with _default_lock:
        previous = _default_store
        _default_store = store
        return previous
