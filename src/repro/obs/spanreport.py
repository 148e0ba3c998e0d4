"""Cross-process span reporting: remote stores ship spans to an aggregator.

Each process in a deployment (client shim, WS-Dispatcher, WS-MsgBox,
service host) records spans into its *own* :class:`~repro.obs.trace.TraceStore`
— stores are in-memory and per-process, so ``GET /trace/<id>`` on the
dispatcher historically showed only the dispatcher's half of the story.
This module closes the loop: remote processes buffer their completed spans
in a :class:`ReportingTraceStore` outbox and a *shipper* POSTs them in
batches to the aggregator's span-report endpoint
(``POST /trace-report``), where :class:`SpanReportHandler` feeds them into
the aggregating store via :meth:`TraceStore.ingest`.  After one shipping
round, the dispatcher's ``GET /trace/<id>`` renders the complete
multi-hop span tree.

The wire format is deliberately plain JSON (``{"spans": [...]}``, each
entry a :meth:`Span.to_dict` payload), not SOAP: span reports are
operator-plane traffic between co-operating processes, and the endpoint
sits next to ``/metrics``, not next to the message path.  Span-id
collisions between per-process stores (each counts ``span-1, span-2 ...``)
are avoided by giving every store a distinct ``span_prefix``.

:class:`SimSpanShipper` ships as a simulation process over
:class:`~repro.simnet.httpsim.SimHttpClientPool`.
"""

from __future__ import annotations

import json
import threading
from collections import deque

from repro.errors import ReproError, TransportError
from repro.http import Headers, HttpRequest, HttpResponse
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.trace import Span, TraceStore

#: default mount path of the aggregator's report endpoint
SPAN_REPORT_PATH = "/trace-report"

SPAN_REPORT_CONTENT_TYPE = "application/json; charset=utf-8"


def encode_span_report(spans: list[dict]) -> bytes:
    """Serialise a batch of span dicts into the report body."""
    return json.dumps({"spans": spans}, sort_keys=True).encode()


def decode_span_report(body: bytes) -> list[dict]:
    """Parse a report body; raises :class:`ValueError` on malformed input."""
    payload = json.loads(body.decode("utf-8"))
    if not isinstance(payload, dict) or not isinstance(payload.get("spans"), list):
        raise ValueError("span report must be a JSON object with a 'spans' list")
    return payload["spans"]


def make_span_report_request(
    spans: list[dict], path: str = SPAN_REPORT_PATH
) -> HttpRequest:
    headers = Headers()
    headers.set("Content-Type", SPAN_REPORT_CONTENT_TYPE)
    return HttpRequest("POST", path, headers=headers, body=encode_span_report(spans))


class SpanReportHandler:
    """The aggregator side: a request handler absorbing reported spans.

    Mount it on a :class:`~repro.rt.service.SoapHttpApp` via
    ``app.mount_raw(SPAN_REPORT_PATH, handler)`` or route to it from a
    simnet server wrapper.  Replies 202 with the absorbed count, 400 for
    malformed reports.
    """

    def __init__(
        self,
        traces: TraceStore,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.traces = traces
        registry = metrics if metrics is not None else default_registry()
        reports = registry.counter(
            "obs_span_reports_total", "span-report requests, by outcome"
        )
        self._m_ok = reports.labels(outcome="ok")
        self._m_bad = reports.labels(outcome="bad")
        self._m_spans = registry.counter(
            "obs_spans_ingested_total", "remote spans absorbed into the store"
        )

    def __call__(self, request: HttpRequest) -> HttpResponse:
        if request.method != "POST":
            return HttpResponse(status=405, body=b"span reports are POSTed")
        try:
            spans = decode_span_report(request.body)
        except (ValueError, UnicodeDecodeError) as exc:
            self._m_bad.inc()
            return HttpResponse(status=400, body=f"bad span report: {exc}".encode())
        absorbed = self.traces.ingest(spans)
        self._m_ok.inc()
        self._m_spans.inc(absorbed)
        headers = Headers()
        headers.set("Content-Type", SPAN_REPORT_CONTENT_TYPE)
        body = json.dumps({"absorbed": absorbed}).encode()
        return HttpResponse(status=202, headers=headers, body=body)


class ReportingTraceStore(TraceStore):
    """A TraceStore that also buffers recorded spans for shipping.

    Every span recorded locally lands in a bounded outbox (oldest dropped
    on overflow — shipping is best-effort telemetry, never backpressure on
    the message path).  A shipper drains the outbox in batches.  Spans
    absorbed via :meth:`ingest` are *not* re-buffered, so chaining stores
    cannot loop reports forever.
    """

    def __init__(
        self,
        capacity: int = 512,
        enabled: bool = True,
        span_prefix: str = "span",
        outbox_capacity: int = 4096,
    ) -> None:
        super().__init__(capacity=capacity, enabled=enabled, span_prefix=span_prefix)
        if outbox_capacity <= 0:
            raise ValueError("outbox_capacity must be positive")
        self._outbox: deque[dict] = deque(maxlen=outbox_capacity)
        self._outbox_lock = threading.Lock()
        self._ingesting = False
        self.shipped_total = 0

    def record(self, *args, **kwargs) -> Span | None:
        span = super().record(*args, **kwargs)
        if span is not None and not self._ingesting:
            with self._outbox_lock:
                self._outbox.append(span.to_dict())
        return span

    def ingest(self, spans: list[dict]) -> int:
        self._ingesting = True
        try:
            return super().ingest(spans)
        finally:
            self._ingesting = False

    @property
    def pending(self) -> int:
        with self._outbox_lock:
            return len(self._outbox)

    def drain_reports(self, max_spans: int | None = None) -> list[dict]:
        """Pop up to ``max_spans`` buffered spans (all, when None)."""
        out: list[dict] = []
        with self._outbox_lock:
            while self._outbox and (max_spans is None or len(out) < max_spans):
                out.append(self._outbox.popleft())
        self.shipped_total += len(out)
        return out

    def requeue_reports(self, spans: list[dict]) -> None:
        """Put a failed batch back at the front (bounded, best-effort)."""
        self.shipped_total -= len(spans)
        with self._outbox_lock:
            for span in reversed(spans):
                self._outbox.appendleft(span)


class SimSpanShipper:
    """Ships a :class:`ReportingTraceStore`'s outbox over simnet.

    Runs as a simulation process: every ``interval`` simulated seconds it
    drains up to ``batch`` spans and POSTs them to the aggregator's
    report endpoint.  ``flush()`` is a generator usable from tests and
    experiment teardown to ship synchronously at a chosen simulated time.
    """

    def __init__(
        self,
        net,
        host,
        store: ReportingTraceStore,
        dest_host: str,
        dest_port: int,
        interval: float = 0.5,
        batch: int = 64,
        path: str = SPAN_REPORT_PATH,
        connect_timeout: float = 3.0,
        response_timeout: float = 5.0,
    ) -> None:
        from repro.simnet.httpsim import SimHttpClientPool

        self.sim = net.sim
        self.store = store
        self.dest_host = dest_host
        self.dest_port = dest_port
        self.interval = interval
        self.batch = batch
        self.path = path
        self.pool = SimHttpClientPool(
            net, host,
            connect_timeout=connect_timeout,
            response_timeout=response_timeout,
        )
        self.shipped = 0
        self.failed = 0
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.process(self._pump())

    def _pump(self):
        while self._running:
            yield self.sim.timeout(self.interval)
            yield from self.flush()

    def flush(self):
        """Generator: ship everything currently buffered, batch by batch."""
        while True:
            spans = self.store.drain_reports(self.batch)
            if not spans:
                return
            request = make_span_report_request(spans, path=self.path)
            try:
                response = yield from self.pool.exchange(
                    self.dest_host, self.dest_port, request
                )
                if response.status >= 300:
                    raise TransportError(f"HTTP {response.status}")
                self.shipped += len(spans)
            except (TransportError, ReproError):
                # telemetry is best-effort: requeue once and stop this
                # round; the next pump tick retries
                self.failed += len(spans)
                self.store.requeue_reports(spans)
                return
