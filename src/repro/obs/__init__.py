"""repro.obs — observability for the WS-Dispatcher deployment.

The paper positions the WSD as shared production infrastructure; an
intermediary that owns the message path must also own its visibility.
This package is that visibility — the telemetry plane:

- :mod:`repro.obs.metrics` — the unified :class:`MetricsRegistry`
  (labeled counters/gauges/histograms, process-wide default, disabled
  mode) every component records into.
- :mod:`repro.obs.trace` — hop-by-hop message tracing: a
  :class:`TraceContext` carried as a SOAP header next to WS-Addressing,
  spans recorded into a ring-buffer :class:`TraceStore`.
- :mod:`repro.obs.spanreport` — cross-process span aggregation: remote
  stores ship completed spans to the dispatcher's store so
  ``GET /trace/<id>`` shows the whole multi-hop tree.
- :mod:`repro.obs.flight` — the :class:`FlightRecorder`: an always-on
  ring of state-transition events — and of each message dropped, held
  or suppressed as a duplicate — with postmortem dump-to-file.
- :mod:`repro.obs.slo` — declared pipeline-stage latency objectives and
  delivery-success error budgets (:class:`SloTracker`).
- :mod:`repro.obs.history` — the :class:`MetricsSnapshotter` sampling
  the registry into a bounded time-series ring.
- :mod:`repro.obs.http` — the :class:`Introspection` surface serving
  ``GET /metrics``, ``/trace/<id>``, ``/health``, ``/deadletters``,
  ``/slo``, ``/flightrecorder``, and ``/metrics/history``.
- :mod:`repro.obs.aggregate` — cross-process exposition merging: the
  shard supervisor scrapes each worker's ``/metrics`` text and serves
  one fleet-wide exposition via :func:`merge_expositions`.
"""

from repro.obs.aggregate import (
    MergeError,
    merge_expositions,
    parse_exposition,
)
from repro.obs.flight import (
    FlightRecorder,
    default_flight_recorder,
    set_default_flight_recorder,
)
from repro.obs.history import MetricsSnapshotter
from repro.obs.http import Introspection
from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from repro.obs.slo import SloPolicy, SloTracker, StageObjective
from repro.obs.spanreport import (
    SPAN_REPORT_PATH,
    ReportingTraceStore,
    SimSpanShipper,
    SpanReportHandler,
)
from repro.obs.trace import (
    TRACE_NS,
    Span,
    TraceContext,
    TraceStore,
    attach_trace,
    default_trace_store,
    ensure_trace,
    extract_trace,
    propagate_trace,
    set_default_trace_store,
)

__all__ = [
    "FlightRecorder",
    "Introspection",
    "MergeError",
    "MetricsRegistry",
    "MetricsSnapshotter",
    "ReportingTraceStore",
    "SPAN_REPORT_PATH",
    "SimSpanShipper",
    "SloPolicy",
    "SloTracker",
    "Span",
    "SpanReportHandler",
    "StageObjective",
    "TRACE_NS",
    "TraceContext",
    "TraceStore",
    "attach_trace",
    "default_flight_recorder",
    "default_registry",
    "default_trace_store",
    "ensure_trace",
    "extract_trace",
    "merge_expositions",
    "parse_exposition",
    "propagate_trace",
    "set_default_flight_recorder",
    "set_default_registry",
    "set_default_trace_store",
]
