"""The dispatcher introspection surface: ``GET /metrics`` and ``GET /trace/<id>``.

:class:`Introspection` aggregates the three observability feeds — the
:class:`~repro.obs.metrics.MetricsRegistry`, the
:class:`~repro.obs.trace.TraceStore`, and per-component ``stats`` dict
sources — behind two GET endpoints mounted on any
:class:`~repro.rt.service.SoapHttpApp`:

- ``GET /metrics`` — Prometheus-style text exposition by default;
  ``?format=json`` (or ``Accept: application/json``) returns the JSON
  view, which also embeds the component sources and trace-store summary.
- ``GET /trace/<id>`` — one trace as JSON (span list + wall time);
  ``?format=text`` renders the ASCII timeline instead.
- ``GET /deadletters`` — the dead-letter queues of every registered
  durable journal: totals, counts by reason, and the most recent poison
  messages.
- ``GET /slo`` — the declared pipeline-stage latency objectives and the
  delivery-success error budget, evaluated live by an
  :class:`~repro.obs.slo.SloTracker`; also embedded in ``GET /health``.
- ``GET /flightrecorder`` — the :class:`~repro.obs.flight.FlightRecorder`
  ring of recent state-transition events and message fates
  (``?kind=<k>`` filters, ``?last=<n>`` keeps the newest ``n``).

A component source is anything with a ``stats`` dict property or a
callable returning a dict; ``GET /metrics`` shows each numeric stat as a
``repro_component_stat{component=,stat=}`` gauge.  Duplicate names are
rejected (or suffixed, opt-in), never silently shadowed.
"""

from __future__ import annotations

import json
import threading
from typing import Callable

from repro.http import Headers, HttpRequest, HttpResponse
from repro.obs.flight import FlightRecorder, default_flight_recorder
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.slo import SloTracker
from repro.obs.trace import TraceStore, default_trace_store


def _query_param(request: HttpRequest, name: str) -> str | None:
    """Tiny query-string accessor (no stdlib urllib to stay dependency-light)."""
    parts = request.target.split("?", 1)
    if len(parts) < 2:
        return None
    for pair in parts[1].split("&"):
        if "=" in pair:
            key, value = pair.split("=", 1)
            if key == name:
                return value
    return None


def _wants_json(request: HttpRequest) -> bool:
    target = request.target
    if "format=json" in target:
        return True
    accept = request.headers.get("Accept") or ""
    return "application/json" in accept


def _text_response(body: str, content_type: str = "text/plain; charset=utf-8") -> HttpResponse:
    headers = Headers()
    headers.set("Content-Type", content_type)
    return HttpResponse(status=200, headers=headers, body=body.encode())


def _json_response(payload: dict, status: int = 200) -> HttpResponse:
    headers = Headers()
    headers.set("Content-Type", "application/json; charset=utf-8")
    body = json.dumps(payload, indent=2, sort_keys=True, default=str).encode()
    return HttpResponse(status=status, headers=headers, body=body)


class Introspection:
    """One deployment's introspection endpoints, fed by the registry."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        traces: TraceStore | None = None,
        title: str = "WS-Dispatcher introspection",
        flight: FlightRecorder | None = None,
    ) -> None:
        """``flight`` feeds the ``/flightrecorder`` page (default: the
        process-wide flight recorder) and ``/slo`` is a tracker with the
        default policy over ``metrics`` — so every endpoint answers even
        on a bare deployment."""
        self.metrics = metrics if metrics is not None else default_registry()
        self.traces = traces if traces is not None else default_trace_store()
        self.flight = flight if flight is not None else default_flight_recorder()
        self.slo = SloTracker(self.metrics)
        self.title = title
        self._lock = threading.Lock()
        self._sources: dict[str, Callable[[], dict]] = {}
        self._health_sources: dict[str, Callable[[], dict]] = {}
        self._deadletter_sources: dict[str, Callable[[], dict]] = {}

    # -- queue health -----------------------------------------------------
    def add_health_source(self, name: str, fetch: Callable[[], dict]) -> None:
        """Register a health feed (e.g. a dispatcher's
        ``health_snapshot`` bound method): backlog, hold-store and
        journal stats.  Rendered as a ``health`` section of the JSON
        snapshot and a ``GET /health`` endpoint."""
        with self._lock:
            if name in self._health_sources:
                raise ValueError(f"health source {name!r} already registered")
            self._health_sources[name] = fetch

    def health_snapshot(self) -> dict[str, dict]:
        with self._lock:
            sources = list(self._health_sources.items())
        out: dict[str, dict] = {}
        for name, fetch in sources:
            try:
                out[name] = dict(fetch())
            except Exception as exc:  # noqa: BLE001 - a broken source is data
                out[name] = {"error": repr(exc)}
        return out

    # -- dead-letter queue --------------------------------------------------
    def add_deadletter_source(self, name: str, fetch: Callable[[], dict]) -> None:
        """Register a dead-letter feed (e.g. a
        :meth:`~repro.store.MessageJournal.deadletter_snapshot` bound
        method): counts by reason plus the most recent poison messages.
        Rendered as ``GET /deadletters``."""
        with self._lock:
            if name in self._deadletter_sources:
                raise ValueError(f"deadletter source {name!r} already registered")
            self._deadletter_sources[name] = fetch

    def deadletters_snapshot(self) -> dict[str, dict]:
        with self._lock:
            sources = list(self._deadletter_sources.items())
        out: dict[str, dict] = {}
        for name, fetch in sources:
            try:
                out[name] = dict(fetch())
            except Exception as exc:  # noqa: BLE001 - a broken source is data
                out[name] = {"error": repr(exc)}
        return out

    # -- component sources ------------------------------------------------
    def add_source(
        self, name: str, source: object, on_duplicate: str = "error"
    ) -> str:
        """Register a component stat source; returns the name used.

        ``source`` must expose a ``stats`` dict property or be callable.
        Duplicate names raise :class:`ValueError` (``on_duplicate="error"``)
        or get a ``#2``-style suffix (``on_duplicate="suffix"``) — never
        silently shadowed.
        """
        if on_duplicate not in ("error", "suffix"):
            raise ValueError(f"unknown on_duplicate policy {on_duplicate!r}")
        if callable(source):
            fetch = source
        elif hasattr(source, "stats"):
            fetch = lambda s=source: dict(s.stats)
        else:
            raise TypeError(f"{name}: source needs .stats or to be callable")
        with self._lock:
            final = name
            if final in self._sources:
                if on_duplicate == "error":
                    raise ValueError(
                        f"component {name!r} already registered; pass "
                        "on_duplicate='suffix' to keep both"
                    )
                n = 2
                while f"{name}#{n}" in self._sources:
                    n += 1
                final = f"{name}#{n}"
            self._sources[final] = fetch
            return final

    def components_snapshot(self) -> dict[str, dict]:
        """Point-in-time stats of every registered component source."""
        with self._lock:
            sources = list(self._sources.items())
        out: dict[str, dict] = {}
        for name, fetch in sources:
            try:
                out[name] = dict(fetch())
            except Exception as exc:  # noqa: BLE001 - a broken source is data
                out[name] = {"error": repr(exc)}
        return out

    # -- views ------------------------------------------------------------
    def json_snapshot(self) -> dict:
        trace_ids = self.traces.ids()
        snapshot = {
            "title": self.title,
            "metrics": self.metrics.snapshot(),
            "components": self.components_snapshot(),
            "traces": {"count": len(trace_ids), "ids": trace_ids[-20:]},
        }
        health = self.health_snapshot()
        if health:
            snapshot["health"] = health
        deadletters = self.deadletters_snapshot()
        if deadletters:
            snapshot["deadletters"] = deadletters
        return snapshot

    def render_prometheus(self) -> str:
        """Registry exposition plus component stats as synthetic gauges."""
        lines = [self.metrics.render_prometheus().rstrip("\n")]
        components = self.components_snapshot()
        if components:
            lines.append("# TYPE repro_component_stat gauge")
            for component in sorted(components):
                for key, value in sorted(components[component].items()):
                    try:
                        numeric = float(value)
                    except (TypeError, ValueError):
                        continue
                    if numeric.is_integer():
                        rendered = str(int(numeric))
                    else:
                        rendered = repr(numeric)
                    lines.append(
                        f'repro_component_stat{{component="{component}",'
                        f'stat="{key}"}} {rendered}'
                    )
        return "\n".join(lines) + "\n"

    # -- GET handlers ------------------------------------------------------
    def metrics_handler(self, request: HttpRequest) -> HttpResponse:
        if _wants_json(request):
            return _json_response(self.json_snapshot())
        return _text_response(
            self.render_prometheus(), "text/plain; version=0.0.4; charset=utf-8"
        )

    def trace_handler(self, request: HttpRequest) -> HttpResponse:
        path = request.target.split("?", 1)[0]
        marker = "/trace/"
        idx = path.rfind(marker)
        trace_id = path[idx + len(marker):] if idx >= 0 else ""
        if not trace_id:
            return _json_response(
                {"traces": self.traces.ids()[-50:]}, status=200
            )
        if trace_id not in self.traces:
            return _json_response(
                {"error": f"unknown trace {trace_id!r}"}, status=404
            )
        if "format=text" in request.target:
            return _text_response(self.traces.render_timeline(trace_id))
        return _json_response(self.traces.to_json(trace_id))

    def health_handler(self, request: HttpRequest) -> HttpResponse:
        payload: dict = dict(self.health_snapshot())
        payload["slo"] = self.slo.snapshot()
        return _json_response(payload)

    def deadletters_handler(self, request: HttpRequest) -> HttpResponse:
        return _json_response(self.deadletters_snapshot())

    def slo_handler(self, request: HttpRequest) -> HttpResponse:
        return _json_response(self.slo.snapshot())

    def flight_handler(self, request: HttpRequest) -> HttpResponse:
        kind = _query_param(request, "kind")
        last = _query_param(request, "last")
        if kind is None and last is None:
            return _json_response(self.flight.to_json())
        try:
            last_n = int(last) if last is not None else None
            events = self.flight.snapshot(last=last_n, kind=kind)
        except ValueError:
            return _json_response({"error": f"bad last={last!r}"}, status=400)
        return _json_response({"events": events})

    def mount(self, app) -> None:
        """Mount the endpoints on a :class:`~repro.rt.service.SoapHttpApp`."""
        app.mount_page("/metrics", self.metrics_handler)
        app.mount_page("/trace", self.trace_handler)
        app.mount_page("/health", self.health_handler)
        app.mount_page("/deadletters", self.deadletters_handler)
        app.mount_page("/slo", self.slo_handler)
        app.mount_page("/flightrecorder", self.flight_handler)
