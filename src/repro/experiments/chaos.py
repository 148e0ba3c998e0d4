"""Chaos experiment: delivery robustness under packet loss and link flaps.

Sweeps a grid of (packet-loss rate × link-flap period) against a
MSG-Dispatcher equipped with the robustness stack — hold/retry store and
per-destination circuit breakers — and measures what the paper's Table 1
never could: how many one-way messages survive a hostile network, and at
what latency cost.

Each grid point builds a fresh simulation (client site → dispatcher →
echo sink), runs a seeded :class:`~repro.chaos.plan.FaultPlan` through
:class:`~repro.chaos.controller.ChaosController`, and counts unique
messages that arrive at the sink (a :class:`DuplicateFilter` collapses
hold/retry redeliveries).  Reported per point: delivery success ratio and
p50/p99 end-to-end latency.

The run doubles as the telemetry-plane acceptance rig: client and sink
record spans into their own :class:`ReportingTraceStore` and ship them to
the dispatcher's aggregating store over the span-report endpoint (so one
trace id shows the full client → WSD → sink tree), a
:class:`~repro.obs.flight.FlightRecorder` on the simulated clock captures
sheds/breaker trips/fault windows and dumps postmortems, and a
:class:`~repro.obs.history.MetricsSnapshotter` samples the registry in
simulated time and exports ``metrics_history.json``.  Everything runs on
the seeded simulation clock, so two runs of one grid point produce
bit-identical telemetry artefacts.
"""

from __future__ import annotations

import os

from repro.chaos.controller import ChaosController
from repro.chaos.plan import FaultPlan, LinkFlap, PacketLoss
from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import SimMsgDispatcher, SimMsgDispatcherConfig
from repro.errors import ReproError
from repro.experiments.common import (
    DISPATCHER_SERVICE_TIME,
    ExperimentReport,
    SOAP_SERVICE_TIME,
)
from repro.http import HttpRequest, HttpResponse
from repro.http.session import soap_post
from repro.obs.flight import FlightRecorder
from repro.obs.history import MetricsSnapshotter
from repro.obs.metrics import MetricsRegistry
from repro.obs.spanreport import (
    SPAN_REPORT_PATH,
    ReportingTraceStore,
    SimSpanShipper,
    SpanReportHandler,
)
from repro.obs.trace import TraceContext, TraceStore, attach_trace, extract_trace
from repro.reliable import BreakerConfig, DuplicateFilter, FixedDelay, HoldRetryStore
from repro.simnet.httpsim import SimHttpClientPool, SimHttpServer
from repro.simnet.kernel import Simulator
from repro.simnet.scenarios import BACKBONE_IU, INRIA, add_site
from repro.simnet.topology import Network
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message
from repro.wsa import AddressingHeaders
from repro.soap import Envelope

LOSS_RATES = (0.0, 0.1, 0.3)
FLAP_PERIODS = (0.0, 10.0, 5.0)  # 0 = no flapping


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[idx]


def run_point(
    loss: float,
    flap_period: float,
    messages: int = 120,
    send_gap: float = 0.25,
    seed: int = 7,
    horizon: float = 240.0,
    telemetry_dir: str | None = None,
) -> dict:
    """One grid point; returns the per-point summary dict.

    ``telemetry_dir`` turns on the file-producing half of the telemetry
    plane: flight-recorder postmortems land in
    ``<telemetry_dir>/postmortem-loss<loss>-flap<period>/`` and the
    metrics time-series in ``<telemetry_dir>/metrics_history.json``.
    In-memory telemetry (spans, flight ring, history ring) is always on.
    """
    sim = Simulator()
    net = Network(sim, loss_seed=seed)
    client_host = add_site(net, INRIA, name="client")
    wsd_host = add_site(net, BACKBONE_IU, name="wsd", open_ports=(8000,))
    sink_host = add_site(net, BACKBONE_IU, name="sink", open_ports=(9000,))

    metrics = MetricsRegistry()
    # the dispatcher's store is the aggregator: client and sink ship their
    # spans into it, so one /trace/<id> lookup shows all three processes
    traces = TraceStore(span_prefix="wsd")
    client_traces = ReportingTraceStore(span_prefix="client")
    svc_traces = ReportingTraceStore(span_prefix="svc")
    postmortem_dir = None
    if telemetry_dir is not None:
        postmortem_dir = os.path.join(
            telemetry_dir, f"postmortem-loss{loss:g}-flap{flap_period:g}"
        )
    flight = FlightRecorder(clock=lambda: sim.now, postmortem_dir=postmortem_dir)
    snapshotter = MetricsSnapshotter(metrics, interval=5.0, capacity=600)
    registry = ServiceRegistry(metrics=metrics)
    registry.register("echo", "http://sink:9000/echo")

    send_times: dict[str, float] = {}
    latencies: list[float] = []
    dupes = DuplicateFilter(window=3600.0, clock=sim.clock)
    delivered: set[str] = set()

    def sink_handler(request: HttpRequest) -> HttpResponse:
        t_in = sim.now
        try:
            envelope = Envelope.from_bytes(request.body)
            mid = AddressingHeaders.from_envelope(envelope).message_id
        except ReproError:
            return HttpResponse(status=400)
        ctx = extract_trace(envelope)
        if ctx is not None:
            svc_traces.record(
                ctx.trace_id, "absorb", "sink", t_in, sim.now,
                parent_id=ctx.parent_span_id,
            )
        if mid and not dupes.seen(mid):
            delivered.add(mid)
            if mid in send_times:
                latencies.append(sim.now - send_times[mid])
        return HttpResponse(status=202)

    SimHttpServer(
        net, sink_host, 9000, sink_handler, workers=16,
        service_time=SOAP_SERVICE_TIME,
    )

    hold_store = HoldRetryStore(
        policy=FixedDelay(max_attempts=10_000, delay=0.5),
        default_ttl=horizon,
        clock=sim.clock,
        flight=flight,
    )
    config = SimMsgDispatcherConfig(
        connect_timeout=3.0,
        response_timeout=5.0,
        breaker=BreakerConfig(consecutive_failures=3, open_for=2.0),
    )
    dispatcher = SimMsgDispatcher(
        net, wsd_host, registry, own_address="http://wsd:8000/msg",
        config=config, metrics=metrics, traces=traces, hold_store=hold_store,
        flight=flight,
    )
    report_handler = SpanReportHandler(traces, metrics=metrics)

    def wsd_handler(request: HttpRequest):
        # operator-plane span reports share the dispatcher's port but not
        # its pipeline: route them straight to the aggregator
        if request.target.split("?", 1)[0] == SPAN_REPORT_PATH:
            return report_handler(request)
        return (yield from dispatcher.handler(request))

    SimHttpServer(
        net, wsd_host, 8000, wsd_handler, workers=16,
        service_time=DISPATCHER_SERVICE_TIME,
    )
    shippers = [
        SimSpanShipper(net, client_host, client_traces, "wsd", 8000),
        SimSpanShipper(net, sink_host, svc_traces, "wsd", 8000),
    ]
    for shipper in shippers:
        shipper.start()
    sim.process(
        snapshotter.sim_process(sim, until=horizon), name="metrics-snapshotter"
    )

    faults = []
    if loss > 0:
        faults.append(
            PacketLoss(host="sink", at=2.0, duration=messages * send_gap, rate=loss)
        )
    if flap_period > 0:
        faults.append(
            LinkFlap(
                host="sink", at=5.0, period=flap_period,
                down_for=flap_period / 2.0, until=5.0 + messages * send_gap,
            )
        )
    controller = ChaosController(
        net, FaultPlan(tuple(faults), seed=seed), metrics=metrics, flight=flight
    )
    controller.start()

    ids = IdGenerator("chaos", seed=seed)
    pool = SimHttpClientPool(
        net, client_host, connect_timeout=5.0, response_timeout=10.0
    )
    sent: list[str] = []
    send_errors = 0

    def sender():
        nonlocal send_errors
        for _ in range(messages):
            mid = ids.next()
            env = make_echo_message(to="urn:wsd:echo", message_id=mid)
            # deterministic trace ids (derived from the seeded MessageID
            # generator) keep the telemetry artefacts bit-reproducible
            ctx = TraceContext(f"trace-{mid}")
            send_sid = client_traces.new_span_id()
            attach_trace(env, ctx.child(send_sid))
            request = soap_post(env.to_bytes(), "/msg/echo")
            sent.append(mid)
            t_send = sim.now
            send_times[mid] = t_send
            try:
                yield from pool.exchange("wsd", 8000, request)
            except ReproError:
                send_errors += 1
            client_traces.record(
                ctx.trace_id, "send", "client", t_send, sim.now,
                span_id=send_sid,
            )
            yield sim.timeout(send_gap)

    sim.process(sender(), name="chaos-sender")
    sim.run(until=horizon)

    snapshotter.sample(t=sim.now)  # final state, after the horizon
    postmortem_path = None
    if telemetry_dir is not None:
        postmortem_path = flight.postmortem(
            "chaos-run-end", t=sim.now, loss=loss, flap_period=flap_period
        )
        snapshotter.export_json(
            os.path.join(telemetry_dir, "metrics_history.json")
        )

    # components seen on the first fully-shipped trace — ≥3 distinct
    # processes proves cross-process aggregation worked
    trace_components: list[str] = []
    sample_trace = None
    for mid in sent:
        tid = f"trace-{mid}"
        components = {s.component for s in traces.get(tid)}
        if len(components) >= 3:
            sample_trace = tid
            trace_components = sorted(components)
            break

    success = len(delivered & set(sent))
    return {
        "loss": loss,
        "flap_period": flap_period,
        "sent": len(sent),
        "delivered": success,
        "send_errors": send_errors,
        "success_ratio": success / len(sent) if sent else 0.0,
        "p50_latency": _percentile(latencies, 0.50),
        "p99_latency": _percentile(latencies, 0.99),
        "held_for_retry": dispatcher.stats.get("held_for_retry", 0),
        "breaker_blocked": dispatcher.stats.get("held_breaker_open", 0),
        "expired": hold_store.stats["expired"],
        "faults_injected": controller.injected,
        "sample_trace": sample_trace,
        "trace_components": trace_components,
        "spans_shipped": sum(s.shipped for s in shippers),
        "flight_events": flight.counts_by_kind(),
        "history_samples": len(snapshotter),
        "postmortem": postmortem_path,
    }


def run(
    loss_rates: tuple = LOSS_RATES,
    flap_periods: tuple = FLAP_PERIODS,
    messages: int = 120,
    seed: int = 7,
    telemetry_dir: str | None = "benchmarks/out",
) -> ExperimentReport:
    """Sweep the grid; one row per (loss, flap) combination."""
    report = ExperimentReport(
        experiment="Chaos sweep",
        description=(
            "Delivery success and latency under packet loss x link flaps "
            "(hold/retry + circuit breakers enabled)"
        ),
    )
    rows = []
    for loss in loss_rates:
        for period in flap_periods:
            point = run_point(
                loss, period, messages=messages, seed=seed,
                telemetry_dir=telemetry_dir,
            )
            rows.append(point)
            report.extras[f"loss={loss:.0%},flap={period:g}s"] = point
    lines = [
        "# chaos sweep [success ratio / p50 / p99 latency]",
        "loss%\tflap_s\tsent\tdelivered\tsuccess\tp50_s\tp99_s\theld\texpired",
    ]
    for p in rows:
        lines.append(
            f"{p['loss'] * 100:.0f}\t{p['flap_period']:g}\t{p['sent']}\t"
            f"{p['delivered']}\t{p['success_ratio']:.3f}\t"
            f"{p['p50_latency']:.3f}\t{p['p99_latency']:.3f}\t"
            f"{p['held_for_retry']}\t{p['expired']}"
        )
    report.tables = ["\n".join(lines)]
    report.notes.append(
        f"seed={seed}; every redelivery passes a DuplicateFilter, so "
        "'delivered' counts unique messages"
    )
    return report


def check_shape(report: ExperimentReport) -> list[str]:
    """The robustness stack should deliver everything the sender got in."""
    failures: list[str] = []
    for key, point in report.extras.items():
        accepted = point["sent"] - point["send_errors"]
        if point["delivered"] < accepted and point["expired"] == 0:
            failures.append(
                f"{key}: {accepted} accepted but only "
                f"{point['delivered']} delivered and none expired"
            )
    return failures
