"""Observability overhead guard.

Runs the Figure 6 "MSG-D + MsgBox" configuration with every message
traced, twice: once with the **whole telemetry plane** enabled — metrics
registry, trace store, flight recorder and SLO stage histograms — and
once with all of it in no-op mode.  The guard asserts the enabled run's throughput stays
within 5 % of the disabled baseline.

Recording consumes no *simulated* time and trace headers are attached to
traced messages regardless of store enablement (so the wire bytes are
identical), which means the simulated messages/minute should in fact be
identical — the 5 % band is headroom, not an expectation.  The real
overhead (Python-side recording cost) shows up in the wall-clock times,
which are reported alongside and exported to ``BENCH_obs.json``.
"""

from __future__ import annotations

import time
from dataclasses import replace

from _perfjson import write_bench_json

from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import SimMsgDispatcher, SimMsgDispatcherConfig
from repro.experiments.common import (
    CLIENT_CALL_OVERHEAD,
    DISPATCHER_SERVICE_TIME,
    SOAP_SERVICE_TIME,
)
from repro.http import Headers, HttpRequest
from repro.msgbox import MailboxStore, MsgBoxService
from repro.msgbox.service import make_mailbox_epr
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    SloTracker,
    TraceStore,
    ensure_trace,
    set_default_registry,
    set_default_trace_store,
)
from repro.rt.service import SoapHttpApp
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.kernel import Simulator
from repro.simnet.scenarios import BACKBONE_IU, INRIA, add_site
from repro.simnet.services import SimAsyncEchoService
from repro.simnet.topology import Network
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message
from repro.workload.sim_testclient import SimRampConfig, SimRampTester


def _run_traced_msgbox(clients: int, duration: float, enabled: bool):
    """One fig6-style MsgBox run with traced traffic; returns a dict of
    (per_minute, wall_seconds, metrics, traces, flight)."""
    metrics = MetricsRegistry(enabled=enabled)
    traces = TraceStore(enabled=enabled)
    flight = FlightRecorder(enabled=enabled)
    # the mailbox service records into the process-wide sinks: this run's
    # sinks stand in for them while it runs
    previous = set_default_registry(metrics), set_default_trace_store(traces)
    try:
        return _run(clients, duration, metrics, traces, flight)
    finally:
        set_default_registry(previous[0])
        set_default_trace_store(previous[1])


def _run(clients, duration, metrics, traces, flight):
    sim = Simulator()
    net = Network(sim)
    client_host = add_site(net, INRIA, name="inria")
    ws_host = add_site(net, replace(BACKBONE_IU, name="iuWS"), open_ports=(9000,))
    wsd_host = add_site(
        net, replace(BACKBONE_IU, name="iuWSD"), open_ports=(8000, 8500)
    )

    echo_ws = SimAsyncEchoService(
        net, ws_host, reply_senders=32, connect_timeout=4.0, traces=traces
    )
    SimHttpServer(
        net, ws_host, 9000, echo_ws.handler, workers=32,
        service_time=SOAP_SERVICE_TIME,
    )

    registry = ServiceRegistry(metrics=metrics)
    registry.register("echo", "http://iuWS:9000/echo")
    config = SimMsgDispatcherConfig(
        cx_workers=4,
        ws_workers=8,
        accept_queue=128,
        destination_queue=16,
        parallel_per_destination=4,
        connect_timeout=4.0,
        shed_on_full=False,
    )
    dispatcher = SimMsgDispatcher(
        net, wsd_host, registry, own_address="http://iuWSD:8000/msg",
        config=config, metrics=metrics, traces=traces, flight=flight,
    )
    SimHttpServer(
        net, wsd_host, 8000, dispatcher.handler, workers=32,
        service_time=DISPATCHER_SERVICE_TIME,
    )

    store = MailboxStore(clock=sim.clock, max_messages_per_box=100_000)
    msgbox = MsgBoxService(store, base_url="http://iuWSD:8500/mailbox")
    mb_app = SoapHttpApp()
    mb_app.mount("/mailbox", msgbox)
    SimHttpServer(
        net, wsd_host, 8500,
        mb_app,
        workers=32,
        service_time=SOAP_SERVICE_TIME,
    )

    ids = IdGenerator("obs-bench", seed=clients)
    eprs = [
        make_mailbox_epr("http://iuWSD:8500/mailbox", store.create())
        for _ in range(max(clients, 1))
    ]

    def factory(counter=[0]):
        counter[0] += 1
        env = make_echo_message(
            to="urn:wsd:echo",
            message_id=ids.next(),
            reply_to=eprs[counter[0] % len(eprs)],
        )
        ensure_trace(env)  # every message traced, in both modes
        headers = Headers()
        headers.set("Content-Type", SOAP11_CONTENT_TYPE)
        return HttpRequest("POST", "/msg/echo", headers=headers, body=env.to_bytes())

    tester = SimRampTester(net, client_host, "iuWSD", 8000, "/msg/echo", factory)
    ramp = SimRampConfig(
        clients=clients,
        duration=duration,
        connect_timeout=10.0,
        response_timeout=10.0,
        think_time=CLIENT_CALL_OVERHEAD,
    )
    t0 = time.perf_counter()
    result = tester.run(ramp)
    wall = time.perf_counter() - t0
    return {
        "per_minute": result.per_minute,
        "wall": wall,
        "metrics": metrics,
        "traces": traces,
        "flight": flight,
    }


def test_obs_overhead_within_five_percent(benchmark, paper_scale, record_report):
    clients, duration = (50, 60.0) if paper_scale else (20, 30.0)

    def run_both():
        return {
            "baseline": _run_traced_msgbox(clients, duration, enabled=False),
            "observed": _run_traced_msgbox(clients, duration, enabled=True),
        }

    out = benchmark.pedantic(run_both, rounds=1, iterations=1)
    base, obs = out["baseline"], out["observed"]
    base_pm, obs_pm = base["per_minute"], obs["per_minute"]

    # the disabled run really recorded nothing ...
    assert base["metrics"].snapshot() == {}
    assert base["traces"].ids() == []
    assert base["flight"].snapshot() == []
    # ... and the enabled run really observed the traffic
    obs_snap = obs["metrics"].snapshot()
    delivered = obs_snap["msgd_delivered_total"]["samples"][0]["value"]
    assert delivered > 0
    assert obs["traces"].ids()
    # ... the mailbox's own families and spans included
    assert obs_snap["msgbox_deposits_total"]["samples"][0]["value"] > 0
    # SLO stage histograms populated through the dispatcher pipeline
    stage_count = sum(
        s["count"] for s in obs_snap["msgd_stage_seconds"]["samples"]
    )
    assert stage_count > 0
    slo = SloTracker(obs["metrics"]).snapshot()

    assert base_pm > 0
    overhead = abs(obs_pm - base_pm) / base_pm
    record_report(
        "obs_overhead",
        (
            f"Observability overhead guard ({clients} clients, "
            f"{duration:.0f}s simulated; metrics + traces + flight + "
            f"SLO histograms)\n"
            f"  disabled: {base_pm:.0f} msgs/min  (wall {base['wall']:.2f}s)\n"
            f"  enabled:  {obs_pm:.0f} msgs/min  (wall {obs['wall']:.2f}s)\n"
            f"  throughput delta: {overhead:.2%} (guard: <= 5%)\n"
            f"  traces captured: {len(obs['traces'].ids())} (ring capacity "
            f"{obs['traces'].capacity})\n"
            f"  slo met: {slo['met']}"
        ),
    )
    write_bench_json(
        "obs",
        {
            "rows": [
                {
                    "mode": "disabled",
                    "per_minute": base_pm,
                    "wall_seconds": base["wall"],
                },
                {
                    "mode": "enabled",
                    "per_minute": obs_pm,
                    "wall_seconds": obs["wall"],
                    "traces": len(obs["traces"].ids()),
                    "stage_observations": stage_count,
                    "slo_met": slo["met"],
                },
            ],
            "gate": {
                "overhead": overhead,
                "limit": 0.05,
                "passed": overhead <= 0.05,
            },
        },
    )
    assert overhead <= 0.05, (
        f"observability overhead {overhead:.2%} exceeds 5% "
        f"(enabled {obs_pm:.0f} vs disabled {base_pm:.0f} msgs/min)"
    )
