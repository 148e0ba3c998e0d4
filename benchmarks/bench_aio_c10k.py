"""The C10k acceptance benchmark for the asyncio runtime.

Two phases, one artifact (``BENCH_aio_c10k.json``):

- **hold**: one in-process :class:`AioHttpServer` +
  :class:`AioMsgBoxService` on a single loop thread holds 10,000
  concurrent long-poll ``take`` connections (a subprocess swarm supplies
  the clients), with bounded RSS.  This is the load shape that killed the
  paper's thread-per-connection WS-MsgBox at ~50 clients x high message
  rate: here no thread, and no thread stack, exists per connection.
- **drain**: the :class:`AioMsgDispatcher` drains a backlog over real
  loopback TCP with pipelined bursts at batch=8 — dispatcher tasks,
  asyncio client, and the destination sink all multiplexed on one loop
  thread — and must at least match the threaded pipelined-drain figure
  recorded by ``bench_pipeline_drain`` (107.26 msgs/s at WAN latency).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

from _perfjson import REPO_ROOT, host_info, write_bench_json, merge_bench_json

CLIENTS = 10_000
RSS_LIMIT_MB = 1500.0
THREADED_DRAIN_FALLBACK = 107.26  # bench_pipeline_drain pipelined msgs/s


def _rss_mb() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _threaded_baseline() -> float:
    """The threaded dispatcher's pipelined msgs/s from its own artifact."""
    path = REPO_ROOT / "BENCH_pipeline_drain.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        for row in payload.get("rows", []):
            if row.get("variant") == "pipelined":
                return float(row["msgs_per_sec"])
    except (OSError, ValueError, KeyError):
        pass
    return THREADED_DRAIN_FALLBACK


def test_c10k_long_pollers_one_loop(
    benchmark, paper_scale, record_report, require_fds
):
    require_fds("aio_c10k", CLIENTS)

    from repro.aio import AioHttpServer, AioLoopThread, AioMsgBoxService
    from repro.msgbox import MailboxStore
    from repro.obs.metrics import MetricsRegistry
    from repro.rt.service import SoapHttpApp

    def run():
        # quota sized for the herd release: one tiny message per poller
        store = MailboxStore(max_messages_per_box=CLIENTS + 100)
        service = AioMsgBoxService(store)
        service.max_wait_seconds = 120.0
        mailbox = store.create()
        app = SoapHttpApp(metrics=MetricsRegistry())
        app.mount("/mailbox", service)
        rss_before = _rss_mb()
        with AioLoopThread(name="c10k-loop") as loop_thread:

            async def boot():
                srv = AioHttpServer(
                    app.handle_request,
                    metrics=MetricsRegistry(),
                    backlog=4096,
                    keep_alive_timeout=180.0,
                )
                await srv.start()
                return srv

            server = loop_thread.run(boot())
            swarm = subprocess.Popen(
                [
                    sys.executable,
                    str(pathlib.Path(__file__).with_name("_c10k_swarm.py")),
                    str(server.endpoint.port),
                    str(CLIENTS),
                    "90.0",
                    mailbox,
                ],
                stdout=subprocess.PIPE,
                env=dict(
                    os.environ, PYTHONPATH=str(REPO_ROOT / "src")
                ),
            )
            try:
                t0 = time.perf_counter()
                deadline = t0 + 180.0
                peak = 0
                while time.perf_counter() < deadline:
                    peak = max(peak, server.open_connections)
                    if peak >= CLIENTS:
                        break
                    if swarm.poll() is not None:
                        break  # swarm died early; fall through to asserts
                    time.sleep(0.1)
                t_parked = time.perf_counter() - t0
                rss_parked = _rss_mb()
                # release the herd: one message per poller (each take is
                # maxMessages=1, and a poller that loses the race re-parks
                # for its remaining wait budget — the correct long-poll
                # semantics, but not a bench that should take 90 s)
                for _ in range(CLIENTS):
                    store.deposit(mailbox, b"<release/>")
                out, _ = swarm.communicate(timeout=180.0)
                t_total = time.perf_counter() - t0
            finally:
                if swarm.poll() is None:
                    swarm.kill()
                loop_thread.run(server.stop())
        return {
            "clients": CLIENTS,
            "parked_peak": peak,
            "seconds_to_park": round(t_parked, 2),
            "seconds_total": round(t_total, 2),
            "rss_before_mb": round(rss_before, 1),
            "rss_parked_mb": round(rss_parked, 1),
            "swarm": json.loads(out),
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    swarm = result["swarm"]
    record_report(
        "aio_c10k_hold",
        "\n".join(
            [
                "metric\tvalue",
                f"clients\t{result['clients']}",
                f"parked_peak\t{result['parked_peak']}",
                f"seconds_to_park\t{result['seconds_to_park']}",
                f"rss_parked_mb\t{result['rss_parked_mb']}",
                f"swarm_responded\t{swarm['responded']}",
                f"swarm_errors\t{swarm['errors']}",
            ]
        ),
    )
    gate = {
        "min_concurrent_pollers": CLIENTS,
        "parked_peak": result["parked_peak"],
        "rss_limit_mb": RSS_LIMIT_MB,
        "rss_parked_mb": result["rss_parked_mb"],
    }
    write_bench_json(
        "aio_c10k",
        {"benchmark": "aio_c10k", "host": host_info(), "hold": result,
         "gate": gate},
    )
    # the tentpole claim: ten thousand concurrent long-poll connections
    # held by one loop thread in one process
    assert result["parked_peak"] >= CLIENTS
    assert swarm["connected"] == CLIENTS
    assert swarm["responded"] == CLIENTS
    assert swarm["errors"] == 0
    if result["rss_parked_mb"]:  # /proc may be absent off-Linux
        assert result["rss_parked_mb"] - result["rss_before_mb"] < RSS_LIMIT_MB


def test_aio_drain_matches_threaded_pipeline(
    benchmark, paper_scale, record_report
):
    from repro.aio import (
        AioHttpClient,
        AioHttpServer,
        AioLoopThread,
        AioMsgDispatcher,
    )
    from repro.core.msg_dispatcher import MsgDispatcherConfig
    from repro.core.registry import ServiceRegistry
    from repro.http import HttpResponse
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import TraceStore
    from repro.rt.service import RequestContext
    from repro.util.ids import IdGenerator
    from repro.workload.echo import make_echo_message

    messages = 4000 if paper_scale else 2000
    batch_size = 8
    baseline = _threaded_baseline()

    def run():
        received = []
        with AioLoopThread(name="drain-loop") as loop_thread:

            async def boot():
                sink = AioHttpServer(
                    lambda request, peer: (
                        received.append(1),
                        HttpResponse(status=202),
                    )[1],
                    metrics=MetricsRegistry(),
                )
                await sink.start()
                registry = ServiceRegistry(metrics=MetricsRegistry())
                registry.register("echo", f"{sink.url}/echo")
                dispatcher = AioMsgDispatcher(
                    registry,
                    AioHttpClient(metrics=MetricsRegistry()),
                    own_address="http://wsd:8000/msg",
                    config=MsgDispatcherConfig(
                        ws_threads=2,
                        batch_size=batch_size,
                        # a pre-filled backlog, like the simnet drain bench
                        accept_queue=messages,
                        destination_queue=messages,
                    ),
                    metrics=MetricsRegistry(),
                    traces=TraceStore(enabled=False),
                )
                return sink, dispatcher

            sink, dispatcher = loop_thread.run(boot())
            ids = IdGenerator("c10kdrain", seed=11)
            envelopes = [
                make_echo_message(to="urn:wsd:echo", message_id=ids.next())
                for _ in range(messages)
            ]
            t0 = time.perf_counter()
            for envelope in envelopes:
                dispatcher.handle(envelope, RequestContext(path="/msg/echo"))
            deadline = t0 + 120.0
            while (
                dispatcher.stats.get("delivered", 0) < messages
                and time.perf_counter() < deadline
            ):
                time.sleep(0.01)
            elapsed = time.perf_counter() - t0
            delivered = dispatcher.stats.get("delivered", 0)
            dispatcher.stop()
            loop_thread.run(sink.stop())
        return {
            "delivered": delivered,
            "received": len(received),
            "wall_seconds": round(elapsed, 3),
            "msgs_per_sec": round(delivered / elapsed, 2) if elapsed else 0.0,
            "batch_size": batch_size,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_report(
        "aio_c10k_drain",
        "\n".join(
            [
                "metric\tvalue",
                f"delivered\t{result['delivered']}",
                f"wall_seconds\t{result['wall_seconds']}",
                f"msgs_per_sec\t{result['msgs_per_sec']}",
                f"threaded_baseline_msgs_per_sec\t{baseline}",
            ]
        ),
    )
    merge_bench_json(
        "aio_c10k",
        {
            "drain": result,
            "drain_gate": {
                "threaded_baseline_msgs_per_sec": baseline,
                "min_ratio": 1.0,
                "ratio": round(result["msgs_per_sec"] / baseline, 2)
                if baseline
                else None,
            },
        },
    )
    assert result["delivered"] == messages
    assert result["received"] == messages
    # the event-loop dispatcher must not regress drained throughput
    # against the threaded pipelined figure at the same batch size
    assert result["msgs_per_sec"] >= baseline
