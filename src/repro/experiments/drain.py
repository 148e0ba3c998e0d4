"""Backlog-drain experiment over real loopback TCP, runtime-selectable.

The experiments CLI grew up on the deterministic simulator; this one runs
the *real* runtimes instead, because its question is about them: given an
admitted backlog of one-way messages, how fast does each dispatcher
backend drain it to a sink?

``runtime="threaded"`` drives :class:`~repro.core.MsgDispatcher` (CxThread
/ WsThread pools), ``runtime="aio"`` drives
:class:`~repro.aio.AioMsgDispatcher` on one loop thread, and
``runtime="sharded"`` stands up a whole
:class:`~repro.shard.ShardSupervisor` fleet (worker subprocesses behind
one SO_REUSEPORT endpoint).  The sink is the same threaded HTTP server in
all cases, so the variable under test is the dispatcher substrate — this
is the ROADMAP item 3 follow-on wiring ``repro.aio`` (and now
``repro.shard``) into ``python -m repro.experiments``.
"""

from __future__ import annotations

import threading
import time

from repro.core.msg_dispatcher import MsgDispatcherConfig
from repro.core.registry import ServiceRegistry
from repro.errors import ReproError
from repro.experiments.common import ExperimentReport
from repro.http import HttpResponse
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.rt.server import HttpServer
from repro.rt.service import RequestContext
from repro.soap import Envelope
from repro.transport.tcp import TcpConnector, TcpListener
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message
from repro.wsa import AddressingHeaders

RUNTIMES = ("threaded", "aio", "sharded")


def _start_sink(delivered: set, done: threading.Event, expected: int):
    lock = threading.Lock()

    def handler(request, peer):
        try:
            envelope = Envelope.from_bytes(request.body)
            mid = AddressingHeaders.from_envelope(envelope).message_id
        except ReproError:
            return HttpResponse(status=400)
        with lock:
            if mid:
                delivered.add(mid)
            if len(delivered) >= expected:
                done.set()
        return HttpResponse(status=202)

    return HttpServer(
        TcpListener("127.0.0.1:0"), handler, workers=8, name="drain-sink"
    ).start()


def _run_point(runtime: str, messages: int, batch_size: int) -> dict:
    delivered: set = set()
    done = threading.Event()
    sink = _start_sink(delivered, done, messages)
    metrics = MetricsRegistry(enabled=False)
    traces = TraceStore(enabled=False)
    registry = ServiceRegistry(metrics=metrics)
    registry.register("drain-echo", sink.url + "/echo")
    config = MsgDispatcherConfig(
        cx_threads=2, ws_threads=4, batch_size=batch_size,
    )

    ids = IdGenerator("drain", seed=7)
    envelopes = [
        make_echo_message(to="urn:wsd:drain-echo", message_id=ids.next())
        for _ in range(messages)
    ]

    stop_fns = []
    try:
        if runtime == "sharded":
            from repro.shard import ShardSupervisor, SupervisorConfig
            from repro.rt.client import HttpClient

            supervisor = ShardSupervisor(
                {"drain-echo": sink.url + "/echo"},
                SupervisorConfig(shards=2, batch_size=batch_size),
            ).start()
            stop_fns.append(supervisor.stop)
            feeder = HttpClient(TcpConnector())
            stop_fns.append(feeder.close)
            t0 = time.perf_counter()
            for envelope in envelopes:
                feeder.post_envelope(
                    supervisor.data_url + "/msg/drain-echo", envelope
                )
        elif runtime == "aio":
            from repro.aio import AioHttpClient, AioLoopThread, AioMsgDispatcher

            loop_thread = AioLoopThread(name="drain-loop").start()
            stop_fns.append(loop_thread.stop)

            async def build():
                return AioMsgDispatcher(
                    registry, AioHttpClient(metrics=metrics),
                    own_address="http://127.0.0.1:0/msg",
                    config=config, metrics=metrics, traces=traces,
                )

            dispatcher = loop_thread.run(build())
            stop_fns.append(dispatcher.stop)
            t0 = time.perf_counter()
            for envelope in envelopes:
                dispatcher.handle(
                    envelope, RequestContext("/msg/drain-echo", None, None)
                )
        else:
            from repro.core.msg_dispatcher import MsgDispatcher
            from repro.rt.client import HttpClient

            client = HttpClient(TcpConnector(), metrics=metrics)
            stop_fns.append(client.close)
            dispatcher = MsgDispatcher(
                registry, client, own_address="http://127.0.0.1:0/msg",
                config=config, metrics=metrics, traces=traces,
            )
            stop_fns.append(dispatcher.stop)
            t0 = time.perf_counter()
            for envelope in envelopes:
                dispatcher.handle(
                    envelope, RequestContext("/msg/drain-echo", None, None)
                )
        done.wait(timeout=60.0)
        elapsed = time.perf_counter() - t0
    finally:
        for stop in stop_fns:
            try:
                stop()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
        sink.stop()
    return {
        "runtime": runtime,
        "messages": messages,
        "delivered": len(delivered),
        "elapsed_s": round(elapsed, 4),
        "msgs_per_s": round(len(delivered) / elapsed, 1) if elapsed else 0.0,
    }


def run(
    runtime: str = "threaded",
    messages: int = 400,
    batch_size: int = 8,
) -> ExperimentReport:
    """Drain ``messages`` through the chosen runtime; one row per run."""
    if runtime not in RUNTIMES:
        raise ValueError(f"runtime must be one of {RUNTIMES}, not {runtime!r}")
    report = ExperimentReport(
        experiment="Backlog drain (real TCP)",
        description=(
            "admitted one-way backlog drained to a threaded sink; the "
            "variable is the dispatcher runtime"
        ),
    )
    point = _run_point(runtime, messages, batch_size)
    report.extras[runtime] = point
    lines = [
        "# backlog drain [one-way msgs to delivery at the sink]",
        "runtime\tmessages\tdelivered\telapsed_s\tmsgs_per_s",
        f"{point['runtime']}\t{point['messages']}\t{point['delivered']}\t"
        f"{point['elapsed_s']}\t{point['msgs_per_s']}",
    ]
    report.tables = ["\n".join(lines)]
    report.notes.append(
        f"batch_size={batch_size}, pipelined bursts on; sink is the "
        "threaded HttpServer in every mode"
    )
    return report


def check_shape(report: ExperimentReport) -> list[str]:
    failures: list[str] = []
    for runtime, point in report.extras.items():
        if point["delivered"] < point["messages"]:
            failures.append(
                f"{runtime}: only {point['delivered']} of "
                f"{point['messages']} drained"
            )
    return failures
