"""Ablations of the design choices DESIGN.md calls out.

- :func:`msgbox_bug` — §4.3.2's thread-per-message WS-MsgBox failure
  (a real thread census against a modelled heap) vs the bounded pool.
- :func:`pool_sizing` — MSG-Dispatcher CxThread/WsThread pool sizes vs
  throughput (the paper: "the sizes of the pools are configurable").
- :func:`batching` — multiple messages per connection vs
  connection-per-message (§4.1: batched delivery "is more efficient than
  opening multiple short lived connections").
- :func:`reliability` — hold/retry with expiration under injected
  downtime (future work §4.4).
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import SimMsgDispatcher, SimMsgDispatcherConfig
from repro.experiments.common import (
    DISPATCHER_SERVICE_TIME,
    ExperimentReport,
    SOAP_SERVICE_TIME,
)
from repro.http import Headers, HttpRequest
from repro.msgbox import MailboxSecurity, MailboxStore, MsgBoxService
from repro.msgbox.service import SimulatedOutOfMemory, make_mailbox_epr
from repro.reliable import ExponentialBackoff, FixedDelay, HeldMessage, HoldRetryStore
from repro.rt.service import RequestContext, SoapHttpApp
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.kernel import Simulator
from repro.simnet.scenarios import BACKBONE_IU, INRIA, add_site
from repro.simnet.services import SimAsyncEchoService
from repro.simnet.topology import Network
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.util.clock import ManualClock
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message
from repro.workload.results import Series, render_table
from repro.workload.sim_testclient import SimRampConfig, SimRampTester


# ---------------------------------------------------------------------------
# F6b: the WS-MsgBox thread explosion
# ---------------------------------------------------------------------------

def msgbox_bug(
    client_counts: list[int] | None = None,
    messages_per_client: int = 2,
    ack_delay: float = 1.0,
    heap_limit_bytes: int = 32 * 1024 * 1024,
) -> ExperimentReport:
    """Reproduce the OutOfMemory collapse above ~50 clients.

    Each "client" deposits ``messages_per_client`` messages back-to-back
    (all clients released by a barrier, so the burst is simultaneous);
    every deposit triggers a reply send that takes ``ack_delay`` seconds
    (a WAN reply — keep it comfortably larger than the burst duration so
    the reproduction is immune to scheduler jitter).  With
    ``delivery_mode='thread-per-message'`` the live thread count scales
    with the in-flight messages and the modelled heap (32 MiB / 512 KiB
    stacks = 64 threads) blows exactly like the paper's JVM; the pooled
    redesign sheds load instead.
    """
    counts = client_counts or [10, 25, 50, 100]
    report = ExperimentReport(
        experiment="Fig6b (4.3.2)",
        description="WS-MsgBox delivery threading: thread-per-message vs pooled",
    )
    rows = ["mode\tclients\tdeposits\tpeak_threads\tcrashed"]
    for mode in ("thread-per-message", "pooled"):
        for clients in counts:
            store = MailboxStore(max_messages_per_box=100_000)
            service = MsgBoxService(
                store,
                delivery_mode=mode,
                ack_sender=lambda data: time.sleep(ack_delay),
                ack_workers=8,
                heap_limit_bytes=heap_limit_bytes,
            )
            boxes = [store.create() for _ in range(clients)]
            crashed = False
            deposits = 0
            threads = []
            # All clients burst simultaneously — the paper's scenario is a
            # popular service under concurrent load, and a barrier keeps
            # the reproduction independent of thread scheduling jitter.
            start = threading.Barrier(clients + 1)

            def depositor(box_id: str) -> None:
                nonlocal crashed, deposits
                env = make_echo_message(
                    to="urn:wsd:echo", message_id=f"uuid:bug-{box_id}-{deposits}"
                )
                from repro.msgbox.service import Q_MAILBOX_ID
                from repro.xmlmini import Element

                env.headers.append(Element(Q_MAILBOX_ID, text=box_id))
                ctx = RequestContext(path="/mailbox/deposit")
                try:
                    start.wait(timeout=10)
                except threading.BrokenBarrierError:
                    return
                for _ in range(messages_per_client):
                    try:
                        service.handle(env, ctx)
                        deposits += 1
                    except SimulatedOutOfMemory:
                        crashed = True
                        return
                    except Exception:
                        return  # service already dead

            for box in boxes:
                t = threading.Thread(target=depositor, args=(box,), daemon=True)
                threads.append(t)
                t.start()
            start.wait(timeout=10)
            for t in threads:
                t.join(timeout=ack_delay * messages_per_client + 10)
            crashed = crashed or service.dead
            peak = service.stats.get("ack_peak_threads", 0)
            rows.append(
                f"{mode}\t{clients}\t{deposits}\t{peak}\t{'YES' if crashed else 'no'}"
            )
            report.extras[f"{mode}@{clients}"] = {
                "deposits": deposits,
                "peak_threads": peak,
                "crashed": crashed,
            }
    report.tables = ["\n".join(rows)]
    return report


def check_msgbox_bug(report: ExperimentReport) -> list[str]:
    failures = []
    extras = report.extras
    small = [k for k in extras if k.startswith("thread-per-message@")]
    crashed_at = sorted(
        int(k.split("@")[1]) for k in small if extras[k]["crashed"]  # type: ignore[index]
    )
    survived_at = sorted(
        int(k.split("@")[1]) for k in small if not extras[k]["crashed"]  # type: ignore[index]
    )
    if not crashed_at:
        failures.append("thread-per-message mode never crashed")
    if survived_at and crashed_at and min(crashed_at) < max(survived_at):
        failures.append("crash onset is not monotone in client count")
    for k, v in extras.items():
        if k.startswith("pooled@") and v["crashed"]:  # type: ignore[index]
            failures.append(f"pooled mode crashed at {k}")
    return failures


# ---------------------------------------------------------------------------
# A1: dispatcher pool sizing
# ---------------------------------------------------------------------------

def _msgbox_scenario(
    ws_workers: int,
    batch_size: int,
    pool_per_destination: int,
):
    sim = Simulator()
    net = Network(sim)
    client = add_site(net, INRIA, name="inria")
    ws_host = add_site(net, replace(BACKBONE_IU, name="iuWS"), open_ports=(9000,))
    wsd_host = add_site(
        net, replace(BACKBONE_IU, name="iuWSD"), open_ports=(8000, 8500)
    )
    echo = SimAsyncEchoService(net, ws_host, reply_senders=32)
    SimHttpServer(net, ws_host, 9000, echo.handler, workers=32,
                  service_time=SOAP_SERVICE_TIME)
    registry = ServiceRegistry()
    registry.register("echo", "http://iuWS:9000/echo")
    config = SimMsgDispatcherConfig(
        cx_workers=4, ws_workers=ws_workers, batch_size=batch_size,
    )
    dispatcher = SimMsgDispatcher(
        net, wsd_host, registry, own_address="http://iuWSD:8000/msg", config=config
    )
    dispatcher.pool.pool_per_destination = pool_per_destination
    SimHttpServer(net, wsd_host, 8000, dispatcher.handler, workers=32,
                  service_time=DISPATCHER_SERVICE_TIME)
    store = MailboxStore(clock=sim.clock, max_messages_per_box=100_000)
    msgbox = MsgBoxService(store, base_url="http://iuWSD:8500/mailbox")
    app = SoapHttpApp()
    app.mount("/mailbox", msgbox)
    SimHttpServer(net, wsd_host, 8500, lambda r: app.handle_request(r, None),
                  workers=32, service_time=SOAP_SERVICE_TIME)
    return sim, net, client, store, dispatcher


def _run_msgbox_load(sim, net, client, store, clients: int, duration: float):
    ids = IdGenerator("abl", seed=clients)
    eprs = [
        make_mailbox_epr("http://iuWSD:8500/mailbox", store.create())
        for _ in range(clients)
    ]

    def factory(counter=[0]):
        counter[0] += 1
        env = make_echo_message(
            to="urn:wsd:echo", message_id=ids.next(),
            reply_to=eprs[counter[0] % len(eprs)],
        )
        headers = Headers()
        headers.set("Content-Type", SOAP11_CONTENT_TYPE)
        return HttpRequest("POST", "/msg/echo", headers=headers, body=env.to_bytes())

    tester = SimRampTester(net, client, "iuWSD", 8000, "/msg/echo", factory)
    return tester.run(SimRampConfig(clients=clients, duration=duration))


def pool_sizing(
    ws_worker_counts: list[int] | None = None,
    clients: int = 30,
    duration: float = 20.0,
) -> ExperimentReport:
    """A1: WsThread pool size vs delivered throughput."""
    sizes = ws_worker_counts or [1, 2, 4, 8, 16]
    report = ExperimentReport(
        experiment="Ablation A1",
        description="MSG-Dispatcher WsThread pool size vs delivered msgs/min",
    )
    rows = ["ws_workers\taccepted/min\tdelivered\tdeposits"]
    for size in sizes:
        sim, net, client, store, dispatcher = _msgbox_scenario(
            ws_workers=size, batch_size=8, pool_per_destination=2
        )
        result = _run_msgbox_load(sim, net, client, store, clients, duration)
        delivered = dispatcher.stats.get("delivered", 0)
        rows.append(
            f"{size}\t{result.per_minute:.0f}\t{delivered}\t"
            f"{sum(store.stats(b)['deposits'] for b in [])}"
        )
        report.extras[f"ws={size}"] = {
            "accepted_per_min": result.per_minute,
            "delivered": delivered,
        }
    report.tables = ["\n".join(rows)]
    return report


# ---------------------------------------------------------------------------
# A2: delivery batching / connection reuse
# ---------------------------------------------------------------------------

def batching(
    clients: int = 30,
    duration: float = 20.0,
) -> ExperimentReport:
    """A2: batched persistent delivery vs connection-per-message."""
    report = ExperimentReport(
        experiment="Ablation A2",
        description="Batched delivery over persistent connections vs "
        "connection-per-message",
    )
    rows = [
        "variant\taccepted/min\tdelivered\tfresh_connects\treuses\tbursts"
    ]
    variants = {
        "batch=8, pipelined": (8, 2),
        "batch=1, persistent": (1, 2),
        "batch=1, conn-per-msg": (1, 0),
    }
    for label, (batch, pool) in variants.items():
        sim, net, client, store, dispatcher = _msgbox_scenario(
            ws_workers=8, batch_size=batch, pool_per_destination=pool,
        )
        result = _run_msgbox_load(sim, net, client, store, clients, duration)
        rows.append(
            f"{label}\t{result.per_minute:.0f}\t"
            f"{dispatcher.stats.get('delivered', 0)}\t"
            f"{dispatcher.pool.fresh_connects}\t{dispatcher.pool.reuses}\t"
            f"{dispatcher.pool.pipelined_bursts}"
        )
        report.extras[label] = {
            "accepted_per_min": result.per_minute,
            "delivered": dispatcher.stats.get("delivered", 0),
            "fresh_connects": dispatcher.pool.fresh_connects,
            "reuses": dispatcher.pool.reuses,
            "pipelined_bursts": dispatcher.pool.pipelined_bursts,
            "pipeline_replays": dispatcher.pool.pipeline_replays,
        }
    report.tables = ["\n".join(rows)]
    return report


# ---------------------------------------------------------------------------
# A4: hold/retry reliability
# ---------------------------------------------------------------------------

def reliability(
    downtime: float = 5.0,
    messages: int = 50,
    ttl: float = 30.0,
) -> ExperimentReport:
    """A4: delivery ratio with/without hold-retry across service downtime."""
    report = ExperimentReport(
        experiment="Ablation A4",
        description="Hold/retry store vs single-attempt delivery across a "
        f"{downtime}s outage",
    )
    rows = ["policy\tdelivered\texpired\tattempts"]
    for label, policy in (
        ("no-retry", FixedDelay(max_attempts=1, delay=0.0)),
        ("fixed x5", FixedDelay(max_attempts=5, delay=1.0)),
        ("backoff x8", ExponentialBackoff(max_attempts=8, base=0.25, max_delay=4.0)),
    ):
        clock = ManualClock()
        up_at = clock.now() + downtime

        def deliver(msg: HeldMessage) -> None:
            if clock.now() < up_at:
                raise ConnectionError("service down")

        store = HoldRetryStore(deliver, policy=policy, default_ttl=ttl, clock=clock)
        for i in range(messages):
            store.hold(f"uuid:rel-{label}-{i}", "http://svc/echo", b"<x/>")
        # pump on a 0.5 s cadence for the ttl window
        for _ in range(int(ttl / 0.5)):
            store.pump()
            clock.advance(0.5)
            if store.pending() == 0:
                break
        stats = store.stats
        rows.append(
            f"{label}\t{stats['delivered']}\t{stats['expired']}\t{stats['attempts']}"
        )
        report.extras[label] = stats
    report.tables = ["\n".join(rows)]
    return report
