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
- :func:`failover` — replica failover through the registry's liveness
  probe (future work §4.4: "checking if service is alive").
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import SimMsgDispatcherConfig, SimRpcDispatcher
from repro.experiments.common import (
    ExperimentReport,
    IuDeployment,
    build_iu_deployment,
)
from repro.msgbox import MailboxStore, MsgBoxService
from repro.msgbox.service import SimulatedOutOfMemory
from repro.reliable import ExponentialBackoff, FixedDelay, HeldMessage, HoldRetryStore
from repro.rt.service import RequestContext, SoapHttpApp
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.kernel import Simulator
from repro.simnet.scenarios import BACKBONE_IU, INRIA, add_site
from repro.simnet.topology import Network
from repro.util.clock import ManualClock
from repro.util.ids import IdGenerator
from repro.workload.echo import EchoService, make_echo_message
from repro.workload.results import RunResult
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

def _msgbox_load(
    ws_workers: int,
    batch_size: int,
    pool_per_destination: int,
    clients: int,
    duration: float,
) -> tuple[IuDeployment, RunResult]:
    """Echo load through the MSG-Dispatcher into per-client mailboxes.

    The mailbox is relayed: the host cannot see it, so the dispatcher
    delivers every reply itself and its WsThreads serve two destinations
    (the echo WS and the mailbox) — the contention A1 and A2 measure.
    """
    world = build_iu_deployment(
        dispatcher=SimMsgDispatcherConfig(
            cx_workers=4, ws_workers=ws_workers, batch_size=batch_size,
        ),
        mailbox="relayed",
    )
    world.dispatcher.pool.pool_size = pool_per_destination
    tester = world.tester(
        IdGenerator("abl", seed=clients), world.open_mailboxes(clients)
    )
    return world, tester.run(SimRampConfig(clients=clients, duration=duration))


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
        world, result = _msgbox_load(size, 8, 2, clients, duration)
        delivered = world.dispatcher.stats.get("delivered", 0)
        deposits = world.deposits()
        rows.append(f"{size}\t{result.per_minute:.0f}\t{delivered}\t{deposits}")
        report.extras[f"ws={size}"] = {
            "accepted_per_min": result.per_minute,
            "delivered": delivered,
            "deposits": deposits,
        }
    report.tables = ["\n".join(rows)]
    return report


def check_pool_sizing(report: ExperimentReport) -> list[str]:
    """The biggest WsThread pool delivers no less than the smallest, and
    replies reach the mailboxes at every size."""
    points: dict[str, dict] = report.extras  # type: ignore[assignment]
    (small, first), *_, (big, last) = points.items()
    failures = [
        f"no reply reached a mailbox at {label}"
        for label, point in points.items() if not point["deposits"]
    ]
    if last["delivered"] < first["delivered"]:
        failures.append(f"{big} delivered less than {small}")
    return failures


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
        world, result = _msgbox_load(8, batch, pool, clients, duration)
        dispatcher = world.dispatcher
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


def check_batching(report: ExperimentReport) -> list[str]:
    """§4.1: batching over persistent connections "is more efficient than
    opening multiple short lived connections"."""
    variants: dict[str, dict] = report.extras  # type: ignore[assignment]
    batched = variants["batch=8, pipelined"]
    serial = variants["batch=1, persistent"]
    per_msg = variants["batch=1, conn-per-msg"]
    failures = []
    if batched["delivered"] <= per_msg["delivered"]:
        failures.append("batching delivered no more than connection-per-message")
    if batched["delivered"] < serial["delivered"]:
        failures.append("batching delivered less than one-by-one delivery")
    if batched["fresh_connects"] >= per_msg["fresh_connects"]:
        failures.append("batching opened no fewer connections")
    return failures


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


def check_reliability(report: ExperimentReport) -> list[str]:
    """One attempt loses every message to the outage; backoff loses none."""
    policies: dict[str, dict] = report.extras  # type: ignore[assignment]
    failures = []
    if policies["no-retry"]["delivered"] != 0:
        failures.append("a single attempt delivered across the outage")
    backoff = policies["backoff x8"]
    if backoff["delivered"] != backoff["held"]:
        failures.append(
            f"backoff delivered {backoff['delivered']} of {backoff['held']}"
        )
    return failures


# ---------------------------------------------------------------------------
# A5: replica failover through registry liveness probing
# ---------------------------------------------------------------------------

#: probe intervals swept by :func:`failover`, slowest first
PROBE_INTERVALS = (10.0, 2.0, 0.5)


def _failover_point(
    probe_interval: float, duration: float, crash_at: float
) -> RunResult:
    """RPC echo through the RPC-Dispatcher to two replicas; the first
    crashes at ``crash_at`` and a prober every ``probe_interval`` seconds
    steers the registry's selector away from it."""
    sim = Simulator()
    net = Network(sim)
    client = add_site(net, INRIA, name="inria")
    wsd = add_site(net, replace(BACKBONE_IU, name="wsd"), open_ports=(8000,))

    replica_hosts = []
    replicas = []
    for i in range(2):
        host = add_site(
            net, replace(BACKBONE_IU, name=f"replica{i}"), open_ports=(9000,)
        )
        app = SoapHttpApp()
        app.mount("/echo", EchoService())
        SimHttpServer(
            net, host, 9000,
            lambda r, app=app: app.handle_request(r, None),
            workers=16, service_time=0.003,
        )
        replica_hosts.append(host)
        replicas.append(f"http://replica{i}:9000/echo")

    # health-aware selection: skip replicas the prober marked down
    down: set[str] = set()

    def selector(record):
        healthy = [a for a in record.physical if a not in down]
        return healthy[0] if healthy else record.physical[0]

    registry = ServiceRegistry(selector=selector)
    registry.register("echo", replicas)
    dispatcher = SimRpcDispatcher(net, wsd, registry, connect_timeout=1.0)
    SimHttpServer(net, wsd, 8000, dispatcher.handler, workers=32)

    def prober():
        """The registry's periodic liveness probe, as a sim process."""
        while True:
            yield sim.timeout(probe_interval)
            for url, host in zip(replicas, replica_hosts):
                alive = registry.check_alive(
                    "echo", lambda addr, h=host: not h.failed, now=sim.now
                )
                if host.failed or not alive:
                    down.add(url)
                else:
                    down.discard(url)

    def crasher():
        yield sim.timeout(crash_at)
        replica_hosts[0].fail()

    sim.process(prober())
    sim.process(crasher())
    tester = SimRampTester(net, client, "wsd", 8000, "/rpc/echo")
    return tester.run(SimRampConfig(
        clients=10, duration=duration,
        connect_timeout=2.0, response_timeout=5.0,
        retry_backoff=0.2,
    ))


def failover(duration: float = 30.0) -> ExperimentReport:
    """A5: lost calls vs liveness-probe interval across a replica crash
    one third of the way into the run."""
    report = ExperimentReport(
        experiment="Ablation A5",
        description="Replica failover: one of two echo replicas crashes at "
        f"{duration / 3:g}s; lost calls vs registry liveness-probe interval",
    )
    rows = ["probe_interval\ttransmitted\terrors+lost"]
    for interval in PROBE_INTERVALS:
        result = _failover_point(interval, duration, crash_at=duration / 3)
        lost = result.errors + result.not_sent
        rows.append(f"{interval}\t{result.transmitted}\t{lost}")
        report.extras[f"probe={interval}"] = {
            "transmitted": result.transmitted, "lost": lost,
        }
    report.tables = ["\n".join(rows)]
    return report


def check_failover(report: ExperimentReport) -> list[str]:
    """Probing at 0.5 s loses no more calls than at 10 s, and transmits no
    fewer."""
    points: dict[str, dict] = report.extras  # type: ignore[assignment]
    slow, fast = PROBE_INTERVALS[0], PROBE_INTERVALS[-1]
    failures = []
    if points[f"probe={fast}"]["lost"] > points[f"probe={slow}"]["lost"]:
        failures.append(f"probing every {fast}s lost more than every {slow}s")
    if points[f"probe={fast}"]["transmitted"] < points[f"probe={slow}"]["transmitted"]:
        failures.append(f"probing every {fast}s transmitted less than every {slow}s")
    return failures
