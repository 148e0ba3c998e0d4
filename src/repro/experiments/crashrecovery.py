"""Crash-recovery experiment: durable store-and-forward under SIGKILL.

The acceptance test for the message journal (paper §4.4: "messages
stored in DB with expiration time").  A client streams one-way messages
through a durable MSG-Dispatcher while a seeded
:class:`~repro.chaos.plan.ServiceCrash` kills the dispatcher host
mid-drain — the process loses its accept queue, destination queues, hold
store, and any unflushed journal marks.  After ``restart_after`` seconds
a fresh incarnation opens the *same* journal, replays every record still
``enqueued``, and finishes the drain.

What the sink must observe for the durability story to hold:

- **zero loss** — every message the dispatcher acked with 202 arrives,
  including those that were in flight when the process died;
- **zero duplicate absorption** — replays and client resends may hit the
  wire more than once (at-least-once is the journal's contract), but the
  sink's :class:`~repro.reliable.DuplicateFilter` absorbs each message
  exactly once;
- **bit-reproducibility** — the whole run is simulated, so two runs with
  the same seed produce identical summaries (checked by :func:`run`).
"""

from __future__ import annotations

from repro.chaos.controller import ChaosController
from repro.chaos.plan import FaultPlan, ServiceCrash
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
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.reliable import BreakerConfig, DuplicateFilter, FixedDelay, HoldRetryStore
from repro.simnet.httpsim import SimHttpClientPool, SimHttpServer
from repro.simnet.kernel import Simulator
from repro.simnet.scenarios import BACKBONE_IU, INRIA, add_site
from repro.simnet.topology import Network
from repro.soap import Envelope
from repro.store.journal import DEAD, MessageJournal
from repro.util.ids import IdGenerator
from repro.workload.echo import EchoMessageTemplate
from repro.wsa import AddressingHeaders

#: (crash_at, restart_after) points swept by :func:`run`
CRASH_POINTS = ((6.0, 4.0), (10.0, 8.0))


def run_point(
    crash_at: float,
    restart_after: float,
    messages: int = 80,
    send_gap: float = 0.25,
    seed: int = 11,
    horizon: float = 150.0,
) -> dict:
    """One crash/restart scenario; returns the per-point summary dict."""
    sim = Simulator()
    net = Network(sim, loss_seed=seed)
    client_host = add_site(net, INRIA, name="client")
    wsd_host = add_site(net, BACKBONE_IU, name="wsd", open_ports=(8000,))
    sink_host = add_site(net, BACKBONE_IU, name="sink", open_ports=(9000,))

    metrics = MetricsRegistry()
    traces = TraceStore(enabled=False)
    registry = ServiceRegistry(metrics=metrics)
    registry.register("echo", "http://sink:9000/echo")

    # The journal object is the disk: it survives the simulated SIGKILL
    # and the restarted incarnation reopens it.  "always" commits each
    # append before the 202 ack (journal-before-ack) without the real
    # sleep group commit would add; marks stay buffered, so a crash can
    # lose them — that is the at-least-once tail the sink dedupes.
    journal = MessageJournal(sync="always", now_fn=lambda: sim.now)

    arrivals = 0
    delivered: set[str] = set()
    sink_dupes = DuplicateFilter(window=horizon, clock=sim.clock)

    def sink_handler(request: HttpRequest) -> HttpResponse:
        nonlocal arrivals
        try:
            envelope = Envelope.from_bytes(request.body)
            mid = AddressingHeaders.from_envelope(envelope).message_id
        except ReproError:
            return HttpResponse(status=400)
        arrivals += 1
        if mid and not sink_dupes.seen(mid):
            delivered.add(mid)
        return HttpResponse(status=202)

    SimHttpServer(
        net, sink_host, 9000, sink_handler, workers=16,
        service_time=SOAP_SERVICE_TIME,
    )

    def make_dispatcher() -> SimMsgDispatcher:
        hold_store = HoldRetryStore(
            policy=FixedDelay(max_attempts=10_000, delay=0.5),
            default_ttl=horizon,
            clock=sim.clock,
        )
        config = SimMsgDispatcherConfig(
            connect_timeout=3.0,
            response_timeout=5.0,
            breaker=BreakerConfig(consecutive_failures=3, open_for=2.0),
            dedupe_window=horizon,
        )
        return SimMsgDispatcher(
            net, wsd_host, registry, own_address="http://wsd:8000/msg",
            config=config, metrics=metrics, traces=traces,
            hold_store=hold_store, durable=journal,
        )

    incarnation = {"disp": make_dispatcher()}

    def dispatcher_handler(request: HttpRequest):
        return incarnation["disp"].handler(request)

    SimHttpServer(
        net, wsd_host, 8000, dispatcher_handler, workers=16,
        service_time=DISPATCHER_SERVICE_TIME,
    )

    controller = ChaosController(
        net,
        FaultPlan(
            (ServiceCrash(host="wsd", at=crash_at, restart_after=restart_after),),
            seed=seed,
        ),
        metrics=metrics,
    )
    controller.start()

    recovered = {"replayed": 0}

    def crash_and_restart():
        yield sim.timeout(crash_at)
        incarnation["disp"].crash()
        yield sim.timeout(restart_after)
        # the restarted process reopens the journal and replays it
        incarnation["disp"] = make_dispatcher()
        recovered["replayed"] = incarnation["disp"].stats.get("recovered", 0)

    sim.process(crash_and_restart(), name="crash-restart")

    ids = IdGenerator("crash", seed=seed)
    pool = SimHttpClientPool(
        net, client_host, connect_timeout=5.0, response_timeout=10.0
    )
    sent: list[str] = []
    accepted: set[str] = set()
    resends = 0
    template = EchoMessageTemplate("urn:wsd:echo")

    def sender():
        nonlocal resends
        for _ in range(messages):
            mid = ids.next()
            body = template.render(mid)
            sent.append(mid)
            for attempt in range(40):
                if attempt:
                    resends += 1
                request = soap_post(body, "/msg/echo")
                try:
                    response = yield from pool.exchange("wsd", 8000, request)
                except ReproError:
                    yield sim.timeout(1.0)
                    continue
                if response.status == 202:
                    accepted.add(mid)
                    break
                yield sim.timeout(1.0)
            yield sim.timeout(send_gap)

    sim.process(sender(), name="crash-sender")
    sim.run(until=horizon)

    duplicates_at_sink = arrivals - len(delivered)
    return {
        "crash_at": crash_at,
        "restart_after": restart_after,
        "sent": len(sent),
        "accepted": len(accepted),
        "delivered_unique": len(delivered & set(sent)),
        "sink_arrivals": arrivals,
        "duplicates_at_sink": duplicates_at_sink,
        "duplicates_absorbed": duplicates_at_sink,  # sink absorbed every one
        "client_resends": resends,
        "replayed_on_restart": recovered["replayed"],
        "journal_pending": journal.pending_count(),
        "dead_letters": journal.counts().get(DEAD, 0),
        "dead_by_reason": journal.dead_counts(),
    }


def run(
    crash_points: tuple = CRASH_POINTS,
    messages: int = 80,
    seed: int = 11,
) -> ExperimentReport:
    """Sweep the crash points; every point is run twice to prove the
    summaries are bit-identical (seeded simulation, no wall clock)."""
    report = ExperimentReport(
        experiment="Crash recovery",
        description=(
            "SIGKILL the durable dispatcher mid-drain, restart from the "
            "journal: zero loss, duplicates absorbed, bit-reproducible"
        ),
    )
    rows = []
    for crash_at, restart_after in crash_points:
        point = run_point(
            crash_at, restart_after, messages=messages, seed=seed
        )
        rerun = run_point(
            crash_at, restart_after, messages=messages, seed=seed
        )
        point["reproducible"] = point == rerun
        rows.append(point)
        report.extras[f"crash={crash_at:g}s,restart={restart_after:g}s"] = point
    lines = [
        "# crash recovery [unique deliveries vs accepted]",
        "crash_s\trestart_s\tsent\taccepted\tdelivered\tdupes\treplayed\tdead\trepro",
    ]
    for p in rows:
        lines.append(
            f"{p['crash_at']:g}\t{p['restart_after']:g}\t{p['sent']}\t"
            f"{p['accepted']}\t{p['delivered_unique']}\t"
            f"{p['duplicates_at_sink']}\t{p['replayed_on_restart']}\t"
            f"{p['dead_letters']}\t{p['reproducible']}"
        )
    report.tables = ["\n".join(lines)]
    report.notes.append(
        f"seed={seed}; the journal object survives the crash (it plays "
        "the disk); the sink's DuplicateFilter absorbs at-least-once "
        "replays, so 'delivered' counts unique messages"
    )
    return report


def check_shape(report: ExperimentReport) -> list[str]:
    """Durability contract: no accepted message lost, no point divergent."""
    failures: list[str] = []
    for key, point in report.extras.items():
        if point["delivered_unique"] < point["accepted"]:
            failures.append(
                f"{key}: {point['accepted']} accepted but only "
                f"{point['delivered_unique']} delivered — the crash lost "
                "messages"
            )
        if point["accepted"] < point["sent"]:
            failures.append(
                f"{key}: client gave up on "
                f"{point['sent'] - point['accepted']} messages"
            )
        if not point["reproducible"]:
            failures.append(f"{key}: two seeded runs diverged")
    return failures
