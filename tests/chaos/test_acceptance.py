"""Acceptance scenario from the robustness issue.

A seeded chaos run (30% packet loss + a mid-run service crash/restart +
a link flap) against the full SimMsgDispatcher + hold/retry + breaker
stack must lose nothing: every accepted message is delivered exactly once
past the DuplicateFilter (or explicitly expired), and two runs with the
same seed produce bit-identical results.  With breakers enabled a dead
destination stops consuming network delivery attempts within one breaker
window, and the metrics/introspection surfaces show the transitions.
"""

from repro.chaos import ChaosController, FaultPlan, LinkFlap, PacketLoss, ServiceCrash
from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import SimMsgDispatcher, SimMsgDispatcherConfig
from repro.errors import ReproError
from repro.http import Headers, HttpRequest, HttpResponse
from repro.obs.http import Introspection
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.reliable import BreakerConfig, DuplicateFilter, FixedDelay, HoldRetryStore
from repro.simnet.httpsim import SimHttpClientPool, SimHttpServer
from repro.simnet.kernel import Simulator
from repro.simnet.scenarios import BACKBONE_IU, INRIA, add_site
from repro.simnet.topology import Network
from repro.soap import Envelope
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message
from repro.wsa import AddressingHeaders

SEED = 1234


def _build(seed, faults, messages=60, send_gap=0.25, horizon=120.0,
           connect_timeout=2.0, hold_delay=0.5, breaker=None, sink_up=True):
    """Assemble the scenario; returns a dict of live pieces plus a runner."""
    sim = Simulator()
    net = Network(sim, loss_seed=seed)
    client_host = add_site(net, INRIA, name="client")
    wsd_host = add_site(net, BACKBONE_IU, name="wsd", open_ports=(8000,))
    sink_host = add_site(net, BACKBONE_IU, name="sink", open_ports=(9000,))

    metrics = MetricsRegistry()
    traces = TraceStore(enabled=False)
    registry = ServiceRegistry(metrics=metrics)
    registry.register("echo", "http://sink:9000/echo")

    dupes = DuplicateFilter(window=3600.0, clock=sim.clock)
    delivered: list[str] = []
    arrivals = {"raw": 0}

    def sink_handler(request: HttpRequest) -> HttpResponse:
        try:
            envelope = Envelope.from_bytes(request.body)
            mid = AddressingHeaders.from_envelope(envelope).message_id
        except ReproError:
            return HttpResponse(status=400)
        arrivals["raw"] += 1
        if mid and not dupes.seen(mid):
            delivered.append(mid)
        return HttpResponse(status=202)

    if sink_up:
        SimHttpServer(net, sink_host, 9000, sink_handler, workers=16)

    hold_store = HoldRetryStore(
        policy=FixedDelay(max_attempts=100_000, delay=hold_delay),
        default_ttl=horizon,
        clock=sim.clock,
    )
    config = SimMsgDispatcherConfig(
        connect_timeout=connect_timeout,
        response_timeout=5.0,
        breaker=breaker
        or BreakerConfig(consecutive_failures=3, open_for=2.0),
        hold_pump_interval=0.25,
    )
    dispatcher = SimMsgDispatcher(
        net, wsd_host, registry, own_address="http://wsd:8000/msg",
        config=config, metrics=metrics, traces=traces, hold_store=hold_store,
    )
    SimHttpServer(net, wsd_host, 8000, dispatcher.handler, workers=16)

    controller = ChaosController(net, FaultPlan(tuple(faults), seed=seed),
                                 metrics=metrics)
    controller.start()

    ids = IdGenerator("accept", seed=seed)
    pool = SimHttpClientPool(net, client_host, connect_timeout=5.0,
                             response_timeout=10.0)
    sent: list[str] = []
    send_errors = {"n": 0}

    def sender():
        for _ in range(messages):
            mid = ids.next()
            env = make_echo_message(to="urn:wsd:echo", message_id=mid)
            headers = Headers()
            headers.set("Content-Type", SOAP11_CONTENT_TYPE)
            request = HttpRequest("POST", "/msg/echo", headers=headers,
                                  body=env.to_bytes())
            sent.append(mid)
            try:
                yield from pool.exchange("wsd", 8000, request)
            except ReproError:
                send_errors["n"] += 1
            yield sim.timeout(send_gap)

    sim.process(sender(), name="sender")
    return {
        "sim": sim, "net": net, "metrics": metrics,
        "dispatcher": dispatcher, "hold_store": hold_store,
        "sent": sent, "delivered": delivered, "arrivals": arrivals,
        "send_errors": send_errors, "horizon": horizon,
    }


ACCEPTANCE_FAULTS = (
    PacketLoss(host="sink", at=2.0, duration=20.0, rate=0.30),
    ServiceCrash(host="sink", at=8.0, restart_after=4.0),
    LinkFlap(host="sink", at=16.0, period=5.0, down_for=2.0, until=26.0),
)


def _run_acceptance():
    world = _build(SEED, ACCEPTANCE_FAULTS)
    world["sim"].run(until=world["horizon"])
    stats = world["dispatcher"].stats
    return {
        "sent": tuple(world["sent"]),
        "delivered": tuple(sorted(world["delivered"])),
        "raw_arrivals": world["arrivals"]["raw"],
        "send_errors": world["send_errors"]["n"],
        "hold": dict(world["hold_store"].stats),
        "pending": world["hold_store"].pending(),
        "counters": {
            k: stats.get(k, 0)
            for k in ("accepted", "delivered", "delivery_failures",
                      "held_for_retry", "held_breaker_open",
                      "held_requeued", "dropped_unroutable",
                      "dropped_destination_queue_full")
        },
        "breakers": world["dispatcher"].breakers.snapshot(),
    }


def test_zero_loss_under_chaos():
    out = _run_acceptance()
    assert out["send_errors"] == 0
    assert out["counters"]["accepted"] == len(out["sent"])
    # exactly-once past the DuplicateFilter: the unique set covers every
    # accepted message, with no drops and nothing left parked
    assert out["delivered"] == tuple(sorted(out["sent"]))
    assert out["raw_arrivals"] >= len(out["delivered"])
    assert out["hold"]["expired"] == 0
    assert out["pending"] == 0
    assert out["counters"]["dropped_unroutable"] == 0
    assert out["counters"]["dropped_destination_queue_full"] == 0
    # the chaos actually bit: some deliveries failed and were retried
    assert out["counters"]["delivery_failures"] > 0
    assert out["counters"]["held_for_retry"] > 0


def test_same_seed_is_bit_reproducible():
    assert _run_acceptance() == _run_acceptance()


def test_open_breaker_throttles_dead_destination_to_probe_rate():
    horizon = 30.0
    open_for = 2.0
    world = _build(
        SEED,
        faults=(ServiceCrash(host="sink", at=0.0),),  # dead for good
        messages=20,
        send_gap=0.1,
        horizon=horizon,
        connect_timeout=0.5,
        hold_delay=0.1,
        breaker=BreakerConfig(consecutive_failures=3, open_for=open_for),
        sink_up=False,
    )
    # one message per wire attempt: delivery_failures then counts connects
    world["dispatcher"].config.batch_size = 1
    world["sim"].run(until=horizon)
    stats = world["dispatcher"].stats
    # network attempts: the initial trip plus ~one probe per open_for
    # window — far fewer than the 20 queued messages retrying at 0.1s
    attempts = stats.get("delivery_failures", 0)
    assert 3 <= attempts <= 3 + int(horizon / open_for) + 3
    # everything else was refused locally by the open breaker
    assert stats.get("held_breaker_open", 0) > attempts
    snap = world["dispatcher"].breakers.snapshot()
    dest = snap["destinations"]["sink:9000"]
    assert dest["state"] in ("open", "half_open")
    assert dest["transitions"] >= 1
    assert snap["rejected"] == stats.get("held_breaker_open", 0)


def test_metrics_and_introspection_show_breakers_and_holds():
    world = _build(SEED, faults=(ServiceCrash(host="sink", at=0.0),),
                   messages=20, send_gap=0.1, horizon=15.0,
                   connect_timeout=0.5, hold_delay=0.1, sink_up=False)
    dispatcher = world["dispatcher"]
    world["sim"].run(until=5.0)
    rendered = world["metrics"].render_prometheus()
    assert "rt_breaker_state" in rendered
    assert "rt_breaker_transitions_total" in rendered

    intro = Introspection(metrics=world["metrics"], traces=TraceStore())
    intro.add_health_source("msgd", dispatcher.health_snapshot)
    snapshot = intro.json_snapshot()
    health = snapshot["health"]["msgd"]
    assert health["breakers"]["states"]["open"] >= 1
    assert health["hold_store"]["pending"] > 0
    response = intro.health_handler(HttpRequest("GET", "/health"))
    assert response.status == 200
    assert b"breakers" in response.body
