"""The dispatcher's decisions, driven directly: a fake clock, a list for
an accept queue, no threads, no sockets, no simulator.

Each place where the threaded and the simulated dispatcher used to
disagree is settled in :class:`repro.core.dispatch.DispatchCore` and
pinned here once, for every driver.
"""

import ast
import asyncio
import pathlib
import re
from concurrent.futures import Future
from dataclasses import dataclass, field
from types import SimpleNamespace

import pytest

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

import repro.core.dispatch as dispatch
import repro.core.rpc as rpc
import repro.http.session as session
from repro.core.dispatch import PIPELINE, REQUEST, WAIT, DispatchCore, _OutboundItem
from repro.core.msg_dispatcher import MsgDispatcher, MsgDispatcherConfig
from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import SimMsgDispatcher, SimMsgDispatcherConfig
from repro.errors import ConnectionRefused
from repro.http import HttpRequest, HttpResponse
from repro.http.session import SLEEP
from repro.msgbox import MailboxStore, MsgBoxService
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.reliable import BreakerConfig, ExponentialBackoff, FixedDelay, HoldRetryStore
from repro.rt.service import SoapHttpApp
from repro.simnet.kernel import Simulator
from repro.simnet.topology import AccessLink, Network
from repro.soap import parse_envelope
from repro.store.journal import DEAD, MessageJournal
from repro.transport.base import Endpoint
from repro.util.clock import ManualClock
from repro.workload.echo import make_echo_message, make_echo_request
from repro.wsa import AddressingHeaders, EndpointReference

OWN = "http://wsd:8000/msg"
MAILBOX = "http://wsd:8000/mailbox"
PRIVATE = EndpointReference("http://client:7000/inbox")
COHOSTED = EndpointReference(MAILBOX + "/deposit/box-1")
TTL = 120.0


class Core(DispatchCore):
    """The core with the smallest possible driver: lists for queues."""

    def __init__(self, **config_kw):
        self.inbox: list[tuple] = []
        #: the destination queues; ``refuse`` is what they answer when set
        self.queued: list[_OutboundItem] = []
        self.refuse: str | None = None
        self.metrics_registry = MetricsRegistry()
        registry = ServiceRegistry()
        registry.register("echo", "http://ws:9000/echo")
        config = MsgDispatcherConfig(correlation_ttl=TTL, **config_kw)
        super().__init__(
            registry, OWN, "/msg", config, ManualClock(),
            metrics=self.metrics_registry, traces=TraceStore(enabled=False),
            durable=MessageJournal(sync="lazy"),
        )

    def _offer(self, work):
        self.inbox.append(work)
        return True

    def _try_enqueue(self, item):
        if self.refuse is not None:
            return self.refuse
        item.enqueued_at = self.clock.now()
        self.queued.append(item)
        return None

    def _accept_depth(self):
        return len(self.inbox)

    def backlog(self):
        return len(self.inbox)

    def _waiter(self):
        return Future()

    def request(self, message_id, reply_to=PRIVATE):
        """Route one client request; returns (outbound items, journal seq)."""
        msg = make_echo_message(
            to="urn:wsd:echo", message_id=message_id, reply_to=reply_to
        )
        jseq = self.journal_inbound("/msg/echo", msg.to_bytes())
        return self.route(msg, "/msg/echo", journal_seq=jseq), jseq

    def response(self, relates_to):
        """Route what a service posts back for ``relates_to``."""
        msg = make_echo_message(to="urn:wsd:echo", message_id=f"re:{relates_to}")
        headers = AddressingHeaders.from_envelope(msg)
        headers.relates_to.append(relates_to)
        headers.attach(msg)
        jseq = self.journal_inbound("/msg/echo", msg.to_bytes())
        return self.route(msg, "/msg/echo", journal_seq=jseq), jseq


def cohosted_core(**config_kw) -> Core:
    core = Core(**config_kw)
    app = SoapHttpApp()
    app.mount("/mailbox", MsgBoxService(MailboxStore(), base_url=MAILBOX))
    core.cohost({Endpoint("wsd", 8000): app})
    return core


# -- the module is substrate-free ---------------------------------------------

def imports_and_method_calls(module) -> "tuple[list[tuple[int, str]], list[tuple[int, str]]]":
    """(line, imported module or ``module.name``) and (line, ``.attr(`` called)."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    imports, calls = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports.append((node.lineno, node.module or ""))
            imports += [
                (node.lineno, f"{node.module}.{alias.name}") for alias in node.names
            ]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            imports.append((node.lineno, f"{node.value.id}.{node.attr}"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            calls.append((node.lineno, node.func.attr))
    return imports, calls


def assert_substrate_free(module, banned_imports, banned_calls) -> None:
    imports, calls = imports_and_method_calls(module)
    for lineno, name in imports:
        assert not any(
            name == b or name.startswith(b + ".") for b in banned_imports
        ), f"line {lineno}: the core imports {name}"
    for lineno, attr in calls:
        assert attr not in banned_calls, f"line {lineno}: the core calls .{attr}("


def test_the_core_imports_no_substrate_and_never_sleeps():
    assert_substrate_free(
        dispatch,
        ("asyncio", "socket", "repro.rt.client", "repro.aio", "repro.simnet"),
        ("sleep",),
    )


def test_the_rpc_core_imports_no_substrate_and_never_sleeps():
    assert_substrate_free(
        rpc,
        ("asyncio", "socket", "repro.rt.client", "repro.aio", "repro.simnet"),
        ("sleep", "request"),
    )


def test_the_client_core_imports_no_substrate_and_performs_no_effect():
    """It yields its four effects; nothing in it is ever sent to, received
    from or slept on."""
    assert_substrate_free(
        session,
        ("asyncio", "socket", "threading.Thread", "repro.rt", "repro.aio",
         "repro.simnet", "repro.transport.tcp"),
        ("sleep", "recv", "send"),
    )


def test_the_client_contract_is_written_once():
    """Each rule of the pipelining client has one home; the three wires
    hold no response parser, no timeout rule, no check-in test, no
    ``Retry-After`` parse and no loop over a batch of requests."""
    src = pathlib.Path(dispatch.__file__).resolve().parents[1]
    httpsim = (src / "simnet/httpsim.py").read_text(encoding="utf-8")
    wires = {
        "rt/client.py": (src / "rt/client.py").read_text(encoding="utf-8"),
        "aio/client.py": (src / "aio/client.py").read_text(encoding="utf-8"),
        # the client half: everything after the server class
        "simnet/httpsim.py": httpsim[httpsim.index("def _run("):],
    }
    core_text = pathlib.Path(session.__file__).read_text(encoding="utf-8")
    # the client half: everything before the server session
    core_text = core_text[:core_text.index("class ServerSession")]
    for marker in ("ResponseParser(", "except ConnectionTimeout", ".keep_alive",
                   'get("Retry-After")'):
        assert core_text.count(marker) == 1, marker
        for path, text in wires.items():
            assert marker not in text, f"{path}: {marker}"
    for path, text in wires.items():
        assert "ResponseParser" not in text, path
        loops = [n for n in ast.walk(ast.parse(text)) if isinstance(n, (ast.For, ast.AsyncFor))]
        assert not loops, f"{path}: line {loops[0].lineno if loops else 0} loops"


def test_the_server_contract_is_written_once():
    """The server's rules — parse, the ``Connection: close`` stamp, the
    keep-alive test, the serializer — live in ``ServerSession`` only."""
    src = pathlib.Path(dispatch.__file__).resolve().parents[1]
    core_text = pathlib.Path(session.__file__).read_text(encoding="utf-8")
    core_text = core_text[core_text.index("class ServerSession"):]
    for marker in ("RequestParser(", '"Connection", "close"', "serialize_response("):
        assert core_text.count(marker) == 1, marker
    for path in ("rt/server.py", "aio/server.py", "simnet/httpsim.py"):
        text = (src / path).read_text(encoding="utf-8")
        for marker in ("RequestParser", '"Connection", "close"',
                       "serialize_response", r"\.keep_alive\b"):
            assert not re.search(marker, text), f"{path}: {marker}"


# -- (a) a RelatesTo that hits an expired entry -------------------------------

def test_an_expired_correlation_is_dead_lettered_never_rerouted():
    core = Core()
    (forwarded,), _ = core.request("uuid:late")
    assert forwarded.target_url == "http://ws:9000/echo"
    core.clock.advance(TTL + 1.0)
    items, jseq = core.response("uuid:late")
    assert items == []
    assert core.stats.get("expired_correlations") == 1
    assert core.stats["routed_requests"] == 1  # not taken for a client request
    assert "routed_responses" not in core.stats
    record = core.durable.get(jseq)
    assert (record.state, record.reason) == (DEAD, "expired_correlation")
    assert core.pending_correlations() == 0


# -- (b) one family set, registered once ---------------------------------------

def families_of(build) -> set[str]:
    metrics = MetricsRegistry()
    build(metrics)
    return {family.name for family in metrics.families()}


def test_the_three_runtimes_expose_the_same_metric_families():
    quiet = dict(traces=TraceStore(enabled=False))

    def rt(metrics):
        MsgDispatcher(
            ServiceRegistry(), SimpleNamespace(), OWN, metrics=metrics, **quiet
        ).stop()

    def aio(metrics):
        from repro.aio import AioMsgDispatcher

        async def build():
            AioMsgDispatcher(
                ServiceRegistry(), SimpleNamespace(), OWN, metrics=metrics, **quiet
            ).stop()

        asyncio.run(build())

    def sim(metrics):
        net = Network(Simulator())
        host = net.add_host("wsd", AccessLink(5000, 5000, 0.005))
        SimMsgDispatcher(net, host, ServiceRegistry(), OWN, metrics=metrics, **quiet)

    expected = families_of(rt)
    assert expected == families_of(aio) == families_of(sim)
    assert {"msgd_retries_total", "dispatcher_drain_timeouts_total"} <= expected

    # and one client family set under them, named per runtime
    from repro.aio import AioHttpClient
    from repro.rt.client import HttpClient

    def suffixes(build, prefix) -> set[str]:
        return {name.removeprefix(prefix) for name in families_of(build)}

    client_families = suffixes(lambda m: HttpClient(None, metrics=m), "rt_client_")
    assert client_families == suffixes(lambda m: AioHttpClient(metrics=m), "aio_client_")
    assert client_families == {
        "requests_total", "request_seconds", "conn_reuse_total",
        "pipeline_bursts_total", "pipeline_replayed_total", "overload_waits_total",
    }


def test_every_dispatcher_family_is_registered_once_by_the_core():
    src = pathlib.Path(dispatch.__file__).resolve().parents[1]
    drivers = "".join(
        (src / path).read_text(encoding="utf-8")
        for path in (
            "core/msg_dispatcher.py", "core/sim_dispatcher.py",
            "aio/dispatcher.py",
        )
    )
    core_text = pathlib.Path(dispatch.__file__).read_text(encoding="utf-8")
    names = {
        family.name for family in Core().metrics_registry.families()
        if family.name.startswith(("msgd_", "dispatcher_"))
    }
    assert len(names) >= 12
    for name in names - {"msgd_stage_seconds"}:  # named in repro.obs.slo
        assert core_text.count(f'"{name}"') == 1, name
        assert f'"{name}"' not in drivers, name


def test_the_shed_label_is_the_drivers():
    core = Core(max_inflight=0)
    assert core.overloaded("/msg/echo", None, 0.0)
    assert 'dispatcher_shed_total{component="msgd"} 1' in (
        core.metrics_registry.render_prometheus()
    )
    net = Network(Simulator())
    host = net.add_host("wsd", AccessLink(5000, 5000, 0.005))
    metrics = MetricsRegistry()
    sim = SimMsgDispatcher(
        net, host, ServiceRegistry(), OWN, metrics=metrics,
        config=SimMsgDispatcherConfig(max_inflight=0),
    )
    assert sim.overloaded("/msg/echo", None, 0.0)
    assert 'dispatcher_shed_total{component="sim_msgd"} 1' in (
        metrics.render_prometheus()
    )


# -- (c) queue-wait is observed once, before the breaker gate ------------------

def destination_waits(core: Core) -> int:
    snapshot = core.metrics_registry.snapshot()["msgd_queue_wait_seconds"]
    return sum(
        sample["count"] for sample in snapshot["samples"]
        if sample["labels"] == {"queue": "destination"}
    )


def test_queue_wait_is_observed_once_and_before_the_breaker_gate():
    core = Core(breaker=BreakerConfig(consecutive_failures=1, open_for=60.0))
    item = _OutboundItem(b"<m/>", "http://ws:9000/echo", enqueued_at=core.clock.now())
    core.clock.advance(0.25)
    assert core.start_delivery([item])
    assert (destination_waits(core), item.attempts) == (1, 1)
    # an in-line retry comes back through the queue: not observed again
    assert core.start_delivery([item])
    assert (destination_waits(core), item.attempts) == (1, 2)
    # the breaker opens; a refused item has still waited in the queue
    core.record_outcome(item.target_url, False)
    blocked = _OutboundItem(b"<n/>", "http://ws:9000/echo", enqueued_at=core.clock.now())
    assert not core.start_delivery([blocked])
    assert (destination_waits(core), blocked.attempts) == (2, 0)
    assert core.stats.get("dropped_breaker_open") == 1


# -- (d) who routes: the thread that admitted, or the pool ---------------------

def addressed(to="urn:wsd:echo", relates_to=None, message_id="uuid:q"):
    msg = make_echo_message(to=to, message_id=message_id, reply_to=PRIVATE)
    headers = AddressingHeaders.from_envelope(msg)
    if relates_to:
        headers.relates_to.append(relates_to)
    return headers


# -- (d) the sync bridge: one wait, woken by the routing pass -----------------

def bridged(core: Core):
    """Start one bridged request: (steps, waiter, the item it queued)."""
    request = HttpRequest("POST", "/bridge/echo", body=make_echo_request().to_bytes())
    steps = core.bridge(request, 5.0, "/bridge")
    op, waiter, timeout = next(steps)
    assert (op, timeout) == (WAIT, 5.0)
    return steps, waiter, core.queued.pop()


def reply_to(item: _OutboundItem):
    """The service's one-way reply to a forwarded item."""
    sent = AddressingHeaders.from_envelope(parse_envelope(item.envelope_bytes))
    assert sent.reply_to.address == OWN  # the sentinel stayed in the table
    reply = make_echo_message(to=OWN, message_id=f"re:{sent.message_id}")
    headers = AddressingHeaders.from_envelope(reply)
    headers.relates_to.append(sent.message_id)
    headers.attach(reply)
    return reply


def test_the_bridge_answers_in_band_or_times_out():
    core = Core()
    steps, waiter, item = bridged(core)
    assert item.target_url == "http://ws:9000/echo"
    assert core.route(reply_to(item), "/msg/echo") == []
    with pytest.raises(StopIteration) as done:
        steps.send(waiter.result(0))
    assert done.value.value.status == 200
    assert core.stats["bridged_responses"] == 1

    # nothing before the timeout: 504, and the late reply goes nowhere
    steps, waiter, item = bridged(core)
    with pytest.raises(StopIteration) as done:
        steps.send(None)
    assert done.value.value.status == 504
    assert core.route(reply_to(item), "/msg/echo") == []
    assert not waiter.done()
    assert (core.stats["bridge_timeouts"], core.stats["bridged_responses"]) == (1, 1)
    assert core.pending_correlations() == 0


def test_routes_in_place_truth_table():
    core = Core()
    request, path = addressed(), "/msg/echo"
    idle = dict(pool_idle=True, may_enqueue=True)
    # (b) a name the lookup cache does not hold could mean a sweep: pool
    assert not core.routes_in_place(request, path, **idle)
    core.registry.resolve("echo")  # ... as the pool's pass does: now cached
    asked = core.registry.cache_stats()
    assert core.routes_in_place(request, path, **idle)
    # (a) something older is still unrouted; (c) not this thread's queues
    assert not core.routes_in_place(request, path, pool_idle=False, may_enqueue=True)
    assert not core.routes_in_place(request, path, pool_idle=True, may_enqueue=False)
    # addressing that did not decode is the pool's to drop as unroutable
    assert not core.routes_in_place(None, path, **idle)
    # no logical name in To or path (a routing error), or one never cached
    assert not core.routes_in_place(addressed(to="urn:other:x"), "/elsewhere", **idle)
    assert not core.routes_in_place(addressed(to="urn:wsd:ghost"), "/msg/ghost", **idle)
    # (b) again: every mutation, an outage and the TTL empty the peek
    core.registry.set_available(False)
    assert not core.routes_in_place(request, path, **idle)
    core.registry.set_available(True)
    assert core.routes_in_place(request, path, **idle)
    core.registry.register("echo", "http://ws:9001/echo")
    assert not core.routes_in_place(request, path, **idle)
    # the predicate asks, it never fills, counts or routes
    assert core.registry.cache_stats() == asked
    assert core.stats == {}


def test_a_response_to_a_pending_correlation_needs_no_registry():
    core = Core()
    core.request("uuid:pending")  # leaves a correlation entry; caches "echo"
    core.registry.register("echo", "http://ws:9000/echo")  # cache emptied again
    idle = dict(pool_idle=True, may_enqueue=True)
    reply = addressed(to=OWN, relates_to="uuid:pending", message_id="uuid:re")
    assert core.routes_in_place(reply, "/msg", **idle)
    assert not core.routes_in_place(reply, "/msg", pool_idle=False, may_enqueue=True)
    # RelatesTo that hits nothing is an ordinary request: back to the peek
    stray = addressed(relates_to="uuid:nobody")
    assert not core.routes_in_place(stray, "/msg/echo", **idle)
    core.registry.resolve("echo")
    assert core.routes_in_place(stray, "/msg/echo", **idle)
    assert core.pending_correlations() == 1  # asked about, not popped


def test_addressing_decoded_at_admission_is_what_route_uses():
    core = Core()
    msg = make_echo_message(to="urn:wsd:echo", message_id="uuid:once", reply_to=PRIVATE)
    headers = core.addressing_of(msg)
    assert headers == AddressingHeaders.from_envelope(msg)
    calls = []
    real = AddressingHeaders.from_envelope.__func__

    def counted(cls, envelope):
        calls.append(envelope)
        return real(cls, envelope)

    AddressingHeaders.from_envelope = classmethod(counted)
    try:
        (with_headers,) = core.process((msg, "/msg/echo", None, 0.0, None, headers))
        assert calls == []  # neither route() nor the rewrite decoded again
        (bare,) = core.process((msg, "/msg/echo", None, 0.0, None))
        assert len(calls) == 1  # the simulator's five-field entry: once, in route()
    finally:
        AddressingHeaders.from_envelope = classmethod(real)
    assert with_headers.envelope_bytes == bare.envelope_bytes
    # a block that does not decode is left to the routing pass
    broken = make_echo_message(to="urn:wsd:echo", message_id="uuid:twice")
    broken.headers.append(broken.headers[0].copy())
    assert core.addressing_of(broken) is None
    assert core.process((broken, "/msg/echo", None, 0.0, None, None)) == []
    assert core.stats["dropped_unroutable"] == 1


# -- (e) one delivery step: where the three copies disagreed ----------------------
#
# ``DispatchCore.deliver`` driven with scripted wire outcomes.  The first
# four rows are places where rt/aio and the simulator used to differ; the
# simulator's rule won each (it feeds the seeded experiments).  The last
# two pin the in-line retry, which only rt and aio configure.

URL = "http://ws:9000/echo"


def run(steps, wire) -> list:
    """Perform ``steps``' effects: ``wire(op)`` is sent back, or thrown
    when it is an exception.  Returns the effects in order."""
    effects = []
    try:
        op, _url, _arg = next(steps)
        while True:
            effects.append(op)
            result = wire(op)
            if isinstance(result, Exception):
                op, _url, _arg = steps.throw(result)
            else:
                op, _url, _arg = steps.send(result)
    except StopIteration:
        return effects


def answer(outcome):
    """The wire's answer to any effect: ``outcome`` per request (a status
    or an exception), nothing for a sleep."""
    def wire(op):
        if op is SLEEP:
            return None
        if isinstance(outcome, Exception):
            return outcome
        response = HttpResponse(status=outcome)
        return [response, response] if op is PIPELINE else response
    return wire


@dataclass
class DeliveryRow:
    name: str
    #: the batch: "fresh" items the routing pass queued, or "held" — one
    #: message the hold pump put back on the queue (requeue_due)
    batch: str
    outcome: object
    effects: list
    stats: dict
    config: dict = field(default_factory=dict)
    open_breaker: bool = False
    refuse: str | None = None
    #: hold store entries left (None: no hold store)
    pending: int | None = None
    #: extra checks on the core after the step
    then: object = None


def breaker_failures(core) -> int:
    return core.breakers.snapshot()["destinations"]["ws:9000"]["consecutive_failures"]


DELIVERY_ROWS = [
    # rt/aio recorded one breaker outcome for the failed lease
    DeliveryRow(
        "burst-without-a-connection-fails-every-slot", "fresh",
        ConnectionRefused("nothing listening"), [PIPELINE],
        {"delivery_failures": 2},
        config={"breaker": BreakerConfig(consecutive_failures=10, open_for=60.0)},
        then=lambda core: breaker_failures(core) == 2,
    ),
    # shard workers configure retries; rt/aio used them on redeliveries
    DeliveryRow(
        "held-redelivery-is-one-attempt-per-claim", "held", 500, [REQUEST],
        {"held_requeued": 1, "delivery_failures": 1, "held_for_retry": 1},
        config={"retry": ExponentialBackoff(max_attempts=5, jitter=False)},
        pending=1,
        then=lambda core: "retries" not in core.stats
        and core.hold_store.take_due(core.clock.now()) == [],
    ),
    # rt/aio counted held_redelivered, and a direct redelivery neither
    # counted delivered nor waited in (or was observed leaving) a queue
    DeliveryRow(
        "held-redelivery-counts-delivered-and-its-queue-wait", "held", 202,
        [REQUEST], {"held_requeued": 1, "delivered": 1}, pending=0,
        then=lambda core: "held_redelivered" not in core.stats
        and destination_waits(core) == 1
        and core.hold_store.stats["delivered"] == 1,
    ),
    # rt/aio raised BreakerOpenError into the store
    DeliveryRow(
        "open-breaker-parks-a-redelivery", "held", 202, [],
        {"held_requeued": 1, "held_breaker_open": 1},
        config={"breaker": BreakerConfig(consecutive_failures=1, open_for=60.0)},
        open_breaker=True, pending=1,
    ),
    # a fresh item still retries in line: back off, back on its queue
    DeliveryRow(
        "fresh-failure-retries-in-line", "fresh", 500, [PIPELINE, SLEEP, SLEEP],
        {"retries": 2},
        config={"retry": FixedDelay(max_attempts=2, delay=0.5)},
        then=lambda core: len(core.queued) == 2,
    ),
    # rt/aio counted delivery_failures and nothing else: the item vanished
    DeliveryRow(
        "a-retry-the-queue-refuses-is-dropped-not-lost", "fresh", 500,
        [PIPELINE, SLEEP, SLEEP],
        {"retries": 2, "delivery_failures": 2},
        config={"retry": FixedDelay(max_attempts=2, delay=0.5)},
        refuse="destination_queue_full",
        then=lambda core: 'msgd_dropped_total{reason="delivery_failure"} 2'
        in core.metrics_registry.render_prometheus(),
    ),
]


@pytest.mark.parametrize("row", DELIVERY_ROWS, ids=[r.name for r in DELIVERY_ROWS])
def test_the_delivery_step(row):
    core = Core(**row.config)
    if row.pending is not None:
        core.hold_store = HoldRetryStore(
            policy=FixedDelay(max_attempts=10, delay=5.0), clock=core.clock
        )
    if row.open_breaker:
        core.record_outcome(URL, False)
    if row.batch == "held":
        core.hold_store.hold("uuid:held", URL, b"<held/>")
        core.requeue_due(core.clock.now())
        batch, core.queued = core.queued, []
    else:
        batch = [
            _OutboundItem(b"<m%d/>" % i, URL, message_id=f"uuid:{i}",
                          enqueued_at=core.clock.now())
            for i in range(2)
        ]
    core.refuse = row.refuse
    core.clock.advance(0.25)
    assert run(core.deliver(batch), answer(row.outcome)) == row.effects
    assert {name: core.stats.get(name) for name in row.stats} == row.stats
    if row.pending is not None:
        assert core.hold_store.pending() == row.pending
    if row.then is not None:
        assert row.then(core)


# -- (f) the correlation table, as a state machine -----------------------------

class CorrelationMachine(RuleBasedStateMachine):
    """An entry leaves by pop (its reply came), with the delivery (every
    EPR passed through and the service did not answer in-band) or by the
    head sweep (its TTL ran out) — never otherwise — and nothing is left
    at quiescence."""

    def __init__(self):
        super().__init__()
        self.core = cohosted_core()
        self.model: dict[str, tuple[float, bool]] = {}  # id -> (expiry, passed)
        self.in_flight: dict[str, _OutboundItem] = {}
        self.sent = 0

    def sweep(self):
        now = self.core.clock.now()
        for mid in list(self.model):
            if self.model[mid][0] >= now:
                break
            del self.model[mid]

    def send(self, message_id, reply_to):
        (item,), _ = self.core.request(message_id, reply_to)
        self.in_flight[message_id] = item
        self.sweep()
        if reply_to is not None:
            self.model.pop(message_id, None)  # a re-send moves to the back
            self.model[message_id] = (
                self.core.clock.now() + TTL, reply_to is COHOSTED
            )

    @rule(reply_to=st.sampled_from([PRIVATE, COHOSTED, None]))
    def request(self, reply_to):
        self.sent += 1
        self.send(f"uuid:{self.sent}", reply_to)

    @rule(data=st.data())
    def resend(self, data):
        if self.model:
            mid = data.draw(st.sampled_from(sorted(self.model)))
            self.send(mid, COHOSTED if self.model[mid][1] else PRIVATE)

    @rule(data=st.data())
    def reply(self, data):
        if not self.sent:
            return
        mid = f"uuid:{data.draw(st.integers(1, self.sent))}"
        items, _ = self.core.response(mid)
        entry = self.model.pop(mid, None)
        live = entry is not None and entry[0] >= self.core.clock.now()
        if entry is None:
            # no such entry: an ordinary request, which sweeps like one
            assert items[0].target_url == "http://ws:9000/echo"
            self.sweep()
        else:
            assert len(items) == (1 if live else 0)

    @rule(data=st.data())
    def delivered(self, data):
        if self.in_flight:
            mid = data.draw(st.sampled_from(sorted(self.in_flight)))
            item = self.in_flight.pop(mid)
            self.core.finish_delivery(item, HttpResponse(status=202), 0.0, 0.0, None)
            if mid in self.model and self.model[mid][1]:
                del self.model[mid]

    @rule(seconds=st.sampled_from([1.0, 50.0, TTL + 1.0]))
    def advance(self, seconds):
        self.core.clock.advance(seconds)

    @invariant()
    def the_table_is_the_model(self):
        # the sweep is lazy: the table may still hold expired heads
        now = self.core.clock.now()
        live = [mid for mid, (expiry, _) in self.model.items() if expiry >= now]
        table = list(self.core._correlations)
        assert [mid for mid in table if mid in live] == live
        assert set(table) <= set(self.model)

    def teardown(self):
        self.core.clock.advance(TTL + 1.0)
        self.core.request("uuid:last", None)  # one more routed message sweeps
        assert self.core.pending_correlations() == 0


TestCorrelationTable = CorrelationMachine.TestCase
TestCorrelationTable.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
