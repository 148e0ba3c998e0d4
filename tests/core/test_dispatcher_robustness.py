"""Hold-store parking and redelivery — the same semantic matrix asserted
against the threaded and asyncio dispatchers via the ``dispatcher_backend``
fixture, and the hold-redelivery cases on the simulator as well."""

import threading

import pytest

from repro.core.msg_dispatcher import MsgDispatcherConfig
from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import SimMsgDispatcher, SimMsgDispatcherConfig
from repro.errors import TransportError
from repro.http import HttpResponse
from repro.http.session import soap_post
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore, ensure_trace
from repro.reliable import FixedDelay, HoldRetryStore
from repro.rt.service import RequestContext
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.kernel import Simulator
from repro.simnet.topology import AccessLink, Network
from repro.soap import parse_envelope
from repro.store.journal import MessageJournal
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message
from tests.conftest import wait_for


class FakeClient:
    """Counts requests; fails while ``failing`` is set."""

    def __init__(self, failing=True):
        self.failing = failing
        self.calls = 0

    def request(self, url, request):
        self.calls += 1
        if self.failing:
            raise TransportError(f"injected failure for {url}")
        return HttpResponse(status=202)

    def prepare(self, url, request):
        return request

    def close(self):
        pass


def make_dispatcher(
    backend, client, metrics, hold_store=None, registry=None, **kwargs
):
    if registry is None:
        registry = ServiceRegistry()
        registry.register("echo", "http://dead:9000/echo")
    config_kw = {
        k: kwargs.pop(k)
        for k in ("dedupe_window", "hold_pump_interval")
        if k in kwargs
    }
    config = MsgDispatcherConfig(
        cx_threads=1, ws_threads=2, batch_size=1, **config_kw
    )
    return backend.make_dispatcher(
        registry, client, own_address="http://wsd:8000/msg", config=config,
        metrics=metrics, traces=TraceStore(enabled=False),
        hold_store=hold_store, **kwargs,
    )


def feed(dispatcher, n, seed=1):
    ids = IdGenerator("rob", seed=seed)
    for _ in range(n):
        env = make_echo_message(to="urn:wsd:echo", message_id=ids.next())
        dispatcher.handle(env, RequestContext(path="/msg/echo"))


# -- hold redelivery: one protocol, three runtimes ------------------------------
#
# A held message goes back through its destination queue and is done only
# when that delivery succeeds.  The cases below run on the simulator too:
# there the destination is a SimHttpServer sink (500 while failing) and
# time moves only inside ``wait_for``.


class LiveRig:
    """rt / aio: the fake client is the destination, time is the wall's."""

    def __init__(self, backend) -> None:
        self.backend = backend
        self.sink = FakeClient(failing=True)

    def store(self, **kwargs) -> HoldRetryStore:
        return HoldRetryStore(**kwargs)

    def dispatcher(self, metrics, **kwargs):
        return make_dispatcher(self.backend, self.sink, metrics, **kwargs)

    def feed(self, dispatcher, n, seed=1) -> None:
        feed(dispatcher, n, seed)

    def send(self, dispatcher, body: bytes) -> None:
        dispatcher.handle(parse_envelope(body), RequestContext(path="/msg/echo"))

    wait_for = staticmethod(wait_for)


class SimSink:
    """The simulated destination: counts requests, 500 while ``failing``."""

    def __init__(self) -> None:
        self.failing = True
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
        return HttpResponse(status=500 if self.failing else 202)


class SimRig:
    """sim: the same dispatcher on the event kernel, the sink serving on
    both hosts the registries below name."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.net = Network(self.sim)
        link = AccessLink(5000, 5000, 0.005)
        self.host = self.net.add_host("wsd", link)
        self.sink = SimSink()
        for name in ("dead", "ws"):
            SimHttpServer(self.net, self.net.add_host(name, link), 9000, self.sink)

    def store(self, **kwargs) -> HoldRetryStore:
        return HoldRetryStore(clock=self.sim.clock, **kwargs)

    def dispatcher(
        self, metrics, hold_store, registry=None,
        hold_pump_interval=0.25, dedupe_window=None, flight=None,
    ):
        if registry is None:
            registry = ServiceRegistry()
            registry.register("echo", "http://dead:9000/echo")
        config = SimMsgDispatcherConfig(
            cx_workers=1, ws_workers=2, batch_size=1,
            hold_pump_interval=hold_pump_interval, dedupe_window=dedupe_window,
        )
        return SimMsgDispatcher(
            self.net, self.host, registry, own_address="http://wsd:8000/msg",
            config=config, metrics=metrics, traces=TraceStore(enabled=False),
            hold_store=hold_store, flight=flight,
        )

    def feed(self, dispatcher, n, seed=1) -> None:
        ids = IdGenerator("rob", seed=seed)
        for _ in range(n):
            env = make_echo_message(to="urn:wsd:echo", message_id=ids.next())
            self.send(dispatcher, env.to_bytes())

    def send(self, dispatcher, body: bytes) -> None:
        self.sim.process(dispatcher.handler(soap_post(body, "/msg/echo")))

    def wait_for(self, predicate, timeout=5.0) -> bool:
        deadline = self.sim.now + timeout
        while not predicate():
            if self.sim.now >= deadline:
                return False
            self.sim.run(until=self.sim.now + 0.01)
        return True


@pytest.fixture
def rig(dispatcher_backend):
    if dispatcher_backend.kind == "sim":
        return SimRig()
    return LiveRig(dispatcher_backend)


EVERY_RUNTIME = pytest.mark.parametrize(
    "dispatcher_backend", ["rt", "aio", "sim"], indirect=True
)


@EVERY_RUNTIME
def test_a_dead_destination_is_held_then_redelivered(rig):
    metrics = MetricsRegistry()
    hold_store = rig.store(
        policy=FixedDelay(max_attempts=1000, delay=0.05), default_ttl=600.0
    )
    dispatcher = rig.dispatcher(
        metrics, hold_store=hold_store, hold_pump_interval=0.05,
    )
    try:
        rig.feed(dispatcher, 5)
        # every delivery fails and is held; each failed redelivery is
        # held again until the destination answers
        assert rig.wait_for(lambda: hold_store.pending() == 5), dispatcher.stats
        assert dispatcher.stats.get("held_for_retry", 0) >= 5
        rig.sink.failing = False  # the destination comes back
        # the pump drains the store through the destination queue
        assert rig.wait_for(lambda: hold_store.pending() == 0, timeout=10.0), (
            dispatcher.stats, hold_store.stats,
        )
        assert rig.wait_for(lambda: dispatcher.stats.get("delivered", 0) == 5)
        assert dispatcher.stats["held_requeued"] >= 5
        assert hold_store.stats["delivered"] == 5
        assert hold_store.stats["expired"] == 0
    finally:
        dispatcher.stop()


@pytest.mark.parametrize(
    "dispatcher_backend", ["rt", "aio", "rt-sharded", "aio-sharded", "sim"],
    indirect=True,
)
def test_registry_outage_parks_then_redelivers(rig):
    """RegistryUnavailable mid-drain parks the message pre-resolution;
    when the registry comes back the pump re-routes and delivers it —
    without the redelivery being absorbed as a duplicate.  The sharded
    classes run it too: shard ownership is a rule of the same routing
    pass, so the from-hold path cannot be shadowed."""
    metrics = MetricsRegistry()
    rig.sink.failing = False
    registry = ServiceRegistry()
    registry.register("echo", "http://ws:9000/echo")
    registry.set_available(False)
    hold_store = rig.store(
        policy=FixedDelay(max_attempts=1000, delay=0.05), default_ttl=600.0
    )
    dispatcher = rig.dispatcher(
        metrics, hold_store=hold_store, registry=registry,
        hold_pump_interval=0.05, dedupe_window=600.0,
    )
    try:
        rig.feed(dispatcher, 3)
        assert rig.wait_for(
            lambda: dispatcher.stats.get("hold_registry_unavailable", 0) == 3
        ), dispatcher.stats
        # parked, not dead-lettered, and the dead registry was never a
        # reason to touch the network
        assert dispatcher.stats.get("dropped_unroutable", 0) == 0
        assert hold_store.pending() == 3
        assert rig.sink.calls == 0

        registry.set_available(True)
        assert rig.wait_for(lambda: hold_store.pending() == 0, timeout=10.0), (
            dispatcher.stats, hold_store.stats,
        )
        assert rig.wait_for(
            lambda: dispatcher.stats.get("delivered", 0) == 3
        ), dispatcher.stats
        assert rig.sink.calls == 3
        # the MessageIDs were recorded on the admission pass that parked
        # them; the from-hold routing pass must skip the duplicate filter
        assert dispatcher.stats.get("duplicates_suppressed", 0) == 0
        assert hold_store.stats["delivered"] == 3
    finally:
        dispatcher.stop()


# -- a message's fate is one flight event under its trace id ----------------------
#
# A message the dispatcher drops, holds or suppresses as a duplicate has no
# span that says so: ``GET /flightrecorder?kind=<fate>`` is where its story
# ends, keyed by the trace id ``GET /trace/<id>`` shows the rest of it under.

FATES = [
    # fate, the counter that moves when it happens, the field that says why
    ("drop", "dropped_unroutable", ("reason", "unroutable")),
    ("hold", "held_for_retry", ("reason", "delivery_failure")),
    ("duplicate", "duplicates_suppressed", ("message_id", "uuid:fate")),
]


@EVERY_RUNTIME
@pytest.mark.parametrize(
    "fate, counter, field", FATES, ids=[row[0] for row in FATES]
)
def test_a_message_fate_is_one_flight_event_under_its_trace_id(
    rig, fate, counter, field
):
    flight = FlightRecorder()
    # no service by the name "nowhere": routing drops it as unroutable
    to = "urn:wsd:nowhere" if fate == "drop" else "urn:wsd:echo"
    env = make_echo_message(to=to, message_id="uuid:fate")
    trace_id = ensure_trace(env).trace_id
    hold_store = None
    if fate == "hold":
        hold_store = rig.store(
            policy=FixedDelay(max_attempts=1000, delay=30.0), default_ttl=600.0
        )
    if fate == "duplicate":
        rig.sink.failing = False
    dispatcher = rig.dispatcher(
        MetricsRegistry(), hold_store=hold_store, flight=flight,
        dedupe_window=600.0 if fate == "duplicate" else None,
    )
    try:
        for _ in range(2 if fate == "duplicate" else 1):
            rig.send(dispatcher, env.to_bytes())
        assert rig.wait_for(
            lambda: dispatcher.stats.get(counter, 0) == 1
        ), dispatcher.stats
        events = [e for e in flight.snapshot() if e.get("trace") == trace_id]
        assert [e["kind"] for e in events] == [fate]
        key, value = field
        assert events[0][key] == value
        assert flight.snapshot(kind=fate, last=1) == events
    finally:
        dispatcher.stop()


# -- a hold entry is done when its redelivery is delivered ------------------------


class GatedClient(FakeClient):
    """Answers once ``release`` is set; ``entered`` says an exchange is on
    the wire."""

    def __init__(self) -> None:
        super().__init__(failing=False)
        self.entered, self.release = threading.Event(), threading.Event()

    def request(self, url, request):
        self.entered.set()
        assert self.release.wait(5.0)
        return super().request(url, request)


def test_a_redelivery_stays_journaled_until_it_is_delivered(dispatcher_backend):
    """A message parked in a registry outage is done when its redelivery
    is delivered, not when the pump queues it: a SIGKILL while that
    exchange is on the wire must find its ``held`` record still open."""
    client = GatedClient()
    registry = ServiceRegistry()
    registry.register("echo", "http://ws:9000/echo")
    registry.set_available(False)
    journal = MessageJournal(sync="lazy")
    hold_store = HoldRetryStore(
        policy=FixedDelay(max_attempts=1000, delay=0.05), default_ttl=600.0,
        durable=journal,
    )
    dispatcher = make_dispatcher(
        dispatcher_backend, client, MetricsRegistry(), hold_store=hold_store,
        registry=registry, hold_pump_interval=0.05,
    )
    try:
        feed(dispatcher, 1)
        assert wait_for(
            lambda: dispatcher.stats.get("hold_registry_unavailable", 0) == 1
        ), dispatcher.stats
        (held,) = journal.undelivered(kind="held")
        registry.set_available(True)
        assert client.entered.wait(5.0)
        # re-routed, queued and on the wire — and not done
        assert [r.seq for r in journal.undelivered(kind="held")] == [held.seq]
        assert hold_store.pending() == 1
        client.release.set()
        assert wait_for(lambda: dispatcher.stats.get("delivered", 0) == 1)
        assert journal.undelivered(kind="held") == []
        assert hold_store.pending() == 0
    finally:
        client.release.set()
        dispatcher.stop()
        journal.close()


class FailureFirstStore(HoldRetryStore):
    """``complete`` waits (a bounded while) until a failed wire attempt
    has been rescheduled: the order a fast failure takes when the pump
    completes an entry right after queueing its redelivery."""

    def __init__(self, client, **kwargs) -> None:
        super().__init__(**kwargs)
        self.client = client
        self.failed = threading.Event()
        self.sweeps = 0

    def take_due(self, now=None):
        self.sweeps += 1
        return super().take_due(now)

    def reschedule(self, message_id, now=None):
        kept = super().reschedule(message_id, now)
        if self.client.calls:  # a wire attempt, not a routing pass, failed
            self.failed.set()
        return kept

    def complete(self, message_id):
        self.failed.wait(1.0)
        return super().complete(message_id)


def test_a_failed_redelivery_stays_held(dispatcher_backend):
    """The first redelivery fails before the pump moves on: the entry is
    rescheduled and still held — never completed, never held afresh."""
    client = FakeClient(failing=True)
    registry = ServiceRegistry()
    registry.register("echo", "http://ws:9000/echo")
    registry.set_available(False)
    hold_store = FailureFirstStore(
        client, policy=FixedDelay(max_attempts=1000, delay=0.05),
        default_ttl=600.0,
    )
    dispatcher = make_dispatcher(
        dispatcher_backend, client, MetricsRegistry(), hold_store=hold_store,
        registry=registry, hold_pump_interval=0.05,
    )
    try:
        feed(dispatcher, 1)
        assert wait_for(
            lambda: dispatcher.stats.get("hold_registry_unavailable", 0) == 1
        ), dispatcher.stats
        registry.set_available(True)
        assert hold_store.failed.wait(5.0)
        # one more sweep: whatever the pump did after queueing is over
        sweeps = hold_store.sweeps
        assert wait_for(lambda: hold_store.sweeps > sweeps)
        assert hold_store.pending() == 1
        assert hold_store.stats["delivered"] == 0
        assert hold_store.stats["held"] == 1
    finally:
        dispatcher.stop()


def test_registry_outage_without_hold_store_dead_letters(dispatcher_backend):
    metrics = MetricsRegistry()
    client = FakeClient(failing=False)
    registry = ServiceRegistry()
    registry.register("echo", "http://ws:9000/echo")
    registry.set_available(False)
    dispatcher = make_dispatcher(
        dispatcher_backend, client, metrics, registry=registry
    )
    try:
        feed(dispatcher, 2)
        assert wait_for(
            lambda: dispatcher.stats.get("dropped_unroutable", 0) == 2
        ), dispatcher.stats
        assert client.calls == 0
    finally:
        dispatcher.stop()
