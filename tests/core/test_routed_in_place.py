"""Routed where it is admitted: the thread that accepts a message runs the
routing pass itself (paper Fig. 3) whenever
:meth:`DispatchCore.routes_in_place` allows, and the accept queue with its
pool takes the rest.  Two properties, held by events and never by
timing: nothing overtakes an older admission still in the pool; an aio
admission from off the loop never touches loop-bound state.  A routing
pass never waits — a registry lookup is a map read — so the first
message to a name is routed where it is admitted.  And what an
admission *means* — journal-before-ack, the 202 in front of every drop —
is what it was.

``backend.call(fn)`` runs ``fn`` on the thread a connection's handler runs
on: the test's own for rt, the loop's for aio.
"""

import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core.msg_dispatcher import MsgDispatcherConfig
from repro.core.registry import ServiceRegistry
from repro.errors import ReproError
from repro.http import HttpResponse
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.rt.service import RequestContext
from repro.soap import parse_envelope
from repro.store import DEAD, MessageJournal
from repro.workload.echo import make_echo_message
from repro.wsa import AddressingHeaders
from tests.conftest import DispatcherBackend, wait_for

CTX = RequestContext(path="/msg/echo")
#: how long a message that *could* overtake is given to do so before the
#: one parked in front of it is released (it never can: the wait runs out)
GRACE = 0.3


def message_id_of(envelope) -> str:
    return AddressingHeaders.from_envelope(envelope).message_id


def echo(message_id):
    return make_echo_message(to="urn:wsd:echo", message_id=message_id)


class Sink:
    """The dispatcher's HTTP client: what reached the destination, in the
    order it did, and on which thread."""

    def __init__(self):
        self.arrived: list[str] = []
        self.threads: list[int] = []

    def prepare(self, url, request):
        return request

    def request(self, url, request):
        self.arrived.append(message_id_of(parse_envelope(request.body)))
        self.threads.append(threading.get_ident())
        return HttpResponse(status=202)

    def close(self):
        pass


class Resolving:
    """A registry whose ``resolve`` — the step of the routing pass that
    maps the name — records the thread it runs on and then calls
    ``on_resolve(n)``, ``n`` counting the calls from 1."""

    def __init__(self, on_resolve=None):
        self.on_resolve = on_resolve
        self.threads: list[int] = []

    def resolve(self, logical):
        self.threads.append(threading.get_ident())
        if self.on_resolve is not None:
            self.on_resolve(len(self.threads))
        return "http://ws:9000/echo"


class Parking(Resolving):
    """Parks the routing pass of the ``park``-th message to be resolved
    (0: none) until released."""

    def __init__(self, park: int):
        super().__init__(self._maybe_park)
        self.park = park
        self.parked = threading.Event()
        self.release = threading.Event()

    def _maybe_park(self, n):
        if n == self.park:
            self.parked.set()
            assert self.release.wait(10), "never released"


def echo_registry():
    """The paper's registry, holding ``echo`` and never asked for it."""
    registry = ServiceRegistry(metrics=MetricsRegistry())
    registry.register("echo", "http://ws:9000/echo")
    return registry


def make(backend, sink, registry=None, then=None, **kwargs):
    config_kw = {
        k: kwargs.pop(k)
        for k in ("cx_threads", "ws_threads") if k in kwargs
    }
    config_kw.setdefault("cx_threads", 1)
    config_kw.setdefault("ws_threads", 2)
    kwargs.setdefault("metrics", MetricsRegistry())
    return backend.make_dispatcher(
        registry or echo_registry(), sink, then=then,
        own_address="http://wsd:8000/msg",
        config=MsgDispatcherConfig(batch_size=1, **config_kw),
        traces=TraceStore(enabled=False), **kwargs,
    )


def pool_is_idle(dispatcher) -> bool:
    """Nothing on the accept queue or in a routing worker's hands (the
    dispatcher's own condition for routing in place)."""
    return not dispatcher._unrouted


def routed(dispatcher) -> tuple[int, int]:
    health = dispatcher.health_snapshot()
    return health["routed_in_place"], health["routed_pooled"]


# -- (1) nothing overtakes an older admission ------------------------------------

def test_two_messages_of_one_connection_arrive_in_admission_order(dispatcher_backend):
    """A connection's worker admits strictly one after the other.  With a
    pool in between, a second CxThread could take the second message while
    the first was still being resolved — and the destination FIFO saw
    them swapped."""
    sink, registry = Sink(), Parking(1)
    dispatcher = make(dispatcher_backend, sink, registry=registry, cx_threads=4)

    def connection():
        dispatcher.handle(echo("uuid:first"), CTX)
        dispatcher.handle(echo("uuid:second"), CTX)

    worker = threading.Thread(target=dispatcher_backend.call, args=(connection,))
    try:
        worker.start()
        assert registry.parked.wait(5)
        overtook = wait_for(lambda: "uuid:second" in sink.arrived, timeout=GRACE)
        registry.release.set()
        worker.join(5)
        assert not worker.is_alive()
        assert wait_for(lambda: len(sink.arrived) == 2)
        assert not overtook
        assert sink.arrived == ["uuid:first", "uuid:second"]
        assert routed(dispatcher) == (2, 0)
    finally:
        registry.release.set()
        dispatcher.stop()


def test_an_admission_waits_behind_a_replay_still_in_the_pool(dispatcher_backend):
    """``recover()`` replays through the accept queue.  While one replay is
    queued or in a routing worker's hands, a fresh admission — this thread
    free to route it — still goes behind them."""
    journal = MessageJournal(sync="lazy", flush_threshold=1)
    for mid in ("uuid:replay-1", "uuid:replay-2"):
        journal.append(mid, "/msg/echo", echo(mid).to_bytes(), kind="inbound")
    aio = dispatcher_backend.kind == "aio"
    sink, registry = Sink(), Parking(0 if aio else 1)

    def admit_late(dispatcher):
        dispatcher.handle(echo("uuid:late"), CTX)

    # aio: admitted in the constructor's own loop step — both replays are
    # still queued, the routing task has not had a turn (nothing needs
    # parking, and parking would stop the loop under the fixture).  rt:
    # admitted once the one CxThread holds the first replay, parked, with
    # the second queued behind it.
    dispatcher = make(
        dispatcher_backend, sink, registry=registry, durable=journal,
        then=admit_late if aio else None,
    )
    try:
        if not aio:
            assert registry.parked.wait(5)
            admit_late(dispatcher)  # returns: it queued, it did not park
            assert not wait_for(lambda: "uuid:late" in sink.arrived, timeout=GRACE)
            registry.release.set()
        assert wait_for(lambda: len(sink.arrived) == 3)
        assert sink.arrived == ["uuid:replay-1", "uuid:replay-2", "uuid:late"]
        assert routed(dispatcher) == (0, 3)
        # the pool drained: the next admission is routed where it is made
        assert wait_for(lambda: pool_is_idle(dispatcher))
        dispatcher_backend.call(lambda: dispatcher.handle(echo("uuid:next"), CTX))
        assert routed(dispatcher) == (1, 3)
    finally:
        registry.release.set()
        dispatcher.stop(drain=True)
        journal.close()


def test_every_connection_keeps_its_order_while_the_two_paths_interleave():
    """Stress: more admitting threads than cores, a switch interval that
    preempts everywhere, and a filler offered to the pool over and over,
    whose routing pass waits until an admission has queued behind it, so
    admissions flip between the pool and their own thread (each
    connection sends a burst, then waits for it to arrive, as a caller
    behind a firewall does — or a backlog would keep every admission in
    the pool).  With one CxThread each connection's messages must reach
    the destination in the order it sent them, every message exactly
    once, and the count of unrouted admissions — the one piece of state
    the two paths share — must come back to zero."""
    connections, each, burst = 4, 150, 5
    sink = Sink()
    sending = threading.Event()
    sending.set()

    def hold_the_filler(logical):
        # a filler leaves the pool only once an admission queued behind it
        if logical == "filler":
            while sending.is_set() and dispatcher._unrouted < 2:
                sending.wait(0.001)
        return "http://ws:9000/echo"

    dispatcher = make(
        DispatcherBackend("rt"), sink,
        registry=SimpleNamespace(resolve=hold_the_filler), cx_threads=1,
    )
    fillers = 0

    def connection(c):
        for i in range(each):
            dispatcher.handle(echo(f"uuid:{c}:{i:03d}"), CTX)
            if i % burst == burst - 1:
                assert wait_for(lambda: f"uuid:{c}:{i:03d}" in sink.arrived[-40:])

    def churn():
        # queue a filler, then wait for an admission routed in place before
        # queueing the next: the paths flip on events, not on how fast the
        # host runs
        nonlocal fillers
        while sending.is_set():
            filler = make_echo_message(
                to="urn:wsd:filler", message_id=f"uuid:filler:{fillers}"
            )
            in_place = routed(dispatcher)[0]
            assert dispatcher._offer((filler, "/msg/filler", None, 0.0, None))
            fillers += 1
            while sending.is_set() and routed(dispatcher)[0] == in_place:
                sending.wait(0.001)

    workers = [
        threading.Thread(target=connection, args=(c,)) for c in range(connections)
    ]
    churner = threading.Thread(target=churn)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        churner.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
            assert not worker.is_alive()
        sending.clear()
        churner.join(5)
        assert not churner.is_alive()
        total = connections * each + fillers
        assert wait_for(lambda: len(sink.arrived) == total, timeout=30)
    finally:
        sending.clear()
        sys.setswitchinterval(interval)
        dispatcher.stop()
    for c in range(connections):
        mine = [mid for mid in sink.arrived if mid.startswith(f"uuid:{c}:")]
        assert mine == sorted(mine) and len(set(mine)) == each
    in_place, pooled = routed(dispatcher)
    assert in_place and pooled > fillers and in_place + pooled == total
    assert pool_is_idle(dispatcher)


# -- (2) the first message to a name is routed where it is admitted ------------------

def test_the_first_message_to_a_name_is_routed_where_it_is_admitted(dispatcher_backend):
    sink, registry = Sink(), echo_registry()
    dispatcher = make(dispatcher_backend, sink, registry=registry)
    try:
        dispatcher_backend.call(lambda: dispatcher.handle(echo("uuid:first"), CTX))
        # handle() has returned: the registry was consulted once, in place
        assert registry.stats["lookups"] == 1
        assert routed(dispatcher) == (1, 0)
        assert wait_for(lambda: sink.arrived == ["uuid:first"])
    finally:
        dispatcher.stop()


# -- (3) aio: loop-bound state stays on the loop -------------------------------------

@pytest.fixture
def aio_backend():
    backend = DispatcherBackend("aio")
    yield backend
    backend.close()


def count_threadsafe_calls(loop) -> list[int]:
    """Wrap ``loop.call_soon_threadsafe``; returns the (growing) list of
    the threads that called it."""
    callers: list[int] = []
    real = loop.call_soon_threadsafe

    def counting(callback, *args, **kwargs):
        callers.append(threading.get_ident())
        return real(callback, *args, **kwargs)

    loop.call_soon_threadsafe = counting
    return callers


def test_an_admission_from_a_foreign_thread_takes_the_queue(aio_backend):
    sink, registry = Sink(), Resolving()
    loop_thread = aio_backend.call(threading.get_ident)
    callers = count_threadsafe_calls(aio_backend.loop_thread._loop)
    dispatcher = make(aio_backend, sink, registry=registry)
    try:
        callers.clear()
        dispatcher.handle(echo("uuid:foreign"), CTX)  # this thread is not the loop's
        assert wait_for(lambda: sink.arrived == ["uuid:foreign"])
        assert routed(dispatcher) == (0, 1)
        # routed, enqueued and sent by the loop; woken through its self-pipe
        assert registry.threads == sink.threads == [loop_thread]
        assert callers == [threading.get_ident()]
    finally:
        dispatcher.stop()


def test_an_admission_on_the_loop_wakes_nothing_through_the_self_pipe(aio_backend):
    journal = MessageJournal(sync="lazy", flush_threshold=1)
    journal.append(
        "uuid:pooled", "/msg/echo", echo("uuid:pooled").to_bytes(), kind="inbound"
    )
    sink = Sink()
    loop_thread = aio_backend.call(threading.get_ident)
    callers = count_threadsafe_calls(aio_backend.loop_thread._loop)
    # the replay takes the accept queue in the constructor's loop step
    dispatcher = make(aio_backend, sink, durable=journal)
    try:
        assert wait_for(lambda: sink.arrived == ["uuid:pooled"])
        assert wait_for(lambda: pool_is_idle(dispatcher))
        aio_backend.call(lambda: dispatcher.handle(echo("uuid:in-place"), CTX))
        assert wait_for(lambda: len(sink.arrived) == 2)
        assert routed(dispatcher) == (1, 1)
        # producer and consumer share the thread on both paths: the drain
        # and writer tasks were woken with a plain event.set()
        assert loop_thread not in callers
    finally:
        dispatcher.stop(drain=True)
        journal.close()


# -- (4) what an admission means is what it was ----------------------------------------

def test_the_journal_record_precedes_the_routing_pass_and_the_ack(dispatcher_backend):
    journal = MessageJournal(sync="lazy", flush_threshold=1)
    sink = Sink()
    seen_by_the_pass = []

    def look(n):
        record = journal.get(1)
        seen_by_the_pass.append((record.kind, record.state, record.target))

    dispatcher = make(
        dispatcher_backend, sink, registry=Resolving(look), durable=journal
    )
    try:
        dispatcher_backend.call(lambda: dispatcher.handle(echo("uuid:j"), CTX))
        # routed in place, so the pass has run by now — after the append
        assert seen_by_the_pass == [("inbound", "enqueued", "/msg/echo")]
        assert routed(dispatcher) == (1, 0)
        assert wait_for(lambda: journal.pending_count() == 0)  # mark after settle
        assert sink.arrived == ["uuid:j"]
    finally:
        dispatcher.stop(drain=True)
        journal.close()


def without_message_id():
    envelope = echo("uuid:gone")
    headers = AddressingHeaders.from_envelope(envelope)
    headers.message_id = None
    headers.attach(envelope)
    return envelope


def with_two_to_headers():
    envelope = echo("uuid:twice")
    envelope.headers.append(envelope.headers[0].copy())
    return envelope


def rejecting(n):
    if n == 1:
        raise ReproError("not on my watch")


def exploding(n):
    if n == 1:
        raise ZeroDivisionError("poison")


@pytest.mark.parametrize(
    "message, on_resolve, where, reason, counters",
    [
        # decodes, names a cached service, cannot be rewritten: in place
        (without_message_id, None, (1, 0), "unroutable", {"dropped_unroutable": 1}),
        # does not decode: left to the pool, as routes_in_place says
        (with_two_to_headers, None, (0, 1), "unroutable", {"dropped_unroutable": 1}),
        (
            lambda: echo("uuid:rejected"), rejecting, (1, 0), "unroutable",
            {"dropped_unroutable": 1},
        ),
        (
            lambda: echo("uuid:poison"), exploding, (1, 0), "internal_error",
            {"internal_errors": 1},
        ),
    ],
    ids=["no-message-id", "undecodable", "registry-rejects", "poison"],
)
def test_a_message_that_cannot_be_routed_still_gets_its_202(
    dispatcher_backend, message, on_resolve, where, reason, counters
):
    journal = MessageJournal(sync="lazy", flush_threshold=1)
    sink = Sink()
    registry = Resolving(on_resolve) if on_resolve else None
    dispatcher = make(dispatcher_backend, sink, registry=registry, durable=journal)
    try:
        # handle() returns None — the HTTP layer answers 202 — and raises nothing
        assert dispatcher_backend.call(lambda: dispatcher.handle(message(), CTX)) is None
        assert wait_for(lambda: journal.dead_counts() == {reason: 1})
        assert routed(dispatcher) == where
        stats = dispatcher.stats
        assert {name: stats.get(name) for name in counters} == counters
        assert stats["accepted"] == 1 and "delivered" not in stats
        assert journal.get(1).state == DEAD
        # the admitting thread survived, and so did the dispatcher
        dispatcher_backend.call(lambda: dispatcher.handle(echo("uuid:after"), CTX))
        assert wait_for(lambda: sink.arrived == ["uuid:after"])
    finally:
        dispatcher.stop(drain=True)
        journal.close()
