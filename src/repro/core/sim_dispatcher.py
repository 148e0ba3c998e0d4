"""Simulated hostings of the RPC- and MSG-Dispatchers.

:class:`SimRpcDispatcher` and :class:`SimMsgDispatcher` are the
event-kernel drivers of :class:`~repro.core.rpc.RpcCore` and
:class:`~repro.core.dispatch.DispatchCore` — every decision is the
core's, the same one the threaded and asyncio drivers run.  The
execution substrate is the event kernel instead of thread pools:
CxThreads become ``cx_workers`` routing processes, WsThreads become
per-destination delivery processes bounded by a ``ws_workers`` resource,
the FIFO queue is a :class:`~repro.simnet.resources.Store`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError, SoapError, XmlError
from repro.http import HttpRequest, HttpResponse
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore, extract_trace
from repro.reliable.holdretry import HoldRetryStore
from repro.store.journal import MessageJournal
from repro.rt.service import soap_fault_response
from repro.simnet.httpsim import SimHttpClientPool
from repro.simnet.kernel import Simulator
from repro.simnet.resources import Resource, Store
from repro.simnet.topology import Host, Network
from repro.soap import Envelope, Fault, parse_envelope
from repro.transport.base import Endpoint, parse_http_url
from repro.core.dispatch import (
    REQUEST,
    SLEEP,
    DispatchCore,
    DispatcherConfigBase,
    _OutboundItem,
)
from repro.core.registry import ServiceRegistry
from repro.core.rpc import RpcCore


class SimRpcDispatcher(RpcCore):
    """The RPC-Dispatcher as a simulated HTTP handler: a generator, so the
    worker slot serving the client connection stays occupied for the whole
    forwarded exchange — the blocking that gives RPC its Table 1 limits."""

    time_bucket = 0.005

    def __init__(
        self,
        net: Network,
        host: Host,
        registry: ServiceRegistry,
        connect_timeout: float = 21.0,
        response_timeout: float = 30.0,
    ) -> None:
        super().__init__(
            registry, SimHttpClientPool(net, host, connect_timeout, response_timeout)
        )
        self.clock = net.sim.clock

    def handler(self, request: HttpRequest):
        """Generator handler for :class:`~repro.simnet.httpsim.SimHttpServer`."""
        steps = self.forward(request)
        try:
            _op, url, forward = next(steps)
            at, _path = parse_http_url(url)
            try:
                response = yield from self.client.exchange(at.host, at.port, forward)
            except BaseException as exc:
                steps.throw(exc)
            steps.send(response)
        except StopIteration as done:
            return done.value


@dataclass
class SimMsgDispatcherConfig(DispatcherConfigBase):
    """Knobs of the simulated MSG-Dispatcher (the shared ones, on sim time)."""

    cx_workers: int = 4
    ws_workers: int = 8
    #: concurrent WsThreads (connections) a single busy destination may use
    parallel_per_destination: int = 1
    connect_timeout: float = 21.0
    response_timeout: float = 30.0


class SimMsgDispatcher(DispatchCore):
    """MSG-Dispatcher as a family of simulation processes."""

    def __init__(
        self,
        net: Network,
        host: Host,
        registry: ServiceRegistry,
        own_address: str,
        config: SimMsgDispatcherConfig | None = None,
        metrics: MetricsRegistry | None = None,
        traces: TraceStore | None = None,
        hold_store: HoldRetryStore | None = None,
        durable: MessageJournal | None = None,
        flight: FlightRecorder | None = None,
    ) -> None:
        """``durable`` mirrors the threaded dispatcher: a
        :class:`~repro.store.MessageJournal` journals every admitted
        message before the 202 ack, and construction replays a
        previous incarnation's undelivered records —
        the simulated twin of restarting after a
        :class:`~repro.chaos.ServiceCrash`.  Construct the journal with
        ``sync="lazy"`` (group commit would really sleep) and a
        ``now_fn`` bound to the simulation clock.

        ``hold_store``: failed deliveries are parked there instead of
        dropped; a pump process re-queues them on the policy schedule.
        Construct the store with ``clock=net.sim.clock`` so TTLs follow
        sim time.

        ``flight`` receives the state-transition events (drops,
        dead-letters, recoveries, crashes) on the simulation clock, so a
        seeded run dumps a bit-identical flight record."""
        self.net = net
        self.sim: Simulator = net.sim
        self.host = host
        config = config or SimMsgDispatcherConfig()
        self.pool = SimHttpClientPool(
            net,
            host,
            connect_timeout=config.connect_timeout,
            response_timeout=config.response_timeout,
            pool_per_destination=max(2, config.parallel_per_destination),
        )
        self._accept_queue: Store = Store(self.sim, capacity=config.accept_queue)
        self._destinations: dict[str, Store] = {}
        super().__init__(
            registry, own_address, "/msg", config, self.sim.clock,
            hold_store=hold_store, metrics=metrics, traces=traces,
            durable=durable, flight=flight,
        )
        self._dest_workers: dict[str, int] = {}
        self._ws_slots = Resource(self.sim, capacity=self.config.ws_workers)
        self._hold_pump_active = False
        self._running = True
        # co-hosting is derived the way the real runtimes derive it: the
        # Host knows which SoapHttpApp each of its ports serves, and tells
        # its residents whenever that (or a mount table) changes
        host.residents.append(self)
        self.hosted_on()
        for i in range(self.config.cx_workers):
            self.sim.process(self._cx_loop(), name=f"sim-cx-{i}")
        if self.durable is not None:
            self.recover()

    def stop(self) -> None:
        self._running = False
        if self.durable is not None:
            self.durable.flush()
            self.durable.checkpoint()

    def crash(self) -> None:
        """Simulated SIGKILL: every process halts, buffered journal
        operations are lost, and this incarnation can no longer touch the
        journal or the hold store (a dead process writes nothing).  The
        journal *object* plays the disk that survives the crash — hand it
        to the next incarnation."""
        self._running = False
        now = self.sim.now
        self.flight.record(
            "crash", "msgd", t=now, backlog=self.backlog(),
        )
        self.flight.postmortem("crash", t=now, backlog=self.backlog())
        if self.durable is not None:
            self.durable.drop_unflushed()
        self.durable = None
        self.hold_store = None
        self._dedupe = None

    def hosted_on(self, app=None) -> None:
        """:class:`~repro.simnet.topology.Host` hook: the origins this
        dispatcher's own host serves are the ports on which a
        :class:`~repro.simnet.httpsim.SimHttpServer` serves a
        :class:`~repro.rt.service.SoapHttpApp`.  The co-hosting predicate
        itself is :meth:`DispatchCore.cohost`."""
        self.cohost({
            Endpoint(self.host.name, port): served
            for port, served in self.host.apps.items()
        })

    # -- the core's view of the queues ----------------------------------------
    def _offer(self, work: tuple) -> bool:
        return self._accept_queue.try_put(work)

    def backlog(self) -> int:
        return len(self._accept_queue) + sum(len(s) for s in self._destinations.values())

    # -- HTTP handler (accepts one-way messages, answers 202) --------------
    def handler(self, request: HttpRequest):
        """Generator handler.

        The paper's stack had no admission control: when the accept queue
        is full the HTTP worker *blocks* until a CxThread frees a slot, so
        saturation propagates to the TCP front door and clients slow down
        or time out.
        """
        if request.method != "POST":
            return HttpResponse(status=405, body=b"MSG dispatcher accepts POST")
        try:
            envelope = parse_envelope(request.body, counter=self._m_fastpath)
        except (XmlError, SoapError) as exc:
            self.counters.inc("rejected")
            self._m_dropped.labels(reason="invalid_soap").inc()
            return soap_fault_response(Fault("Client", str(exc)), status=400)
        t_arrival = self.sim.now
        trace = extract_trace(envelope)
        jseq: int | None = None
        if self.durable is not None:
            jseq = self.journal_inbound(request.target, request.body)
        yield self._accept_queue.put(
            (envelope, request.target, trace, t_arrival, jseq)
        )
        self.admitted(request.target, trace, t_arrival)
        return HttpResponse(status=202)

    # -- CxThread processes ---------------------------------------------------
    def _cx_loop(self):
        while self._running:
            work = yield self._accept_queue.get()
            for item in self.process(work):
                try:
                    dest_key, store = self._queue_for(item)
                except ReproError:
                    self._drop(
                        "unroutable", item.journal_seq,
                        item.trace.trace_id if item.trace else None,
                        dest=item.target_url,
                    )
                    continue
                # Blocking put: when a destination backs up, CxThreads
                # stall, the accept queue fills, and the HTTP workers
                # block on it — the backpressure chain a
                # bounded-queue thread architecture produces.
                item.enqueued_at = self.sim.now
                yield store.put(item)
                self._ensure_worker(dest_key, store)

    # -- WsThread processes -------------------------------------------------
    def _queue_for(self, item: _OutboundItem) -> "tuple[str, Store]":
        """The destination queue ``item`` belongs on, by endpoint key
        (raises :class:`ReproError` when its URL does not parse)."""
        dest_key = self._endpoint_key(item.target_url)
        store = self._destinations.get(dest_key)
        if store is None:
            store = Store(self.sim, capacity=self.config.destination_queue)
            self._destinations[dest_key] = store
            self._m_dest_depth.labels(dest=dest_key).set_function(
                lambda s=store: len(s)
            )
        return dest_key, store

    def _try_enqueue(self, item: _OutboundItem) -> str | None:
        try:
            dest_key, store = self._queue_for(item)
        except ReproError:
            return "unroutable"
        item.enqueued_at = self.sim.now
        if not store.try_put(item):
            return "destination_queue_full"
        self._ensure_worker(dest_key, store)
        return None

    def _ensure_worker(self, dest_key: str, store: Store) -> None:
        """Spawn delivery workers for a destination, up to the parallel cap
        and justified by its queue depth."""
        active = self._dest_workers.get(dest_key, 0)
        if active >= self.config.parallel_per_destination:
            return
        if active > 0 and len(store) <= active:
            return  # existing workers can absorb the backlog
        self._dest_workers[dest_key] = active + 1
        self.sim.process(
            self._ws_loop(dest_key, store), name=f"sim-ws-{dest_key}"
        )

    def _ws_loop(self, dest_key: str, store: Store):
        """One delivery worker.

        A WsThread slot is held for **one batch at a time** and then
        released — the pool rotates FIFO-fairly across busy destinations.
        A destination whose deliveries hang (firewalled client endpoints)
        therefore stalls every slot it wins for a whole batch of connect
        timeouts, starving the healthy destinations: the mechanism behind
        "the MSG-Dispatcher tried to send a response that was blocked by
        firewall leading to the slowest performance".
        """
        try:
            while self._running:
                get = store.get()
                idx, first = yield self.sim.any_of(
                    [get, self.sim.timeout(self.config.destination_idle_ttl)]
                )
                if idx == 1:
                    get.cancel()
                    return  # idle: exit (respawned on next enqueue)
                batch = [first]
                while len(store) and len(batch) < self.config.batch_size:
                    batch.append(store.items.popleft())
                slot = self._ws_slots.request()
                yield slot
                try:
                    yield from self._deliver(batch)
                finally:
                    slot.release()
        finally:
            remaining = self._dest_workers.get(dest_key, 1) - 1
            self._dest_workers[dest_key] = max(0, remaining)
            if len(store):
                # messages arrived while we were exiting: restart a worker
                self._ensure_worker(dest_key, store)

    def _deliver(self, batch: "list[_OutboundItem]"):
        """Process step: :meth:`DispatchCore.deliver` on the pool's
        connection to the destination, keyed ``(host, port)``."""
        steps = self.deliver(batch)
        try:
            op, url, arg = next(steps)
            while True:
                try:
                    if op is SLEEP:
                        result = yield self.sim.timeout(arg)
                    else:
                        at, path = parse_http_url(url)
                        wire = self.pool.pipeline
                        if op is REQUEST:
                            wire, arg.target = self.pool.exchange, path
                        result = yield from wire(at.host, at.port, arg)
                except ReproError as exc:
                    op, url, arg = steps.throw(exc)
                else:
                    op, url, arg = steps.send(result)
        except StopIteration:
            pass

    # -- hold redelivery (through the destination queues) ----------------------
    def _ensure_hold_pump(self) -> None:
        if self.hold_store is None or self._hold_pump_active:
            return
        self._hold_pump_active = True
        self.sim.process(self._hold_pump_loop(), name="sim-hold-pump")

    def _hold_pump_loop(self):
        """Periodic redelivery pump; exits when the store drains (and is
        respawned by the next park) so an idle simulation still runs dry."""
        try:
            while self._running:
                yield self.sim.timeout(self.config.hold_pump_interval)
                self.requeue_due(self.sim.now)
                if self.hold_store.pending() == 0:
                    return
        finally:
            self._hold_pump_active = False

    # -- sync-over-async bridge (Table 1 quadrant 2) ------------------------
    def _waiter(self):
        return self.sim.event()

    def _wake(self, waiter, envelope: Envelope) -> bool:
        if waiter.triggered:
            return False
        waiter.succeed(envelope)
        return True

    def bridge_handler(
        self, request: HttpRequest, bridge_timeout: float = 30.0, mount_prefix="/bridge"
    ):
        """Generator handler: :meth:`DispatchCore.bridge`, its wait a race
        of the waiter against a simulated timeout."""
        steps = self.bridge(request, bridge_timeout, mount_prefix)
        try:
            _op, waiter, timeout = next(steps)
            idx, reply = yield self.sim.any_of([waiter, self.sim.timeout(timeout)])
            steps.send(reply if idx == 0 else None)
        except StopIteration as done:
            return done.value
