"""MSG-Dispatcher: asynchronous WS-Addressing message router (paper §4).

The threaded driver of :class:`~repro.core.dispatch.DispatchCore`
(paper Fig. 3): two configurable thread pools.

- **CxThreads** run the core's routing pass — map the logical address to
  the physical WS address via the Registry, rewrite the WS-Addressing
  headers so replies come back to the dispatcher — and put what it
  returns on destination queues.  As in the paper, the thread that
  *accepts* a message is the one that routes it whenever
  :meth:`DispatchCore.routes_in_place` allows (nothing older unrouted, no
  registry call that could sleep); the ``cx_threads`` pool behind the
  accept queue takes the rest: overflow behind a backlog, lookup-cache
  misses, journal replay, in-band answers.
- **WsThreads** each own a FIFO queue and a persistent connection to one
  destination, and drain queued messages to it — several messages ride one
  connection ("more efficient than opening multiple short lived
  connections").  A drained batch rides the connection as **one pipelined
  write burst** (:meth:`~repro.rt.client.HttpClient.pipeline`): N one-way
  messages cost one round trip instead of N.

Every decision (admission, correlation, rewrite, the delivery step with
its breaker gate, retry and parking, hold redelivery, dead-lettering) is
the core's; this module keeps the bounded queues, the threads, and a
blocking trampoline for :meth:`DispatchCore.deliver`'s effects.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import OverloadedError, ReproError
from repro.http import HttpRequest, HttpResponse
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceContext, TraceStore, extract_trace
from repro.reliable.policy import RetryPolicy
from repro.rt.client import HttpClient
from repro.rt.service import RequestContext
from repro.soap import Envelope
from repro.store.journal import MessageJournal
from repro.transport.base import parse_http_url
from repro.util.clock import Clock, MonotonicClock
from repro.util.concurrency import ClosableQueue, QueueClosed
from repro.core.dispatch import (
    PIPELINE,
    REQUEST,
    DispatchCore,
    DispatcherConfigBase,
    _OutboundItem,
)
from repro.core.registry import ServiceRegistry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.shard.ring import HashRing


@dataclass
class MsgDispatcherConfig(DispatcherConfigBase):
    """Tunable knobs of the threaded (and asyncio) MSG-Dispatcher."""

    cx_threads: int = 4
    ws_threads: int = 8
    #: per-message delivery retry policy; None = single attempt
    retry: RetryPolicy | None = None


class _Destination:
    """A WsThread: FIFO queue + worker bound to one destination *endpoint*
    (``host:port``, see :meth:`DispatchCore._endpoint_key`)."""

    def __init__(self, endpoint_key: str, capacity: int) -> None:
        self.endpoint_key = endpoint_key
        self.queue: ClosableQueue[_OutboundItem] = ClosableQueue(capacity)
        self.thread: threading.Thread | None = None


class _Waiter(threading.Event):
    """The sync bridge's one-shot waiter on threads: an event that carries
    the reply, woken by whichever thread routes it."""

    reply = None

    def done(self) -> bool:
        return self.is_set()

    def set_result(self, reply) -> None:
        self.reply = reply
        self.set()


class MsgDispatcher(DispatchCore):
    """The asynchronous dispatcher, hostable as a one-way SoapService."""

    def __init__(
        self,
        registry: ServiceRegistry,
        client: HttpClient,
        own_address: str,
        mount_prefix: str = "/msg",
        config: MsgDispatcherConfig | None = None,
        clock: Clock | None = None,
        hold_store: "object | None" = None,
        inspector: "object | None" = None,
        metrics: MetricsRegistry | None = None,
        traces: TraceStore | None = None,
        durable: MessageJournal | None = None,
        recover: bool = True,
        flight: FlightRecorder | None = None,
        ring: HashRing | None = None,
        shard_id: int = 0,
        peers: dict[int, str] | None = None,
    ) -> None:
        """``hold_store`` (a :class:`~repro.reliable.HoldRetryStore`) turns
        on the future-work reliable delivery: messages whose immediate
        delivery (and in-line retries) fail are *held* and redelivered on
        the store's schedule until they expire — "hold/retry on delivery
        ... with expiration time" (paper section 4.4).  A maintenance
        thread puts due messages back on their destination queues every
        ``config.hold_pump_interval`` seconds; a ``deliver=`` the store
        was constructed with is not used.

        ``inspector`` is the "message security inspection" hook (same
        shape as the RPC-Dispatcher's): called with (envelope, logical
        name) before forwarding; raising rejects the message.

        ``metrics``/``traces`` override the process-wide observability
        sinks (:func:`~repro.obs.metrics.default_registry`,
        :func:`~repro.obs.trace.default_trace_store`).  The dispatcher
        never *creates* traces — it only continues contexts already on
        the message, so untraced traffic stays byte-identical on the
        wire.

        ``durable`` (a :class:`~repro.store.MessageJournal`) turns on
        write-ahead journaling: every admitted message is journaled
        before the 202 ack and marked when it leaves the dispatcher
        (delivered, absorbed into the hold store, or dead-lettered).
        With ``recover=True`` (the default) construction replays
        undelivered records from a previous incarnation back into the
        pipeline — at-least-once, so pair it with ``dedupe_window`` (and
        a sink-side :class:`~repro.reliable.DuplicateFilter`) for
        effectively-once.

        ``flight`` overrides the process-wide
        :func:`~repro.obs.flight.default_flight_recorder`; state
        transitions (sheds, deadletters, drain timeouts, journal
        recovery, breaker trips) are recorded into it, and deadletters
        trigger a postmortem dump when the recorder has a dump
        directory.

        ``ring`` (a :class:`~repro.shard.ring.HashRing`) makes this
        dispatcher shard ``shard_id`` of a fleet: a request it does not
        own is relayed, byte-verbatim, to ``peers[owner]`` (shard id ->
        the owner's *direct* base URL, so the relay lands on the owner
        rather than on the shared port's pick)."""
        config = config or MsgDispatcherConfig()
        self.ring = ring
        self.shard_id = shard_id
        self.peers = dict(peers or {})
        self.client = client
        self._accept_queue: ClosableQueue[tuple] = ClosableQueue(config.accept_queue)
        #: admitted messages not yet routed — on the accept queue or in a
        #: pool worker's hands; an admission routes in place only at zero
        self._unrouted = 0
        self._unrouted_lock = threading.Lock()
        self._destinations: dict[str, _Destination] = {}
        super().__init__(
            registry, own_address, mount_prefix, config,
            clock or MonotonicClock(),
            hold_store=hold_store, inspector=inspector, metrics=metrics,
            traces=traces, durable=durable, flight=flight,
        )
        self._ws_slots = threading.Semaphore(self.config.ws_threads)
        self._running = True
        self._start_workers()
        if self.durable is not None and recover:
            self.recover()

    def _start_workers(self) -> None:
        """Spawn the CxThread pool and (when reliable) the hold pump.

        Subclass seam: the asyncio backend overrides this to schedule
        loop tasks instead of threads — everything upstream (admission,
        journaling, queues) is thread-safe and shared verbatim.
        """
        self._cx_threads = [
            threading.Thread(target=self._cx_loop, name=f"cx-{i}", daemon=True)
            for i in range(self.config.cx_threads)
        ]
        for t in self._cx_threads:
            t.start()
        if self.hold_store is not None:
            self._hold_pump = threading.Thread(
                target=self._hold_pump_loop,
                args=(self.config.hold_pump_interval,),
                name="hold-pump",
                daemon=True,
            )
            self._hold_pump.start()

    # -- lifecycle ----------------------------------------------------------
    def stop(self, drain: bool = False, timeout: float = 10.0) -> bool:
        """Shut the dispatcher down.

        ``drain=True`` is the graceful path: wait up to ``timeout`` for
        every queue to empty before closing, then checkpoint the journal.
        The hard path (``drain=False``, the historical behavior) closes
        the queues immediately — queued messages are dropped from memory
        but, under ``durable=``, stay ``enqueued`` in the journal and are
        replayed by the next incarnation's :meth:`recover`.  Returns True
        when nothing was left queued.
        """
        drained = True
        if drain and self._running:
            drained = self.drain(timeout)
        self._running = False
        self._accept_queue.close()
        with self._lock:
            dests = list(self._destinations.values())
        for d in dests:
            d.queue.close()
        if self.durable is not None:
            self.durable.flush()
            self.durable.checkpoint()
        return drained

    def __enter__(self) -> "MsgDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def hosted_on(self, app) -> None:
        """:meth:`SoapHttpApp.mount` hook (called again on every later
        mount): this dispatcher's host serves one origin — host and port
        of ``own_address``, as :func:`~repro.transport.base.parse_http_url`
        gives them — and ``app`` is what serves it.  The co-hosting
        predicate itself is :meth:`DispatchCore.cohost`."""
        try:
            origin, _ = parse_http_url(self.own_address)
        except ReproError:
            return  # no http origin of its own: nothing is co-hosted
        self.cohost({origin: app})

    # -- the core's view of the queues ----------------------------------------
    def _pool_put(self, work: tuple) -> bool:
        """Hand ``work`` to the routing pool: False when the accept queue
        is full, :class:`QueueClosed` after :meth:`stop`."""
        with self._unrouted_lock:
            self._unrouted += 1
        queued = False
        try:
            queued = self._accept_queue.try_put(work)
        finally:
            if not queued:
                self._pool_done()
        return queued

    def _pool_done(self) -> None:
        with self._unrouted_lock:
            self._unrouted -= 1

    def _offer(self, work: tuple) -> bool:
        try:
            return self._pool_put(work)
        except QueueClosed:
            return False

    def _may_enqueue_here(self) -> bool:
        """Condition (c) of :meth:`DispatchCore.routes_in_place`: any
        thread may put on a destination queue while the dispatcher runs."""
        return self._running

    def _accept_depth(self) -> int:
        return len(self._accept_queue)

    def backlog(self) -> int:
        with self._lock:
            return len(self._accept_queue) + sum(
                len(d.queue) for d in self._destinations.values()
            )

    # -- SoapService entry point (step 1-2 of Fig. 3) ----------------------
    def handle(self, envelope: Envelope, ctx: RequestContext) -> None:
        """Accept a one-way message; delivery continues on the pools."""
        t_arrival = self.clock.now()
        trace = extract_trace(envelope)
        self._admit(envelope, ctx.path, trace, t_arrival)
        return None  # HTTP layer answers 202 Accepted

    def _admit(
        self,
        envelope: Envelope,
        path: str,
        trace: TraceContext | None,
        t_arrival: float,
    ) -> None:
        if self.overloaded(path, trace, t_arrival):
            raise OverloadedError(
                "dispatcher overloaded", retry_after=self.config.shed_retry_after
            )
        jseq: int | None = None
        if self.durable is not None:
            jseq = self.journal_inbound(path, envelope.to_bytes())
        headers = self.addressing_of(envelope)
        if self.routes_in_place(
            headers, path,
            pool_idle=not self._unrouted, may_enqueue=self._may_enqueue_here(),
        ):
            # no queue, no wait: the accept stage runs from the end of
            # the admit stage and reads the few µs in between
            t_admitted = self.admitted(path, trace, t_arrival)
            self.counters.inc("routed_in_place")
            self._process_accepted(
                (envelope, path, trace, t_admitted, jseq, headers)
            )
            return
        try:
            accepted = self._pool_put(
                (envelope, path, trace, t_arrival, jseq, headers)
            )
        except QueueClosed:
            self._mark_rejected(jseq)
            raise ReproError("dispatcher is shut down") from None
        if not accepted:
            self.refused(jseq, trace, path)
            raise OverloadedError(
                "dispatcher accept queue full",
                retry_after=self.config.shed_retry_after,
            )
        self.admitted(path, trace, t_arrival)

    # -- CxThread: routing + rewriting (steps 2-4 of Fig. 3) ---------------
    def _cx_loop(self) -> None:
        while True:
            try:
                work = self._accept_queue.get()
            except QueueClosed:
                return
            self._route_pooled(work)

    def _route_pooled(self, work: tuple) -> None:
        """One accept-queue entry, in a pool worker's hands until done."""
        self.counters.inc("routed_pooled")
        try:
            self._process_accepted(work)
        finally:
            self._pool_done()

    def _process_accepted(self, work: tuple) -> None:
        """Route one admitted entry and enqueue what comes back (shared
        by the admitting thread, the pool and the loop backend)."""
        try:
            for item in self.process(work):
                self._enqueue(item)
        except Exception:  # noqa: BLE001 - keep pool threads alive
            self.counters.inc("internal_errors")
            # poison, not transient: replaying it would fail the same
            # way forever, so it goes to the dead-letter queue
            trace, jseq = work[2], work[4]
            self._dead_letter(
                jseq, "internal_error",
                trace_id=trace.trace_id if trace else None,
            )

    # -- WsThread: per-destination FIFO + persistent connection ------------
    def _try_enqueue(self, item: _OutboundItem) -> str | None:
        if not self._running:
            return "shutdown"
        try:
            key = self._endpoint_key(item.target_url)
        except ReproError:
            return "unroutable"
        with self._lock:
            dest = self._destinations.get(key)
            if dest is None:
                dest = _Destination(key, self.config.destination_queue)
                self._destinations[key] = dest
                self._m_dest_depth.labels(dest=key).set_function(
                    lambda d=dest: len(d.queue)
                )
        item.enqueued_at = self.clock.now()
        try:
            if not dest.queue.try_put(item):
                return "destination_queue_full"
        except QueueClosed:
            return "shutdown"
        self._ensure_worker(dest)
        return None

    @staticmethod
    def _working(dest: _Destination) -> bool:
        """A worker drains ``dest`` (a thread here, a task on ``aio``)."""
        return dest.thread is not None and dest.thread.is_alive()

    def _ensure_worker(self, dest: _Destination) -> None:
        with self._lock:
            if self._working(dest):
                return
            if not self._ws_slots.acquire(blocking=False):
                # all WsThreads busy; an exiting worker will pick this
                # destination up via _adopt_orphan.
                return
            dest.thread = threading.Thread(
                target=self._ws_loop,
                args=(dest,),
                name=f"ws-{dest.endpoint_key}",
                daemon=True,
            )
            dest.thread.start()

    def _ws_loop(self, dest: _Destination) -> None:
        try:
            while self._running:
                try:
                    batch = dest.queue.get_batch(
                        self.config.batch_size,
                        timeout=self.config.destination_idle_ttl,
                    )
                except TimeoutError:
                    return  # idle: release the slot
                except QueueClosed:
                    return
                self._deliver(batch)
        finally:
            with self._lock:
                dest.thread = None
            self._ws_slots.release()
            self._adopt_orphan()

    def _adopt_orphan(self) -> None:
        """After a slot frees, start a worker for any queued-but-idle dest."""
        with self._lock:
            candidates = [
                d for d in self._destinations.values()
                if len(d.queue) and not self._working(d)
            ]
        for d in candidates:
            self._ensure_worker(d)

    def _deliver(self, batch: "list[_OutboundItem]") -> None:
        """:meth:`DispatchCore.deliver` on this WsThread: every effect blocks."""
        steps = self.deliver(batch)
        try:
            op, url, arg = next(steps)
            while True:
                try:
                    if op is REQUEST:
                        result = self.client.request(url, arg)
                    elif op is PIPELINE:
                        result = self.client.pipeline(url, arg)
                    else:
                        result = self.clock.sleep(arg)
                except ReproError as exc:
                    op, url, arg = steps.throw(exc)
                else:
                    op, url, arg = steps.send(result)
        except StopIteration:
            pass

    # -- sync-over-async bridge (Table 1 quadrant 2) ------------------------
    _waiter = _Waiter

    def bridge_handler(
        self, request: HttpRequest, bridge_timeout: float = 30.0, mount_prefix="/bridge"
    ) -> HttpResponse:
        """:meth:`DispatchCore.bridge`, blocking the calling server thread."""
        steps = self.bridge(request, bridge_timeout, mount_prefix)
        try:
            _op, waiter, timeout = next(steps)
            steps.send(waiter.reply if waiter.wait(timeout) else None)
        except StopIteration as done:
            return done.value

    # -- hold redelivery (through the destination queues) -------------------
    def _hold_pump_loop(self, interval: float) -> None:
        while self._running:
            try:
                self.requeue_due(self.clock.now())
            except Exception:  # noqa: BLE001 - keep the maintenance thread up
                self.counters.inc("internal_errors")
            time.sleep(interval)

    # -- introspection -----------------------------------------------------
    def drain(self, timeout: float = 5.0) -> bool:
        """Wait until every queue is empty (tests); True on success."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.backlog() == 0:
                delivered = self.counters.get("delivered")
                time.sleep(0.02)
                if self.counters.get("delivered") == delivered:
                    return True
            else:
                time.sleep(0.01)
        self.counters.inc("drain_timeouts")
        self._m_drain_timeouts.inc()
        with self._lock:
            stuck = sum(1 for d in self._destinations.values() if len(d.queue))
            accept_depth = len(self._accept_queue)
        self.flight.record(
            "drain-timeout", "msgd", t=self.clock.now(),
            timeout=timeout, accept_queue=accept_depth, stuck=stuck,
        )
        return False
