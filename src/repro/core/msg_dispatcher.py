"""MSG-Dispatcher: asynchronous WS-Addressing message router (paper §4).

Architecture (paper Fig. 3): two configurable thread pools.

- **CxThreads** take accepted messages, map the logical address to the
  physical WS address via the Registry, and rewrite the WS-Addressing
  headers so replies come back to the dispatcher.
- **WsThreads** each own a FIFO queue and a persistent connection to one
  destination, and drain queued messages to it — several messages ride one
  connection ("more efficient than opening multiple short lived
  connections").  A drained batch rides the connection as **one pipelined
  write burst** (a :class:`~repro.rt.client.ConnectionLease`): N one-way
  messages cost one round trip instead of N.

Responses from services "are also treated like requests from clients":
they enter the same pipeline, are recognised by ``wsa:RelatesTo`` matching
a pending correlation entry, and are forwarded to the client's original
``ReplyTo`` — a real endpoint or a WS-MsgBox mailbox.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field

from repro.errors import (
    OverloadedError,
    RegistryUnavailable,
    ReproError,
    RoutingError,
    TransportError,
    UnknownServiceError,
)
from repro.http import HttpResponse
from repro.obs.flight import FlightRecorder, default_flight_recorder
from repro.obs.logkv import component_logger, log_event
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.slo import stage_histogram
from repro.obs.trace import (
    TraceContext,
    TraceStore,
    attach_trace,
    default_trace_store,
    extract_trace,
)
from repro.reliable.breaker import BreakerConfig, BreakerOpenError, BreakerRegistry
from repro.reliable.holdretry import DuplicateFilter
from repro.reliable.policy import RetryPolicy
from repro.rt.client import HttpClient
from repro.store.journal import ABSORBED, DEAD, DELIVERED, MessageJournal
from repro.rt.service import RequestContext
from repro.soap import Envelope, LazyEnvelope, fastpath_counter, parse_envelope
from repro.transport.base import parse_http_url
from repro.util.clock import Clock, MonotonicClock
from repro.util.concurrency import ClosableQueue, QueueClosed
from repro.util.stats import Counter
from repro.wsa import (
    AddressingHeaders,
    EndpointReference,
    rewrite_for_forwarding,
)
from repro.core.registry import ServiceRegistry
from repro.core.routing import (
    extract_logical,
    hold_resolve_target,
    is_hold_resolve_target,
    split_hold_resolve_target,
)


@dataclass
class MsgDispatcherConfig:
    """Tunable knobs (the paper: "the sizes of the pools are configurable")."""

    cx_threads: int = 4
    ws_threads: int = 8
    accept_queue: int = 1024
    destination_queue: int = 1024
    #: messages drained per connection write burst (batching ablation A2)
    batch_size: int = 8
    #: how long a WsThread keeps an idle destination before releasing it
    destination_idle_ttl: float = 10.0
    #: correlation (MessageID → ReplyTo) lifetime
    correlation_ttl: float = 120.0
    #: per-message delivery retry policy; None = single attempt
    retry: RetryPolicy | None = None
    #: ReplyTo prefixes left unrewritten (co-located WS-MsgBox addresses;
    #: services reply to them directly, paper section 4.3.2)
    passthrough_reply_prefixes: tuple = ()
    #: per-destination circuit breakers on the WsThread drain path;
    #: None = no breakers (every attempt hits the network)
    breaker: BreakerConfig | None = None
    #: admission control: total queued messages (accept + destination
    #: queues) above which handle() sheds with 503 Retry-After;
    #: None = only the individual queue capacities bound intake
    max_inflight: int | None = None
    #: Retry-After seconds advertised when shedding
    shed_retry_after: float = 1.0
    #: sliding-window duplicate suppression on the inbound absorption path
    #: (seconds); at-least-once redelivery — journal replay, client
    #: resends, hold-store retries from an upstream dispatcher — becomes
    #: effectively-once.  None (the default) forwards duplicates untouched.
    dedupe_window: float | None = None


@dataclass
class _Correlation:
    reply_to: EndpointReference | None
    fault_to: EndpointReference | None
    expires_at: float
    #: every EPR went to the service untouched (RewriteResult.passed_through):
    #: only an in-band answer (Table 1 quadrant 3) can still need this entry
    passed_through: bool = False


@dataclass
class _OutboundItem:
    envelope_bytes: bytes
    target_url: str
    #: MessageID of the forwarded message — lets an in-band (RPC-style)
    #: response be correlated back (Table 1 quadrant 3: messaging client
    #: to RPC service, "translation of semantics from messaging to RPC")
    message_id: str | None = None
    attempts: int = 0
    #: observability: the message's trace context (None when untraced),
    #: the upstream span to parent delivery spans on, and when the item
    #: entered the destination queue
    trace: TraceContext | None = None
    parent_span_id: str | None = None
    enqueued_at: float = 0.0
    #: journal sequence of the inbound record this item descends from
    journal_seq: int | None = None


class _Destination:
    """A WsThread: FIFO queue + worker bound to one destination *endpoint*.

    Keyed by ``host:port``, not full URL — one WS-MsgBox service hosting a
    thousand mailboxes is still a single destination with one persistent
    connection, exactly like one WsThread per Web Service.
    """

    def __init__(self, endpoint_key: str, capacity: int) -> None:
        self.endpoint_key = endpoint_key
        self.queue: ClosableQueue[_OutboundItem] = ClosableQueue(capacity)
        self.thread: threading.Thread | None = None


class MsgDispatcher:
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
        hold_pump_interval: float = 0.25,
        inspector: "object | None" = None,
        metrics: MetricsRegistry | None = None,
        traces: TraceStore | None = None,
        durable: MessageJournal | None = None,
        recover: bool = True,
        flight: FlightRecorder | None = None,
    ) -> None:
        """``hold_store`` (a :class:`~repro.reliable.HoldRetryStore`) turns
        on the future-work reliable delivery: messages whose immediate
        delivery (and in-line retries) fail are *held* and redelivered on
        the store's schedule until they expire — "hold/retry on delivery
        ... with expiration time" (paper section 4.4).  A maintenance
        thread pumps the store every ``hold_pump_interval`` seconds.

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
        directory."""
        self.registry = registry
        self.client = client
        self.own_address = own_address
        self.mount_prefix = mount_prefix
        self.config = config or MsgDispatcherConfig()
        self.clock = clock or MonotonicClock()
        self.hold_store = hold_store
        self.inspector = inspector
        self.durable = durable
        self._replayed_seqs: set[int] = set()
        self._dedupe: DuplicateFilter | None = None
        if self.config.dedupe_window is not None:
            self._dedupe = DuplicateFilter(
                window=self.config.dedupe_window, clock=self.clock
            )
        self.counters = Counter()
        self.metrics = metrics if metrics is not None else default_registry()
        self.traces = traces if traces is not None else default_trace_store()
        self.flight = flight if flight is not None else default_flight_recorder()
        self._log = component_logger("msgd")

        self._accept_queue: ClosableQueue[tuple] = ClosableQueue(
            self.config.accept_queue
        )
        self._m_accepted = self.metrics.counter(
            "msgd_accepted_total", "messages admitted to the accept queue"
        )
        self._m_dropped = self.metrics.counter(
            "msgd_dropped_total", "messages dropped, by reason"
        )
        self._m_delivered = self.metrics.counter(
            "msgd_delivered_total", "messages delivered to their destination"
        )
        self._m_retries = self.metrics.counter(
            "msgd_retries_total", "in-line delivery retries"
        )
        self._m_queue_wait = self.metrics.histogram(
            "msgd_queue_wait_seconds",
            "time spent waiting in dispatcher queues, by queue",
            bucket_width=0.001,
        )
        self._m_transmit = self.metrics.histogram(
            "msgd_transmit_seconds",
            "time spent transmitting to the destination",
            bucket_width=0.001,
        )
        self.metrics.gauge(
            "msgd_accept_queue_depth", "messages waiting for a CxThread"
        ).set_function(lambda: len(self._accept_queue))
        self._m_dest_depth = self.metrics.gauge(
            "msgd_destination_queue_depth",
            "messages waiting for a WsThread, by destination",
        )
        self._m_shed = self.metrics.counter(
            "dispatcher_shed_total",
            "requests shed by admission control, by component",
        )
        self._m_drain_timeouts = self.metrics.counter(
            "dispatcher_drain_timeouts_total",
            "drain() calls that timed out with messages still queued",
        )
        self._m_duplicates = self.metrics.counter(
            "dispatcher_duplicates_total",
            "inbound messages suppressed as duplicates",
        )
        self._m_deadletter = self.metrics.counter(
            "dispatcher_deadletter_total",
            "Messages moved to the dead-letter queue, by reason",
        )
        self._m_fastpath = fastpath_counter(self.metrics)
        # pipeline-stage latency histograms feeding the SLO tracker
        # (repro.obs.slo); one shared family, children cached per stage
        stage = stage_histogram(self.metrics)
        self._m_stage_admit = stage.labels(stage="admit")
        self._m_stage_journal = stage.labels(stage="journal")
        self._m_stage_queue_accept = stage.labels(stage="queue_accept")
        self._m_stage_queue_dest = stage.labels(stage="queue_destination")
        self._m_stage_deliver = stage.labels(stage="deliver")
        #: per-destination circuit breakers (None unless config.breaker)
        self.breakers: BreakerRegistry | None = None
        if self.config.breaker is not None:
            self.breakers = BreakerRegistry(
                self.config.breaker, clock=self.clock, metrics=self.metrics,
                flight=self.flight,
            )
        #: insertion-ordered, and the TTL is one constant: insertion order
        #: is expiry order (see _expire_correlations)
        self._correlations: dict[str, _Correlation] = {}
        #: deposit prefixes of the WS-MsgBox services co-hosted with this
        #: dispatcher, derived from the mount table (see hosted_on)
        self._cohosted_deposits: tuple[str, ...] = ()
        self._destinations: dict[str, _Destination] = {}
        self._lock = threading.Lock()
        self._ws_slots = threading.Semaphore(self.config.ws_threads)
        self._running = True
        if self.hold_store is not None and (
            getattr(self.hold_store, "_deliver", True) is None
        ):
            # a store constructed without a deliver function binds to
            # this dispatcher's breaker-aware redelivery path
            self.hold_store.bind_deliver(self.deliver_held)
        self._start_workers(hold_pump_interval)
        if self.durable is not None and recover:
            self.recover()

    def _start_workers(self, hold_pump_interval: float) -> None:
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
                args=(hold_pump_interval,),
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

    # -- co-hosting (paper §4.3.2) -----------------------------------------
    def hosted_on(self, app) -> None:
        """:meth:`SoapHttpApp.mount` hook: learn which WS-MsgBox services
        this dispatcher is co-hosted with.

        A ``ReplyTo``/``FaultTo`` that already names such a mailbox is left
        alone by :meth:`_route_one` — the mailbox is as reachable as the
        dispatcher itself, so the service deposits its reply directly and
        the relay hop adds nothing.  A mounted service's declared
        ``deposit_prefix`` qualifies **iff** it is on this dispatcher's own
        origin (host and port of ``own_address``, as
        :func:`~repro.transport.base.parse_http_url` gives them) and every
        path under it resolves, on ``app``, to that very service.  Called
        again on every later mount, so mount order does not matter.
        """
        try:
            origin, _ = parse_http_url(self.own_address)
        except ReproError:
            return  # no http origin of its own: nothing is co-hosted
        deposits = []
        for service in app.services():
            prefix = getattr(service, "deposit_prefix", None)
            if not prefix:
                continue
            try:
                declared_origin, path = parse_http_url(prefix)
            except ReproError:
                continue
            if declared_origin == origin and app.owns_subtree(path, service):
                deposits.append(prefix)
        self._cohosted_deposits = tuple(deposits)

    # -- crash recovery -----------------------------------------------------
    def recover(self) -> int:
        """Replay undelivered journal records into the pipeline.

        At-least-once: a record whose delivery succeeded but whose
        (async-buffered) mark was lost in the crash is replayed and
        forwarded again — the sink's :class:`DuplicateFilter` absorbs it.
        Idempotent within one incarnation: a seq is replayed at most once
        no matter how many times this is called.  Unparseable bodies
        (torn writes survive the CRC only if the corruption is outside
        the checksummed fields) are dead-lettered, never raised.  Returns
        the number of messages re-injected.
        """
        if self.durable is None:
            return 0
        replayed = 0
        for rec in self.durable.undelivered(kind="inbound"):
            if rec.seq in self._replayed_seqs:
                continue
            self._replayed_seqs.add(rec.seq)
            try:
                envelope = parse_envelope(rec.body, counter=self._m_fastpath)
            except ReproError:
                self._dead_letter(rec.seq, "corrupt")
                continue
            trace = extract_trace(envelope)
            try:
                if not self._accept_queue.try_put(
                    (envelope, rec.target, trace, self.clock.now(), rec.seq)
                ):
                    break  # queue full; the rest stay journaled for later
            except QueueClosed:
                break
            replayed += 1
        if self.hold_store is not None and getattr(
            self.hold_store, "durable", None
        ) is not None:
            replayed += self.hold_store.restore()
        if replayed:
            self.counters.inc("recovered", replayed)
            log_event(self._log, logging.INFO, "recover", replayed=replayed)
            self.flight.record(
                "journal-recover", "msgd", t=self.clock.now(),
                replayed=replayed,
            )
        return replayed

    def _dead_letter(
        self,
        journal_seq: int | None,
        reason: str,
        trace_id: str | None = None,
        dest: str | None = None,
    ) -> None:
        """Move a journaled message to the dead-letter queue.

        Logs with the message's trace id (so logs and ``GET /trace/<id>``
        correlate by grep), records a flight-recorder event, and triggers
        a postmortem dump — a deadletter is exactly the moment the
        preceding ring of events is worth keeping.
        """
        if self.durable is None or journal_seq is None:
            return
        self.durable.mark(journal_seq, DEAD, reason=reason)
        self.counters.inc("dead_lettered")
        self._m_deadletter.labels(reason=reason).inc()
        now = self.clock.now()
        log_event(
            self._log, logging.WARNING, "deadletter",
            trace=trace_id, reason=reason, seq=journal_seq, dest=dest,
        )
        self.flight.record(
            "deadletter", "msgd", t=now,
            trace=trace_id, reason=reason, seq=journal_seq, dest=dest,
        )
        self.flight.postmortem("deadletter", t=now, reason=reason)

    # -- SoapService entry point (step 1-2 of Fig. 3) ----------------------
    def handle(self, envelope: Envelope, ctx: RequestContext) -> None:
        """Accept a one-way message; processing continues on the pools."""
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
        trace_id = trace.trace_id if trace else None
        if self.config.max_inflight is not None:
            if self._backlog() >= self.config.max_inflight:
                self.counters.inc("shed_overload")
                self._m_shed.labels(component="msgd").inc()
                log_event(
                    self._log, logging.WARNING, "shed",
                    trace=trace_id, path=path,
                    max_inflight=self.config.max_inflight,
                )
                self.flight.record(
                    "shed", "msgd", t=t_arrival,
                    trace=trace_id, path=path,
                    max_inflight=self.config.max_inflight,
                )
                raise OverloadedError(
                    "dispatcher overloaded",
                    retry_after=self.config.shed_retry_after,
                )
        jseq: int | None = None
        if self.durable is not None:
            # Journal before ack: once this commits the dispatcher owns
            # the message — a crash at any later point replays it.
            t_journal = self.clock.now()
            jseq = self.durable.append(
                None, path, envelope.to_bytes(), kind="inbound"
            )
            self._m_stage_journal.observe(self.clock.now() - t_journal)
        try:
            accepted = self._accept_queue.try_put(
                (envelope, path, trace, t_arrival, jseq)
            )
        except QueueClosed:
            if jseq is not None and self.durable is not None:
                # rejected before the ack: the client was told, so the
                # journal must not replay it
                self.durable.mark(jseq, ABSORBED, reason="rejected")
            raise ReproError("dispatcher is shut down") from None
        if not accepted:
            if jseq is not None and self.durable is not None:
                self.durable.mark(jseq, ABSORBED, reason="rejected")
            self.counters.inc("dropped_accept_queue_full")
            self._m_dropped.labels(reason="accept_queue_full").inc()
            log_event(
                self._log, logging.WARNING, "drop",
                trace=trace_id, reason="accept_queue_full", path=path,
            )
            raise ReproError("dispatcher accept queue full")
        self.counters.inc("accepted")
        self._m_accepted.inc()
        self._m_stage_admit.observe(self.clock.now() - t_arrival)
        if trace is not None:
            self.traces.record(
                trace.trace_id, "admit", "msgd",
                t_arrival, self.clock.now(),
                parent_id=trace.parent_span_id, path=path,
            )
        log_event(self._log, logging.DEBUG, "admit", trace=trace_id, path=path)

    # -- CxThread: routing + rewriting (steps 2-4 of Fig. 3) ---------------
    def _cx_loop(self) -> None:
        while True:
            try:
                work = self._accept_queue.get()
            except QueueClosed:
                return
            self._process_accepted(work)

    def _process_accepted(self, work: tuple) -> None:
        """Route one accepted-queue entry (shared by thread and loop
        backends; everything in here is non-blocking)."""
        envelope, path, trace, t_enq, jseq = work
        t_deq = self.clock.now()
        self._m_queue_wait.labels(queue="accept").observe(t_deq - t_enq)
        self._m_stage_queue_accept.observe(t_deq - t_enq)
        if trace is not None:
            self.traces.record(
                trace.trace_id, "queue-wait", "msgd",
                t_enq, t_deq,
                parent_id=trace.parent_span_id, queue="accept",
            )
        try:
            self._route_one(envelope, path, trace, t_deq, journal_seq=jseq)
        except ReproError:
            self.counters.inc("dropped_unroutable")
            self._m_dropped.labels(reason="unroutable").inc()
            self._dead_letter(
                jseq, "unroutable",
                trace_id=trace.trace_id if trace else None,
            )
            log_event(
                self._log, logging.WARNING, "drop",
                trace=trace.trace_id if trace else None,
                reason="unroutable", path=path,
            )
        except Exception:  # noqa: BLE001 - keep pool threads alive
            self.counters.inc("internal_errors")
            # poison, not transient: replaying it would fail the same
            # way forever, so it goes to the dead-letter queue
            self._dead_letter(
                jseq, "internal_error",
                trace_id=trace.trace_id if trace else None,
            )

    def _route_one(
        self,
        envelope: Envelope,
        path: str,
        trace: TraceContext | None = None,
        t_start: float | None = None,
        journal_seq: int | None = None,
        from_hold: bool = False,
    ) -> None:
        headers = AddressingHeaders.from_envelope(envelope)
        now = self.clock.now()
        if t_start is None:
            t_start = now
        self._expire_correlations(now)

        # Duplicate absorption (config.dedupe_window): at-least-once
        # upstreams — journal replay, client resends, hold-store retries —
        # deliver the same MessageID more than once; forward only the first.
        # A redelivery from the resolve-later hold path skips the check:
        # its MessageID was recorded on the admission pass that parked it,
        # and absorbing it here would silently drop the message.
        if (
            not from_hold
            and self._dedupe is not None
            and headers.message_id
            and self._dedupe.seen(headers.message_id)
        ):
            self.counters.inc("duplicates_suppressed")
            self._m_duplicates.inc()
            if journal_seq is not None and self.durable is not None:
                self.durable.mark(journal_seq, ABSORBED, reason="duplicate")
            log_event(
                self._log, logging.DEBUG, "duplicate",
                trace=trace.trace_id if trace else None,
                message_id=headers.message_id,
            )
            return

        # A response from a WS? (RelatesTo hits a pending correlation)
        for rel in headers.relates_to:
            corr = self._pop_correlation(rel)
            if corr is not None:
                self._route_response(
                    envelope, headers, corr, trace, t_start,
                    journal_seq=journal_seq,
                )
                return

        # A fresh client request: logical → physical, rewrite, enqueue.
        to_addr = headers.to or path
        try:
            logical = extract_logical(to_addr, self.mount_prefix)
        except RoutingError:
            logical = extract_logical(path, self.mount_prefix)
        try:
            physical = self.registry.resolve(logical)
        except UnknownServiceError:
            self.counters.inc("unknown_service")
            raise
        except RegistryUnavailable:
            # A registry outage is transient — park the pre-rewrite message
            # under a resolve-later sentinel instead of dead-lettering it
            # (and instead of burning a delivery retry against a physical
            # URL we never obtained).  On redelivery we re-route; raising
            # here keeps a hold-store redelivery parked (rescheduled).
            if (
                not from_hold
                and self.hold_store is not None
                and headers.message_id
            ):
                self._hold_unresolved(
                    envelope, path, headers.message_id, trace, journal_seq
                )
                return
            raise

        if self.inspector is not None:
            try:
                self.inspector(envelope, logical)
            except ReproError:
                self.counters.inc("rejected_by_inspector")
                self._m_dropped.labels(reason="inspector").inc()
                raise

        result = rewrite_for_forwarding(
            envelope, physical, self.own_address,
            passthrough_reply_prefixes=(
                *self.config.passthrough_reply_prefixes,
                *self._cohosted_deposits,
            ),
        )
        if result.original_reply_to or result.original_fault_to:
            with self._lock:
                # pop first: a re-sent MessageID moves to the back, keeping
                # the table in expiry order
                self._correlations.pop(result.message_id, None)
                self._correlations[result.message_id] = _Correlation(
                    reply_to=result.original_reply_to,
                    fault_to=result.original_fault_to,
                    expires_at=now + self.config.correlation_ttl,
                    passed_through=result.passed_through,
                )
        route_sid = None
        if trace is not None:
            # Pre-allocate the route span's id so the forwarded message
            # can name it as the downstream parent before it is recorded.
            # Attached even when the store is disabled so the wire bytes
            # of traced traffic never depend on store enablement.
            route_sid = self.traces.new_span_id()
            attach_trace(result.envelope, trace.child(route_sid))
        if isinstance(result.envelope, LazyEnvelope):
            self.counters.inc("forwarded_spliced")
        self._enqueue(
            result.envelope.to_bytes(), physical,
            message_id=result.message_id,
            trace=trace, parent_span_id=route_sid,
            journal_seq=journal_seq,
        )
        self.counters.inc("routed_requests")
        if route_sid is not None:
            self.traces.record(
                trace.trace_id, "route", "msgd",
                t_start, self.clock.now(),
                span_id=route_sid, parent_id=trace.parent_span_id,
                logical=logical, dest=physical,
            )
        log_event(
            self._log, logging.DEBUG, "route",
            trace=trace.trace_id if trace else None,
            logical=logical, dest=physical,
        )

    def _route_response(
        self,
        envelope: Envelope,
        headers: AddressingHeaders,
        corr: _Correlation,
        trace: TraceContext | None = None,
        t_start: float | None = None,
        journal_seq: int | None = None,
    ) -> None:
        target = corr.fault_to if envelope.is_fault() and corr.fault_to else corr.reply_to
        if target is None or target.is_anonymous:
            self.counters.inc("dropped_no_reply_to")
            self._m_dropped.labels(reason="no_reply_to").inc()
            self._dead_letter(
                journal_seq, "no_reply_to",
                trace_id=trace.trace_id if trace else None,
            )
            return
        out = envelope.copy()
        new_headers = headers.copy()
        new_headers.to = target.address
        # Per WSA binding: reference properties of the target EPR become
        # message headers (this is how the mailbox id reaches WS-MsgBox).
        new_headers.reference_headers.extend(
            p.copy() for p in target.reference_properties
        )
        new_headers.attach(out)
        route_sid = None
        if trace is not None:
            route_sid = self.traces.new_span_id()
            attach_trace(out, trace.child(route_sid))
        if isinstance(out, LazyEnvelope):
            self.counters.inc("forwarded_spliced")
        self._enqueue(
            out.to_bytes(), target.address,
            trace=trace, parent_span_id=route_sid,
            journal_seq=journal_seq,
        )
        self.counters.inc("routed_responses")
        if route_sid is not None:
            self.traces.record(
                trace.trace_id, "route", "msgd",
                t_start if t_start is not None else self.clock.now(),
                self.clock.now(),
                span_id=route_sid, parent_id=trace.parent_span_id,
                direction="response", dest=target.address,
            )
        log_event(
            self._log, logging.DEBUG, "route",
            trace=trace.trace_id if trace else None,
            direction="response", dest=target.address,
        )

    # -- correlation table ----------------------------------------------
    def _pop_correlation(self, message_id: str) -> _Correlation | None:
        with self._lock:
            corr = self._correlations.pop(message_id, None)
        if corr is None:
            return None
        if corr.expires_at < self.clock.now():
            self.counters.inc("expired_correlations")
            return None
        return corr

    def _expire_correlations(self, now: float) -> None:
        """Collect expired entries from the front of the table: O(expired),
        not O(live) — the oldest entry is the first to expire."""
        expired = 0
        with self._lock:
            table = self._correlations
            while table:
                oldest = next(iter(table))
                if table[oldest].expires_at >= now:
                    break
                del table[oldest]
                expired += 1
        if expired:
            self.counters.inc("expired_correlations", expired)

    def pending_correlations(self) -> int:
        with self._lock:
            return len(self._correlations)

    # -- WsThread: per-destination FIFO + persistent connection ------------
    @staticmethod
    def _endpoint_key(target_url: str) -> str:
        endpoint, _path = parse_http_url(target_url)
        return str(endpoint)

    def _enqueue(
        self,
        envelope_bytes: bytes,
        target_url: str,
        message_id: str | None = None,
        trace: TraceContext | None = None,
        parent_span_id: str | None = None,
        journal_seq: int | None = None,
    ) -> None:
        trace_id = trace.trace_id if trace else None
        try:
            key = self._endpoint_key(target_url)
        except ReproError:
            self.counters.inc("dropped_unroutable")
            self._m_dropped.labels(reason="unroutable").inc()
            self._dead_letter(journal_seq, "unroutable", trace_id=trace_id)
            return
        with self._lock:
            dest = self._destinations.get(key)
            if dest is None:
                dest = _Destination(key, self.config.destination_queue)
                self._destinations[key] = dest
                self._m_dest_depth.labels(dest=key).set_function(
                    lambda d=dest: len(d.queue)
                )
        try:
            item = _OutboundItem(
                envelope_bytes, target_url, message_id=message_id,
                trace=trace, parent_span_id=parent_span_id,
                enqueued_at=self.clock.now(),
                journal_seq=journal_seq,
            )
            if not dest.queue.try_put(item):
                self.counters.inc("dropped_destination_queue_full")
                self._m_dropped.labels(reason="destination_queue_full").inc()
                self._dead_letter(
                    journal_seq, "destination_queue_full",
                    trace_id=trace_id, dest=key,
                )
                log_event(
                    self._log, logging.WARNING, "drop",
                    trace=trace_id, reason="destination_queue_full", dest=key,
                )
                return
        except QueueClosed:
            # shutdown race: the journal record (if any) stays enqueued,
            # so the next incarnation replays it instead of losing it
            self.counters.inc("dropped_shutdown")
            self._m_dropped.labels(reason="shutdown").inc()
            return
        log_event(
            self._log, logging.DEBUG, "enqueue", trace=trace_id, dest=key
        )
        self._ensure_worker(dest)

    def _ensure_worker(self, dest: _Destination) -> None:
        with self._lock:
            if dest.thread is not None and dest.thread.is_alive():
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
                if len(batch) > 1:
                    self._deliver_batch(batch)
                else:
                    for item in batch:
                        self._deliver(item)
        finally:
            with self._lock:
                dest.thread = None
            self._ws_slots.release()
            self._adopt_orphan()

    def _adopt_orphan(self) -> None:
        """After a slot frees, start a worker for any queued-but-idle dest."""
        with self._lock:
            candidates = [
                d
                for d in self._destinations.values()
                if len(d.queue) and (d.thread is None or not d.thread.is_alive())
            ]
        for d in candidates:
            self._ensure_worker(d)

    def _note_dequeued(self, item: _OutboundItem) -> None:
        """Record destination-queue wait once, on the item's first attempt."""
        if item.attempts:
            return
        t_deq = self.clock.now()
        wait = t_deq - item.enqueued_at
        self._m_queue_wait.labels(queue="destination").observe(wait)
        self._m_stage_queue_dest.observe(wait)
        if item.trace is not None:
            self.traces.record(
                item.trace.trace_id, "queue-wait", "msgd",
                item.enqueued_at, t_deq,
                parent_id=item.parent_span_id, queue="destination",
                dest=item.target_url,
            )

    def _deliver(self, item: _OutboundItem) -> None:
        if self.breakers is not None and not self.breakers.allow(
            self._endpoint_key(item.target_url)
        ):
            self._breaker_block(item)
            return
        self._note_dequeued(item)
        item.attempts += 1
        t_send = self.clock.now()
        try:
            response = self.client.request(
                item.target_url,
                _make_post(item.envelope_bytes),
            )
            if response.status >= 400:
                raise TransportError(f"HTTP {response.status} from {item.target_url}")
        except (TransportError, ReproError):
            self._record_outcome(item.target_url, False)
            self._handle_delivery_failure(item)
            return
        self._record_outcome(item.target_url, True)
        self._finish_delivery(
            item, response, t_send, self.clock.now(),
            parent_span_id=item.parent_span_id,
        )

    def _deliver_batch(self, batch: "list[_OutboundItem]") -> None:
        """Drain one batch as a single pipelined burst on a leased connection.

        Per-item semantics are identical to :meth:`_deliver`: each item
        still gets its own retry/backoff, hold-store parking, correlation
        absorption, metrics, and trace spans.  The only difference is the
        wire schedule — N requests ride one write burst instead of N
        serialized round trips — plus one ``pipeline-burst`` span (per
        distinct trace in the batch) parenting the per-item ``deliver``
        spans.
        """
        if not self._batch_admitted(batch):
            return
        requests = self._prepare_batch(batch)
        t_burst = self.clock.now()
        try:
            lease = self.client.lease(batch[0].target_url)
        except (TransportError, ReproError):
            # no connection at all: every item takes its own failure path
            self._record_outcome(batch[0].target_url, False)
            for item in batch:
                self._handle_delivery_failure(item)
            return
        try:
            outcomes = lease.pipeline(requests)
        finally:
            lease.release()
        t_done = self.clock.now()
        for item in self._settle_batch(batch, outcomes, t_burst, t_done):
            self._handle_delivery_failure(item)

    def _batch_admitted(self, batch: "list[_OutboundItem]") -> bool:
        """Breaker gate for a whole batch (one shared destination)."""
        if self.breakers is not None and not self.breakers.allow(
            self._endpoint_key(batch[0].target_url)
        ):
            # the whole batch shares one destination; park it all
            for item in batch:
                self._breaker_block(item)
            return False
        return True

    def _prepare_batch(self, batch: "list[_OutboundItem]") -> list:
        """Count attempts and build the burst's prepared requests."""
        for item in batch:
            self._note_dequeued(item)
            item.attempts += 1
        requests = []
        for item in batch:
            req = _make_post(item.envelope_bytes)
            self.client.prepare(item.target_url, req)
            requests.append(req)
        return requests

    def _settle_batch(
        self,
        batch: "list[_OutboundItem]",
        outcomes: list,
        t_burst: float,
        t_done: float,
    ) -> "list[_OutboundItem]":
        """Record spans/outcomes for a finished burst; returns the items
        that failed (the caller applies retry/hold/drop handling, which
        may need to sleep — blocking here would stall an event loop)."""
        burst_sid = None
        traced = {i.trace.trace_id: i for i in batch if i.trace is not None}
        if traced:
            burst_sid = self.traces.new_span_id()
            for trace_id, first in traced.items():
                self.traces.record(
                    trace_id, "pipeline-burst", "msgd",
                    t_burst, t_done,
                    span_id=burst_sid, parent_id=first.parent_span_id,
                    dest=batch[0].target_url, size=len(batch),
                )
        failed: list[_OutboundItem] = []
        for item, outcome in zip(batch, outcomes):
            ok = isinstance(outcome, HttpResponse) and outcome.status < 400
            self._record_outcome(item.target_url, ok)
            if ok:
                self._finish_delivery(
                    item, outcome, t_burst, t_done,
                    parent_span_id=(
                        burst_sid if item.trace is not None
                        else item.parent_span_id
                    ),
                )
            else:
                failed.append(item)
        return failed

    def _record_outcome(self, target_url: str, ok: bool) -> None:
        if self.breakers is not None:
            self.breakers.record(self._endpoint_key(target_url), ok)

    def _park_in_hold(self, item: _OutboundItem) -> None:
        """Hand an undeliverable item to the hold store for scheduled
        redelivery.  When the hold store journals its own ``held`` record,
        the inbound record is retired (absorbed) — otherwise a crash would
        replay the message from *both* records."""
        self.hold_store.hold(
            item.message_id, item.target_url, item.envelope_bytes
        )
        if (
            self.durable is not None
            and item.journal_seq is not None
            and getattr(self.hold_store, "durable", None) is not None
        ):
            self.durable.mark(item.journal_seq, ABSORBED, reason="held")

    def _hold_unresolved(
        self,
        envelope: Envelope,
        path: str,
        message_id: str,
        trace: TraceContext | None,
        journal_seq: int | None,
    ) -> None:
        """Registry could not answer: park the message for later
        re-resolution under a ``hold+resolve:`` sentinel target rather
        than dead-lettering it or burning delivery retries."""
        self.hold_store.hold(
            message_id, hold_resolve_target(path), envelope.to_bytes()
        )
        if (
            self.durable is not None
            and journal_seq is not None
            and getattr(self.hold_store, "durable", None) is not None
        ):
            self.durable.mark(journal_seq, ABSORBED, reason="held")
        self.counters.inc("hold_registry_unavailable")
        log_event(
            self._log, logging.INFO, "hold",
            trace=trace.trace_id if trace else None,
            reason="registry_unavailable", path=path,
        )

    def _breaker_block(self, item: _OutboundItem) -> None:
        """Deny without a network attempt: park in the hold store (so the
        message survives the outage without burning retries) or drop."""
        trace_id = item.trace.trace_id if item.trace else None
        if self.hold_store is not None and item.message_id is not None:
            self._park_in_hold(item)
            self.counters.inc("held_breaker_open")
            log_event(
                self._log, logging.INFO, "hold",
                trace=trace_id, reason="breaker_open", dest=item.target_url,
            )
        else:
            self.counters.inc("dropped_breaker_open")
            self._m_dropped.labels(reason="breaker_open").inc()
            self._dead_letter(
                item.journal_seq, "breaker_open",
                trace_id=trace_id, dest=item.target_url,
            )
            log_event(
                self._log, logging.WARNING, "drop",
                trace=trace_id, reason="breaker_open", dest=item.target_url,
            )

    def deliver_held(self, msg) -> None:
        """Transmission function for a :class:`HoldRetryStore` bound to
        this dispatcher: breaker-aware single-shot redelivery.  Raising
        keeps the message held (the store reschedules it)."""
        if is_hold_resolve_target(msg.target_url):
            # Parked pre-resolution (registry was unavailable): run the
            # routing pass again.  RegistryUnavailable propagates and the
            # store reschedules; success re-enters the normal outbound
            # pipeline (the rewrite preserves the MessageID, so a later
            # delivery failure re-holds under the physical URL).
            envelope = parse_envelope(
                msg.envelope_bytes, counter=self._m_fastpath
            )
            self._route_one(
                envelope, split_hold_resolve_target(msg.target_url),
                trace=extract_trace(envelope), from_hold=True,
            )
            self.counters.inc("held_redelivered")
            return
        key = self._endpoint_key(msg.target_url)
        if self.breakers is not None and not self.breakers.allow(key):
            raise BreakerOpenError(f"breaker open for {key}")
        try:
            response = self.client.request(
                msg.target_url, _make_post(msg.envelope_bytes)
            )
            if response.status >= 400:
                raise TransportError(
                    f"HTTP {response.status} from {msg.target_url}"
                )
        except (TransportError, ReproError):
            if self.breakers is not None:
                self.breakers.record(key, False)
            raise
        if self.breakers is not None:
            self.breakers.record(key, True)
        self.counters.inc("held_redelivered")

    def _handle_delivery_failure(self, item: _OutboundItem) -> None:
        """One failed attempt: in-line retry, hold-store parking, or drop."""
        retry = self.config.retry
        if retry is not None and retry.should_retry(item.attempts):
            # the async backend mirrors this branch with a non-blocking
            # sleep; the split keeps the bookkeeping identical on both
            self.clock.sleep(retry.delay_before(item.attempts + 1))
            self._requeue_retry(item)
        else:
            self._fail_no_retry(item)

    def _requeue_retry(self, item: _OutboundItem) -> None:
        """Count and re-queue one in-line retry (after the backoff sleep)."""
        self._enqueue_retry(item)
        self.counters.inc("retries")
        self._m_retries.inc()
        log_event(
            self._log, logging.INFO, "retry",
            trace=item.trace.trace_id if item.trace else None,
            dest=item.target_url, attempts=item.attempts,
        )

    def _fail_no_retry(self, item: _OutboundItem) -> None:
        """Retry budget spent (or none configured): park or drop."""
        trace_id = item.trace.trace_id if item.trace else None
        if self.hold_store is not None and item.message_id is not None:
            # reliable mode: park the message for scheduled redelivery
            self._park_in_hold(item)
            self.counters.inc("held_for_retry")
            log_event(
                self._log, logging.INFO, "hold",
                trace=trace_id, dest=item.target_url,
            )
        else:
            self.counters.inc("delivery_failures")
            self._m_dropped.labels(reason="delivery_failure").inc()
            self._dead_letter(
                item.journal_seq, "delivery_failure",
                trace_id=trace_id, dest=item.target_url,
            )
            log_event(
                self._log, logging.WARNING, "drop",
                trace=trace_id, reason="delivery_failure",
                dest=item.target_url, attempts=item.attempts,
            )

    def _finish_delivery(
        self,
        item: _OutboundItem,
        response,
        t_send: float,
        t_done: float,
        parent_span_id: str | None,
    ) -> None:
        self.counters.inc("delivered")
        self._m_delivered.inc()
        self._m_transmit.observe(t_done - t_send)
        self._m_stage_deliver.observe(t_done - t_send)
        if self.durable is not None and item.journal_seq is not None:
            self.durable.mark(item.journal_seq, DELIVERED)
        if item.trace is not None:
            self.traces.record(
                item.trace.trace_id, "deliver", "msgd",
                t_send, t_done,
                parent_id=parent_span_id,
                dest=item.target_url, attempts=item.attempts,
            )
        log_event(
            self._log, logging.DEBUG, "deliver",
            trace=item.trace.trace_id if item.trace else None,
            dest=item.target_url,
        )
        self._absorb_inband_response(item, response)

    def _absorb_inband_response(self, item: _OutboundItem, response) -> None:
        """Quadrant 3 of Table 1: an RPC-style service answered in-band.

        The dispatcher translates the in-band SOAP response into a proper
        one-way response message (adding RelatesTo so the correlation
        entry routes it) and feeds it back through the pipeline.  Without
        an in-band answer, a correlation entry kept only for this case
        (every EPR passed through) is dropped here.
        """
        if item.message_id is None:
            return
        if response.status != 200 or not response.body:
            # No in-band answer, and a passed-through reply goes straight
            # to the mailbox: nothing will ever pop this entry.
            with self._lock:
                corr = self._correlations.get(item.message_id)
                if corr is not None and corr.passed_through:
                    del self._correlations[item.message_id]
            return
        try:
            envelope = parse_envelope(response.body, counter=self._m_fastpath)
            headers = AddressingHeaders.from_envelope(envelope)
        except ReproError:
            self.counters.inc("inband_unparseable")
            return
        if item.message_id not in headers.relates_to:
            headers.relates_to.append(item.message_id)
        if not headers.to:
            headers.to = self.own_address
        headers.attach(envelope)
        # An RPC service won't echo our trace header; continue the
        # forwarded message's context on the synthesised response.
        trace = extract_trace(envelope) or (
            item.trace.child(item.parent_span_id)
            if item.trace is not None and item.parent_span_id
            else item.trace
        )
        jseq: int | None = None
        if self.durable is not None:
            # a synthesised response is a fresh inbound message and gets
            # its own journal record
            jseq = self.durable.append(
                None, self.mount_prefix, envelope.to_bytes(), kind="inbound"
            )
        try:
            if self._accept_queue.try_put(
                (envelope, self.mount_prefix, trace, self.clock.now(), jseq)
            ):
                self.counters.inc("inband_responses")
            elif jseq is not None:
                self.durable.mark(jseq, ABSORBED, reason="rejected")
        except QueueClosed:
            if jseq is not None:
                self.durable.mark(jseq, ABSORBED, reason="rejected")

    def _enqueue_retry(self, item: _OutboundItem) -> None:
        with self._lock:
            dest = self._destinations.get(self._endpoint_key(item.target_url))
        if dest is None:
            self.counters.inc("delivery_failures")
            return
        try:
            if not dest.queue.try_put(item):
                self.counters.inc("delivery_failures")
        except QueueClosed:
            self.counters.inc("delivery_failures")

    def _hold_pump_loop(self, interval: float) -> None:
        import time as _time

        while self._running:
            try:
                self.hold_store.pump()
            except Exception:  # noqa: BLE001 - keep the maintenance thread up
                self.counters.inc("internal_errors")
            _time.sleep(interval)

    # -- introspection -----------------------------------------------------
    @property
    def stats(self) -> dict[str, int]:
        return self.counters.as_dict()

    def _backlog(self) -> int:
        """Total messages queued anywhere in the dispatcher."""
        with self._lock:
            return len(self._accept_queue) + sum(
                len(d.queue) for d in self._destinations.values()
            )

    def health_snapshot(self) -> dict:
        """Breaker/overload state for the introspection surface."""
        snapshot: dict = {
            "backlog": self._backlog(),
            "shed": self.counters.get("shed_overload"),
            "drain_timeouts": self.counters.get("drain_timeouts"),
        }
        if self.breakers is not None:
            snapshot["breakers"] = self.breakers.snapshot()
        if self.hold_store is not None:
            snapshot["hold_store"] = self.hold_store.stats
        if self.durable is not None:
            snapshot["journal"] = dict(
                self.durable.stats,
                pending=self.durable.pending_count(),
                dead=self.durable.counts().get(DEAD, 0),
            )
        return snapshot

    def active_destinations(self) -> int:
        with self._lock:
            return sum(
                1
                for d in self._destinations.values()
                if d.thread is not None and d.thread.is_alive()
            )

    def drain(self, timeout: float = 5.0) -> bool:
        """Wait until every queue is empty (tests); True on success."""
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._backlog() == 0:
                delivered = self.counters.get("delivered")
                time.sleep(0.02)
                if self.counters.get("delivered") == delivered:
                    return True
            else:
                time.sleep(0.01)
        self.counters.inc("drain_timeouts")
        self._m_drain_timeouts.inc()
        with self._lock:
            stuck = {
                key: len(d.queue)
                for key, d in self._destinations.items()
                if len(d.queue)
            }
            accept_depth = len(self._accept_queue)
        log_event(
            self._log, logging.WARNING, "drain-timeout",
            timeout=timeout, accept_queue=accept_depth,
            stuck=";".join(f"{k}={n}" for k, n in sorted(stuck.items())) or "-",
        )
        self.flight.record(
            "drain-timeout", "msgd", t=self.clock.now(),
            timeout=timeout, accept_queue=accept_depth,
            stuck=len(stuck),
        )
        return False


def _make_post(body: bytes):
    from repro.http import Headers, HttpRequest
    from repro.soap.constants import SOAP11_CONTENT_TYPE

    headers = Headers()
    headers.set("Content-Type", SOAP11_CONTENT_TYPE)
    return HttpRequest("POST", "/", headers=headers, body=body)
