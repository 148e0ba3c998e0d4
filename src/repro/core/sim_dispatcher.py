"""Simulated hostings of the RPC- and MSG-Dispatchers.

Same routing/rewrite logic as the threaded versions (shared pure modules
:mod:`repro.core.routing` and :mod:`repro.wsa.rules`); the execution
substrate is the event kernel instead of thread pools: CxThreads become
``cx_workers`` routing processes, WsThreads become per-destination
delivery processes bounded by a ``ws_workers`` resource, the FIFO queue is
a :class:`~repro.simnet.resources.Store`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.errors import (
    RegistryUnavailable,
    ReproError,
    RoutingError,
    SoapError,
    TransportError,
    UnknownServiceError,
    XmlError,
)
from repro.http import Headers, HttpRequest, HttpResponse
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
from repro.reliable.breaker import BreakerConfig, BreakerRegistry
from repro.reliable.holdretry import DuplicateFilter, HoldRetryStore
from repro.store.journal import ABSORBED, DEAD, DELIVERED, MessageJournal
from repro.rt.service import soap_fault_response
from repro.simnet.httpsim import SimHttpClientPool
from repro.simnet.kernel import Simulator
from repro.simnet.resources import Resource, Store
from repro.simnet.topology import Host, Network
from repro.soap import Envelope, Fault, LazyEnvelope, fastpath_counter, parse_envelope
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.transport.base import parse_http_url
from repro.util.stats import Counter
from repro.wsa import AddressingHeaders, EndpointReference, rewrite_for_forwarding
from repro.core.registry import ServiceRegistry
from repro.core.routing import (
    extract_logical,
    hold_resolve_target,
    is_hold_resolve_target,
    split_hold_resolve_target,
)


#: reply-address scheme used by the sync-over-async bridge
_SYNC_SCHEME = "urn:wsd:sync:"


def _soap_post(path: str, body: bytes) -> HttpRequest:
    headers = Headers()
    headers.set("Content-Type", SOAP11_CONTENT_TYPE)
    return HttpRequest("POST", path, headers=headers, body=body)


class SimRpcDispatcher:
    """RPC forwarding proxy as a simulated HTTP handler.

    The handler is a generator: the worker slot serving the client
    connection stays occupied for the whole forwarded exchange — the
    blocking behaviour that gives RPC forwarding its Table 1 limits.
    """

    def __init__(
        self,
        net: Network,
        host: Host,
        registry: ServiceRegistry,
        mount_prefix: str = "/rpc",
        connect_timeout: float = 21.0,
        response_timeout: float = 30.0,
        balancer: object | None = None,
        metrics: MetricsRegistry | None = None,
        traces: TraceStore | None = None,
    ) -> None:
        """``balancer`` (a :class:`~repro.core.loadbalance.BalancerPolicy`)
        receives on_start/on_finish load feedback per forwarded call so
        least-pending selection can see in-flight work."""
        self.net = net
        self.registry = registry
        self.mount_prefix = mount_prefix
        self.balancer = balancer
        self.pool = SimHttpClientPool(
            net,
            host,
            connect_timeout=connect_timeout,
            response_timeout=response_timeout,
        )
        self.counters = Counter()
        self.metrics = metrics if metrics is not None else default_registry()
        self.traces = traces if traces is not None else default_trace_store()
        self._log = component_logger("rpcd")
        self._m_forwarded = self.metrics.counter(
            "rpcd_forwarded_total", "RPC exchanges proxied to a service"
        )
        self._m_rejected = self.metrics.counter(
            "rpcd_rejected_total", "RPC requests rejected, by reason"
        )
        self._m_failed = self.metrics.counter(
            "rpcd_failed_total", "RPC forwards that could not reach the service"
        )
        self._m_forward_time = self.metrics.histogram(
            "rpcd_forward_seconds",
            "blocking dispatcher-to-service exchange time",
        )
        self._m_fastpath = fastpath_counter(self.metrics)

    def handler(self, request: HttpRequest):
        """Generator handler for :class:`~repro.simnet.httpsim.SimHttpServer`."""
        if request.method != "POST":
            return HttpResponse(status=405, body=b"RPC dispatcher accepts POST")
        try:
            logical = extract_logical(request.target, self.mount_prefix)
            envelope = parse_envelope(request.body, counter=self._m_fastpath)
        except (RoutingError, XmlError, SoapError) as exc:
            self.counters.inc("rejected")
            self._m_rejected.labels(reason="bad_request").inc()
            return soap_fault_response(Fault("Client", str(exc)), status=400)
        trace = extract_trace(envelope)
        try:
            physical = self.registry.resolve(logical)
        except UnknownServiceError as exc:
            self.counters.inc("rejected")
            self._m_rejected.labels(reason="unknown_service").inc()
            return soap_fault_response(Fault("Client", str(exc)), status=404)
        endpoint, path = parse_http_url(physical)
        if isinstance(envelope, LazyEnvelope):
            forward = _soap_post(path, request.body)  # verbatim, scan-validated
        else:
            forward = _soap_post(path, envelope.to_bytes())
        if self.balancer is not None:
            self.balancer.on_start(physical)
        t_send = self.net.sim.now
        try:
            response = yield from self.pool.exchange(
                endpoint.host, endpoint.port, forward
            )
        except (TransportError, ReproError) as exc:
            self.counters.inc("failed")
            self._m_failed.inc()
            return soap_fault_response(
                Fault("Server", f"cannot reach {logical}: {exc}"), status=502
            )
        finally:
            if self.balancer is not None:
                self.balancer.on_finish(physical)
        t_done = self.net.sim.now
        self.counters.inc("forwarded")
        self._m_forwarded.inc()
        self._m_forward_time.observe(t_done - t_send)
        if trace is not None:
            self.traces.record(
                trace.trace_id, "forward", "rpcd",
                t_send, t_done,
                parent_id=trace.parent_span_id,
                logical=logical, dest=physical,
            )
        log_event(
            self._log, logging.DEBUG, "forward",
            trace=trace.trace_id if trace else None,
            logical=logical, dest=physical,
        )
        out = Headers()
        ct = response.headers.get("Content-Type")
        if ct:
            out.set("Content-Type", ct)
        return HttpResponse(status=response.status, headers=out, body=response.body)

    @property
    def stats(self) -> dict[str, int]:
        return self.counters.as_dict()


@dataclass
class SimMsgDispatcherConfig:
    """Knobs of the simulated MSG-Dispatcher (mirrors the threaded config)."""

    cx_workers: int = 4
    ws_workers: int = 8
    accept_queue: int = 1024
    destination_queue: int = 1024
    batch_size: int = 8
    #: concurrent WsThreads (connections) a single busy destination may use
    parallel_per_destination: int = 1
    destination_idle_ttl: float = 10.0
    correlation_ttl: float = 120.0
    connect_timeout: float = 21.0
    response_timeout: float = 30.0
    #: False = paper-faithful (no admission control: a full accept queue
    #: blocks the HTTP worker); True = answer 503 when saturated
    shed_on_full: bool = False
    #: ReplyTo prefixes left unrewritten (the dispatcher's own co-located
    #: WS-MsgBox — services reply to it directly, paper section 4.3.2)
    passthrough_reply_prefixes: tuple = ()
    #: per-destination circuit breaking (None = no breakers, the
    #: paper-faithful behaviour: every delivery attempt hits the wire)
    breaker: BreakerConfig | None = None
    #: total dispatcher backlog (accept + destination queues) above which
    #: new messages are shed with 503 Retry-After (None = unbounded)
    max_inflight: int | None = None
    shed_retry_after: float = 1.0
    #: how often the hold/retry pump re-examines parked messages
    hold_pump_interval: float = 0.25
    #: sliding-window duplicate suppression on the inbound absorption path
    #: (sim seconds); None = forward duplicates untouched
    dedupe_window: float | None = None


@dataclass
class _SimCorrelation:
    reply_to: EndpointReference | None
    fault_to: EndpointReference | None
    expires_at: float
    #: every EPR went to the service untouched: only an in-band answer
    #: (Table 1 quadrant 3) can still need this entry
    passed_through: bool = False


class SimMsgDispatcher:
    """MSG-Dispatcher as a family of simulation processes."""

    def __init__(
        self,
        net: Network,
        host: Host,
        registry: ServiceRegistry,
        own_address: str,
        mount_prefix: str = "/msg",
        config: SimMsgDispatcherConfig | None = None,
        metrics: MetricsRegistry | None = None,
        traces: TraceStore | None = None,
        hold_store: HoldRetryStore | None = None,
        durable: MessageJournal | None = None,
        recover: bool = True,
        flight: FlightRecorder | None = None,
    ) -> None:
        """``durable`` / ``recover`` mirror the threaded dispatcher: a
        :class:`~repro.store.MessageJournal` journals every admitted
        message before the 202 ack, and ``recover=True`` replays a
        previous incarnation's undelivered records at construction —
        the simulated twin of restarting after a
        :class:`~repro.chaos.ServiceCrash`.  Construct the journal with
        ``sync="lazy"`` (group commit would really sleep) and a
        ``now_fn`` bound to the simulation clock.

        ``flight`` receives the state-transition events (sheds,
        dead-letters, recoveries, crashes) on the simulation clock, so a
        seeded run dumps a bit-identical flight record."""
        self.net = net
        self.sim: Simulator = net.sim
        self.host = host
        self.registry = registry
        self.own_address = own_address
        self.mount_prefix = mount_prefix
        self.config = config or SimMsgDispatcherConfig()
        self.pool = SimHttpClientPool(
            net,
            host,
            connect_timeout=self.config.connect_timeout,
            response_timeout=self.config.response_timeout,
            pool_per_destination=max(2, self.config.parallel_per_destination),
        )
        self.counters = Counter()
        self.metrics = metrics if metrics is not None else default_registry()
        self.traces = traces if traces is not None else default_trace_store()
        self.flight = flight if flight is not None else default_flight_recorder()
        self._log = component_logger("msgd")
        self._accept: Store = Store(self.sim, capacity=self.config.accept_queue)
        self._m_accepted = self.metrics.counter(
            "msgd_accepted_total", "messages admitted to the accept queue"
        )
        self._m_dropped = self.metrics.counter(
            "msgd_dropped_total", "messages dropped, by reason"
        )
        self._m_delivered = self.metrics.counter(
            "msgd_delivered_total", "messages delivered to their destination"
        )
        self._m_queue_wait = self.metrics.histogram(
            "msgd_queue_wait_seconds",
            "time spent waiting in dispatcher queues, by queue",
        )
        self._m_transmit = self.metrics.histogram(
            "msgd_transmit_seconds",
            "time spent transmitting to the destination",
        )
        self.metrics.gauge(
            "msgd_accept_queue_depth", "messages waiting for a CxThread"
        ).set_function(lambda: len(self._accept))
        self._m_dest_depth = self.metrics.gauge(
            "msgd_destination_queue_depth",
            "messages waiting for a WsThread, by destination",
        )
        self._m_shed = self.metrics.counter(
            "dispatcher_shed_total",
            "requests shed by admission control, by component",
        )
        self._m_fastpath = fastpath_counter(self.metrics)
        stage = stage_histogram(self.metrics)
        self._m_stage_admit = stage.labels(stage="admit")
        self._m_stage_journal = stage.labels(stage="journal")
        self._m_stage_queue_accept = stage.labels(stage="queue_accept")
        self._m_stage_queue_dest = stage.labels(stage="queue_destination")
        self._m_stage_deliver = stage.labels(stage="deliver")
        self._correlations: dict[str, _SimCorrelation] = {}
        self._waiters: dict[str, object] = {}  # sync-bridge events by URI
        self._destinations: dict[str, Store] = {}
        self._dest_workers: dict[str, int] = {}
        self._ws_slots = Resource(self.sim, capacity=self.config.ws_workers)
        self.breakers: BreakerRegistry | None = None
        if self.config.breaker is not None:
            self.breakers = BreakerRegistry(
                self.config.breaker, clock=self.sim.clock,
                metrics=self.metrics, flight=self.flight,
            )
        #: failed deliveries are parked here instead of dropped; a pump
        #: process re-queues them on the policy schedule.  Construct the
        #: store with ``clock=net.sim.clock`` so TTLs follow sim time.
        self.hold_store = hold_store
        self.durable = durable
        self._replayed_seqs: set[int] = set()
        self._dedupe: DuplicateFilter | None = None
        if self.config.dedupe_window is not None:
            self._dedupe = DuplicateFilter(
                window=self.config.dedupe_window, clock=self.sim.clock
            )
        self._m_duplicates = self.metrics.counter(
            "dispatcher_duplicates_total",
            "inbound messages suppressed as duplicates",
        )
        self._m_deadletter = self.metrics.counter(
            "dispatcher_deadletter_total",
            "Messages moved to the dead-letter queue, by reason",
        )
        self._hold_pump_active = False
        self._running = True
        for i in range(self.config.cx_workers):
            self.sim.process(self._cx_loop(), name=f"sim-cx-{i}")
        if self.durable is not None and recover:
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
        to the next incarnation with ``recover=True``."""
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

    # -- crash recovery -----------------------------------------------------
    def recover(self) -> int:
        """Replay undelivered journal records into the accept queue
        (at-least-once; idempotent per seq within one incarnation)."""
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
            if not self._accept.try_put(
                (envelope, rec.target, trace, self.sim.now, rec.seq)
            ):
                break  # queue full; the rest stay journaled for later
            replayed += 1
        if self.hold_store is not None and getattr(
            self.hold_store, "durable", None
        ) is not None:
            restored = self.hold_store.restore()
            replayed += restored
            if restored:
                self._ensure_hold_pump()
        if replayed:
            self.counters.inc("recovered", replayed)
            log_event(self._log, logging.INFO, "recover", replayed=replayed)
            self.flight.record(
                "journal-recover", "msgd", t=self.sim.now, replayed=replayed
            )
        return replayed

    def _dead_letter(
        self,
        journal_seq: int | None,
        reason: str,
        trace_id: str | None = None,
        dest: str | None = None,
    ) -> None:
        if self.durable is None or journal_seq is None:
            return
        self.durable.mark(journal_seq, DEAD, reason=reason)
        self.counters.inc("dead_lettered")
        self._m_deadletter.labels(reason=reason).inc()
        now = self.sim.now
        log_event(
            self._log, logging.WARNING, "deadletter",
            trace=trace_id, reason=reason, seq=journal_seq, dest=dest,
        )
        self.flight.record(
            "deadletter", "msgd", t=now,
            trace=trace_id, reason=reason, seq=journal_seq, dest=dest,
        )
        self.flight.postmortem("deadletter", t=now, reason=reason)

    # -- HTTP handler (accepts one-way messages, answers 202) --------------
    def handler(self, request: HttpRequest):
        """Generator handler.

        When the accept queue is full the behaviour depends on
        ``config.shed_on_full``: the paper's stack had no admission
        control, so the default is to *block* the HTTP worker until a
        CxThread frees a slot — saturation then propagates to the TCP
        front door and clients slow down or time out.  With shedding on,
        the dispatcher answers 503 instead (the load-shedding redesign).
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
        trace_id = trace.trace_id if trace else None
        if (
            self.config.max_inflight is not None
            and self.backlog() >= self.config.max_inflight
        ):
            self.counters.inc("shed_overload")
            self._m_shed.labels(component="sim_msgd").inc()
            log_event(
                self._log, logging.WARNING, "shed",
                trace=trace_id, backlog=self.backlog(),
                max_inflight=self.config.max_inflight,
            )
            self.flight.record(
                "shed", "msgd", t=t_arrival,
                trace=trace_id, path=request.target,
                backlog=self.backlog(),
                max_inflight=self.config.max_inflight,
            )
            return self._shed_response()
        jseq: int | None = None
        if self.durable is not None:
            # journal before ack: from here the journal owns the message
            t_journal = self.sim.now
            jseq = self.durable.append(
                None, request.target, request.body, kind="inbound"
            )
            self._m_stage_journal.observe(self.sim.now - t_journal)
        if self.config.shed_on_full:
            if not self._accept.try_put(
                (envelope, request.target, trace, t_arrival, jseq)
            ):
                if jseq is not None:
                    self.durable.mark(jseq, ABSORBED, reason="rejected")
                self.counters.inc("dropped_accept_queue_full")
                self._m_dropped.labels(reason="accept_queue_full").inc()
                log_event(
                    self._log, logging.WARNING, "drop",
                    trace=trace_id, reason="accept_queue_full",
                )
                return self._shed_response()
        else:
            yield self._accept.put(
                (envelope, request.target, trace, t_arrival, jseq)
            )
        self.counters.inc("accepted")
        self._m_accepted.inc()
        self._m_stage_admit.observe(self.sim.now - t_arrival)
        if trace is not None:
            self.traces.record(
                trace.trace_id, "admit", "msgd",
                t_arrival, self.sim.now,
                parent_id=trace.parent_span_id, path=request.target,
            )
        log_event(
            self._log, logging.DEBUG, "admit",
            trace=trace_id, path=request.target,
        )
        return HttpResponse(status=202)

    def _shed_response(self) -> HttpResponse:
        headers = Headers()
        headers.set("Retry-After", f"{self.config.shed_retry_after:g}")
        return HttpResponse(
            status=503, headers=headers, body=b"dispatcher overloaded"
        )

    # -- CxThread processes ---------------------------------------------------
    def _cx_loop(self):
        while self._running:
            envelope, path, trace, t_enq, jseq = yield self._accept.get()
            t_deq = self.sim.now
            self._m_queue_wait.labels(queue="accept").observe(t_deq - t_enq)
            self._m_stage_queue_accept.observe(t_deq - t_enq)
            if trace is not None:
                self.traces.record(
                    trace.trace_id, "queue-wait", "msgd",
                    t_enq, t_deq,
                    parent_id=trace.parent_span_id, queue="accept",
                )
            try:
                outbound = self._route_one(envelope, path, trace, journal_seq=jseq)
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
                continue
            for body, target_url, message_id, parent_sid in outbound:
                try:
                    endpoint, path = parse_http_url(target_url)
                except ReproError:
                    self.counters.inc("dropped_unroutable")
                    self._m_dropped.labels(reason="unroutable").inc()
                    self._dead_letter(
                        jseq, "unroutable",
                        trace_id=trace.trace_id if trace else None,
                        dest=target_url,
                    )
                    continue
                # WsThreads are bound to *endpoints* (host:port) — every
                # mailbox on one WS-MsgBox service shares one connection
                # queue, exactly like one WsThread per Web Service.
                dest_key = f"{endpoint.host}:{endpoint.port}"
                store = self._dest_store(dest_key)
                # Blocking put: when a destination backs up, CxThreads
                # stall, the accept queue fills, and the HTTP front door
                # starts shedding load — the backpressure chain a
                # bounded-queue thread architecture produces.
                yield store.put(
                    (path, body, message_id, trace, parent_sid, self.sim.now,
                     jseq)
                )
                self._ensure_worker(dest_key, store)

    def _route_one(
        self,
        envelope: Envelope,
        path: str,
        trace: TraceContext | None = None,
        journal_seq: int | None = None,
        from_hold: bool = False,
    ) -> list[tuple[bytes, str, str | None, str | None]]:
        """Pure routing decision: (bytes, target_url, message_id, route span)."""
        headers = AddressingHeaders.from_envelope(envelope)
        now = self.sim.now

        # duplicate absorption (config.dedupe_window): forward only the
        # first of an at-least-once upstream's redeliveries — except a
        # resolve-later redelivery, whose MessageID was recorded on the
        # admission pass that parked it (absorbing would drop the message)
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
            return []

        for rel in headers.relates_to:
            corr = self._correlations.pop(rel, None)
            if corr is not None:
                if corr.expires_at < now:
                    self.counters.inc("expired_correlations")
                    self._dead_letter(
                        journal_seq, "expired_correlation",
                        trace_id=trace.trace_id if trace else None,
                    )
                    return []
                return self._route_response(
                    envelope, headers, corr, trace, journal_seq=journal_seq
                )

        to_addr = headers.to or path
        try:
            logical = extract_logical(to_addr, self.mount_prefix)
        except RoutingError:
            logical = extract_logical(path.split("?", 1)[0], self.mount_prefix)
        try:
            physical = self.registry.resolve(logical)
        except UnknownServiceError:
            self.counters.inc("unknown_service")
            raise
        except RegistryUnavailable:
            # Transient registry outage: park pre-rewrite under a
            # resolve-later sentinel instead of dead-lettering.  A hold
            # redelivery re-raises so the pump reschedules it.
            if (
                not from_hold
                and self.hold_store is not None
                and headers.message_id
            ):
                self.hold_store.hold(
                    headers.message_id,
                    hold_resolve_target(path),
                    envelope.to_bytes(),
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
                self._ensure_hold_pump()
                return []
            raise
        result = rewrite_for_forwarding(
            envelope, physical, self.own_address,
            passthrough_reply_prefixes=self.config.passthrough_reply_prefixes,
        )
        # The oldest entry is the first to expire (one constant TTL, an
        # insertion-ordered dict): collect from the front, O(expired).
        table = self._correlations
        while table:
            oldest = next(iter(table))
            if table[oldest].expires_at >= now:
                break
            del table[oldest]
            self.counters.inc("expired_correlations")
        if result.original_reply_to or result.original_fault_to:
            table.pop(result.message_id, None)  # a re-send moves to the back
            table[result.message_id] = _SimCorrelation(
                result.original_reply_to,
                result.original_fault_to,
                now + self.config.correlation_ttl,
                result.passed_through,
            )
        route_sid = self._route_span(trace, result.envelope, logical, physical)
        if isinstance(result.envelope, LazyEnvelope):
            self.counters.inc("forwarded_spliced")
        self.counters.inc("routed_requests")
        log_event(
            self._log, logging.DEBUG, "route",
            trace=trace.trace_id if trace else None,
            logical=logical, dest=physical,
        )
        return [(result.envelope.to_bytes(), physical, result.message_id, route_sid)]

    def _route_span(
        self,
        trace: TraceContext | None,
        out_envelope: Envelope,
        logical: str | None,
        dest: str,
    ) -> str | None:
        """Record the (instantaneous) routing decision as a span and stamp
        the outgoing envelope so downstream spans parent on it."""
        if trace is None:
            return None
        # Stamp even when the store is disabled: the wire bytes of traced
        # traffic must not depend on store enablement (the overhead
        # benchmark compares the two modes on identical traffic).
        route_sid = self.traces.new_span_id()
        attach_trace(out_envelope, trace.child(route_sid))
        self.traces.record(
            trace.trace_id, "route", "msgd",
            self.sim.now, self.sim.now,
            span_id=route_sid, parent_id=trace.parent_span_id,
            logical=logical or "", dest=dest,
        )
        return route_sid

    def _route_response(
        self,
        envelope: Envelope,
        headers: AddressingHeaders,
        corr: _SimCorrelation,
        trace: TraceContext | None = None,
        journal_seq: int | None = None,
    ) -> list[tuple[bytes, str, str | None, str | None]]:
        target = (
            corr.fault_to if envelope.is_fault() and corr.fault_to else corr.reply_to
        )
        if target is not None and target.address.startswith(_SYNC_SCHEME):
            waiter = self._waiters.pop(target.address, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(envelope)
                self.counters.inc("bridged_responses")
                if journal_seq is not None and self.durable is not None:
                    self.durable.mark(journal_seq, DELIVERED)
            return []
        if target is None or target.is_anonymous:
            self.counters.inc("dropped_no_reply_to")
            self._m_dropped.labels(reason="no_reply_to").inc()
            self._dead_letter(
                journal_seq, "no_reply_to",
                trace_id=trace.trace_id if trace else None,
            )
            return []
        out = envelope.copy()
        new_headers = headers.copy()
        new_headers.to = target.address
        new_headers.reference_headers.extend(
            p.copy() for p in target.reference_properties
        )
        new_headers.attach(out)
        route_sid = self._route_span(trace, out, None, target.address)
        if isinstance(out, LazyEnvelope):
            self.counters.inc("forwarded_spliced")
        self.counters.inc("routed_responses")
        log_event(
            self._log, logging.DEBUG, "route",
            trace=trace.trace_id if trace else None,
            direction="response", dest=target.address,
        )
        return [(out.to_bytes(), target.address, None, route_sid)]

    # -- WsThread processes -------------------------------------------------
    def _dest_store(self, target_url: str) -> Store:
        store = self._destinations.get(target_url)
        if store is None:
            store = Store(self.sim, capacity=self.config.destination_queue)
            self._destinations[target_url] = store
            self._m_dest_depth.labels(dest=target_url).set_function(
                lambda s=store: len(s)
            )
        return store

    def _ensure_worker(self, target_url: str, store: Store) -> None:
        """Spawn delivery workers for a destination, up to the parallel cap
        and justified by its queue depth."""
        active = self._dest_workers.get(target_url, 0)
        if active >= self.config.parallel_per_destination:
            return
        if active > 0 and len(store) <= active:
            return  # existing workers can absorb the backlog
        self._dest_workers[target_url] = active + 1
        self.sim.process(
            self._ws_loop(target_url, store), name=f"sim-ws-{target_url}"
        )

    def _enqueue(
        self,
        envelope_bytes: bytes,
        target_url: str,
        message_id: str | None = None,
        trace: TraceContext | None = None,
        parent_span_id: str | None = None,
        journal_seq: int | None = None,
    ) -> None:
        """Non-blocking enqueue (used off the CxThread path)."""
        try:
            endpoint, path = parse_http_url(target_url)
        except ReproError:
            self.counters.inc("dropped_unroutable")
            self._m_dropped.labels(reason="unroutable").inc()
            self._dead_letter(
                journal_seq, "unroutable",
                trace_id=trace.trace_id if trace else None, dest=target_url,
            )
            return
        dest_key = f"{endpoint.host}:{endpoint.port}"
        store = self._dest_store(dest_key)
        if not store.try_put(
            (path, envelope_bytes, message_id, trace, parent_span_id,
             self.sim.now, journal_seq)
        ):
            self.counters.inc("dropped_destination_queue_full")
            self._m_dropped.labels(reason="destination_queue_full").inc()
            self._dead_letter(
                journal_seq, "destination_queue_full",
                trace_id=trace.trace_id if trace else None, dest=dest_key,
            )
            return
        self._ensure_worker(dest_key, store)

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
        host, _, port_text = dest_key.rpartition(":")
        port = int(port_text)
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
                    if len(batch) > 1:
                        yield from self._deliver_batch(host, port, batch)
                    else:
                        for item in batch:
                            yield from self._deliver(host, port, *item)
                finally:
                    slot.release()
        finally:
            remaining = self._dest_workers.get(dest_key, 1) - 1
            self._dest_workers[dest_key] = max(0, remaining)
            if len(store):
                # messages arrived while we were exiting: restart a worker
                self._ensure_worker(dest_key, store)

    def _deliver(
        self,
        host: str,
        port: int,
        path: str,
        body: bytes,
        message_id: str | None = None,
        trace: TraceContext | None = None,
        parent_span_id: str | None = None,
        enqueued_at: float | None = None,
        journal_seq: int | None = None,
    ):
        dest = f"{host}:{port}"
        t_send = self.sim.now
        if enqueued_at is not None:
            self._m_queue_wait.labels(queue="destination").observe(
                t_send - enqueued_at
            )
            self._m_stage_queue_dest.observe(t_send - enqueued_at)
            if trace is not None:
                self.traces.record(
                    trace.trace_id, "queue-wait", "msgd",
                    enqueued_at, t_send,
                    parent_id=parent_span_id, queue="destination", dest=dest,
                )
        if self.breakers is not None and not self.breakers.allow(dest):
            self._breaker_block(dest, path, body, message_id, trace, journal_seq)
            return
        try:
            response = yield from self.pool.exchange(
                host, port, _soap_post(path, body)
            )
            if response.status >= 400:
                raise TransportError(f"HTTP {response.status}")
        except (TransportError, ReproError):
            self.counters.inc("delivery_failures")
            if self.breakers is not None:
                self.breakers.record(dest, ok=False)
            if self._park_failed(dest, path, body, message_id, journal_seq):
                self.counters.inc("held_for_retry")
                log_event(
                    self._log, logging.DEBUG, "hold",
                    trace=trace.trace_id if trace else None,
                    reason="delivery_failure", dest=dest,
                )
                return
            self._m_dropped.labels(reason="delivery_failure").inc()
            self._dead_letter(
                journal_seq, "delivery_failure",
                trace_id=trace.trace_id if trace else None, dest=dest,
            )
            log_event(
                self._log, logging.WARNING, "drop",
                trace=trace.trace_id if trace else None,
                reason="delivery_failure", dest=dest,
            )
            return
        t_done = self.sim.now
        if self.breakers is not None:
            self.breakers.record(dest, ok=True)
        if self.hold_store is not None and message_id is not None:
            self.hold_store.complete(message_id)
        if self.durable is not None and journal_seq is not None:
            self.durable.mark(journal_seq, DELIVERED)
        self.counters.inc("delivered")
        self._m_delivered.inc()
        self._m_transmit.observe(t_done - t_send)
        self._m_stage_deliver.observe(t_done - t_send)
        if trace is not None:
            self.traces.record(
                trace.trace_id, "deliver", "msgd",
                t_send, t_done,
                parent_id=parent_span_id, dest=dest,
            )
        log_event(
            self._log, logging.DEBUG, "deliver",
            trace=trace.trace_id if trace else None, dest=dest,
        )
        self._absorb_inband_response(response, message_id, trace, parent_span_id)

    def _deliver_batch(self, host: str, port: int, batch: list):
        """Drain one batch as a single pipelined burst (simulated twin of
        the threaded ``MsgDispatcher._deliver_batch``).

        Per-item semantics match :meth:`_deliver` — queue-wait spans,
        delivered/failed accounting, in-band response absorption — but the
        wire schedule is one write burst instead of N serialized round
        trips, plus one ``pipeline-burst`` span per distinct trace in the
        batch parenting the per-item ``deliver`` spans.
        """
        dest = f"{host}:{port}"
        t_burst = self.sim.now
        if self.breakers is not None and not self.breakers.allow(dest):
            for path, body, message_id, trace, _sid, _enq, jseq in batch:
                self._breaker_block(dest, path, body, message_id, trace, jseq)
            return
        for path, body, message_id, trace, parent_sid, enqueued_at, _jseq in batch:
            if enqueued_at is not None:
                self._m_queue_wait.labels(queue="destination").observe(
                    t_burst - enqueued_at
                )
                self._m_stage_queue_dest.observe(t_burst - enqueued_at)
                if trace is not None:
                    self.traces.record(
                        trace.trace_id, "queue-wait", "msgd",
                        enqueued_at, t_burst,
                        parent_id=parent_sid, queue="destination", dest=dest,
                    )
        requests = [_soap_post(path, body) for path, body, *_ in batch]
        outcomes = yield from self.pool.pipeline(host, port, requests)
        t_done = self.sim.now

        burst_sid = None
        traced = {
            item[3].trace_id: item for item in batch if item[3] is not None
        }
        if traced:
            burst_sid = self.traces.new_span_id()
            for trace_id, first in traced.items():
                self.traces.record(
                    trace_id, "pipeline-burst", "msgd",
                    t_burst, t_done,
                    span_id=burst_sid, parent_id=first[4],
                    dest=dest, size=len(batch),
                )
        for item, outcome in zip(batch, outcomes):
            path, body, message_id, trace, parent_sid, _enq, jseq = item
            ok = isinstance(outcome, HttpResponse) and outcome.status < 400
            if self.breakers is not None:
                self.breakers.record(dest, ok)
            if ok:
                if self.hold_store is not None and message_id is not None:
                    self.hold_store.complete(message_id)
                if self.durable is not None and jseq is not None:
                    self.durable.mark(jseq, DELIVERED)
                self.counters.inc("delivered")
                self._m_delivered.inc()
                self._m_transmit.observe(t_done - t_burst)
                self._m_stage_deliver.observe(t_done - t_burst)
                if trace is not None:
                    self.traces.record(
                        trace.trace_id, "deliver", "msgd",
                        t_burst, t_done,
                        parent_id=burst_sid,
                        dest=dest,
                    )
                log_event(
                    self._log, logging.DEBUG, "deliver",
                    trace=trace.trace_id if trace else None, dest=dest,
                )
                self._absorb_inband_response(
                    outcome, message_id, trace, parent_sid
                )
            else:
                self.counters.inc("delivery_failures")
                if self._park_failed(dest, path, body, message_id, jseq):
                    self.counters.inc("held_for_retry")
                    log_event(
                        self._log, logging.DEBUG, "hold",
                        trace=trace.trace_id if trace else None,
                        reason="delivery_failure", dest=dest,
                    )
                    continue
                self._m_dropped.labels(reason="delivery_failure").inc()
                self._dead_letter(
                    jseq, "delivery_failure",
                    trace_id=trace.trace_id if trace else None, dest=dest,
                )
                log_event(
                    self._log, logging.WARNING, "drop",
                    trace=trace.trace_id if trace else None,
                    reason="delivery_failure", dest=dest,
                )

    # -- hold/retry + breaker wiring ----------------------------------------
    def _park_failed(
        self,
        dest: str,
        path: str,
        body: bytes,
        message_id: str | None,
        journal_seq: int | None = None,
    ) -> bool:
        """Park a failed delivery in the hold store; True when parked.

        A message already held (a redelivery claimed by the pump) is
        rescheduled — its attempt was counted at claim time; a fresh
        message is held under its MessageID.  Messages without a
        MessageID cannot be deduplicated on redelivery, so they are never
        parked.  When the hold store journals its own ``held`` record,
        the inbound record is retired (absorbed) so a crash replays the
        message from exactly one record.
        """
        if self.hold_store is None or message_id is None:
            return False
        if self.hold_store.is_held(message_id):
            self.hold_store.reschedule(message_id, now=self.sim.now)
        else:
            self.hold_store.hold(message_id, f"http://{dest}{path}", body)
            if (
                self.durable is not None
                and journal_seq is not None
                and getattr(self.hold_store, "durable", None) is not None
            ):
                self.durable.mark(journal_seq, ABSORBED, reason="held")
        self._ensure_hold_pump()
        return True

    def _breaker_block(
        self,
        dest: str,
        path: str,
        body: bytes,
        message_id: str | None,
        trace: TraceContext | None,
        journal_seq: int | None = None,
    ) -> None:
        """An open breaker refused the delivery: park instead of burning a
        connect timeout against the dead destination."""
        if self._park_failed(dest, path, body, message_id, journal_seq):
            self.counters.inc("held_breaker_open")
            log_event(
                self._log, logging.DEBUG, "hold",
                trace=trace.trace_id if trace else None,
                reason="breaker_open", dest=dest,
            )
            return
        self.counters.inc("dropped_breaker_open")
        self._m_dropped.labels(reason="breaker_open").inc()
        self._dead_letter(
            journal_seq, "breaker_open",
            trace_id=trace.trace_id if trace else None, dest=dest,
        )
        log_event(
            self._log, logging.WARNING, "drop",
            trace=trace.trace_id if trace else None,
            reason="breaker_open", dest=dest,
        )

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
                for msg in self.hold_store.take_due(now=self.sim.now):
                    self._requeue_held(msg)
                if self.hold_store.pending() == 0:
                    return
        finally:
            self._hold_pump_active = False

    def _requeue_held(self, msg) -> None:
        """Feed one claimed held message back into a destination queue."""
        if is_hold_resolve_target(msg.target_url):
            self._requeue_unresolved(msg)
            return
        try:
            endpoint, path = parse_http_url(msg.target_url)
        except ReproError:
            self.hold_store.reschedule(msg.message_id, now=self.sim.now)
            return
        dest_key = f"{endpoint.host}:{endpoint.port}"
        store = self._dest_store(dest_key)
        if not store.try_put(
            (path, msg.envelope_bytes, msg.message_id, None, None, self.sim.now,
             None)
        ):
            self.hold_store.reschedule(msg.message_id, now=self.sim.now)
            return
        self.counters.inc("held_requeued")
        self._ensure_worker(dest_key, store)

    def _requeue_unresolved(self, msg) -> None:
        """Re-run the routing pass for a message parked while the registry
        was unavailable.  Still-unavailable (or any transient routing
        error) reschedules; a routed message re-enters the outbound
        pipeline under its preserved MessageID, so the eventual delivery
        completes the hold entry."""
        path = split_hold_resolve_target(msg.target_url)
        try:
            envelope = parse_envelope(
                msg.envelope_bytes, counter=self._m_fastpath
            )
            outbound = self._route_one(
                envelope, path, trace=extract_trace(envelope), from_hold=True
            )
        except ReproError:
            self.hold_store.reschedule(msg.message_id, now=self.sim.now)
            return
        if not outbound:
            # handled in-band (correlation, sync waiter): nothing left to
            # deliver, so the hold entry is done
            self.hold_store.complete(msg.message_id)
            return
        requeued = False
        for body, target_url, message_id, parent_sid in outbound:
            try:
                endpoint, out_path = parse_http_url(target_url)
            except ReproError:
                continue
            dest_key = f"{endpoint.host}:{endpoint.port}"
            store = self._dest_store(dest_key)
            if store.try_put(
                (out_path, body, message_id, None, parent_sid, self.sim.now,
                 None)
            ):
                requeued = True
                self._ensure_worker(dest_key, store)
        if requeued:
            self.counters.inc("held_requeued")
        else:
            self.hold_store.reschedule(msg.message_id, now=self.sim.now)

    def _absorb_inband_response(
        self,
        response: HttpResponse,
        message_id: str | None,
        trace: TraceContext | None = None,
        parent_span_id: str | None = None,
    ) -> None:
        """Quadrant 3 of Table 1: translate an in-band RPC reply into a
        one-way response message and re-inject it into the pipeline.
        Without one, a correlation entry kept only for this case (every
        EPR passed through) is dropped here."""
        if message_id is None:
            return
        if response.status != 200 or not response.body:
            # No in-band answer, and a passed-through reply goes straight
            # to the mailbox: nothing will ever pop this entry.
            corr = self._correlations.get(message_id)
            if corr is not None and corr.passed_through:
                del self._correlations[message_id]
            return
        try:
            envelope = parse_envelope(response.body, counter=self._m_fastpath)
            headers = AddressingHeaders.from_envelope(envelope)
        except ReproError:
            self.counters.inc("inband_unparseable")
            return
        if message_id not in headers.relates_to:
            headers.relates_to.append(message_id)
        if not headers.to:
            headers.to = self.own_address
        headers.attach(envelope)
        # An RPC service won't echo our trace header; continue the
        # forwarded message's context on the synthesised response.
        in_trace = extract_trace(envelope) or (
            trace.child(parent_span_id)
            if trace is not None and parent_span_id
            else trace
        )
        jseq: int | None = None
        if self.durable is not None:
            # a synthesised response is a fresh inbound message
            jseq = self.durable.append(
                None, self.mount_prefix, envelope.to_bytes(), kind="inbound"
            )
        if self._accept.try_put(
            (envelope, self.mount_prefix, in_trace, self.sim.now, jseq)
        ):
            self.counters.inc("inband_responses")
        elif jseq is not None:
            self.durable.mark(jseq, ABSORBED, reason="rejected")

    # -- sync-over-async bridge (Table 1 quadrant 2) ------------------------
    def bridge_handler(
        self,
        request: HttpRequest,
        bridge_timeout: float = 30.0,
        mount_prefix: str = "/bridge",
    ):
        """Generator handler: RPC client in, messaging service behind.

        Forwards the message through the normal pipeline but holds the
        client's HTTP connection open until the asynchronous response
        comes back (or the bridge timeout fires — "may not work at all if
        message reply comes too late").  Plain RPC envelopes without any
        WS-Addressing are accepted: the bridge synthesises a MessageID and
        derives ``wsa:To`` from the request path.
        """
        if request.method != "POST":
            return HttpResponse(status=405)
        try:
            envelope = Envelope.from_bytes(request.body)
            headers = AddressingHeaders.from_envelope(envelope)
        except (XmlError, SoapError) as exc:
            return soap_fault_response(Fault("Client", str(exc)), status=400)
        if not headers.to:
            from repro.core.routing import logical_uri

            try:
                headers.to = logical_uri(
                    extract_logical(request.target, mount_prefix)
                )
            except RoutingError as exc:
                return soap_fault_response(Fault("Client", str(exc)), status=404)
        message_id = headers.message_id or f"uuid:bridge-{id(request)}-{self.sim.now}"
        sentinel = f"{_SYNC_SCHEME}{message_id}"
        headers.message_id = message_id
        headers.reply_to = EndpointReference(sentinel)
        headers.attach(envelope)

        waiter = self.sim.event()
        self._waiters[sentinel] = waiter
        trace = extract_trace(envelope)
        try:
            outbound = self._route_one(envelope, request.target, trace)
        except ReproError as exc:
            self._waiters.pop(sentinel, None)
            self.counters.inc("dropped_unroutable")
            return soap_fault_response(Fault("Client", str(exc)), status=404)
        for body, target_url, out_mid, parent_sid in outbound:
            self._enqueue(
                body, target_url, message_id=out_mid,
                trace=trace, parent_span_id=parent_sid,
            )
        self.counters.inc("accepted")
        idx, value = yield self.sim.any_of(
            [waiter, self.sim.timeout(bridge_timeout)]
        )
        if idx == 1:
            self._waiters.pop(sentinel, None)
            self.counters.inc("bridge_timeouts")
            return soap_fault_response(
                Fault("Server", "no response before bridge timeout"), status=504
            )
        reply: Envelope = value
        body = reply.to_bytes()
        out = Headers()
        out.set("Content-Type", reply.version.content_type)
        return HttpResponse(status=200, headers=out, body=body)

    # -- introspection -----------------------------------------------------
    @property
    def stats(self) -> dict[str, int]:
        return self.counters.as_dict()

    def pending_correlations(self) -> int:
        return len(self._correlations)

    def backlog(self) -> int:
        return len(self._accept) + sum(len(s) for s in self._destinations.values())

    def health_snapshot(self) -> dict:
        """Overload/robustness view (for ``Introspection.add_health_source``)."""
        snapshot: dict = {
            "backlog": self.backlog(),
            "shed": self.counters.as_dict().get("shed_overload", 0),
        }
        if self.breakers is not None:
            snapshot["breakers"] = self.breakers.snapshot()
        if self.hold_store is not None:
            snapshot["hold_store"] = dict(self.hold_store.stats)
            snapshot["hold_store"]["pending"] = self.hold_store.pending()
        if self.durable is not None:
            snapshot["journal"] = dict(
                self.durable.stats,
                pending=self.durable.pending_count(),
                dead=self.durable.counts().get(DEAD, 0),
            )
        return snapshot
