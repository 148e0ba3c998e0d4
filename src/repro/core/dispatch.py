"""The MSG-Dispatcher's decisions, written once (paper §4, Fig. 3).

accept → resolve → rewrite → per-destination FIFO → deliver, and
"responses ... are also treated like requests".  The paper describes one
dispatcher; this module is it.  :class:`DispatchCore` owns everything the
three hostings agree on: the metric families and counters, admission
bookkeeping and the journal-before-ack / mark-after-settle protocol, the
duplicate window, the correlation table, the WS-Addressing rewrite and
the §4.3.2 co-hosting predicate, shard ownership, hold parking, the
dead-letter / drop taxonomy, in-band (Table 1 quadrant 3) absorption,
the quadrant-2 sync bridge, journal recovery and the health view.

It is substrate-free: it reads the clock it is handed and never sleeps,
blocks, spawns or touches a socket.  Decisions are plain methods whose
return value tells the driver what to do — :meth:`DispatchCore.route`
*returns* the outbound items, :meth:`DispatchCore.routes_in_place` says
which thread runs it, :meth:`DispatchCore.requeue_due` puts due held
messages back on the destination queues.  Delivering a drained batch is
one generator, :meth:`DispatchCore.deliver`, that *yields* the wire
exchange and the retry backoff as effects (the style of
:mod:`repro.http.session`); a bridged request is another,
:meth:`DispatchCore.bridge`, that yields its one wait.  The drivers
(:class:`~repro.core.MsgDispatcher`,
:class:`~repro.aio.AioMsgDispatcher`,
:class:`~repro.core.sim_dispatcher.SimMsgDispatcher`) subclass it and
keep what really differs by substrate: the queue primitive, the worker
lifecycle, and how an effect is performed — a blocking call, an
``await``, a ``yield from``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import (
    ReproError,
    RegistryUnavailable,
    RoutingError,
    SoapError,
    UnknownServiceError,
    XmlError,
)
from repro.http import Headers, HttpRequest, HttpResponse
from repro.http.session import soap_post
from repro.obs.flight import FlightRecorder, default_flight_recorder
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.slo import stage_histogram
from repro.obs.trace import (
    TraceContext,
    TraceStore,
    attach_trace,
    default_trace_store,
    extract_trace,
)
from repro.reliable.holdretry import DuplicateFilter
from repro.rt.service import soap_fault_response
from repro.soap import Envelope, Fault, LazyEnvelope, fastpath_counter, parse_envelope
from repro.store.journal import ABSORBED, DEAD, DELIVERED, MessageJournal
from repro.transport.base import parse_http_url
from repro.util.clock import Clock
from repro.util.stats import Counter
from repro.wsa import AddressingHeaders, EndpointReference, rewrite_for_forwarding
from repro.core.registry import ServiceRegistry
from repro.core.routing import (
    extract_logical,
    hold_resolve_target,
    is_hold_resolve_target,
    logical_uri,
    split_hold_resolve_target,
)

#: the effects of :meth:`DispatchCore.deliver`: two on the wire, and the
#: in-line retry's backoff
REQUEST, PIPELINE, SLEEP = "request", "pipeline", "sleep"
#: the one effect of :meth:`DispatchCore.bridge`
WAIT = "wait"

#: reply-address scheme of the sync-over-async bridge's sentinels
_SYNC_SCHEME = "urn:wsd:sync:"


@dataclass
class DispatcherConfigBase:
    """The knobs every MSG-Dispatcher driver reads through the core (the
    paper: "the sizes of the pools are configurable"); each driver's
    config adds its own pool sizes and wire settings."""

    accept_queue: int = 1024
    destination_queue: int = 1024
    #: messages drained per connection write burst (batching ablation A2)
    batch_size: int = 8
    #: how long a WsThread keeps an idle destination before releasing it
    destination_idle_ttl: float = 10.0
    #: correlation (MessageID → ReplyTo) lifetime
    correlation_ttl: float = 120.0
    #: how often the hold/retry pump puts due parked messages back on
    #: their destination queues (:meth:`DispatchCore.requeue_due`)
    hold_pump_interval: float = 0.25
    #: sliding-window duplicate suppression on the inbound absorption path
    #: (seconds on the driver's clock); at-least-once redelivery — journal
    #: replay, client resends, hold-store retries from an upstream
    #: dispatcher — becomes effectively-once.  None (the default) forwards
    #: duplicates untouched.
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
    #: entered the destination queue (stamped by the driver)
    trace: TraceContext | None = None
    parent_span_id: str | None = None
    enqueued_at: float = 0.0
    #: journal sequence of the inbound record this item descends from
    journal_seq: int | None = None


class DispatchCore:
    """One dispatcher's decisions; a driver supplies queues and the wire.

    Driver seams (plain overrides, no registry of strategies):
    :meth:`_offer`, :meth:`_try_enqueue` and :meth:`backlog` expose the
    driver's queues, and its accept queue is its ``_accept_queue``;
    :meth:`_ensure_hold_pump` defaults to doing nothing; ``_waiter()``
    makes the sync bridge's one-shot waiter, which :meth:`_wake` wakes.
    A driver runs :meth:`deliver` on a drained batch, :meth:`requeue_due`
    from its hold pump and :meth:`bridge` for each request to its bridge
    handler.
    """

    #: shard ownership (an ordinary routing rule): with a
    #: :class:`~repro.shard.ring.HashRing`, a request this shard does not
    #: own is relayed to ``peers[owner]`` (shard id -> direct base URL);
    #: :class:`~repro.core.msg_dispatcher.MsgDispatcher` takes all three
    ring = None
    shard_id = 0
    peers: dict = {}

    def __init__(
        self,
        registry: ServiceRegistry,
        own_address: str,
        mount_prefix: str,
        config,
        clock: Clock,
        hold_store: "object | None" = None,
        metrics: MetricsRegistry | None = None,
        traces: TraceStore | None = None,
        durable: MessageJournal | None = None,
        flight: FlightRecorder | None = None,
    ) -> None:
        self.registry = registry
        self.own_address = own_address
        self.mount_prefix = mount_prefix
        self.config = config
        self.clock = clock
        self.hold_store = hold_store
        self.durable = durable
        self._replayed_seqs: set[int] = set()
        self._dedupe: DuplicateFilter | None = None
        if config.dedupe_window is not None:
            self._dedupe = DuplicateFilter(window=config.dedupe_window, clock=clock)
        self.counters = Counter()
        self.metrics = metrics if metrics is not None else default_registry()
        self.traces = traces if traces is not None else default_trace_store()
        self.flight = flight if flight is not None else default_flight_recorder()

        self._m_accepted = self.metrics.counter(
            "msgd_accepted_total",
            "messages admitted and answered 202, routed in place or queued for a CxThread",
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
        self.metrics.gauge(
            "msgd_accept_queue_depth", "messages waiting for a CxThread"
        ).set_function(self._accept_depth)
        self._m_dest_depth = self.metrics.gauge(
            "msgd_destination_queue_depth",
            "messages waiting for a WsThread, by destination",
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
        if self.ring is not None:
            self._m_relayed = self.metrics.counter(
                "shard_relay_total",
                "messages relayed between shards, by direction",
            )
        # pipeline-stage latency histograms feeding the SLO tracker
        # (repro.obs.slo); one shared family, children cached per stage
        stage = stage_histogram(self.metrics)
        self._m_stage_admit = stage.labels(stage="admit")
        self._m_stage_journal = stage.labels(stage="journal")
        self._m_stage_queue_accept = stage.labels(stage="queue_accept")
        self._m_stage_queue_dest = stage.labels(stage="queue_destination")
        self._m_stage_deliver = stage.labels(stage="deliver")
        #: insertion-ordered, and the TTL is one constant: insertion order
        #: is expiry order (see the head sweep in :meth:`route`)
        self._correlations: dict[str, _Correlation] = {}
        #: deposit prefixes of the WS-MsgBox services co-hosted with this
        #: dispatcher, derived from the mount table (see :meth:`cohost`)
        self._cohosted_deposits: tuple[str, ...] = ()
        #: the sync bridge's waiters, by ``urn:wsd:sync:`` sentinel
        self._waiters: dict[str, object] = {}
        self._lock = threading.Lock()

    # -- driver seams -------------------------------------------------------
    def _offer(self, work: tuple) -> bool:
        """Put ``(envelope, path, trace, t_enqueued, journal_seq)`` — plus,
        when the driver decoded them at admission, the message's
        :class:`AddressingHeaders` — on the accept queue without blocking;
        False when it is full or closed."""
        raise NotImplementedError

    def _try_enqueue(self, item: _OutboundItem) -> str | None:
        """Put ``item`` on its destination queue without blocking (and
        see that a worker drains it): None when queued, else the reason
        it was not — ``unroutable``, ``destination_queue_full``,
        ``shutdown``."""
        raise NotImplementedError

    def _accept_depth(self) -> int:
        """Entries waiting on the accept queue."""
        return len(self._accept_queue)

    def backlog(self) -> int:
        """Total messages queued anywhere in the dispatcher."""
        raise NotImplementedError

    def _ensure_hold_pump(self) -> None:
        """Something was parked in the hold store (a driver whose pump is
        not always running starts it here)."""

    def _wake(self, waiter, envelope: Envelope) -> bool:
        """Hand ``envelope`` to a bridge waiter (by default one with a
        future's ``done`` / ``set_result``); False when its wait is over."""
        if waiter.done():
            return False
        waiter.set_result(envelope)
        return True

    # -- co-hosting (paper §4.3.2) -----------------------------------------
    def cohost(self, served: dict) -> None:
        """Learn which WS-MsgBox services this dispatcher is co-hosted with.

        ``served`` maps each origin (:class:`~repro.transport.base.Endpoint`)
        this dispatcher's own host serves to the
        :class:`~repro.rt.service.SoapHttpApp` serving it.  A
        ``ReplyTo``/``FaultTo`` that already names a co-hosted mailbox is
        left alone by :meth:`route` — the mailbox is as reachable as the
        dispatcher itself, so the service deposits its reply directly and
        the relay hop adds nothing.  A mounted service's declared
        ``deposit_prefix`` qualifies **iff** it is on the origin of the app
        it is mounted on and every path under it resolves, on that app, to
        that very service.  Drivers call this again whenever a mount table
        changes, so mount order does not matter.
        """
        deposits = []
        for origin, app in served.items():
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
            if not self._offer(
                (envelope, rec.target, extract_trace(envelope),
                 self.clock.now(), rec.seq)
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
            self.flight.record(
                "journal-recover", "msgd", t=self.clock.now(),
                replayed=replayed,
            )
        return replayed

    def _enqueue(self, item: _OutboundItem) -> None:
        """Put a routed item on its destination queue, or drop it (counted
        and dead-lettered) with the reason the queue gave."""
        refusal = self._try_enqueue(item)
        if refusal == "shutdown":
            # shutdown race: the journal record (if any) stays enqueued,
            # so the next incarnation replays it instead of losing it
            self.counters.inc("dropped_shutdown")
            self._m_dropped.labels(reason="shutdown").inc()
        elif refusal is not None:
            self._drop(
                refusal, item.journal_seq,
                item.trace.trace_id if item.trace else None,
                dest=item.target_url,
            )

    def _dead_letter(
        self,
        journal_seq: int | None,
        reason: str,
        trace_id: str | None = None,
        dest: str | None = None,
    ) -> None:
        """Move a journaled message to the dead-letter queue.

        Records a flight-recorder event carrying the message's trace id
        (the key of ``GET /trace/<id>``) and triggers a postmortem dump —
        a deadletter is exactly the moment the preceding ring of events
        is worth keeping.
        """
        if self.durable is None or journal_seq is None:
            return
        self.durable.mark(journal_seq, DEAD, reason=reason)
        self.counters.inc("dead_lettered")
        self._m_deadletter.labels(reason=reason).inc()
        now = self.clock.now()
        self.flight.record(
            "deadletter", "msgd", t=now,
            trace=trace_id, reason=reason, seq=journal_seq, dest=dest,
        )
        self.flight.postmortem("deadletter", t=now, reason=reason)

    def _drop(
        self,
        reason: str,
        journal_seq: int | None,
        trace_id: str | None,
        dest: str | None = None,
        **fields,
    ) -> None:
        """Count, dead-letter and record one message leaving by ``reason``."""
        self.counters.inc("dropped_" + reason)
        self._m_dropped.labels(reason=reason).inc()
        self._dead_letter(journal_seq, reason, trace_id=trace_id, dest=dest)
        self.flight.record(
            "drop", "msgd", t=self.clock.now(),
            trace=trace_id, reason=reason, dest=dest, **fields,
        )

    # -- admission (steps 1-2 of Fig. 3) -------------------------------------
    def journal_inbound(self, path: str, body: bytes) -> int:
        """Journal before ack: once this commits the dispatcher owns the
        message — a crash at any later point replays it."""
        t_journal = self.clock.now()
        jseq = self.durable.append(None, path, body, kind="inbound")
        self._m_stage_journal.observe(self.clock.now() - t_journal)
        return jseq

    def _mark_rejected(self, journal_seq: int | None) -> None:
        """Refused before the ack: the sender was told, so the journal
        must not replay it."""
        if journal_seq is not None and self.durable is not None:
            self.durable.mark(journal_seq, ABSORBED, reason="rejected")

    def refused(
        self, journal_seq: int | None, trace: TraceContext | None, path: str
    ) -> None:
        """The accept queue is full: the driver tells the client so."""
        self._mark_rejected(journal_seq)
        self.counters.inc("dropped_accept_queue_full")
        self._m_dropped.labels(reason="accept_queue_full").inc()
        self.flight.record(
            "drop", "msgd", t=self.clock.now(),
            trace=trace.trace_id if trace else None,
            reason="accept_queue_full", path=path,
        )

    def admitted(
        self, path: str, trace: TraceContext | None, t_arrival: float
    ) -> float:
        """The dispatcher took the message — onto the accept queue, or to
        route it in place: the driver answers 202.  Returns when the
        ``admit`` stage ended, which is when an in-place routing pass
        begins to wait."""
        self.counters.inc("accepted")
        self._m_accepted.inc()
        now = self.clock.now()
        self._m_stage_admit.observe(now - t_arrival)
        if trace is not None:
            self.traces.record(
                trace.trace_id, "admit", "msgd", t_arrival, now,
                parent_id=trace.parent_span_id, path=path,
            )
        return now

    def addressing_of(self, envelope: Envelope) -> AddressingHeaders | None:
        """Decode the addressing headers once, at admission; the result
        rides the work tuple into :meth:`route`.  None leaves a malformed
        block to the routing pass, which drops it as ``unroutable`` after
        the sender has its 202."""
        try:
            return AddressingHeaders.from_envelope(envelope)
        except ReproError:
            return None

    def routes_in_place(
        self,
        headers: AddressingHeaders | None,
        pool_idle: bool,
        may_enqueue: bool,
    ) -> bool:
        """May the thread that admitted this message route it itself?

        The paper's CxThreads *are* the accepting threads (Fig. 3); a
        second pool behind them buys no asynchrony — the 202 precedes
        delivery either way — and costs a thread change per message.  A
        routing pass never waits (a registry lookup is a map read; an
        unavailable registry parks the message under ``hold+resolve:``),
        so the pass runs where the message was admitted **iff**

        (a) ``pool_idle``: nothing admitted earlier is still unrouted
            (accept queue empty and no routing worker mid-pass), so an
            admission never overtakes an older one;
        (b) ``may_enqueue``: the driver lets this thread touch its
            destination queues;

        and its addressing headers decoded (a malformed block is the
        pool's to drop as ``unroutable``).  Otherwise the message takes
        the accept queue, as every message once did.
        """
        return pool_idle and may_enqueue and headers is not None

    # -- routing + rewriting (steps 2-4 of Fig. 3) ---------------------------
    def process(self, work: tuple) -> "list[_OutboundItem]":
        """Route one admitted entry (see :meth:`_offer` for its shape);
        returns what to enqueue."""
        envelope, path, trace, t_enq, jseq, *decoded = work
        t_deq = self.clock.now()
        self._m_stage_queue_accept.observe(t_deq - t_enq)
        if trace is not None:
            self.traces.record(
                trace.trace_id, "queue-wait", "msgd", t_enq, t_deq,
                parent_id=trace.parent_span_id, queue="accept",
            )
        try:
            return self.route(
                envelope, path, trace, t_deq, journal_seq=jseq,
                headers=decoded[0] if decoded else None,
            )
        except ReproError:
            self._drop(
                "unroutable", jseq, trace.trace_id if trace else None, path=path
            )
            return []

    def _logical_of(self, headers: AddressingHeaders, path: str) -> str:
        try:
            return extract_logical(headers.to or path, self.mount_prefix)
        except RoutingError:
            return extract_logical(path.split("?", 1)[0], self.mount_prefix)

    def route(
        self,
        envelope: Envelope,
        path: str,
        trace: TraceContext | None = None,
        t_start: float | None = None,
        journal_seq: int | None = None,
        from_hold: bool = False,
        headers: AddressingHeaders | None = None,
    ) -> "list[_OutboundItem]":
        """The routing decision: the items to put on destination queues.

        An empty list means the message was fully handled here (absorbed
        as a duplicate, parked, answered locally, dead-lettered); raising
        :class:`~repro.errors.ReproError` means it is unroutable.
        ``from_hold`` marks a resolve-later redelivery: its MessageID was
        recorded on the admission pass that parked it, so the duplicate
        window is skipped (absorbing it would silently drop the message)
        and a still-unavailable registry raises, keeping it parked.
        ``headers`` is ``envelope``'s addressing block when the caller has
        already decoded it (:meth:`addressing_of`).
        """
        if headers is None:
            headers = AddressingHeaders.from_envelope(envelope)
        now = self.clock.now()
        if t_start is None:
            t_start = now
        trace_id = trace.trace_id if trace else None

        # Shard ownership.  Responses return to the shard that forwarded
        # the request (ReplyTo was rewritten to that shard's direct
        # address), so a RelatesTo message is local by construction.  The
        # rule sits here, not in ``handle``: journal replay and hold
        # redelivery re-enter routing here, so a restarted shard re-relays
        # the foreign messages it had journaled before dying.
        if self.ring is not None and not headers.relates_to:
            try:
                owner = self.ring.owner(self._logical_of(headers, path))
            except RoutingError:
                owner = self.shard_id  # let the local pipeline reject it
            if owner != self.shard_id and owner in self.peers:
                return [self._relay(envelope, path, owner, trace, t_start, journal_seq)]

        # Duplicate absorption (config.dedupe_window): at-least-once
        # upstreams — journal replay, client resends, hold-store retries —
        # deliver the same MessageID more than once; forward only the first.
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
            self.flight.record(
                "duplicate", "msgd", t=now,
                trace=trace_id, message_id=headers.message_id,
            )
            return []

        # A response from a WS? (RelatesTo hits a pending correlation)
        for rel in headers.relates_to:
            with self._lock:
                corr = self._correlations.pop(rel, None)
            if corr is None:
                continue
            if corr.expires_at < now:
                # too late to be a response, and never a request
                self.counters.inc("expired_correlations")
                self._dead_letter(journal_seq, "expired_correlation", trace_id)
                return []
            return self._route_response(
                envelope, headers, corr, trace, t_start, journal_seq
            )

        # A fresh client request: logical → physical, rewrite.
        logical = self._logical_of(headers, path)
        try:
            physical = self.registry.resolve(logical)
        except UnknownServiceError:
            self.counters.inc("unknown_service")
            raise
        except RegistryUnavailable:
            # A registry outage is transient — park the pre-rewrite message
            # under a resolve-later sentinel instead of dead-lettering it
            # (and instead of burning a delivery retry against a physical
            # URL we never obtained).
            if not from_hold and self.hold_store is not None and headers.message_id:
                self._hold_unresolved(
                    envelope, path, headers.message_id, trace_id, journal_seq
                )
                return []
            raise

        result = rewrite_for_forwarding(
            envelope, physical, self.own_address, self._cohosted_deposits,
            headers=headers,
        )
        expired = 0
        with self._lock:
            # The oldest entry is the first to expire: collect from the
            # front, O(expired) not O(live).
            table = self._correlations
            while table:
                oldest = next(iter(table))
                if table[oldest].expires_at >= now:
                    break
                del table[oldest]
                expired += 1
            if result.original_reply_to or result.original_fault_to:
                # pop first: a re-sent MessageID moves to the back, keeping
                # the table in expiry order
                table.pop(result.message_id, None)
                table[result.message_id] = _Correlation(
                    result.original_reply_to,
                    result.original_fault_to,
                    now + self.config.correlation_ttl,
                    result.passed_through,
                )
        if expired:
            self.counters.inc("expired_correlations", expired)
        self.counters.inc("routed_requests")
        return [self._forward(
            result.envelope, physical, trace, t_start, journal_seq,
            message_id=result.message_id, logical=logical, dest=physical,
        )]

    def _route_response(
        self,
        envelope: Envelope,
        headers: AddressingHeaders,
        corr: _Correlation,
        trace: TraceContext | None,
        t_start: float,
        journal_seq: int | None,
    ) -> "list[_OutboundItem]":
        target = corr.fault_to if envelope.is_fault() and corr.fault_to else corr.reply_to
        if target is not None and self._reply_locally(target, envelope, journal_seq):
            return []
        if target is None or target.is_anonymous:
            self._drop("no_reply_to", journal_seq, trace.trace_id if trace else None)
            return []
        out = envelope.copy()
        new_headers = headers.copy()
        new_headers.to = target.address
        # Per WSA binding: reference properties of the target EPR become
        # message headers (this is how the mailbox id reaches WS-MsgBox).
        new_headers.reference_headers.extend(
            p.copy() for p in target.reference_properties
        )
        new_headers.attach(out)
        self.counters.inc("routed_responses")
        return [self._forward(
            out, target.address, trace, t_start, journal_seq,
            direction="response", dest=target.address,
        )]

    def _forward(
        self,
        out: Envelope,
        target_url: str,
        trace: TraceContext | None,
        t_start: float,
        journal_seq: int | None,
        message_id: str | None = None,
        **span_attrs,
    ) -> _OutboundItem:
        """Serialize a routed message into its outbound item, recording
        the routing decision as a ``route`` span the downstream spans
        parent on."""
        route_sid = None
        if trace is not None:
            # Pre-allocate the route span's id so the forwarded message
            # can name it as the downstream parent before it is recorded.
            # Attached even when the store is disabled so the wire bytes
            # of traced traffic never depend on store enablement.
            route_sid = self.traces.new_span_id()
            attach_trace(out, trace.child(route_sid))
        if isinstance(out, LazyEnvelope):
            self.counters.inc("forwarded_spliced")
        item = _OutboundItem(
            out.to_bytes(), target_url, message_id=message_id,
            trace=trace, parent_span_id=route_sid, journal_seq=journal_seq,
        )
        if route_sid is not None:
            self.traces.record(
                trace.trace_id, "route", "msgd", t_start, self.clock.now(),
                span_id=route_sid, parent_id=trace.parent_span_id, **span_attrs,
            )
        return item

    def _relay(
        self,
        envelope: Envelope,
        path: str,
        owner: int,
        trace: TraceContext | None,
        t_start: float,
        journal_seq: int | None,
    ) -> _OutboundItem:
        """A foreign message goes to its owner's direct endpoint, through
        this shard's own per-destination FIFO machinery.

        The inbound journal record (if any) travels with the relay item:
        it is marked delivered only when the owner has accepted the
        bytes, so a crash mid-relay replays — and the replay re-runs the
        ownership check.
        """
        relay_sid = None
        if trace is not None:
            relay_sid = self.traces.new_span_id()
            attach_trace(envelope, trace.child(relay_sid))
        item = _OutboundItem(
            envelope.to_bytes(), self.peers[owner].rstrip("/") + path,
            trace=trace, parent_span_id=relay_sid, journal_seq=journal_seq,
        )
        self.counters.inc("relayed_out")
        self._m_relayed.labels(direction="out").inc()
        if relay_sid is not None:
            self.traces.record(
                trace.trace_id, "shard-relay", f"shard{self.shard_id}",
                t_start, self.clock.now(),
                span_id=relay_sid, parent_id=trace.parent_span_id,
                owner=str(owner),
            )
        return item

    def pending_correlations(self) -> int:
        with self._lock:
            return len(self._correlations)

    # -- sync-over-async bridge (Table 1 quadrant 2) -------------------------
    def _reply_locally(
        self, target: EndpointReference, envelope: Envelope,
        journal_seq: int | None,
    ) -> bool:
        """A response addressed to a bridge sentinel wakes its waiter (or,
        after the bridge timeout, goes nowhere): True when it was one."""
        if not target.address.startswith(_SYNC_SCHEME):
            return False
        with self._lock:
            waiter = self._waiters.pop(target.address, None)
        if waiter is not None and self._wake(waiter, envelope):
            self.counters.inc("bridged_responses")
            if journal_seq is not None and self.durable is not None:
                self.durable.mark(journal_seq, DELIVERED)
        return True

    def bridge(self, request: HttpRequest, timeout: float, mount_prefix: str):
        """Steps: an RPC client in front of a messaging service.  The
        message is routed with a ``urn:wsd:sync:`` sentinel for ReplyTo
        (and, if it has none, a MessageID and a ``wsa:To`` from the path
        under ``mount_prefix``); one ``(WAIT, waiter, timeout)`` effect is
        sent the reply, or None — a 504, "may not work at all if message
        reply comes too late".  Returns the client's response."""
        if request.method != "POST":
            return HttpResponse(status=405)
        try:
            envelope = Envelope.from_bytes(request.body)
            headers = AddressingHeaders.from_envelope(envelope)
        except (XmlError, SoapError) as exc:
            return soap_fault_response(Fault("Client", str(exc)), status=400)
        if not headers.to:
            try:
                headers.to = logical_uri(extract_logical(request.target, mount_prefix))
            except RoutingError as exc:
                return soap_fault_response(Fault("Client", str(exc)), status=404)
        message_id = headers.message_id or f"uuid:bridge-{id(request)}-{self.clock.now()}"
        sentinel = f"{_SYNC_SCHEME}{message_id}"
        headers.message_id = message_id
        headers.reply_to = EndpointReference(sentinel)
        headers.attach(envelope)
        waiter = self._waiter()
        with self._lock:
            self._waiters[sentinel] = waiter
        try:
            outbound = self.route(envelope, request.target, extract_trace(envelope))
        except ReproError as exc:
            with self._lock:
                self._waiters.pop(sentinel, None)
            self.counters.inc("dropped_unroutable")
            return soap_fault_response(Fault("Client", str(exc)), status=404)
        for item in outbound:
            self._enqueue(item)
        self.counters.inc("accepted")
        reply = yield WAIT, waiter, timeout
        if reply is None:
            with self._lock:
                self._waiters.pop(sentinel, None)
            self.counters.inc("bridge_timeouts")
            return soap_fault_response(
                Fault("Server", "no response before bridge timeout"), status=504
            )
        out = Headers()
        out.set("Content-Type", reply.version.content_type)
        return HttpResponse(status=200, headers=out, body=reply.to_bytes())

    # -- delivery (steps 4-5 of Fig. 3) ---------------------------------------
    @staticmethod
    def _endpoint_key(target_url: str) -> str:
        """``host:port`` — destinations are endpoints, not URLs: one
        WS-MsgBox service hosting a thousand mailboxes is a single
        destination with one persistent connection."""
        endpoint, _path = parse_http_url(target_url)
        return str(endpoint)

    def deliver(self, batch: "list[_OutboundItem]"):
        """Steps: send one drained batch (one destination), settle each
        item, retry or park what failed.  In the style of
        :mod:`repro.http.session` it yields its effects and is sent the
        result, or thrown the :class:`~repro.errors.ReproError` performing
        it raised: ``(REQUEST, url, request)`` → the response (the
        request goes to ``url``'s path); ``(PIPELINE, url, requests)`` →
        one write burst on ``url``'s connection, each request to its own
        path, a list aligned with ``requests`` of response or exception;
        ``(SLEEP, None, seconds)`` → the in-line retry's backoff.

        A lone item is a plain request/response; two or more ride the
        destination's connection as **one pipelined write burst** — N
        one-way messages cost one round trip instead of N.  Per-item
        semantics are identical either way: each item still gets its own
        retry/backoff, hold-store parking, correlation absorption, metrics
        and trace spans; a burst only adds one ``pipeline-burst`` span (per
        distinct trace in the batch) parenting the per-item ``deliver``
        spans.  A burst that gets no connection fails every item with that
        error.

        A failed item backs off and goes back on its destination queue
        while ``config.retry`` allows (the simulator's config has none) —
        never a held redelivery, which is one wire attempt per claim.
        Otherwise, or when the queue will not take it back,
        :meth:`delivery_failed` parks or drops it.
        """
        self.start_delivery(batch)
        t_send = self.clock.now()
        url = batch[0].target_url
        try:
            if len(batch) > 1:
                # a burst's requests keep each item's own path; a
                # real-socket client adds Host and User-Agent to them
                outcomes = yield PIPELINE, url, [
                    soap_post(i.envelope_bytes, parse_http_url(i.target_url)[1])
                    for i in batch
                ]
            else:
                outcomes = [(yield REQUEST, url, soap_post(batch[0].envelope_bytes))]
        except ReproError as exc:
            outcomes = [exc] * len(batch)
        retry = getattr(self.config, "retry", None)
        for item in self.settle_batch(batch, outcomes, t_send, self.clock.now()):
            if retry and retry.should_retry(item.attempts) and not self._is_held(item):
                yield SLEEP, None, retry.delay_before(item.attempts + 1)
                self.counters.inc("retries")
                self._m_retries.inc()
                if self._try_enqueue(item) is None:
                    continue
            self.delivery_failed(item)

    def start_delivery(self, batch: "list[_OutboundItem]") -> None:
        """A worker took ``batch`` (one shared destination) off its queue:
        destination queue-wait is observed here, once per item, and each
        item's attempt is counted."""
        t_deq = self.clock.now()
        for item in batch:
            item.attempts += 1
            if item.attempts > 1:
                continue  # an in-line retry: its wait was already observed
            self._m_stage_queue_dest.observe(t_deq - item.enqueued_at)
            if item.trace is not None:
                self.traces.record(
                    item.trace.trace_id, "queue-wait", "msgd",
                    item.enqueued_at, t_deq,
                    parent_id=item.parent_span_id, queue="destination",
                    dest=item.target_url,
                )

    def settle_batch(
        self,
        batch: "list[_OutboundItem]",
        outcomes: list,
        t_burst: float,
        t_done: float,
    ) -> "list[_OutboundItem]":
        """Settle a finished batch item by item — a burst (two or more)
        under one ``pipeline-burst`` span per distinct trace.  Each
        outcome is the :class:`HttpResponse`, or the exception the
        exchange raised; an item the destination took is booked as
        delivered, and the rest are returned as failed (:meth:`deliver`
        retries, parks or drops them)."""
        burst_sid = None
        if len(batch) > 1:
            traced = {i.trace.trace_id: i for i in batch if i.trace is not None}
            if traced:
                burst_sid = self.traces.new_span_id()
            for trace_id, first in traced.items():
                self.traces.record(
                    trace_id, "pipeline-burst", "msgd", t_burst, t_done,
                    span_id=burst_sid, parent_id=first.parent_span_id,
                    dest=batch[0].target_url, size=len(batch),
                )
        failed = []
        for item, outcome in zip(batch, outcomes):
            if isinstance(outcome, HttpResponse) and outcome.status < 400:
                self.finish_delivery(
                    item, outcome, t_burst, t_done,
                    burst_sid if item.trace is not None else item.parent_span_id,
                )
            else:
                failed.append(item)
        return failed

    def finish_delivery(
        self,
        item: _OutboundItem,
        response: HttpResponse,
        t_send: float,
        t_done: float,
        parent_span_id: str | None,
    ) -> None:
        """The destination took ``item``: mark-after-settle, then look for
        an in-band answer.  The ``delivered`` count moves last, so whoever
        sees it move also sees the mark, the span and the correlation
        table as this delivery left them."""
        self._m_stage_deliver.observe(t_done - t_send)
        if self.hold_store is not None and item.message_id is not None:
            # a redelivery that came back through the queues is done — and
            # only now (see requeue_due)
            self.hold_store.complete(item.message_id)
        if self.durable is not None and item.journal_seq is not None:
            self.durable.mark(item.journal_seq, DELIVERED)
        if item.trace is not None:
            self.traces.record(
                item.trace.trace_id, "deliver", "msgd", t_send, t_done,
                parent_id=parent_span_id,
                dest=item.target_url, attempts=item.attempts,
            )
        if item.message_id is not None:
            self._absorb_inband_response(item, response)
        self.counters.inc("delivered")
        self._m_delivered.inc()

    def _absorb_inband_response(
        self, item: _OutboundItem, response: HttpResponse
    ) -> None:
        """Quadrant 3 of Table 1: an RPC-style service answered in-band.

        The dispatcher translates the in-band SOAP response into a proper
        one-way response message (adding RelatesTo so the correlation
        entry routes it) and feeds it back through the pipeline.  Without
        an in-band answer, a correlation entry kept only for this case
        (every EPR passed through) is dropped here.
        """
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
        if self._offer(
            (envelope, self.mount_prefix, trace, self.clock.now(), jseq)
        ):
            self.counters.inc("inband_responses")
        else:
            self._mark_rejected(jseq)

    def delivery_failed(self, item: _OutboundItem) -> None:
        """One failed wire attempt with no in-line retry left: park the
        message for scheduled redelivery (reliable mode) or drop it."""
        self.counters.inc("delivery_failures")
        trace_id = item.trace.trace_id if item.trace else None
        if self._park(item):
            self.counters.inc("held_for_retry")
            self.flight.record(
                "hold", "msgd", t=self.clock.now(), trace=trace_id,
                reason="delivery_failure", dest=item.target_url,
            )
            return
        self._m_dropped.labels(reason="delivery_failure").inc()
        self._dead_letter(
            item.journal_seq, "delivery_failure",
            trace_id=trace_id, dest=item.target_url,
        )
        self.flight.record(
            "drop", "msgd", t=self.clock.now(),
            trace=trace_id, reason="delivery_failure",
            dest=item.target_url, attempts=item.attempts,
        )

    # -- hold parking and redelivery -----------------------------------------
    def _is_held(self, item: _OutboundItem) -> bool:
        """A held message the pump put back on the queues (:meth:`requeue_due`)."""
        store, mid = self.hold_store, item.message_id
        return store is not None and mid is not None and store.is_held(mid)

    def _park(self, item: _OutboundItem) -> bool:
        """Hand an undeliverable item to the hold store; True when parked.

        A message already held (a redelivery the pump fed back through the
        queues) is rescheduled — its attempt was counted at claim time; a
        fresh one is held under its MessageID.  Messages without a
        MessageID cannot be deduplicated on redelivery, so they are never
        parked.
        """
        if self.hold_store is None or item.message_id is None:
            return False
        if self.hold_store.is_held(item.message_id):
            self.hold_store.reschedule(item.message_id, now=self.clock.now())
        else:
            self._hold(
                item.message_id, item.target_url, item.envelope_bytes,
                item.journal_seq,
            )
        self._ensure_hold_pump()
        return True

    def _hold(
        self, message_id: str, target_url: str, body: bytes,
        journal_seq: int | None,
    ) -> None:
        """When the hold store journals its own ``held`` record, the
        inbound record is retired (absorbed) — otherwise a crash would
        replay the message from *both* records."""
        self.hold_store.hold(message_id, target_url, body)
        if (
            self.durable is not None
            and journal_seq is not None
            and getattr(self.hold_store, "durable", None) is not None
        ):
            self.durable.mark(journal_seq, ABSORBED, reason="held")

    def _hold_unresolved(
        self,
        envelope: Envelope,
        path: str,
        message_id: str,
        trace_id: str | None,
        journal_seq: int | None,
    ) -> None:
        """Registry could not answer: park the message for later
        re-resolution under a ``hold+resolve:`` sentinel target."""
        self._hold(
            message_id, hold_resolve_target(path), envelope.to_bytes(),
            journal_seq,
        )
        self.counters.inc("hold_registry_unavailable")
        self.flight.record(
            "hold", "msgd", t=self.clock.now(),
            trace=trace_id, reason="registry_unavailable", path=path,
        )
        self._ensure_hold_pump()

    def route_held(self, msg) -> "list[_OutboundItem]":
        """Run the routing pass again for a held message parked before
        resolution.  :class:`~repro.errors.RegistryUnavailable` (or any
        routing error) propagates so the store reschedules it; the rewrite
        preserves the MessageID, so a later delivery failure re-holds the
        message under its physical URL."""
        envelope = parse_envelope(msg.envelope_bytes, counter=self._m_fastpath)
        return self.route(
            envelope, split_hold_resolve_target(msg.target_url),
            trace=extract_trace(envelope), from_hold=True,
        )

    def requeue_due(self, now: float) -> None:
        """One hold-pump sweep: every due held message goes back on its
        destination queue — FIFO behind what is queued there, pipelined
        with it — and that delivery resolves the claim:
        :meth:`finish_delivery` completes the entry, a failure reschedules
        it (:meth:`_park`), nothing else completes it.  A message parked
        while the registry was unavailable is routed again first: a
        routing error reschedules it, one handled in-band (correlation,
        sync waiter) is done.  A claim no queue takes is
        rescheduled — every claim taken is resolved."""
        for msg in self.hold_store.take_due(now):
            try:
                if is_hold_resolve_target(msg.target_url):
                    items = self.route_held(msg)
                    if not items:
                        self.hold_store.complete(msg.message_id)
                        continue
                else:
                    items = [_OutboundItem(
                        msg.envelope_bytes, msg.target_url,
                        message_id=msg.message_id,
                    )]
                queued = None in [self._try_enqueue(item) for item in items]
            except Exception:  # noqa: BLE001 - any failure means retry
                queued = False
            if queued:
                self.counters.inc("held_requeued")
            else:
                self.hold_store.reschedule(msg.message_id, now=now)

    # -- introspection -----------------------------------------------------
    @property
    def stats(self) -> dict[str, int]:
        return self.counters.as_dict()

    def health_snapshot(self) -> dict:
        """Queue, hold-store and journal state for the introspection
        surface (``Introspection.add_health_source``)."""
        snapshot: dict = {
            "backlog": self.backlog(),
            "drain_timeouts": self.counters.get("drain_timeouts"),
            # which thread ran the routing pass (see routes_in_place)
            "routed_in_place": self.counters.get("routed_in_place"),
            "routed_pooled": self.counters.get("routed_pooled"),
        }
        if self.hold_store is not None:
            snapshot["hold_store"] = dict(
                self.hold_store.stats, pending=self.hold_store.pending()
            )
        if self.durable is not None:
            snapshot["journal"] = dict(
                self.durable.stats,
                pending=self.durable.pending_count(),
                dead=self.durable.counts().get(DEAD, 0),
            )
        return snapshot
