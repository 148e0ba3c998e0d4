"""The WS-MsgBox SOAP service.

Two kinds of traffic arrive here:

- **RPC operations** from mailbox owners (interface ``urn:repro:msgbox``):
  ``create``, ``take``, ``peek``, ``destroy``.  "All interactions between
  clients and the WS-MsgBox are RPC, because RPC is typically well
  supported from a client behind firewalls."
- **Deposits**: one-way messages routed to a mailbox EPR.  The mailbox id
  arrives either as the ``<mb:MailboxId>`` header (the EPR reference
  property echoed by the dispatcher) or as the last path segment of the
  deposit URL.  Deposits are answered 202.  What is stored is
  ``envelope.to_bytes()``, not the bytes that arrived: on the fast path
  the Header is re-serialized, with every namespace it uses declared
  again on ``<Header>``, between the arrived preamble and Body; a
  deposit the scanner declined is re-serialized whole.  It stays that
  way because the stored size is what a ``take`` transfers, and
  simulated transfer times depend on it.

The paper's scalability bug is reproduced behind ``delivery_mode``:

    "The WSMB was spawning too many threads.  For even relatively small
    numbers of connecting clients (50), if the number of messages sent is
    high then WS-MsgBox server creates a new thread for each message and
    each thread tries to send a reply message. ... That leads to
    OutOfMemoryExceptions as each thread has local stack allocated."

``delivery_mode="thread-per-message"`` spawns an unbounded thread per
deposit acknowledgement and charges each live thread a simulated stack
allocation against a simulated heap; crossing the heap limit raises a
simulated ``OutOfMemoryError`` that kills the service, exactly like the
JVM did.  ``delivery_mode="pooled"`` (the re-design the paper says they
were working on) uses a bounded pool with load-shedding instead.
"""

from __future__ import annotations

import base64
import threading
from typing import Callable

from repro.errors import MailboxError, MailboxNotFound, SoapError
from repro.msgbox.security import MailboxSecurity
from repro.msgbox.store import MailboxStore
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.trace import TraceStore, default_trace_store, extract_trace
from repro.rt.service import RequestContext
from repro.util.clock import Clock, MonotonicClock
from repro.soap import (
    Envelope,
    RpcResponse,
    build_rpc_response,
    parse_rpc_request,
)
from repro.util.concurrency import BoundedExecutor, RejectedExecution
from repro.util.stats import Counter
from repro.wsa import EndpointReference
from repro.xmlmini import Element, QName

MSGBOX_NS = "urn:repro:msgbox"
Q_MAILBOX_ID = QName(MSGBOX_NS, "MailboxId")


class SimulatedOutOfMemory(MailboxError):
    """The modelled JVM heap was exhausted by per-message thread stacks."""


def _deposit_prefix(service_url: str) -> str:
    """The absolute URL prefix under which one-way deposits are accepted."""
    return service_url.rstrip("/") + "/deposit/"


def make_mailbox_epr(service_url: str, mailbox_id: str) -> EndpointReference:
    """EPR a client uses as ReplyTo: deposit URL + MailboxId ref property."""
    address = _deposit_prefix(service_url) + mailbox_id
    prop = Element(Q_MAILBOX_ID, text=mailbox_id)
    return EndpointReference(address, reference_properties=[prop])


class MsgBoxService:
    """SOAP facade over :class:`~repro.msgbox.store.MailboxStore`."""

    def __init__(
        self,
        store: MailboxStore | None = None,
        security: MailboxSecurity | None = None,
        base_url: str = "",
        delivery_mode: str = "pooled",
        ack_sender: Callable[[bytes], None] | None = None,
        ack_workers: int = 8,
        heap_limit_bytes: int = 64 * 1024 * 1024,
        thread_stack_bytes: int = 512 * 1024,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
        traces: TraceStore | None = None,
    ) -> None:
        """``clock`` sets the timebase of recorded trace spans — pass the
        deployment's shared clock (sim clock under simnet) so a trace's
        spans stay in one clock domain."""
        if delivery_mode not in ("pooled", "thread-per-message", "none"):
            raise ValueError(f"unknown delivery_mode {delivery_mode!r}")
        self.store = store or MailboxStore()
        self.clock = clock or MonotonicClock()
        self.metrics = metrics if metrics is not None else default_registry()
        self.traces = traces if traces is not None else default_trace_store()
        self._m_deposits = self.metrics.counter(
            "msgbox_deposits_total", "one-way messages deposited into mailboxes"
        )
        self._m_takes = self.metrics.counter(
            "msgbox_takes_total", "take operations served"
        )
        self._m_taken = self.metrics.counter(
            "msgbox_messages_taken_total", "messages handed to polling owners"
        )
        self.metrics.gauge(
            "msgbox_mailboxes", "live mailboxes in the store"
        ).set_function(lambda: self.store.mailbox_count())
        self.security = security
        self.base_url = base_url
        self.delivery_mode = delivery_mode
        self.ack_sender = ack_sender
        #: cap on the ``waitSeconds`` long-poll parameter (a held request
        #: occupies a server worker; keep it below HTTP timeouts)
        self.max_wait_seconds = 20.0
        self.heap_limit_bytes = heap_limit_bytes
        self.thread_stack_bytes = thread_stack_bytes
        self.counters = Counter()
        self._dead_reason: str | None = None
        self._lock = threading.Lock()
        self._ack_pool: BoundedExecutor | None = None
        if ack_sender is not None and delivery_mode != "none":
            policy = (
                "unbounded" if delivery_mode == "thread-per-message" else "reject"
            )
            self._ack_pool = BoundedExecutor(
                workers=0 if policy == "unbounded" else ack_workers,
                queue_size=0 if policy == "unbounded" else ack_workers * 4,
                policy=policy,
                name="msgbox-ack",
            )

    # -- failure state (the reproduced bug) -----------------------------
    @property
    def dead(self) -> bool:
        with self._lock:
            return self._dead_reason is not None

    def _check_alive(self) -> None:
        with self._lock:
            if self._dead_reason is not None:
                raise MailboxError(
                    f"WS-MsgBox crashed: {self._dead_reason} "
                    "(restart the service)"
                )

    def _charge_thread_memory(self) -> None:
        """Model the JVM: every live ack thread owns a stack allocation."""
        assert self._ack_pool is not None
        live = self._ack_pool.live_threads()
        used = live * self.thread_stack_bytes
        if used > self.heap_limit_bytes:
            with self._lock:
                if self._dead_reason is None:
                    self._dead_reason = (
                        f"OutOfMemoryError: {live} delivery threads x "
                        f"{self.thread_stack_bytes}B stack > heap "
                        f"{self.heap_limit_bytes}B"
                    )
            self.counters.inc("oom_crashes")
            raise SimulatedOutOfMemory(self._dead_reason or "OOM")

    @property
    def deposit_prefix(self) -> str:
        """Where this service says it accepts deposits (``""`` without a
        ``base_url``).  A MSG-Dispatcher mounted on the same
        :class:`~repro.rt.service.SoapHttpApp` reads this to recognise a
        ``ReplyTo`` that already names its own co-hosted mailbox."""
        return _deposit_prefix(self.base_url) if self.base_url else ""

    # -- SoapService entry point ----------------------------------------
    def handle(self, envelope: Envelope, ctx: RequestContext) -> Envelope | None:
        self._check_alive()
        if self._is_rpc(envelope):
            return self._handle_rpc(envelope, ctx)
        return self._handle_deposit(envelope, ctx)

    @staticmethod
    def _is_rpc(envelope: Envelope) -> bool:
        """An owner's RPC (vs. a deposit), told by the name of the Body's
        first child — which the scan already knows, so classifying a
        deposit never parses its Body."""
        name = envelope.body_name
        return name is not None and name.ns == MSGBOX_NS

    def _wait_for_message(self, mailbox_id: str, timeout: float) -> bool:
        """Long-poll wait seam.  The threaded service blocks its worker
        thread here; the asyncio subclass has already awaited the arrival
        before the take runs and overrides this with a no-op."""
        return self.store.wait_for_message(mailbox_id, timeout)

    # -- RPC operations (create/take/peek/destroy) ------------------------
    def _handle_rpc(
        self, envelope: Envelope, ctx: RequestContext, call=None
    ) -> Envelope:
        """``call`` is the already-parsed request when the caller had to
        read it first (the asyncio long poll)."""
        if call is None:
            call = parse_rpc_request(envelope)
        op = call.operation
        if op == "create":
            mailbox_id = self.store.create()
            self.counters.inc("creates")
            results = [("mailboxId", mailbox_id)]
            if self.security is not None and self.security.enabled:
                results.append(("ownerToken", self.security.mint(mailbox_id)))
            if self.base_url:
                results.append(
                    ("depositAddress", make_mailbox_epr(self.base_url, mailbox_id).address)
                )
        elif op in ("take", "peek", "destroy"):
            mailbox_id = call.require_param("mailboxId")
            if self.security is not None:
                self.security.check(mailbox_id, call.param("ownerToken"))
            if op == "take":
                limit = int(call.param("maxMessages", "10") or "10")
                # long poll: hold the request until a message arrives (or
                # the wait budget runs out) instead of returning empty —
                # saves the firewalled client a storm of empty polls
                wait_s = float(call.param("waitSeconds", "0") or "0")
                if wait_s > 0:
                    self._wait_for_message(
                        mailbox_id, min(wait_s, self.max_wait_seconds)
                    )
                messages = self.store.take(mailbox_id, max_messages=limit)
                self.counters.inc("takes")
                self.counters.inc("messages_taken", len(messages))
                self._m_takes.inc()
                self._m_taken.inc(len(messages))
                results = [
                    ("message", base64.b64encode(m).decode("ascii"))
                    for m in messages
                ]
                results.append(("remaining", str(self.store.peek_count(mailbox_id))))
            elif op == "peek":
                results = [("count", str(self.store.peek_count(mailbox_id)))]
            else:
                self.store.destroy(mailbox_id)
                self.counters.inc("destroys")
                results = [("status", "ok")]
        else:
            raise SoapError(f"unknown WS-MsgBox operation {op!r}")
        return build_rpc_response(
            RpcResponse(MSGBOX_NS, op, results), version=envelope.version
        )

    # -- deposits -----------------------------------------------------------
    def _handle_deposit(self, envelope: Envelope, ctx: RequestContext) -> None:
        t_arrival = self.clock.now()
        mailbox_id = self._extract_mailbox_id(envelope, ctx)
        if mailbox_id is None:
            raise MailboxNotFound(
                "deposit carries no MailboxId header and no id in path"
            )
        data = envelope.to_bytes()
        self.store.deposit(mailbox_id, data)
        self.counters.inc("deposits")
        self._m_deposits.inc()
        trace = extract_trace(envelope)
        if trace is not None:
            self.traces.record(
                trace.trace_id, "deposit", "msgbox",
                t_arrival, self.clock.now(),
                parent_id=trace.parent_span_id, mailbox=mailbox_id,
            )
        self._send_ack(data)
        return None

    @staticmethod
    def _extract_mailbox_id(envelope: Envelope, ctx: RequestContext) -> str | None:
        for h in envelope.headers:
            if h.name == Q_MAILBOX_ID:
                return h.text.strip()
        marker = "/deposit/"
        idx = ctx.path.find(marker)
        if idx >= 0:
            tail = ctx.path[idx + len(marker):]
            if tail:
                return tail.split("/", 1)[0]
        return None

    def _send_ack(self, deposited: bytes) -> None:
        """Dispatch the acknowledgement per the configured delivery mode."""
        if self.ack_sender is None or self._ack_pool is None:
            return
        sender = self.ack_sender

        def task() -> None:
            try:
                sender(deposited)
                self.counters.inc("acks_sent")
            except Exception:  # noqa: BLE001 - ack failures are counted
                self.counters.inc("acks_failed")

        if self.delivery_mode == "thread-per-message":
            self._ack_pool.submit(task)
            self._charge_thread_memory()
        else:
            try:
                self._ack_pool.submit(task)
            except RejectedExecution:
                self.counters.inc("acks_shed")  # graceful load shedding

    # -- introspection -----------------------------------------------------
    @property
    def stats(self) -> dict[str, int]:
        out = self.counters.as_dict()
        if self._ack_pool is not None:
            out["ack_peak_threads"] = self._ack_pool.peak_threads
        return out
