"""Simulated service implementations used by the experiments.

The RPC echo service reuses the production pure handler
(:class:`repro.workload.echo.EchoService` via
:class:`~repro.rt.service.SoapHttpApp`); the asynchronous echo below needs
its own sim hosting because replying means *network I/O* in simulated
time, with the reply-sender capacity limits the paper's Figure 6 hinges
on.
"""

from __future__ import annotations

from repro.errors import ReproError, SoapError, TransportError, XmlError
from repro.http import HttpRequest, HttpResponse
from repro.http.session import soap_post
from repro.obs.trace import TraceStore, default_trace_store
from repro.rt.service import soap_fault_response
from repro.simnet.httpsim import SimHttpClientPool
from repro.simnet.resources import Resource
from repro.simnet.topology import Host, Network
from repro.soap import Envelope, Fault
from repro.transport.base import parse_http_url
from repro.util.ids import IdGenerator
from repro.util.stats import Counter
from repro.workload.echo import EchoReply, echo_reply


class SimAsyncEchoService:
    """Messaging echo on a simulated host.

    Accepts one-way requests (HTTP 202) and sends the echo response as a
    new one-way message to the request's ``wsa:ReplyTo``.  Reply sending
    runs on a bounded pool of sender processes (``reply_senders``); when
    all senders are stuck — e.g. each burning a connect timeout against a
    firewalled client — the handler *blocks waiting for a sender slot*,
    which throttles acceptance exactly as the paper observed ("the Web
    Service tried to send back response but the connection was discarded
    which led to fewer messages accepted by the Web Service").
    """

    def __init__(
        self,
        net: Network,
        host: Host,
        reply_senders: int = 16,
        connect_timeout: float = 21.0,
        response_timeout: float = 30.0,
        response_delay: float = 0.0,
        traces: TraceStore | None = None,
    ) -> None:
        self.net = net
        self.sim = net.sim
        self.host = host
        self.response_delay = response_delay
        self.traces = traces if traces is not None else default_trace_store()
        self.pool = SimHttpClientPool(
            net,
            host,
            connect_timeout=connect_timeout,
            response_timeout=response_timeout,
        )
        self.senders = Resource(self.sim, capacity=reply_senders)
        self.ids = IdGenerator("sim-echo", seed=7)
        self.counters = Counter()

    def handler(self, request: HttpRequest):
        """Generator handler: accept, then hand the reply to a sender slot."""
        if request.method != "POST":
            return HttpResponse(status=405)
        try:
            reply = echo_reply(Envelope.from_bytes(request.body), self.ids, self.traces)
        except (XmlError, SoapError, ReproError) as exc:
            return soap_fault_response(Fault("Client", str(exc)), status=400)
        t_recv = self.sim.now
        self.counters.inc("received")
        if reply is None:
            return HttpResponse(status=202)

        # Acquire a sender slot *before* acknowledging: a service whose
        # senders are all wedged stops accepting further work.
        slot = self.senders.request()
        yield slot
        self.sim.process(self._send_reply(slot, reply, t_recv))
        return HttpResponse(status=202)

    def _send_reply(self, slot, reply: EchoReply, t_recv: float):
        if self.response_delay > 0:
            # the service takes its time producing the answer — harmless
            # here because no transport is waiting (Table 1 quadrant 4)
            yield self.sim.timeout(self.response_delay * self.host.cpu_factor)
        trace = reply.trace
        if trace is not None:
            self.traces.record(
                trace.trace_id, "service", "echo",
                t_recv, self.sim.now,
                span_id=reply.span_id, parent_id=trace.parent_span_id,
            )
        try:
            endpoint, path = parse_http_url(reply.to)
        except ReproError:
            self.counters.inc("replies_unroutable")
            slot.release()
            return
        try:
            response = yield from self.pool.exchange(
                endpoint.host, endpoint.port, soap_post(reply.envelope.to_bytes(), path)
            )
            if response.status >= 400:
                raise TransportError(f"HTTP {response.status}")
            self.counters.inc("replies_sent")
        except (TransportError, ReproError):
            self.counters.inc("replies_blocked")
        finally:
            slot.release()
