"""End-to-end trace propagation: one trace id across every hop.

The acceptance scenario for the observability subsystem: a traced message
through the MSG-Dispatcher pipeline yields a retrievable trace whose spans
(admit, queue-wait, deliver, ...) share the message's trace id, in causal
order, on both transport stacks — real threads over the in-process
network, and the deterministic simulator.
"""

import json

import pytest

from repro.core import MsgDispatcher, MsgDispatcherConfig, ServiceRegistry
from repro.core.sim_dispatcher import SimMsgDispatcher, SimMsgDispatcherConfig
from repro.http import Headers, HttpRequest
from repro.msgbox import MailboxStore, MsgBoxClient, MsgBoxService
from repro.msgbox.security import MailboxSecurity
from repro.msgbox.service import make_mailbox_epr
from repro.obs import Introspection, ensure_trace, extract_trace
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import SoapHttpApp
from repro.simnet.httpsim import SimHttpServer, sim_http_request
from repro.simnet.services import SimAsyncEchoService
from repro.simnet.topology import AccessLink, Network
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.util.ids import IdGenerator
from repro.workload.echo import AsyncEchoService, make_echo_message
from tests.conftest import wait_for


def span_names(spans):
    return [s.name for s in spans]


def first_span(spans, name, **attrs):
    for s in spans:
        if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items()):
            return s
    raise AssertionError(f"no span {name!r} with {attrs} in {span_names(spans)}")


class TestThreadedStack:
    """The dispatcher and its own co-hosted WS-MsgBox (paper §4.3.2): the
    service deposits its reply itself, so the reply leg has no msgd spans."""

    MAILBOX_URL = "http://wsd:8000/mailbox"
    SERVICE_URL = "http://internal:9000/echo-msg"
    #: deliveries the dispatcher makes per round trip: the request hop
    DELIVERIES = 1

    @pytest.fixture
    def deployment(self, inproc, own_sinks):
        metrics, traces = own_sinks  # where the echo and the mailbox record

        ws_client = HttpClient(inproc, metrics=metrics)
        async_echo = AsyncEchoService(ws_client, ids=IdGenerator("ws", seed=1))
        ws_app = SoapHttpApp()
        ws_app.mount("/echo-msg", async_echo)
        ws_server = HttpServer(
            inproc.listen("internal:9000"), ws_app.handle_request,
            workers=4, name="ws", metrics=metrics,
        ).start()

        registry = ServiceRegistry(metrics=metrics)
        registry.register("echo-msg", self.SERVICE_URL)

        disp_client = HttpClient(inproc, metrics=metrics)
        msg_disp = MsgDispatcher(
            registry,
            disp_client,
            own_address="http://wsd:8000/msg",
            config=MsgDispatcherConfig(cx_threads=2, ws_threads=4),
            metrics=metrics,
            traces=traces,
        )
        msgbox = MsgBoxService(
            MailboxStore(),
            security=MailboxSecurity(b"trace-test-secret"),
            base_url=self.MAILBOX_URL,
        )
        intro = Introspection(metrics=metrics, traces=traces)
        app = SoapHttpApp()
        app.mount("/msg", msg_disp)
        intro.mount(app)
        servers = []
        if self.MAILBOX_URL.startswith("http://wsd:8000/"):
            app.mount("/mailbox", msgbox)
        else:
            mailbox_app = SoapHttpApp()
            mailbox_app.mount("/mailbox", msgbox)
            servers.append(HttpServer(
                inproc.listen("mb:8500"), mailbox_app.handle_request,
                name="mailbox", metrics=metrics,
            ).start())
        servers.append(HttpServer(
            inproc.listen("wsd:8000"), app.handle_request,
            workers=8, name="front", metrics=metrics,
        ).start())

        yield inproc, metrics, traces, msg_disp
        msg_disp.stop()
        for server in servers:
            server.stop()
        ws_server.stop()
        ws_client.close()
        disp_client.close()

    @pytest.fixture
    def traced_roundtrip(self, deployment):
        """Send one traced message through the full pipeline; return
        (trace_id, spans, reply, client, traces, metrics)."""
        inproc, metrics, traces, msg_disp = deployment
        client = HttpClient(inproc, metrics=metrics)
        mbc = MsgBoxClient(client, self.MAILBOX_URL)
        mbc.create()

        msg = make_echo_message(
            to="urn:wsd:echo-msg",
            message_id=IdGenerator("cli", seed=7).next(),
            reply_to=mbc.epr(),
        )
        ctx = ensure_trace(msg)
        resp = client.post_envelope("http://wsd:8000/msg/echo-msg", msg)
        assert resp.status == 202
        messages = mbc.poll(expected=1, timeout=5)
        # The reply can be taken before the dispatcher has heard the 202
        # of the exchange that caused it: a ``deliver`` span and the
        # ``delivered`` count (which moves last) are written when that
        # 202 returns.  Wait for the event.
        assert wait_for(
            lambda: msg_disp.stats.get("delivered", 0) >= self.DELIVERIES
        ), "a delivery never settled"
        assert len(messages) == 1
        spans = traces.get(ctx.trace_id)
        yield ctx.trace_id, spans, messages[0], client, traces, metrics
        client.close()

    def test_one_trace_id_spans_every_hop(self, traced_roundtrip):
        trace_id, spans, reply, *_ = traced_roundtrip
        assert spans, "no spans recorded"
        assert {s.trace_id for s in spans} == {trace_id}
        components = {s.component for s in spans}
        assert {"msgd", "echo", "msgbox"} <= components
        # request hop, service think, reply hop, final deposit
        names = set(span_names(spans))
        assert {"admit", "queue-wait", "route", "deliver", "service", "deposit"} <= names
        # the reply that reached the mailbox still carries the context
        assert extract_trace(reply).trace_id == trace_id

    def test_spans_in_causal_order_with_sane_durations(self, traced_roundtrip):
        trace_id, spans, _, _, traces, *_ = traced_roundtrip
        admit = first_span(spans, "admit")
        accept_wait = first_span(spans, "queue-wait", queue="accept")
        # the relayed reply hop has a destination wait and a delivery of
        # its own, recorded in whatever order the two exchanges end:
        # select the request hop's by where they went
        dest_wait = first_span(
            spans, "queue-wait", queue="destination", dest=self.SERVICE_URL
        )
        deliver = first_span(spans, "deliver", dest=self.SERVICE_URL)
        service = first_span(spans, "service")
        # causal order along the request hop; the service handles the
        # message *inside* the delivery exchange, so it starts after the
        # delivery does (but may finish before the 202 comes back)
        assert admit.start <= accept_wait.start <= dest_wait.start
        assert dest_wait.start <= deliver.start <= service.start
        # the three acceptance spans fit inside the trace's wall time
        wall = traces.to_json(trace_id)["wall_time"]
        assert wall > 0
        total = admit.duration + accept_wait.duration + deliver.duration
        assert total <= wall * 1.001 + 1e-6

    def test_trace_endpoint_serves_the_trace(self, traced_roundtrip):
        trace_id, _, _, client, *_ = traced_roundtrip
        resp = client.request(
            f"http://wsd:8000/trace/{trace_id}", HttpRequest("GET", "/")
        )
        assert resp.status == 200
        doc = json.loads(resp.body)
        assert doc["trace_id"] == trace_id
        assert len(doc["spans"]) >= 3
        names = [s["name"] for s in doc["spans"]]
        for required in ("admit", "queue-wait", "deliver"):
            assert required in names
        assert sum(
            s["duration"]
            for s in doc["spans"]
            if s["name"] in ("admit", "queue-wait", "deliver")
        ) <= doc["wall_time"] * 2 + 1e-6  # request + reply hop both recorded

        # unknown ids 404
        resp = client.request(
            "http://wsd:8000/trace/trace-nope", HttpRequest("GET", "/")
        )
        assert resp.status == 404

    def test_metrics_endpoint_shows_queues_and_latency(self, traced_roundtrip):
        client = traced_roundtrip[3]
        resp = client.request(
            "http://wsd:8000/metrics", HttpRequest("GET", "/")
        )
        assert resp.status == 200
        text = resp.body.decode()
        # per-destination queue depth gauge, labeled by destination
        assert "msgd_destination_queue_depth{dest=" in text
        # the stage histogram exposes cumulative buckets and totals
        assert "# TYPE msgd_stage_seconds histogram" in text
        assert 'msgd_stage_seconds_bucket{le="0.02",stage="queue_destination"}' in text
        assert 'msgd_stage_seconds_count{stage="deliver"}' in text
        assert "msgd_delivered_total 1" in text  # the ws hop, and only it
        # the reply leg is the service's own: its deposit hangs off the
        # service span, and the dispatcher routed nothing back
        spans = traced_roundtrip[1]
        assert first_span(spans, "deposit").parent_id == first_span(spans, "service").span_id
        assert not [s for s in spans if s.attrs.get("direction") == "response"]

class TestThreadedStackRelayingToAnotherOrigin(TestThreadedStack):
    """The same four checks with the mailbox on an origin of its own: the
    reply is relayed through the dispatcher, as it always was."""

    MAILBOX_URL = "http://mb:8500/mailbox"
    DELIVERIES = 2  # the request hop and the relayed reply

    def test_metrics_endpoint_shows_queues_and_latency(self, traced_roundtrip):
        _, spans, _, client, *_ = traced_roundtrip
        resp = client.request(
            "http://wsd:8000/metrics", HttpRequest("GET", "/")
        )
        assert "msgd_delivered_total 2" in resp.body.decode()  # ws hop + mailbox hop
        # the deposit hangs off the dispatcher's response-direction route
        relay = first_span(spans, "route", direction="response")
        assert first_span(spans, "deposit").parent_id == relay.span_id


class TestSimnetStack:
    @pytest.fixture
    def world(self, sim, own_sinks):
        metrics, traces = own_sinks  # where the echo and the mailbox record
        net = Network(sim)
        link = AccessLink(5000, 5000, 0.005)
        client = net.add_host("client", link)
        ws_host = net.add_host("ws", link)
        wsd_host = net.add_host("wsd", link)

        echo = SimAsyncEchoService(net, ws_host, reply_senders=8, traces=traces)
        SimHttpServer(net, ws_host, 9000, echo.handler)
        registry = ServiceRegistry(metrics=metrics)
        registry.register("echo", "http://ws:9000/echo")

        disp = SimMsgDispatcher(
            net, wsd_host, registry,
            own_address="http://wsd:8000/msg",
            config=SimMsgDispatcherConfig(cx_workers=2, ws_workers=4),
            metrics=metrics,
            traces=traces,
        )
        SimHttpServer(net, wsd_host, 8000, disp.handler)

        store = MailboxStore(clock=sim.clock)
        msgbox = MsgBoxService(store, base_url="http://wsd:8500/mailbox")
        app = SoapHttpApp()
        app.mount("/mailbox", msgbox)
        SimHttpServer(net, wsd_host, 8500, lambda r: app.handle_request(r, None))
        return net, client, store, metrics, traces

    def test_trace_spans_the_simulated_pipeline(self, world):
        net, client, store, metrics, traces = world
        sim = net.sim
        mailbox_id = store.create()
        epr = make_mailbox_epr("http://wsd:8500/mailbox", mailbox_id)

        msg = make_echo_message(
            to="urn:wsd:echo",
            message_id=IdGenerator("t", seed=1).next(),
            reply_to=epr,
        )
        ctx = ensure_trace(msg)
        headers = Headers()
        headers.set("Content-Type", SOAP11_CONTENT_TYPE)

        def send():
            resp = yield from sim_http_request(
                net, client, "wsd", 8000,
                HttpRequest("POST", "/msg/echo", headers=headers, body=msg.to_bytes()),
            )
            return resp.status

        assert sim.run(sim.process(send())) == 202
        sim.run(until=sim.now + 5.0)
        assert store.peek_count(mailbox_id) == 1

        spans = traces.get(ctx.trace_id)
        assert {s.trace_id for s in spans} == {ctx.trace_id}
        names = set(span_names(spans))
        assert {"admit", "queue-wait", "route", "deliver", "service", "deposit"} <= names

        # all timestamps live in the simulated clock domain
        assert all(0.0 <= s.start <= s.end <= sim.now for s in spans)

        # causal order along the request hop, in simulated time
        admit = first_span(spans, "admit")
        accept_wait = first_span(spans, "queue-wait", queue="accept")
        dest_wait = first_span(spans, "queue-wait", queue="destination")
        deliver = first_span(spans, "deliver")
        service = first_span(spans, "service")
        deposit = first_span(spans, "deposit")
        assert admit.start <= accept_wait.start <= dest_wait.start
        # the service handles the message inside the delivery exchange;
        # the reply's mailbox deposit comes last
        assert dest_wait.end <= deliver.start <= service.start <= deposit.end

        # the metrics side saw the same traffic
        snap = metrics.snapshot()
        delivered = snap["msgd_delivered_total"]["samples"][0]["value"]
        assert delivered >= 1
        assert snap["msgd_stage_seconds"]["samples"]

    def test_trace_survives_the_simulated_wire(self, world):
        """The deposited reply still carries the originating trace id."""
        net, client, store, metrics, traces = world
        sim = net.sim
        mailbox_id = store.create()
        epr = make_mailbox_epr("http://wsd:8500/mailbox", mailbox_id)
        msg = make_echo_message(
            to="urn:wsd:echo",
            message_id=IdGenerator("t", seed=2).next(),
            reply_to=epr,
        )
        ctx = ensure_trace(msg)
        headers = Headers()
        headers.set("Content-Type", SOAP11_CONTENT_TYPE)

        def send():
            yield from sim_http_request(
                net, client, "wsd", 8000,
                HttpRequest("POST", "/msg/echo", headers=headers, body=msg.to_bytes()),
            )

        sim.run(sim.process(send()))
        sim.run(until=sim.now + 5.0)

        from repro.soap import Envelope

        deposited = store.take(mailbox_id, max_messages=1)
        assert len(deposited) == 1
        reply = Envelope.from_bytes(deposited[0])
        assert extract_trace(reply).trace_id == ctx.trace_id
