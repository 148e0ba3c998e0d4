"""Tests for the simulated dispatchers."""

import pytest

from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import (
    SimMsgDispatcher,
    SimMsgDispatcherConfig,
    SimRpcDispatcher,
)
from repro.http import Headers, HttpRequest
from repro.msgbox import MailboxStore, MsgBoxService
from repro.msgbox.service import make_mailbox_epr
from repro.rt.service import SoapHttpApp
from repro.simnet.httpsim import SimHttpServer, sim_http_request
from repro.simnet.kernel import Simulator
from repro.simnet.services import SimAsyncEchoService
from repro.simnet.topology import AccessLink, Network
from repro.soap import Envelope, parse_rpc_response
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.util.ids import IdGenerator
from repro.workload.echo import EchoService, make_echo_message, make_echo_request
from repro.wsa import EndpointReference


@pytest.fixture
def world(sim):
    net = Network(sim)
    link = AccessLink(5000, 5000, 0.005)
    client = net.add_host("client", link)
    ws_host = net.add_host("ws", link)
    wsd_host = net.add_host("wsd", link)
    registry = ServiceRegistry()
    return net, client, ws_host, wsd_host, registry


def soap_post(path: str, body: bytes) -> HttpRequest:
    headers = Headers()
    headers.set("Content-Type", SOAP11_CONTENT_TYPE)
    return HttpRequest("POST", path, headers=headers, body=body)


class TestSimRpcDispatcher:
    def test_forwards_and_returns_response(self, world):
        net, client, ws_host, wsd_host, registry = world
        sim = net.sim
        app = SoapHttpApp()
        app.mount("/echo", EchoService())
        SimHttpServer(net, ws_host, 9000, lambda r: app.handle_request(r, None))
        registry.register("echo", "http://ws:9000/echo")
        disp = SimRpcDispatcher(net, wsd_host, registry)
        SimHttpServer(net, wsd_host, 8000, disp.handler)

        def call():
            resp = yield from sim_http_request(
                net, client, "wsd", 8000,
                soap_post("/rpc/echo", make_echo_request().to_bytes()),
            )
            return resp

        resp = sim.run(sim.process(call()))
        assert resp.status == 200
        parsed = parse_rpc_response(Envelope.from_bytes(resp.body))
        assert parsed.result("return") is not None
        assert disp.stats["forwarded"] == 1

    def test_unknown_service_404(self, world):
        net, client, ws_host, wsd_host, registry = world
        sim = net.sim
        disp = SimRpcDispatcher(net, wsd_host, registry)
        SimHttpServer(net, wsd_host, 8000, disp.handler)

        def call():
            resp = yield from sim_http_request(
                net, client, "wsd", 8000,
                soap_post("/rpc/ghost", make_echo_request().to_bytes()),
            )
            return resp.status

        assert sim.run(sim.process(call())) == 404

    def test_unreachable_backend_502(self, world):
        net, client, ws_host, wsd_host, registry = world
        sim = net.sim
        registry.register("dead", "http://ws:9999/dead")
        disp = SimRpcDispatcher(net, wsd_host, registry, connect_timeout=1.0)
        SimHttpServer(net, wsd_host, 8000, disp.handler)

        def call():
            resp = yield from sim_http_request(
                net, client, "wsd", 8000,
                soap_post("/rpc/dead", make_echo_request().to_bytes()),
                response_timeout=30.0,
            )
            return resp.status

        assert sim.run(sim.process(call())) == 502


@pytest.fixture
def msg_world(world):
    net, client, ws_host, wsd_host, registry = world
    sim = net.sim
    echo = SimAsyncEchoService(net, ws_host, reply_senders=8)
    SimHttpServer(net, ws_host, 9000, echo.handler)
    registry.register("echo", "http://ws:9000/echo")
    config = SimMsgDispatcherConfig(
        cx_workers=2, ws_workers=4, destination_idle_ttl=0.5,
    )
    disp = SimMsgDispatcher(
        net, wsd_host, registry, own_address="http://wsd:8000/msg", config=config
    )
    SimHttpServer(net, wsd_host, 8000, disp.handler)
    store = MailboxStore(clock=sim.clock)
    msgbox = MsgBoxService(store, base_url="http://wsd:8500/mailbox")
    app = SoapHttpApp()
    app.mount("/mailbox", msgbox)
    # served as an app: the wsd host records it, so the dispatcher derives
    # that this mailbox is co-hosted (paper section 4.3.2)
    SimHttpServer(net, wsd_host, 8500, app)
    return net, client, registry, disp, store, echo


class TestSimMsgDispatcher:
    def test_one_way_forwarded(self, msg_world):
        net, client, registry, disp, store, echo = msg_world
        sim = net.sim
        ids = IdGenerator("t", seed=1)

        def send():
            msg = make_echo_message(to="urn:wsd:echo", message_id=ids.next())
            resp = yield from sim_http_request(
                net, client, "wsd", 8000, soap_post("/msg/echo", msg.to_bytes())
            )
            return resp.status

        assert sim.run(sim.process(send())) == 202
        sim.run(until=sim.now + 5.0)
        assert echo.counters.get("received") == 1
        assert disp.stats["delivered"] == 1

    def test_response_deposited_directly_to_mailbox(self, msg_world):
        """Passthrough: the WS replies straight to the co-located mailbox."""
        net, client, registry, disp, store, echo = msg_world
        sim = net.sim
        ids = IdGenerator("t", seed=2)
        mailbox_id = store.create()
        epr = make_mailbox_epr("http://wsd:8500/mailbox", mailbox_id)

        def send():
            msg = make_echo_message(
                to="urn:wsd:echo", message_id=ids.next(), reply_to=epr
            )
            yield from sim_http_request(
                net, client, "wsd", 8000, soap_post("/msg/echo", msg.to_bytes())
            )

        sim.run(sim.process(send()))
        sim.run(until=sim.now + 5.0)
        assert store.peek_count(mailbox_id) == 1
        # no relay hop: dispatcher routed zero responses
        assert disp.stats.get("routed_responses", 0) == 0
        assert echo.counters.get("replies_sent") == 1
        # and nothing will ever pop the entry: it left with the delivery
        assert disp.pending_correlations() == 0

    def test_correlation_table_is_empty_after_an_idle_run(self, msg_world):
        """The leak check: passed-through entries leave with the delivery,
        relayed ones with their reply, forgotten ones with the TTL."""
        net, client, registry, disp, store, echo = msg_world
        sim = net.sim
        disp.config.correlation_ttl = 30.0
        ids = IdGenerator("t", seed=9)
        mailbox = make_mailbox_epr("http://wsd:8500/mailbox", store.create())
        relayed = make_mailbox_epr("http://wsd:8501/mailbox", "elsewhere")
        unreachable = EndpointReference("http://client:7000/inbox")

        def send(n):
            for i in range(n):
                reply_to = (mailbox, relayed, unreachable)[i % 3]
                msg = make_echo_message(
                    to="urn:wsd:echo", message_id=ids.next(), reply_to=reply_to
                )
                yield from sim_http_request(
                    net, client, "wsd", 8000, soap_post("/msg/echo", msg.to_bytes())
                )

        sim.run(sim.process(send(30)))
        sim.run(until=sim.now + 60.0)
        assert disp.stats["routed_requests"] == 30
        # one more routed message collects whatever the TTL left behind
        sim.run(sim.process(send(1)))
        sim.run(until=sim.now + 5.0)
        assert disp.pending_correlations() == 0

    def test_response_relayed_without_passthrough(self, msg_world):
        """A mailbox on another machine is nobody's co-host: relayed."""
        net, client, registry, disp, _, echo = msg_world
        sim = net.sim
        store = MailboxStore(clock=sim.clock)
        app = SoapHttpApp()
        app.mount("/mailbox", MsgBoxService(store, base_url="http://mb:8500/mailbox"))
        SimHttpServer(net, net.add_host("mb", AccessLink(5000, 5000, 0.005)), 8500, app)
        ids = IdGenerator("t", seed=3)
        mailbox_id = store.create()
        epr = make_mailbox_epr("http://mb:8500/mailbox", mailbox_id)

        def send():
            msg = make_echo_message(
                to="urn:wsd:echo", message_id=ids.next(), reply_to=epr
            )
            yield from sim_http_request(
                net, client, "wsd", 8000, soap_post("/msg/echo", msg.to_bytes())
            )

        sim.run(sim.process(send()))
        sim.run(until=sim.now + 5.0)
        assert store.peek_count(mailbox_id) == 1
        assert disp.stats.get("routed_responses") == 1

    def test_registry_outage_parks_and_redelivers_after_recovery(self, world):
        """Deterministic twin of the threaded/aio regression: messages
        arriving during a registry outage park in the hold store under
        the resolve-later sentinel and deliver once the registry is back."""
        from repro.reliable import FixedDelay, HoldRetryStore

        net, client, ws_host, wsd_host, registry = world
        sim = net.sim
        echo = SimAsyncEchoService(net, ws_host, reply_senders=8)
        SimHttpServer(net, ws_host, 9000, echo.handler)
        registry.register("echo", "http://ws:9000/echo")
        registry.set_available(False)
        hold_store = HoldRetryStore(
            policy=FixedDelay(max_attempts=1000, delay=0.5),
            default_ttl=600.0, clock=sim.clock,
        )
        disp = SimMsgDispatcher(
            net, wsd_host, registry, own_address="http://wsd:8000/msg",
            config=SimMsgDispatcherConfig(
                cx_workers=2, ws_workers=4, dedupe_window=600.0,
                hold_pump_interval=0.5,
            ),
            hold_store=hold_store,
        )
        SimHttpServer(net, wsd_host, 8000, disp.handler)
        ids = IdGenerator("t", seed=9)

        def send():
            for _ in range(3):
                msg = make_echo_message(to="urn:wsd:echo", message_id=ids.next())
                resp = yield from sim_http_request(
                    net, client, "wsd", 8000,
                    soap_post("/msg/echo", msg.to_bytes()),
                )
                assert resp.status == 202

        def recover():
            yield sim.timeout(3.0)
            registry.set_available(True)

        sim.process(send())
        sim.process(recover())
        sim.run(until=2.5)
        assert disp.stats.get("hold_registry_unavailable") == 3
        assert disp.stats.get("dropped_unroutable", 0) == 0
        assert hold_store.pending() == 3
        assert echo.counters.get("received") == 0
        sim.run(until=10.0)
        assert hold_store.pending() == 0
        assert disp.stats.get("delivered") == 3
        assert echo.counters.get("received") == 3
        # redelivered MessageIDs were recorded when they parked; the
        # from-hold pass must bypass the duplicate filter
        assert disp.stats.get("duplicates_suppressed", 0) == 0

    def test_bridge_returns_response_inband(self, msg_world):
        net, client, registry, disp, store, echo = msg_world
        sim = net.sim
        SimHttpServer(
            net, net.host("wsd"), 8100,
            lambda req: disp.bridge_handler(req, bridge_timeout=10.0),
        )

        def call():
            resp = yield from sim_http_request(
                net, client, "wsd", 8100,
                soap_post("/bridge/echo", make_echo_request().to_bytes()),
                response_timeout=20.0,
            )
            return resp

        resp = sim.run(sim.process(call()))
        assert resp.status == 200
        parsed = parse_rpc_response(Envelope.from_bytes(resp.body))
        assert parsed.result("return") is not None
        assert disp.stats.get("bridged_responses") == 1

    def test_bridge_timeout_504(self, msg_world):
        net, client, registry, disp, store, echo = msg_world
        sim = net.sim
        registry.register("void", "http://ws:9998/void")  # nothing listening
        SimHttpServer(
            net, net.host("wsd"), 8100,
            lambda req: disp.bridge_handler(req, bridge_timeout=2.0),
        )

        def call():
            resp = yield from sim_http_request(
                net, client, "wsd", 8100,
                soap_post("/bridge/void", make_echo_request().to_bytes()),
                response_timeout=30.0,
            )
            return resp.status

        assert sim.run(sim.process(call())) == 504
        assert disp.stats.get("bridge_timeouts") == 1


class TestSimPipelinedDrain:
    """The simulated WsThread drain mirrors the threaded pipelined burst."""

    def _pipeline_world(self, sim):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import TraceStore
        from repro.simnet.topology import AccessLink, Network

        net = Network(sim)
        link = AccessLink(5000, 5000, 0.005)
        ws_host = net.add_host("ws", link)
        wsd_host = net.add_host("wsd", link)
        echo = SimAsyncEchoService(net, ws_host, reply_senders=8)
        SimHttpServer(net, ws_host, 9000, echo.handler)
        registry = ServiceRegistry(metrics=MetricsRegistry())
        registry.register("echo", "http://ws:9000/echo")
        disp = SimMsgDispatcher(
            net, wsd_host, registry, own_address="http://wsd:8000/msg",
            config=SimMsgDispatcherConfig(
                cx_workers=2, ws_workers=2, batch_size=8,
            ),
            metrics=MetricsRegistry(), traces=TraceStore(),
        )
        return net, disp, echo

    def _feed(self, disp, count, traced=False, prefix="pipe"):
        from repro.obs.trace import TraceContext

        ids = IdGenerator(prefix, seed=7)
        traces = []
        for i in range(count):
            msg = make_echo_message(to="urn:wsd:echo", message_id=ids.next())
            trace = TraceContext(f"sim-{prefix}-{i}") if traced else None
            traces.append(trace)
            assert disp._accept_queue.try_put((msg, "/msg/echo", trace, 0.0, None))
        return traces

    def test_backlog_drains_as_pipelined_bursts(self, sim):
        net, disp, echo = self._pipeline_world(sim)
        self._feed(disp, 8)
        sim.run(until=10.0)
        assert disp.stats["delivered"] == 8
        assert echo.counters.get("received") == 8
        assert disp.pool.pipelined_bursts >= 1
        assert disp.pool.pipeline_replays == 0

    def test_one_goes_alone_eight_as_one_burst(self, sim):
        """The drain picks its path from the batch it drew, not from a
        switch: one queued message is a plain request/response, eight
        queued behind it are one pipelined burst."""
        net, disp, echo = self._pipeline_world(sim)
        (lone,) = self._feed(disp, 1, traced=True, prefix="lone")
        sim.run(until=0.001)  # routed; its delivery is still on the wire
        backlog = self._feed(disp, 8, traced=True, prefix="backlog")
        sim.run(until=10.0)
        assert disp.stats["delivered"] == 9
        names = [s.name for s in disp.traces.get(lone.trace_id)]
        assert "deliver" in names and "pipeline-burst" not in names
        burst_sids = {
            s.span_id
            for ctx in backlog
            for s in disp.traces.get(ctx.trace_id)
            if s.name == "pipeline-burst"
        }
        assert len(burst_sids) == 1
        assert disp.pool.pipelined_bursts == 1

    def test_burst_span_recorded_per_trace_with_shared_id(self, sim):
        net, disp, echo = self._pipeline_world(sim)
        traces = self._feed(disp, 6, traced=True)
        sim.run(until=10.0)
        assert disp.stats["delivered"] == 6
        burst_sids = set()
        for ctx in traces:
            spans = disp.traces.get(ctx.trace_id)
            burst = [s for s in spans if s.name == "pipeline-burst"]
            deliver = [s for s in spans if s.name == "deliver"]
            assert len(burst) == 1
            assert len(deliver) == 1
            assert deliver[0].parent_id == burst[0].span_id
            burst_sids.add(burst[0].span_id)
        # items that rode the same burst share that burst's span id, so
        # the number of distinct burst span ids equals the burst count
        assert len(burst_sids) == disp.pool.pipelined_bursts
