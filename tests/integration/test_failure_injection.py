"""Failure-injection integration tests: the stack under partial failure.

The paper's motivation for scalability testing (§4.3.2): "if a web
service becomes popular but was not tested for scalability users may
start to experience undeterministic and very puzzling errors".  These
tests make the failure modes deterministic and assert the system degrades
the way it is designed to.
"""

from repro.core import (
    MsgDispatcher,
    MsgDispatcherConfig,
    RpcDispatcher,
    ServiceRegistry,
)
from repro.http import HttpRequest
from repro.msgbox import MailboxStore, MsgBoxClient, MsgBoxService
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import SoapHttpApp
from repro.soap import Envelope
from repro.util.ids import IdGenerator
from repro.workload.echo import AsyncEchoService, EchoService, make_echo_message, make_echo_request
from tests.conftest import wait_for


class TestServiceDeathMidTraffic:
    def test_rpc_dispatcher_reports_502_then_recovers(self, inproc):
        registry = ServiceRegistry()
        registry.register("echo", "http://ws:9000/echo")
        dispatcher = RpcDispatcher(
            registry, HttpClient(inproc, connect_timeout=0.2)
        )
        front = HttpServer(
            inproc.listen("wsd:8000"), dispatcher.handle_request
        ).start()
        client = HttpClient(inproc)

        def start_ws():
            app = SoapHttpApp()
            app.mount("/echo", EchoService())
            return HttpServer(inproc.listen("ws:9000"), app.handle_request).start()

        ws = start_ws()
        assert client.post_envelope(
            "http://wsd:8000/rpc/echo", make_echo_request()
        ).status == 200

        ws.stop()  # service dies
        resp = client.post_envelope("http://wsd:8000/rpc/echo", make_echo_request())
        assert resp.status == 502
        assert Envelope.from_bytes(resp.body).is_fault()

        ws = start_ws()  # service returns at the same address
        assert client.post_envelope(
            "http://wsd:8000/rpc/echo", make_echo_request()
        ).status == 200
        ws.stop()
        front.stop()
        client.close()

    def test_failover_to_surviving_replica(self, inproc):
        """Registry-level redundancy: second physical address takes over."""
        registry = ServiceRegistry()
        apps = []
        for i in range(2):
            app = SoapHttpApp()
            svc = EchoService()
            app.mount("/echo", svc)
            server = HttpServer(
                inproc.listen(f"r{i}:9000"), app.handle_request
            ).start()
            apps.append((server, svc))
        registry.register(
            "echo", ["http://r0:9000/echo", "http://r1:9000/echo"]
        )
        dispatcher = RpcDispatcher(
            registry, HttpClient(inproc, connect_timeout=0.2)
        )
        front = HttpServer(inproc.listen("wsd:8000"), dispatcher.handle_request).start()
        client = HttpClient(inproc)

        apps[0][0].stop()
        registry.register("echo", "http://r1:9000/echo")  # drop the dead one
        ok = 0
        for _ in range(5):
            if client.post_envelope(
                "http://wsd:8000/rpc/echo", make_echo_request()
            ).status == 200:
                ok += 1
        assert ok == 5
        assert apps[1][1].calls == 5
        apps[1][0].stop()
        front.stop()
        client.close()


class TestMailboxOverflow:
    def test_deposits_shed_when_quota_hit_but_service_survives(self, inproc):
        store = MailboxStore(max_messages_per_box=3)
        msgbox = MsgBoxService(store, base_url="http://mb:8500/mailbox")
        app = SoapHttpApp()
        app.mount("/mailbox", msgbox)
        server = HttpServer(inproc.listen("mb:8500"), app.handle_request).start()
        client = HttpClient(inproc)
        mbc = MsgBoxClient(client, "http://mb:8500/mailbox")
        mbc.create()
        ids = IdGenerator("ovf", seed=1)

        statuses = []
        for _ in range(5):
            env = make_echo_message(
                to="urn:x", message_id=ids.next(), reply_to=mbc.epr()
            )
            statuses.append(
                client.post_envelope(mbc.epr().address, env).status
            )
        assert statuses[:3] == [202, 202, 202]
        assert all(s == 500 for s in statuses[3:])  # quota faults, no crash
        # draining restores service
        assert len(mbc.take(max_messages=10)) == 3
        env = make_echo_message(to="urn:x", message_id=ids.next(), reply_to=mbc.epr())
        assert client.post_envelope(mbc.epr().address, env).status == 202
        server.stop()
        client.close()


class TestSlowClientDoesNotStallOthers:
    def test_one_stalled_destination_leaves_others_flowing(self, inproc):
        """A destination that blackholes deliveries must not stop traffic
        to healthy destinations (separate WsThread queues)."""
        registry = ServiceRegistry()
        ws_http = HttpClient(inproc)
        echo = AsyncEchoService(ws_http)
        app = SoapHttpApp()
        app.mount("/echo", echo)
        ws = HttpServer(inproc.listen("good:9000"), app.handle_request).start()
        registry.register("good", "http://good:9000/echo")
        registry.register("void", "http://void:9999/echo")  # nothing there

        dispatcher = MsgDispatcher(
            registry,
            HttpClient(inproc, connect_timeout=0.3),
            own_address="http://wsd:8000/msg",
            config=MsgDispatcherConfig(cx_threads=2, ws_threads=4),
        )
        front = HttpServer(inproc.listen("wsd:8000"), SoapHttpApp().handle_request).start()
        # mount after construction to reuse the running server
        client = HttpClient(inproc)
        ids = IdGenerator("stall", seed=1)

        from repro.rt.service import RequestContext

        # 5 messages to the dead destination, then 5 to the healthy one
        for _ in range(5):
            msg = make_echo_message(to="urn:wsd:void", message_id=ids.next())
            dispatcher.handle(msg, RequestContext(path="/msg/void"))
        for _ in range(5):
            msg = make_echo_message(to="urn:wsd:good", message_id=ids.next())
            dispatcher.handle(msg, RequestContext(path="/msg/good"))

        assert wait_for(lambda: echo.received == 5)
        assert wait_for(
            lambda: dispatcher.stats.get("delivery_failures", 0) == 5
        )
        dispatcher.stop()
        ws.stop()
        front.stop()
        client.close()
        ws_http.close()


class TestMalformedTrafficContained:
    def test_garbage_bytes_do_not_kill_the_dispatcher(self, inproc):
        registry = ServiceRegistry()
        app = SoapHttpApp()
        echo_app = SoapHttpApp()
        echo_app.mount("/echo", EchoService())
        ws = HttpServer(inproc.listen("ws:9000"), echo_app.handle_request).start()
        registry.register("echo", "http://ws:9000/echo")
        dispatcher = RpcDispatcher(registry, HttpClient(inproc))
        front = HttpServer(inproc.listen("wsd:8000"), dispatcher.handle_request).start()
        client = HttpClient(inproc)

        for garbage in (b"", b"\x00\x01\x02", b"<unclosed", b"a" * 1000):
            resp = client.request(
                "http://wsd:8000/rpc/echo",
                HttpRequest("POST", "/", body=garbage),
            )
            assert resp.status in (400, 413)
        # still healthy afterwards
        assert client.post_envelope(
            "http://wsd:8000/rpc/echo", make_echo_request()
        ).status == 200
        ws.stop()
        front.stop()
        client.close()

    def test_raw_protocol_garbage_on_the_wire(self, inproc):
        app = SoapHttpApp()
        app.mount("/echo", EchoService())
        server = HttpServer(inproc.listen("ws:9000"), app.handle_request).start()
        # speak broken HTTP directly at the server
        stream = inproc.connect("ws:9000")
        stream.send(b"NOT HTTP AT ALL\r\n\r\n\r\n")
        # server drops the connection without dying
        assert stream.recv(1024, timeout=2.0) == b""
        # and keeps serving proper clients
        client = HttpClient(inproc)
        assert client.post_envelope(
            "http://ws:9000/echo", make_echo_request()
        ).status == 200
        server.stop()
        client.close()
