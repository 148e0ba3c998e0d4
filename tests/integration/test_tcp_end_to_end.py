"""End-to-end over *real* loopback TCP sockets.

Everything else in the suite uses the in-process transport; this module
proves the identical stack works over genuine sockets — server accept
loops, connection pooling, keep-alive, and the full dispatcher + mailbox
choreography.
"""

import pytest

from repro.core import (
    MsgDispatcher,
    MsgDispatcherConfig,
    RpcDispatcher,
    ServiceRegistry,
)
from repro.msgbox import MailboxSecurity, MailboxStore, MsgBoxClient, MsgBoxService
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import SoapHttpApp
from repro.soap import parse_rpc_response
from repro.transport.tcp import TcpConnector, TcpListener
from repro.util.ids import IdGenerator
from repro.workload.echo import AsyncEchoService, EchoService, make_echo_message, make_echo_request


@pytest.fixture
def tcp_deployment():
    """Full stack on 127.0.0.1 with OS-assigned ports."""
    connector = TcpConnector()
    servers = []

    # internal WS host
    ws_http = HttpClient(connector)
    ws_app = SoapHttpApp()
    ws_app.mount("/echo-rpc", EchoService())
    ws_app.mount("/echo-msg", AsyncEchoService(ws_http, ids=IdGenerator("t", seed=1)))
    ws_listener = TcpListener("127.0.0.1:0")
    ws_server = HttpServer(ws_listener, ws_app.handle_request, workers=4).start()
    servers.append(ws_server)
    ws_base = f"http://127.0.0.1:{ws_listener.endpoint.port}"

    # intermediary
    registry = ServiceRegistry()
    registry.register("echo-rpc", f"{ws_base}/echo-rpc")
    registry.register("echo-msg", f"{ws_base}/echo-msg")
    wsd_listener = TcpListener("127.0.0.1:0")
    wsd_base = f"http://127.0.0.1:{wsd_listener.endpoint.port}"

    disp_http = HttpClient(connector)
    rpc_disp = RpcDispatcher(registry, disp_http)
    msg_disp = MsgDispatcher(
        registry,
        disp_http,
        own_address=f"{wsd_base}/msg",
        config=MsgDispatcherConfig(cx_threads=2, ws_threads=4),
    )
    msgbox = MsgBoxService(
        MailboxStore(),
        security=MailboxSecurity(b"tcp-secret"),
        base_url=f"{wsd_base}/mailbox",
    )
    app = SoapHttpApp()
    app.mount("/msg", msg_disp)
    app.mount("/mailbox", msgbox)

    def front(request, peer=None):
        if request.target.startswith("/rpc"):
            return rpc_disp.handle_request(request, peer)
        return app.handle_request(request, peer)

    wsd_server = HttpServer(wsd_listener, front, workers=8).start()
    servers.append(wsd_server)

    client = HttpClient(connector)
    yield wsd_base, client, msg_disp
    msg_disp.stop()
    for server in servers:
        server.stop()
    client.close()
    ws_http.close()
    disp_http.close()


def test_rpc_roundtrip_over_real_sockets(tcp_deployment):
    wsd_base, client, _ = tcp_deployment
    reply = client.call_soap(f"{wsd_base}/rpc/echo-rpc", make_echo_request())
    assert parse_rpc_response(reply).result("return") is not None


def test_async_mailbox_roundtrip_over_real_sockets(tcp_deployment):
    wsd_base, client, msg_disp = tcp_deployment
    mbc = MsgBoxClient(client, f"{wsd_base}/mailbox")
    mbc.create()
    ids = IdGenerator("tcp", seed=2)
    msg = make_echo_message(
        to="urn:wsd:echo-msg", message_id=ids.next(), reply_to=mbc.epr()
    )
    assert client.post_envelope(f"{wsd_base}/msg/echo-msg", msg).status == 202
    messages = mbc.poll(expected=1, timeout=8)
    assert len(messages) == 1
    assert parse_rpc_response(messages[0]).result("return") is not None
    mbc.destroy()


def test_sustained_keep_alive_traffic(tcp_deployment):
    wsd_base, client, _ = tcp_deployment
    for _ in range(20):
        reply = client.call_soap(f"{wsd_base}/rpc/echo-rpc", make_echo_request())
        assert parse_rpc_response(reply).result("return") is not None
