"""End-to-end integration: the full WS-Dispatcher stack on real threads.

Recreates the paper's Figure 1 choreography (steps 1-8) inside one
process: firewalled client → MSG-Dispatcher → Registry → WS →
MSG-Dispatcher → WS-MsgBox → client poll.
"""

import pytest

from repro.core import (
    MsgDispatcher,
    MsgDispatcherConfig,
    RpcDispatcher,
    ServiceRegistry,
)
from repro.core.registry import RegistryService
from repro.http import HttpRequest, HttpResponse
from repro.msgbox import MailboxSecurity, MailboxStore, MsgBoxService, MsgBoxClient
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import SoapHttpApp
from repro.soap import parse_rpc_response
from repro.util.ids import IdGenerator
from repro.workload.echo import (
    EchoService,
    make_echo_message,
    make_echo_request,
)
from tests.conftest import RecordingEcho, epr_shape


@pytest.fixture
def deployment(inproc):
    """A complete deployment: WS host, dispatcher host, client tooling."""
    handles = {}

    # --- inaccessible zone: two services on an internal host --------------
    ws_client = HttpClient(inproc)
    async_echo = RecordingEcho(ws_client, ids=IdGenerator("ws", seed=1))
    ws_app = SoapHttpApp()
    ws_app.mount("/echo-msg", async_echo)
    ws_app.mount("/echo-rpc", EchoService())
    handles["ws_server"] = HttpServer(
        inproc.listen("internal:9000"), ws_app.handle_request, workers=4
    ).start()

    # --- intermediary: registry + both dispatchers + mailbox -------------
    registry = ServiceRegistry()
    registry.register("echo-msg", "http://internal:9000/echo-msg")
    registry.register("echo-rpc", "http://internal:9000/echo-rpc")
    registry_svc = RegistryService(registry)

    disp_client = HttpClient(inproc)
    msg_disp = MsgDispatcher(
        registry,
        disp_client,
        own_address="http://wsd:8000/msg",
        config=MsgDispatcherConfig(cx_threads=2, ws_threads=4),
    )
    rpc_disp = RpcDispatcher(registry, disp_client)
    msgbox = MsgBoxService(
        MailboxStore(),
        security=MailboxSecurity(b"deployment-secret"),
        base_url="http://wsd:8000/mailbox",
    )
    app = SoapHttpApp()
    app.mount("/msg", msg_disp)
    app.mount("/mailbox", msgbox)
    app.mount("/registry", registry_svc)
    app.mount_page(
        "/registry",
        lambda req: HttpResponse(
            200, body=registry_svc.render_listing().encode()
        ),
    )

    def front(request: HttpRequest, peer=None) -> HttpResponse:
        if request.target.startswith("/rpc"):
            return rpc_disp.handle_request(request, peer)
        return app.handle_request(request, peer)

    handles["front"] = HttpServer(
        inproc.listen("wsd:8000"), front, workers=8
    ).start()
    handles["msg_disp"] = msg_disp
    handles["registry"] = registry
    # a second intermediary hosting only a mailbox, on an origin of its own
    remote_app = SoapHttpApp()
    remote_app.mount(
        "/mailbox",
        MsgBoxService(
            MailboxStore(),
            security=MailboxSecurity(b"remote-secret"),
            base_url="http://mb:8500/mailbox",
        ),
    )
    handles["remote_mailbox"] = HttpServer(
        inproc.listen("mb:8500"), remote_app.handle_request
    ).start()

    yield inproc, handles, async_echo
    msg_disp.stop()
    handles["front"].stop()
    handles["remote_mailbox"].stop()
    handles["ws_server"].stop()
    ws_client.close()
    disp_client.close()


def figure1_choreography(deployment, mailbox_url):
    """Steps 1-8 of Figure 1, asynchronous path with a mailbox at
    ``mailbox_url``; returns the ReplyTo the WS saw and the one sent."""
    inproc, handles, async_echo = deployment
    client_http = HttpClient(inproc)
    ids = IdGenerator("cli", seed=7)

    # (1) client creates a mailbox at the intermediary
    mbc = MsgBoxClient(client_http, mailbox_url)
    mbc.create()
    sent_reply_to = mbc.epr()

    # (2) client sends a one-way message addressed by logical name
    msg = make_echo_message(
        to="urn:wsd:echo-msg", message_id=ids.next(), reply_to=mbc.epr()
    )
    resp = client_http.post_envelope("http://wsd:8000/msg/echo-msg", msg)
    assert resp.status == 202

    # (3..7) dispatcher resolves, forwards, WS replies, response lands in
    # the mailbox; (8) the client picks it up
    messages = mbc.poll(expected=1, timeout=5)
    assert len(messages) == 1
    echoed = parse_rpc_response(messages[0])
    assert echoed.result("return") is not None
    assert handles["msg_disp"].stats["routed_requests"] == 1
    mbc.destroy()
    client_http.close()
    return async_echo.requests[0].reply_to, sent_reply_to


def test_figure1_full_choreography(deployment):
    """The dispatcher's own co-hosted WS-MsgBox (paper section 4.3.2): the
    WS is handed the mailbox's deposit EPR — deposits need no owner token,
    ``take`` still does — and sends its response there itself."""
    seen, sent = figure1_choreography(deployment, "http://wsd:8000/mailbox")
    assert epr_shape(seen) == epr_shape(sent)
    assert "routed_responses" not in deployment[1]["msg_disp"].stats


def test_figure1_choreography_with_the_mailbox_on_another_origin(deployment):
    """Any other mailbox is relayed: the WS only ever saw the dispatcher's
    return address, and the response came back through the dispatcher."""
    seen, sent = figure1_choreography(deployment, "http://mb:8500/mailbox")
    assert epr_shape(seen) == ("http://wsd:8000/msg", [])
    assert deployment[1]["msg_disp"].stats["routed_responses"] == 1


def test_rpc_and_msg_paths_coexist(deployment):
    inproc, handles, async_echo = deployment
    client_http = HttpClient(inproc)
    reply = client_http.call_soap(
        "http://wsd:8000/rpc/echo-rpc", make_echo_request()
    )
    assert parse_rpc_response(reply).result("return") is not None
    client_http.close()


def test_registry_browsable_over_http(deployment):
    inproc, handles, async_echo = deployment
    client_http = HttpClient(inproc)
    resp = client_http.request(
        "http://wsd:8000/registry/list", HttpRequest("GET", "/")
    )
    assert resp.status == 200
    assert b"echo-msg" in resp.body and b"echo-rpc" in resp.body
    client_http.close()


def test_service_relocation_via_registry(deployment, inproc):
    """Location transparency: re-registering moves traffic, clients unchanged."""
    inproc_, handles, async_echo = deployment
    app = SoapHttpApp()
    moved = EchoService()
    app.mount("/echo-rpc", moved)
    new_host = HttpServer(inproc.listen("internal2:9100"), app.handle_request).start()
    handles["registry"].register("echo-rpc", "http://internal2:9100/echo-rpc")

    client_http = HttpClient(inproc)
    client_http.call_soap("http://wsd:8000/rpc/echo-rpc", make_echo_request())
    assert moved.calls == 1
    new_host.stop()
    client_http.close()


def test_many_clients_share_one_mailbox_service(deployment):
    inproc, handles, async_echo = deployment
    ids = IdGenerator("multi", seed=3)
    clients = []
    for _ in range(5):
        http = HttpClient(inproc)
        mbc = MsgBoxClient(http, "http://wsd:8000/mailbox")
        mbc.create()
        clients.append((http, mbc))
    for i, (http, mbc) in enumerate(clients):
        msg = make_echo_message(
            to="urn:wsd:echo-msg", message_id=ids.next(), reply_to=mbc.epr()
        )
        http.post_envelope("http://wsd:8000/msg/echo-msg", msg)
    for http, mbc in clients:
        assert len(mbc.poll(expected=1, timeout=5)) == 1
        http.close()
