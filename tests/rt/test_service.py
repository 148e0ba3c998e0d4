"""Tests for SOAP service hosting (SoapHttpApp)."""

import pytest

from repro.errors import MailboxNotFound
from repro.http import Headers, HttpRequest, HttpResponse
from repro.rt.service import (
    FunctionService,
    RequestContext,
    SoapHttpApp,
    soap_fault_response,
    soap_response,
)
from repro.soap import (
    Envelope,
    Fault,
    RpcRequest,
    SoapVersion,
    build_rpc_request,
)
from repro.xmlmini import Element, QName


def soap_post(path: str, envelope: Envelope | None = None, body: bytes | None = None):
    headers = Headers()
    headers.set("Content-Type", "text/xml; charset=utf-8")
    payload = body if body is not None else envelope.to_bytes()
    return HttpRequest("POST", path, headers=headers, body=payload)


def echo_request():
    return build_rpc_request(RpcRequest("urn:t", "op", [("x", "1")]))


class TestMounting:
    def test_mount_requires_absolute_prefix(self):
        with pytest.raises(ValueError):
            SoapHttpApp().mount("relative", FunctionService(lambda e, c: None))

    def test_longest_prefix_wins(self):
        app = SoapHttpApp()
        hits = []
        app.mount("/svc", FunctionService(lambda e, c: hits.append("short") or None))
        app.mount(
            "/svc/special",
            FunctionService(lambda e, c: hits.append("long") or None),
        )
        app.handle_request(soap_post("/svc/special/x", echo_request()))
        assert hits == ["long"]

    def test_exact_prefix_match(self):
        app = SoapHttpApp()
        hits = []
        app.mount("/svc", FunctionService(lambda e, c: hits.append(c.path) or None))
        app.handle_request(soap_post("/svc", echo_request()))
        assert hits == ["/svc"]

    def test_prefix_must_match_segment_boundary(self):
        app = SoapHttpApp()
        app.mount("/svc", FunctionService(lambda e, c: None))
        resp = app.handle_request(soap_post("/svcother", echo_request()))
        assert resp.status == 404


class _Hosted:
    """A service with the duck-typed mount hook."""

    def __init__(self):
        self.tables = []

    def hosted_on(self, app):
        self.tables.append(app.services())

    def handle(self, envelope, ctx):
        return None


class TestCoHosting:
    def test_every_hosted_service_hears_of_every_mount(self):
        app = SoapHttpApp()
        first, second = _Hosted(), _Hosted()
        plain = FunctionService(lambda e, c: None)
        app.mount("/a", first)
        app.mount("/plain", plain)
        app.mount("/b", second)
        # mounted before or after, each has seen the full table
        assert set(first.tables[-1]) == set(second.tables[-1]) == {first, plain, second}
        assert len(first.tables) == 3 and len(second.tables) == 1
        app.mount_raw("/hook", lambda request: HttpResponse(status=204))
        assert len(first.tables) == 4  # raw POST handlers re-route paths too

    def test_owns_subtree(self):
        app = SoapHttpApp()
        box, other = FunctionService(lambda e, c: None), FunctionService(lambda e, c: None)
        app.mount("/mailbox", box)
        app.mount("/", other)
        assert app.owns_subtree("/mailbox/deposit/", box)
        assert app.owns_subtree("/mailbox/", box)
        assert not app.owns_subtree("/mailbox/deposit/", other)
        assert not app.owns_subtree("/mailbox/deposit", box)  # not a subtree
        assert not app.owns_subtree("/mailboxes/", box)
        assert app.owns_subtree("/mailboxes/", other)

    def test_a_mount_inside_the_subtree_breaks_ownership(self):
        app = SoapHttpApp()
        box = FunctionService(lambda e, c: None)
        app.mount("/mailbox", box)
        app.mount("/mailbox/deposit/again", box)  # the same service: still its own
        assert app.owns_subtree("/mailbox/deposit/", box)
        app.mount("/mailbox/deposit/special", FunctionService(lambda e, c: None))
        assert not app.owns_subtree("/mailbox/deposit/", box)

    @pytest.mark.parametrize("raw", ["/mailbox", "/mailbox/deposit", "/mailbox/deposit/x"])
    def test_a_raw_handler_on_the_way_breaks_ownership(self, raw):
        app = SoapHttpApp()
        box = FunctionService(lambda e, c: None)
        app.mount("/mailbox", box)
        app.mount_raw("/mailbox-spans", lambda request: HttpResponse(status=204))
        assert app.owns_subtree("/mailbox/deposit/", box)
        app.mount_raw(raw, lambda request: HttpResponse(status=204))
        assert not app.owns_subtree("/mailbox/deposit/", box)


class TestDispatch:
    def test_one_way_gets_202(self):
        app = SoapHttpApp()
        app.mount("/a", FunctionService(lambda e, c: None))
        resp = app.handle_request(soap_post("/a", echo_request()))
        assert resp.status == 202

    def test_reply_envelope_gets_200(self):
        app = SoapHttpApp()
        app.mount("/a", FunctionService(lambda e, c: e))
        resp = app.handle_request(soap_post("/a", echo_request()))
        assert resp.status == 200
        assert Envelope.from_bytes(resp.body).body is not None

    def test_fault_reply_gets_500(self):
        fault_env = Envelope(Fault("Server", "x").to_element(SoapVersion.V11))
        app = SoapHttpApp()
        app.mount("/a", FunctionService(lambda e, c: fault_env))
        assert app.handle_request(soap_post("/a", echo_request())).status == 500

    def test_malformed_soap_gets_400(self):
        app = SoapHttpApp()
        app.mount("/a", FunctionService(lambda e, c: None))
        resp = app.handle_request(soap_post("/a", body=b"this is not xml"))
        assert resp.status == 400

    def test_unmounted_path_404(self):
        resp = SoapHttpApp().handle_request(soap_post("/nowhere", echo_request()))
        assert resp.status == 404

    def test_non_post_rejected(self):
        app = SoapHttpApp()
        app.mount("/a", FunctionService(lambda e, c: None))
        resp = app.handle_request(HttpRequest("PUT", "/a"))
        assert resp.status == 405

    def test_repro_error_maps_to_fault_500(self):
        def boom(envelope, ctx):
            raise MailboxNotFound("gone")

        app = SoapHttpApp()
        app.mount("/a", FunctionService(boom))
        resp = app.handle_request(soap_post("/a", echo_request()))
        assert resp.status == 500
        fault = Fault.from_element(Envelope.from_bytes(resp.body).body)
        assert "gone" in fault.reason

    def test_unexpected_exception_contained(self):
        def boom(envelope, ctx):
            raise RuntimeError("surprise")

        app = SoapHttpApp()
        app.mount("/a", FunctionService(boom))
        resp = app.handle_request(soap_post("/a", echo_request()))
        assert resp.status == 500
        assert b"surprise" in resp.body

    def test_context_carries_path_and_request(self):
        seen = {}

        def svc(envelope, ctx: RequestContext):
            seen["path"] = ctx.path
            seen["has_req"] = ctx.http_request is not None
            return None

        app = SoapHttpApp()
        app.mount("/a", FunctionService(svc))
        app.handle_request(soap_post("/a/sub?q=1", echo_request()))
        assert seen == {"path": "/a/sub", "has_req": True}


class TestPages:
    def test_get_page_served(self):
        app = SoapHttpApp()
        app.mount_page("/registry", lambda req: HttpResponse(200, body=b"<html/>"))
        resp = app.handle_request(HttpRequest("GET", "/registry/list"))
        assert resp.status == 200 and resp.body == b"<html/>"

    def test_get_unmounted_404(self):
        assert SoapHttpApp().handle_request(HttpRequest("GET", "/x")).status == 404


class TestResponseHelpers:
    def test_soap_response_sets_content_type(self):
        resp = soap_response(echo_request())
        assert "text/xml" in resp.headers.get("Content-Type")

    def test_soap_fault_response(self):
        resp = soap_fault_response(Fault("Client", "bad"), status=400)
        assert resp.status == 400
        env = Envelope.from_bytes(resp.body)
        assert env.is_fault()
