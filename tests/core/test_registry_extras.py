"""Tests for registry extensions: WSDL browsing, ping."""

import pytest

from repro.core.registry import REGISTRY_NS, RegistryService, ServiceRegistry
from repro.errors import RegistryError
from repro.http import HttpRequest
from repro.rt.service import RequestContext
from repro.soap import RpcRequest, build_rpc_request, parse_rpc_response
from repro.xmlmini import QName, parse


def call(svc, op, params):
    env = build_rpc_request(RpcRequest(REGISTRY_NS, op, params))
    return parse_rpc_response(svc.handle(env, RequestContext(path="/registry")))


class TestWsdlBrowsing:
    @pytest.fixture
    def svc(self):
        registry = ServiceRegistry()
        registry.register(
            "echo", ["http://inside:9000/echo"], metadata={"desc": "test echo"}
        )
        return RegistryService(registry)

    def test_wsdl_is_valid_xml(self, svc):
        doc = parse(svc.render_wsdl("echo"))
        assert doc.name.local == "definitions"
        assert doc.attrs[QName(None, "name")] == "echo"
        assert doc.attrs[QName(None, "targetNamespace")] == "urn:wsd:echo"

    def test_wsdl_advertises_logical_location(self, svc):
        text = svc.render_wsdl("echo").decode()
        assert "urn:wsd:echo" in text
        # the physical address only appears as documentation
        assert "inside:9000" in text

    def test_wsdl_unknown_service(self, svc):
        from repro.errors import UnknownServiceError

        with pytest.raises(UnknownServiceError):
            svc.render_wsdl("ghost")

    def test_page_handler_listing(self, svc):
        resp = svc.page_handler(HttpRequest("GET", "/registry"))
        assert resp.status == 200
        assert b"echo" in resp.body
        assert "html" in resp.headers.get("Content-Type")

    def test_page_handler_wsdl(self, svc):
        resp = svc.page_handler(HttpRequest("GET", "/registry/wsdl/echo"))
        assert resp.status == 200
        assert "xml" in resp.headers.get("Content-Type")
        assert parse(resp.body).name.local == "definitions"

    def test_page_handler_wsdl_404(self, svc):
        resp = svc.page_handler(HttpRequest("GET", "/registry/wsdl/ghost"))
        assert resp.status == 404


class TestPingOperation:
    """Liveness is ``ServiceRegistry.check_alive``; the SOAP facade has no
    ``ping`` (nothing passed it a prober)."""

    def test_ping_alive(self):
        registry = ServiceRegistry()
        registry.register("echo", "http://a/")
        assert registry.check_alive("echo", lambda addr: True) is True
        assert registry.lookup("echo").last_health[1] is True

    def test_ping_down(self):
        registry = ServiceRegistry()
        registry.register("echo", "http://a/")
        assert registry.check_alive("echo", lambda addr: False) is False
        assert registry.lookup("echo").last_health[1] is False

    def test_ping_without_prober(self):
        registry = ServiceRegistry()
        registry.register("echo", "http://a/")
        svc = RegistryService(registry)
        with pytest.raises(RegistryError):
            call(svc, "ping", [("logical", "echo")])
