"""Tests for the service registry."""

import threading

import pytest

from repro.core.registry import REGISTRY_NS, RegistryService, ServiceRegistry
from repro.errors import RegistryError, UnknownServiceError
from repro.rt.service import RequestContext
from repro.soap import RpcRequest, build_rpc_request, parse_rpc_response


class TestRegistry:
    def test_register_and_resolve(self):
        reg = ServiceRegistry()
        reg.register("echo", "http://inside:8080/echo")
        assert reg.resolve("echo") == "http://inside:8080/echo"

    def test_unknown_service(self):
        with pytest.raises(UnknownServiceError):
            ServiceRegistry().resolve("ghost")

    def test_record_requires_physical(self):
        with pytest.raises(RegistryError):
            ServiceRegistry().register("x", [])

    def test_record_requires_logical(self):
        with pytest.raises(RegistryError):
            ServiceRegistry().register("", "http://x/")

    def test_multiple_physical_addresses(self):
        reg = ServiceRegistry()
        reg.register("echo", ["http://a/", "http://b/"])
        assert reg.lookup("echo").physical == ["http://a/", "http://b/"]
        assert reg.resolve("echo") == "http://a/"  # default selector: first

    def test_unregister(self):
        reg = ServiceRegistry()
        reg.register("echo", "http://a/")
        assert reg.unregister("echo") is True
        assert reg.unregister("echo") is False
        assert "echo" not in reg

    def test_disabled_service_not_resolvable(self):
        reg = ServiceRegistry()
        reg.register("echo", "http://a/")
        reg.set_enabled("echo", False)
        with pytest.raises(UnknownServiceError):
            reg.resolve("echo")
        reg.set_enabled("echo", True)
        assert reg.resolve("echo")

    def test_custom_selector(self):
        reg = ServiceRegistry(selector=lambda record: record.physical[-1])
        reg.register("echo", ["http://a/", "http://b/"])
        assert reg.resolve("echo") == "http://b/"

    def test_stats_track_lookups_and_misses(self):
        reg = ServiceRegistry()
        reg.register("echo", "http://a/")
        reg.resolve("echo")
        with pytest.raises(UnknownServiceError):
            reg.resolve("nope")
        assert reg.stats == {
            "lookups": 2, "misses": 1, "entries": 1, "tombstones": 0,
            "applied": 0, "restored": 0,
        }

    def test_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "reg.txt")
        reg = ServiceRegistry(persist_path=path)
        reg.register("echo", ["http://a/", "http://b/"], metadata={"owner": "x"})
        reg.register("other", "http://c/")
        reloaded = ServiceRegistry(persist_path=path)
        assert reloaded.lookup("echo").physical == ["http://a/", "http://b/"]
        assert reloaded.lookup("echo").metadata == {"owner": "x"}
        assert len(reloaded) == 2

    def test_unregister_persists(self, tmp_path):
        path = str(tmp_path / "reg.txt")
        reg = ServiceRegistry(persist_path=path)
        reg.register("echo", "http://a/")
        reg.unregister("echo")
        assert len(ServiceRegistry(persist_path=path)) == 0

    def test_check_alive_records_health(self):
        reg = ServiceRegistry()
        reg.register("echo", "http://a/")
        assert reg.check_alive("echo", lambda addr: True, now=100.0) is True
        assert reg.lookup("echo").last_health == (100.0, True)
        assert reg.check_alive("echo", lambda addr: 1 / 0, now=101.0) is False
        assert reg.lookup("echo").last_health == (101.0, False)

    def test_concurrent_registration(self):
        reg = ServiceRegistry()

        def worker(prefix):
            for i in range(100):
                reg.register(f"{prefix}-{i}", f"http://{prefix}/{i}")
                reg.resolve(f"{prefix}-{i}")

        threads = [threading.Thread(target=worker, args=(p,)) for p in "abcd"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(reg) == 400

    def test_a_name_registered_after_a_failed_lookup_resolves_at_once(self):
        reg = ServiceRegistry()
        with pytest.raises(UnknownServiceError):
            reg.lookup("ghost")
        reg.register("ghost", "http://ws:9000/ghost")
        assert reg.lookup("ghost").logical == "ghost"

    def test_each_mutators_change_is_what_the_next_lookup_returns(self):
        """A gossip-applied change is too: tests/registry/test_model.py and
        the registry contract."""
        reg = ServiceRegistry()
        reg.register("svc", "http://a:1/svc")

        def physical():
            return list(reg.lookup("svc").physical)

        assert physical() == ["http://a:1/svc"]

        reg.register("svc", ["http://a:1/svc", "http://b:2/svc"])
        assert physical() == ["http://a:1/svc", "http://b:2/svc"]

        reg.register("svc", "http://c:3/svc")  # re-register replaces record
        assert physical() == ["http://c:3/svc"]

        reg.set_enabled("svc", False)
        with pytest.raises(UnknownServiceError):
            reg.lookup("svc")
        reg.set_enabled("svc", True)
        assert physical() == ["http://c:3/svc"]

        reg.unregister("svc")
        with pytest.raises(UnknownServiceError):
            reg.lookup("svc")

    def test_a_disabled_record_is_never_served(self):
        reg = ServiceRegistry()
        reg.register("svc", "http://a:1/svc")
        reg.lookup("svc")
        reg.set_enabled("svc", False)
        with pytest.raises(UnknownServiceError):
            reg.lookup("svc")
        with pytest.raises(UnknownServiceError):
            reg.resolve("svc")


class TestRegistryService:
    def call(self, svc, op, params):
        env = build_rpc_request(RpcRequest(REGISTRY_NS, op, params))
        reply = svc.handle(env, RequestContext(path="/registry"))
        return parse_rpc_response(reply)

    def test_register_and_lookup_via_soap(self):
        svc = RegistryService(ServiceRegistry())
        resp = self.call(
            svc,
            "register",
            [("logical", "echo"), ("physical", "http://a/"), ("meta_owner", "bob")],
        )
        assert resp.result("status") == "ok"
        resp = self.call(svc, "lookup", [("logical", "echo")])
        assert resp.result("physical") == "http://a/"
        assert svc.registry.lookup("echo").metadata == {"owner": "bob"}

    def test_list_operation(self):
        svc = RegistryService(ServiceRegistry())
        svc.registry.register("b", "http://b/")
        svc.registry.register("a", "http://a/")
        resp = self.call(svc, "list", [])
        assert [v for k, v in resp.results if k == "logical"] == ["a", "b"]

    def test_unregister(self):
        svc = RegistryService(ServiceRegistry())
        svc.registry.register("echo", "http://a/")
        assert self.call(svc, "unregister", [("logical", "echo")]).result("status") == "ok"
        assert (
            self.call(svc, "unregister", [("logical", "echo")]).result("status")
            == "absent"
        )

    def test_unknown_operation(self):
        svc = RegistryService(ServiceRegistry())
        with pytest.raises(RegistryError):
            self.call(svc, "frobnicate", [])

    def test_wrong_interface_rejected(self):
        svc = RegistryService(ServiceRegistry())
        env = build_rpc_request(RpcRequest("urn:wrong", "lookup", []))
        with pytest.raises(RegistryError):
            svc.handle(env, RequestContext(path="/registry"))

    def test_render_listing_html(self):
        svc = RegistryService(ServiceRegistry())
        svc.registry.register("echo", "http://a/", metadata={"desc": "test"})
        svc.registry.check_alive("echo", lambda a: True)
        html = svc.render_listing()
        assert "echo" in html and "http://a/" in html and "[alive]" in html

    def test_render_listing_empty(self):
        html = RegistryService(ServiceRegistry()).render_listing()
        assert "no services" in html

