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

    def test_add_remove_physical(self):
        reg = ServiceRegistry()
        reg.register("echo", "http://a/")
        reg.add_physical("echo", "http://b/")
        reg.add_physical("echo", "http://b/")  # idempotent
        assert reg.lookup("echo").physical == ["http://a/", "http://b/"]
        reg.remove_physical("echo", "http://a/")
        assert reg.lookup("echo").physical == ["http://b/"]

    def test_cannot_remove_last_physical(self):
        reg = ServiceRegistry()
        reg.register("echo", "http://a/")
        with pytest.raises(RegistryError):
            reg.remove_physical("echo", "http://a/")

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
        assert reg.stats == {"lookups": 2, "misses": 1}

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


class TestLookupCache:
    """Read-through cache in front of ``lookup`` (the CxThread hot path)."""

    def _registry(self, ttl=5.0):
        from repro.obs.metrics import MetricsRegistry

        return ServiceRegistry(metrics=MetricsRegistry(), lookup_cache_ttl=ttl)

    def test_repeat_lookups_hit_the_cache(self):
        reg = self._registry()
        reg.register("echo", "http://ws:9000/echo")
        for _ in range(10):
            assert reg.lookup("echo").logical == "echo"
        stats = reg.cache_stats()
        assert stats == {
            "hits": 9.0, "misses": 1.0, "coalesced": 0.0, "hit_rate": 0.9,
        }

    def test_resolve_goes_through_the_cache(self):
        reg = self._registry()
        reg.register("echo", "http://ws:9000/echo")
        for _ in range(5):
            assert reg.resolve("echo") == "http://ws:9000/echo"
        assert reg.cache_stats()["hits"] == 4.0

    def test_zero_ttl_disables_the_cache(self):
        reg = self._registry(ttl=0)
        reg.register("echo", "http://ws:9000/echo")
        reg.lookup("echo")
        reg.lookup("echo")
        assert reg.cache_stats() == {
            "hits": 0.0, "misses": 0.0, "coalesced": 0.0, "hit_rate": 0.0,
        }

    def test_unknown_name_is_never_negatively_cached(self):
        reg = self._registry()
        with pytest.raises(UnknownServiceError):
            reg.lookup("ghost")
        reg.register("ghost", "http://ws:9000/ghost")
        # resolvable immediately — no stale negative entry
        assert reg.lookup("ghost").logical == "ghost"

    def test_every_mutator_invalidates(self):
        """All five mutators must drop the cached record immediately."""
        reg = self._registry()
        reg.register("svc", "http://a:1/svc")

        def cached_physical():
            return list(reg.lookup("svc").physical)

        assert cached_physical() == ["http://a:1/svc"]

        reg.add_physical("svc", "http://b:2/svc")
        assert cached_physical() == ["http://a:1/svc", "http://b:2/svc"]

        reg.remove_physical("svc", "http://a:1/svc")
        assert cached_physical() == ["http://b:2/svc"]

        reg.register("svc", "http://c:3/svc")  # re-register replaces record
        assert cached_physical() == ["http://c:3/svc"]

        reg.set_enabled("svc", False)
        with pytest.raises(UnknownServiceError):
            reg.lookup("svc")
        reg.set_enabled("svc", True)
        assert cached_physical() == ["http://c:3/svc"]

        reg.unregister("svc")
        with pytest.raises(UnknownServiceError):
            reg.lookup("svc")

    def test_peek_follows_the_cache_the_mutators_and_availability(self):
        reg = self._registry()
        reg.register("svc", "http://a:1/svc")
        assert not reg.peek("svc")  # registered, never looked up: a miss
        assert reg.stats == {"lookups": 0, "misses": 0}  # and not a lookup
        reg.lookup("svc")
        assert reg.peek("svc")
        reg.set_available(False)
        assert not reg.peek("svc")  # an unavailable registry answers nothing
        reg.set_available(True)
        assert reg.peek("svc")
        reg.add_physical("svc", "http://b:2/svc")  # every mutator invalidates
        assert not reg.peek("svc")
        assert not reg.peek("ghost")
        assert not self._registry(ttl=0).peek("svc")

    def test_disabled_record_never_served_from_cache(self):
        reg = self._registry()
        reg.register("svc", "http://a:1/svc")
        reg.lookup("svc")  # populate cache
        reg.set_enabled("svc", False)
        with pytest.raises(UnknownServiceError):
            reg.lookup("svc")
