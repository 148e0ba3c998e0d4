"""Service registry: logical addresses → physical locations.

Paper §4.1: "Both dispatchers share a common functionality: registry of
services. ... Each entry in the service registry describes the 'logical'
address used by clients and the permanent addresses where the service is
implemented. ... this registry of services could be used like a directory
or Yellow Pages, possibly as a simple browseable list of WSDL files with
metadata.  Because creating a real registry of services ... is independent
from forwarding requests, the registry is an independent module."

Implementation notes mirroring §4.2: the registry is a concurrent map
(Python dict + RLock — the moral equivalent of the Concurrent Java
Library's hash map) optionally persisted to a text file
(:class:`~repro.util.textdb.TextFileMap`).  Entries may carry several
physical addresses; selection among them is delegated to a pluggable
policy (the first address, unless a ``selector`` is given).
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import RegistryError, RegistryUnavailable, UnknownServiceError
from repro.obs.logkv import component_logger, log_event
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.soap import Envelope, RpcResponse, build_rpc_response, parse_rpc_request
from repro.util.concurrency import SingleFlight
from repro.util.textdb import TextFileMap

#: SOAP RPC interface namespace of the registry service.
REGISTRY_NS = "urn:repro:registry"


@dataclass
class ServiceRecord:
    """One registry entry."""

    logical: str
    physical: list[str]
    #: human-readable metadata (description, WSDL pointer, owner ...)
    metadata: dict[str, str] = field(default_factory=dict)
    enabled: bool = True
    #: None = never checked; otherwise (timestamp, alive)
    last_health: tuple[float, bool] | None = None

    def __post_init__(self) -> None:
        if not self.logical:
            raise RegistryError("logical address must be non-empty")
        if not self.physical:
            raise RegistryError(f"service {self.logical!r} needs >=1 physical address")


class LookupCache:
    """TTL read-through cache of logical name → :class:`ServiceRecord`,
    shared by :class:`ServiceRegistry` and
    :class:`~repro.registry.client.ReplicatedRegistryClient`.

    ``resolve`` is the owner's slow path and ``now`` its clock.  A hit
    takes no lock.  Concurrent misses for one name are single-flighted
    (one caller resolves, the rest share its result and count as
    ``coalesced``), so an expiry under load cannot stampede the backing
    store.  A ``resolve`` that raises caches nothing; ``ttl <= 0``
    disables the cache.  Outcomes are exported as
    ``registry_cache_total{outcome=hit|miss|coalesced}`` on ``metrics``.
    """

    def __init__(
        self,
        resolve: Callable[[str], ServiceRecord],
        now: Callable[[], float],
        ttl: float,
        metrics: MetricsRegistry,
    ) -> None:
        self._resolve = resolve
        self._now = now
        self._ttl = ttl
        counter = metrics.counter(
            "registry_cache_total", "lookup cache outcomes, by outcome"
        )
        self._m_hits = counter.labels(outcome="hit")
        self._m_misses = counter.labels(outcome="miss")
        self._m_coalesced = counter.labels(outcome="coalesced")
        self._flight: SingleFlight[ServiceRecord] = SingleFlight()
        #: logical -> (record, deadline); plain dict, no lock — single-key
        #: get/set/pop are atomic under the GIL and a racing reader at
        #: worst re-resolves through the owner's slow path
        self._entries: dict[str, tuple[ServiceRecord, float]] = {}

    def get(self, logical: str) -> ServiceRecord:
        if self._ttl <= 0:
            return self._resolve(logical)
        entry = self._entries.get(logical)
        if entry is not None:
            record, deadline = entry
            if deadline >= self._now() and record.enabled:
                self._m_hits.inc()
                return record
            self._entries.pop(logical, None)
        coalesced = False
        try:
            record, coalesced = self._flight.run(
                logical, lambda: self._fill(logical)
            )
        finally:
            (self._m_coalesced if coalesced else self._m_misses).inc()
        return record

    def _fill(self, logical: str) -> ServiceRecord:
        record = self._resolve(logical)
        self._entries[logical] = (record, self._now() + self._ttl)
        return record

    def peek(self, logical: str) -> bool:
        """True when :meth:`get` would answer ``logical`` from memory.

        Never fills, evicts or counts: a caller that may not wait (the
        dispatcher thread that still owes its client a 202) asks this
        first and leaves a miss to a thread that may."""
        entry = self._entries.get(logical)
        return (
            entry is not None and entry[1] >= self._now() and entry[0].enabled
        )

    def invalidate(self, logical: str) -> None:
        """Drop a cached lookup after any mutation of its record."""
        self._entries.pop(logical, None)

    def stats(self) -> dict[str, float]:
        hits = float(self._m_hits.get())
        misses = float(self._m_misses.get())
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "coalesced": float(self._m_coalesced.get()),
            "hit_rate": hits / total if total else 0.0,
        }


class ServiceRegistry:
    """Thread-safe logical→physical mapping with optional persistence."""

    def __init__(
        self,
        persist_path: str | None = None,
        selector: Callable[[ServiceRecord], str] | None = None,
        metrics: MetricsRegistry | None = None,
        lookup_cache_ttl: float = 5.0,
    ) -> None:
        """``persist_path`` keeps the registry in the paper's text file
        (:class:`~repro.util.textdb.TextFileMap`), reloaded at construction.

        ``lookup_cache_ttl`` enables a read-through :class:`LookupCache`
        in front of :meth:`lookup`: the dispatchers resolve the same
        handful of logical names once per message, and the CxThread path
        should not pay the registry lock per message.  Every mutation of a record —
        :meth:`register`, :meth:`unregister`, :meth:`add_physical`,
        :meth:`remove_physical`, :meth:`set_enabled` — invalidates that
        record's cache entry immediately; the TTL only bounds staleness
        against *external* mutation of the backing file.  ``0`` disables
        the cache."""
        self._lock = threading.RLock()
        self._records: dict[str, ServiceRecord] = {}
        self.metrics = metrics if metrics is not None else default_registry()
        self._log = component_logger("registry")
        self._m_lookups = self.metrics.counter(
            "registry_lookups_total", "logical address resolutions attempted"
        )
        self._m_misses = self.metrics.counter(
            "registry_misses_total", "resolutions that found no enabled service"
        )
        self._cache = LookupCache(
            self._lookup_uncached, time.monotonic, lookup_cache_ttl,
            self.metrics,
        )
        self.metrics.gauge(
            "registry_services", "registered logical services"
        ).set_function(lambda: len(self))
        self._db = TextFileMap(persist_path) if persist_path else None
        self._selector = selector or (lambda record: record.physical[0])
        self._lookups = 0
        self._misses = 0
        #: fault injection: while False every lookup/resolve raises
        #: RegistryUnavailable (a crashed or partitioned registry server)
        self._available = True
        self._unavailable_rejects = 0
        if self._db is not None:
            for logical, primary, attrs in self._db.items():
                extra = attrs.pop("_alt", "")
                physical = [primary] + [a for a in extra.split(",") if a]
                self._records[logical] = ServiceRecord(
                    logical, physical, metadata=attrs
                )

    # -- mutation -----------------------------------------------------------
    def register(
        self,
        logical: str,
        physical: str | list[str],
        metadata: dict[str, str] | None = None,
    ) -> ServiceRecord:
        addresses = [physical] if isinstance(physical, str) else list(physical)
        record = ServiceRecord(logical, addresses, metadata=dict(metadata or {}))
        with self._lock:
            self._records[logical] = record
            self._persist(record)
            self._cache.invalidate(logical)
        log_event(
            self._log, logging.INFO, "register",
            logical=logical, physical=",".join(addresses),
        )
        return record

    def add_physical(self, logical: str, physical: str) -> None:
        with self._lock:
            record = self._require(logical)
            if physical not in record.physical:
                record.physical.append(physical)
                self._persist(record)
                self._cache.invalidate(logical)

    def remove_physical(self, logical: str, physical: str) -> None:
        with self._lock:
            record = self._require(logical)
            if physical in record.physical:
                if len(record.physical) == 1:
                    raise RegistryError(
                        f"cannot remove last physical address of {logical!r}"
                    )
                record.physical.remove(physical)
                self._persist(record)
                self._cache.invalidate(logical)

    def unregister(self, logical: str) -> bool:
        with self._lock:
            existed = self._records.pop(logical, None) is not None
            if existed and self._db is not None:
                self._db.remove(logical)
            self._cache.invalidate(logical)
        if existed:
            log_event(self._log, logging.INFO, "unregister", logical=logical)
        return existed

    def set_enabled(self, logical: str, enabled: bool) -> None:
        with self._lock:
            self._require(logical).enabled = enabled
            self._cache.invalidate(logical)

    def _persist(self, record: ServiceRecord) -> None:
        if self._db is None:
            return
        attrs = dict(record.metadata)
        if len(record.physical) > 1:
            attrs["_alt"] = ",".join(record.physical[1:])
        self._db.put(record.logical, record.physical[0], attrs)

    # -- lookup ---------------------------------------------------------------
    def _require(self, logical: str) -> ServiceRecord:
        record = self._records.get(logical)
        if record is None:
            raise UnknownServiceError(logical)
        return record

    def lookup(self, logical: str) -> ServiceRecord:
        """Full record for a logical address (raises UnknownServiceError).

        Read-through cached (see ``lookup_cache_ttl``): a hit returns the
        live record without resolving under the registry lock; a miss
        does.  Unknown/disabled names are never negatively cached — a
        service that registers becomes resolvable immediately.
        """
        self._m_lookups.inc()
        if not self._available:
            with self._lock:
                self._unavailable_rejects += 1
            raise RegistryUnavailable("registry is unavailable")
        record = self._cache.get(logical)
        with self._lock:
            self._lookups += 1
        return record

    def peek(self, logical: str) -> bool:
        """True when :meth:`lookup` would answer from the lookup cache
        right now (see :meth:`LookupCache.peek`); an unavailable registry
        answers nothing."""
        return self._available and self._cache.peek(logical)

    def _lookup_uncached(self, logical: str) -> ServiceRecord:
        """The locked slow path behind the cache."""
        with self._lock:
            record = self._records.get(logical)
            if record is None or not record.enabled:
                # a found record is counted by lookup(), hit or not
                self._lookups += 1
                self._misses += 1
                miss = True
            else:
                miss = False
        if miss:
            self._m_misses.inc()
            log_event(self._log, logging.DEBUG, "miss", logical=logical)
            raise UnknownServiceError(logical)
        return record

    def resolve(self, logical: str) -> str:
        """One physical address for a logical name, via the selector policy."""
        record = self.lookup(logical)
        with self._lock:
            return self._selector(record)

    def set_available(self, available: bool) -> None:
        """Fault injection switch: an unavailable registry refuses every
        lookup/resolve with :class:`RegistryUnavailable` until restored."""
        with self._lock:
            self._available = available
        log_event(
            self._log, logging.WARNING,
            "available" if available else "unavailable",
        )

    @property
    def available(self) -> bool:
        return self._available

    def list_services(self) -> list[ServiceRecord]:
        with self._lock:
            return sorted(self._records.values(), key=lambda r: r.logical)

    def __contains__(self, logical: str) -> bool:
        with self._lock:
            return logical in self._records

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"lookups": self._lookups, "misses": self._misses}

    def cache_stats(self) -> dict[str, float]:
        """Lookup-cache effectiveness (also exported as
        ``registry_cache_total{outcome=hit|miss|coalesced}``)."""
        return self._cache.stats()

    # -- liveness (future work: "checking if service is alive") -----------
    def check_alive(
        self, logical: str, probe: Callable[[str], bool], now: float | None = None
    ) -> bool:
        """Probe the selected physical address; record and return liveness."""
        record = self.lookup(logical)
        address = record.physical[0]
        alive = False
        try:
            alive = probe(address)
        except Exception:
            alive = False
        with self._lock:
            record.last_health = (now if now is not None else time.time(), alive)
        return alive


#: WSDL 1.1 namespaces used by the browsable service descriptions
_WSDL_NS = "http://schemas.xmlsoap.org/wsdl/"
_WSDL_SOAP_NS = "http://schemas.xmlsoap.org/wsdl/soap/"


class RegistryService:
    """SOAP RPC facade over a :class:`ServiceRegistry`.

    Operations (namespace ``urn:repro:registry``): ``register``,
    ``unregister``, ``lookup``, ``list``, and ``ping`` (the future-work
    "checking if service is alive", backed by a pluggable prober).  This
    is the management interface the paper sketches; the dispatchers call
    the registry in-process.
    """

    def __init__(
        self,
        registry: ServiceRegistry,
        prober: Callable[[str], bool] | None = None,
    ) -> None:
        self.registry = registry
        self.prober = prober

    def handle(self, envelope: Envelope, ctx) -> Envelope:
        call = parse_rpc_request(envelope)
        if call.interface_ns != REGISTRY_NS:
            raise RegistryError(
                f"unexpected interface {call.interface_ns!r} for registry"
            )
        op = call.operation
        if op == "register":
            logical = call.require_param("logical")
            physical = [v for k, v in call.params if k == "physical"]
            if not physical:
                raise RegistryError("register needs >=1 physical param")
            meta = {
                k[len("meta_"):]: v
                for k, v in call.params
                if k.startswith("meta_")
            }
            self.registry.register(logical, physical, metadata=meta)
            results = [("status", "ok")]
        elif op == "unregister":
            existed = self.registry.unregister(call.require_param("logical"))
            results = [("status", "ok" if existed else "absent")]
        elif op == "lookup":
            record = self.registry.lookup(call.require_param("logical"))
            results = [("physical", addr) for addr in record.physical]
        elif op == "list":
            results = [("logical", r.logical) for r in self.registry.list_services()]
        elif op == "ping":
            if self.prober is None:
                raise RegistryError("registry has no liveness prober configured")
            alive = self.registry.check_alive(
                call.require_param("logical"), self.prober
            )
            results = [("alive", "true" if alive else "false")]
        else:
            raise RegistryError(f"unknown registry operation {op!r}")
        return build_rpc_response(
            RpcResponse(REGISTRY_NS, op, results), version=envelope.version
        )

    # -- browsable Yellow Pages (GET page) -------------------------------
    def render_listing(self) -> str:
        """Plain-HTML service directory ("browseable list ... with metadata")."""
        rows = []
        for record in self.registry.list_services():
            meta = ", ".join(f"{k}={v}" for k, v in sorted(record.metadata.items()))
            health = ""
            if record.last_health is not None:
                _, alive = record.last_health
                health = " [alive]" if alive else " [down]"
            status = "" if record.enabled else " (disabled)"
            rows.append(
                f"<li><b>{record.logical}</b>{status}{health} → "
                f"{', '.join(record.physical)}"
                + (f" <i>{meta}</i>" if meta else "")
                + "</li>"
            )
        body = "\n".join(rows) if rows else "<li>(no services registered)</li>"
        return (
            "<html><head><title>WS-Dispatcher Registry</title></head>"
            f"<body><h1>Registered services</h1><ul>\n{body}\n</ul></body></html>"
        )

    def render_wsdl(self, logical: str) -> bytes:
        """A minimal WSDL 1.1 description of a registered service.

        The paper's future work: "improve Registry service to allow
        interactive browsing of WSDL files describing services provided by
        WS-Dispatcher".  The document advertises the service's *logical*
        endpoint at the dispatcher (location transparency) and records the
        physical bindings and metadata as documentation.
        """
        from repro.xmlmini import Element, QName, write_document

        record = self.registry.lookup(logical)
        definitions = Element(QName(_WSDL_NS, "definitions"))
        definitions.set("name", logical)
        definitions.set("targetNamespace", f"urn:wsd:{logical}")

        doc = Element(QName(_WSDL_NS, "documentation"))
        lines = [f"Service {logical!r} registered at the WS-Dispatcher."]
        for k, v in sorted(record.metadata.items()):
            lines.append(f"{k}: {v}")
        lines.append("physical bindings: " + ", ".join(record.physical))
        if record.last_health is not None:
            _, alive = record.last_health
            lines.append(f"last liveness check: {'alive' if alive else 'down'}")
        doc.children.append("\n".join(lines))
        definitions.children.append(doc)

        service = Element(QName(_WSDL_NS, "service"))
        service.set("name", logical)
        port = Element(QName(_WSDL_NS, "port"))
        port.set("name", f"{logical}Port")
        port.set("binding", f"tns:{logical}Binding")
        address = Element(QName(_WSDL_SOAP_NS, "address"))
        address.set("location", f"urn:wsd:{logical}")
        port.children.append(address)
        service.children.append(port)
        definitions.children.append(service)
        return write_document(definitions)

    def page_handler(self, request):
        """GET handler: ``/...`` → HTML listing, ``/.../wsdl/<name>`` → WSDL."""
        from repro.http import Headers, HttpResponse

        path = request.target.split("?", 1)[0]
        if "/wsdl/" in path:
            logical = path.rsplit("/wsdl/", 1)[1]
            try:
                body = self.render_wsdl(logical)
            except UnknownServiceError:
                return HttpResponse(status=404, body=b"unknown service")
            headers = Headers()
            headers.set("Content-Type", "text/xml; charset=utf-8")
            return HttpResponse(status=200, headers=headers, body=body)
        headers = Headers()
        headers.set("Content-Type", "text/html; charset=utf-8")
        return HttpResponse(
            status=200, headers=headers, body=self.render_listing().encode()
        )
