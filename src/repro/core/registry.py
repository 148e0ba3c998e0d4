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

The same class is one peer of a replicated registry (the P2P discovery
line of PAPERS.md): N peers each hold the full entry set, accept writes
locally, and converge by anti-entropy gossip (:mod:`repro.registry.gossip`).
A lone registry is simply a peer nobody gossips with.  The state model is
last-writer-wins per field, with tombstones:

- Every mutation is stamped ``(lamport, peer_id)``; stamps are totally
  ordered (lamport first, peer id breaks ties), so any two peers merge
  any two values of one field identically.
- An entry carries four independently-stamped slots: ``life`` (alive or
  tombstone — the register/unregister axis), ``physical``, ``metadata``
  and ``enabled``.  ``unregister`` writes a *tombstone* into ``life``, so
  a removal gossips and cannot be resurrected by a peer that still holds
  the older register; resurrection needs a register with a higher stamp.
- The version vector ``{peer: max lamport seen}`` summarises what a peer
  holds.  A digest exchange compares vectors; the delta is every entry
  holding a stamp the other side's vector does not dominate.  Merging
  whole entries per field is idempotent and order-insensitive.

Durability: besides the paper's text file, each changed entry state can
be journaled to a :class:`~repro.store.MessageJournal`
(``kind="registry"``), the previous record for that name retired as
``absorbed(superseded)``.  A SIGKILL'd peer rebuilds from the journal's
``undelivered`` scan and converges with its peers by ordinary gossip.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.errors import RegistryError, RegistryUnavailable, UnknownServiceError
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.soap import Envelope, RpcResponse, build_rpc_response, parse_rpc_request
from repro.store.journal import ABSORBED, MessageJournal
from repro.util.concurrency import SingleFlight
from repro.util.textdb import TextFileMap

#: SOAP RPC interface namespace of the registry service.
REGISTRY_NS = "urn:repro:registry"

#: the peer id of a registry nobody gossips with
LOCAL_PEER = "local"

#: journal ``kind`` under which registry entry states are logged
REGISTRY_KIND = "registry"

#: a stamp: (lamport, peer_id) — lexicographic order is the LWW order
Stamp = tuple[int, str]

_SLOTS = ("life", "physical", "metadata", "enabled")


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
    store.  A ``resolve`` that raises caches nothing, and neither does one
    an :meth:`invalidate` of its name overtook (what it found may predate
    the mutation); ``ttl <= 0`` disables the cache.  Outcomes are
    exported as ``registry_cache_total{outcome=hit|miss|coalesced}`` on
    ``metrics``.
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
        #: logical -> fill generation, bumped by every invalidate: a fill
        #: stores only if its name's has not moved while it resolved
        self._generations: dict[str, int] = {}
        #: makes a fill's check-and-store atomic against an invalidate
        self._fill_lock = threading.Lock()

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
        generation = self._generations.get(logical)
        record = self._resolve(logical)
        with self._fill_lock:
            if self._generations.get(logical) == generation:
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
        """Drop a cached lookup after any mutation of its record, and
        keep a fill already resolving it from storing what it found."""
        with self._fill_lock:
            self._generations[logical] = self._generations.get(logical, 0) + 1
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


@dataclass
class _Entry:
    """Per-name replicated state: four independently-stamped slots."""

    logical: str
    life: tuple[Stamp, bool]            # alive=True / tombstone=False
    physical: tuple[Stamp, list[str]]
    metadata: tuple[Stamp, dict[str, str]]
    enabled: tuple[Stamp, bool]

    @property
    def alive(self) -> bool:
        return self.life[1]

    def stamps(self) -> list[Stamp]:
        return [self.life[0], self.physical[0], self.metadata[0],
                self.enabled[0]]

    def to_wire(self) -> dict:
        """JSON-safe dict; stamps flattened to ``[lamport, peer, value]``."""
        out: dict = {"logical": self.logical}
        for slot in _SLOTS:
            (lamport, peer), value = getattr(self, slot)
            out[slot] = [lamport, peer, value]
        return out

    @classmethod
    def from_wire(cls, payload: dict) -> "_Entry":
        logical = payload.get("logical")
        if not isinstance(logical, str) or not logical:
            raise RegistryError(f"bad gossip entry (logical): {payload!r}")
        slots = {}
        for slot in _SLOTS:
            triple = payload.get(slot)
            if not isinstance(triple, (list, tuple)) or len(triple) != 3:
                raise RegistryError(f"bad gossip entry ({slot}): {payload!r}")
            lamport, peer, value = triple
            if not isinstance(lamport, int) or not isinstance(peer, str):
                raise RegistryError(f"bad gossip stamp ({slot}): {payload!r}")
            slots[slot] = ((lamport, peer), value)
        life, physical, metadata, enabled = (slots[s] for s in _SLOTS)
        return cls(
            logical,
            (life[0], bool(life[1])),
            (physical[0], [str(u) for u in (physical[1] or [])]),
            (metadata[0], {str(k): str(v)
                           for k, v in (metadata[1] or {}).items()}),
            (enabled[0], bool(enabled[1])),
        )

    def merge(self, other: "_Entry") -> bool:
        """Per-field LWW merge of ``other`` into self; True if changed."""
        changed = False
        for slot in _SLOTS:
            mine = getattr(self, slot)
            theirs = getattr(other, slot)
            if theirs[0] > mine[0]:
                setattr(self, slot, theirs)
                changed = True
        return changed


class ServiceRegistry:
    """Thread-safe logical→physical mapping with optional persistence —
    and one gossip peer (:meth:`digest`, :meth:`delta_for`,
    :meth:`apply_delta`, :meth:`merge_vv`) of a replicated registry."""

    def __init__(
        self,
        persist_path: str | None = None,
        selector: Callable[[ServiceRecord], str] | None = None,
        metrics: MetricsRegistry | None = None,
        lookup_cache_ttl: float = 5.0,
        peer_id: str = LOCAL_PEER,
        journal: MessageJournal | None = None,
    ) -> None:
        """``persist_path`` keeps the registry in the paper's text file
        (:class:`~repro.util.textdb.TextFileMap`), reloaded at construction.
        ``journal`` logs every entry state instead (or as well), and a
        registry reopening a journal rebuilds itself from it.

        ``lookup_cache_ttl`` enables a read-through :class:`LookupCache`
        in front of :meth:`lookup`: the dispatchers resolve the same
        handful of logical names once per message, and the CxThread path
        should not pay the registry lock per message.  Every change of an
        entry — local (:meth:`register`, :meth:`unregister`,
        :meth:`set_enabled`) or gossip-applied — invalidates that name's
        cache entry immediately; the TTL only bounds staleness against
        *external* mutation of the backing file.  ``0`` disables the cache.

        ``peer_id`` names this registry in the stamps of its writes; peers
        that gossip with each other need distinct ones."""
        if not peer_id:
            raise RegistryError("a registry needs a non-empty peer_id")
        self.peer_id = peer_id
        self.journal = journal
        self._lock = threading.RLock()
        self._entries: dict[str, _Entry] = {}
        #: alive entries materialised as ServiceRecords (the lookup path)
        self._records: dict[str, ServiceRecord] = {}
        self._vv: dict[str, int] = {}
        self._journal_seq: dict[str, int] = {}
        self._append_n = 0
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_lookups = self.metrics.counter(
            "registry_lookups_total", "logical address resolutions attempted"
        )
        self._m_misses = self.metrics.counter(
            "registry_misses_total", "resolutions that found no enabled service"
        )
        self._m_applied = self.metrics.counter(
            "registry_gossip_entries_applied_total",
            "remote entry states merged in, by peer",
        ).labels(peer=peer_id)
        self._cache = LookupCache(
            self._lookup_uncached, time.monotonic, lookup_cache_ttl,
            self.metrics,
        )
        self.metrics.gauge(
            "registry_services", "registered logical services, by peer"
        ).labels(peer=peer_id).set_function(lambda: len(self))
        self._db = TextFileMap(persist_path) if persist_path else None
        self._selector = selector or (lambda record: record.physical[0])
        self._lookups = 0
        self._misses = 0
        self._applied = 0
        #: fault injection: while False every read, write and gossip
        #: exchange raises RegistryUnavailable (a crashed or partitioned
        #: registry server)
        self._available = True
        if self._db is not None:
            for logical, primary, attrs in self._db.items():
                extra = attrs.pop("_alt", "")
                stamp = self._next_stamp()
                self._merge(_Entry(
                    logical, (stamp, True),
                    (stamp, [primary] + [a for a in extra.split(",") if a]),
                    (stamp, attrs), (stamp, True),
                ))
        self.restored = self._restore() if journal is not None else 0

    # -- mutation (stamped, persisted) ---------------------------------------
    def _check_available(self) -> None:
        """A crashed or faulted registry refuses writes as well as reads —
        accepting a registration it cannot gossip or journal would
        silently strand it."""
        if not self._available:
            raise RegistryUnavailable(f"registry {self.peer_id} is unavailable")

    def _next_stamp(self) -> Stamp:
        """A stamp dominating everything this peer has ever seen."""
        lamport = max(self._vv.values(), default=0) + 1
        self._vv[self.peer_id] = lamport
        return (lamport, self.peer_id)

    def register(
        self,
        logical: str,
        physical: str | list[str],
        metadata: dict[str, str] | None = None,
    ) -> ServiceRecord:
        addresses = [physical] if isinstance(physical, str) else list(physical)
        # validate through the record type before stamping anything
        ServiceRecord(logical, addresses)
        with self._lock:
            self._check_available()
            stamp = self._next_stamp()
            self._persist(self._merge(_Entry(
                logical, (stamp, True), (stamp, addresses),
                (stamp, dict(metadata or {})), (stamp, True),
            )))
            record = self._records[logical]
        return record

    def unregister(self, logical: str) -> bool:
        """Tombstone ``logical`` — also a name never seen here, which
        guards against a concurrent register still in flight on a peer.
        True when it was registered."""
        with self._lock:
            self._check_available()
            entry = self._entries.get(logical)
            existed = entry is not None and entry.alive
            stamp = self._next_stamp()
            if entry is None:
                entry = _Entry(
                    logical, (stamp, False), (stamp, []), (stamp, {}),
                    (stamp, True),
                )
            else:
                entry = replace(entry, life=(stamp, False))
            self._persist(self._merge(entry))
        return existed

    def set_enabled(self, logical: str, enabled: bool) -> None:
        with self._lock:
            self._check_available()
            entry = self._entries.get(logical)
            if entry is None or not entry.alive:
                raise UnknownServiceError(logical)
            self._persist(self._merge(
                replace(entry, enabled=(self._next_stamp(), enabled))
            ))

    def _merge(self, incoming: _Entry) -> _Entry | None:
        """Merge ``incoming`` into its name's entry (call with the lock
        held): advance the vector, and on a change rebuild the lookup
        record and drop the cached one.  Returns the changed entry."""
        for lamport, peer in incoming.stamps():
            if lamport > self._vv.get(peer, 0):
                self._vv[peer] = lamport
        entry = self._entries.get(incoming.logical)
        if entry is None:
            self._entries[incoming.logical] = entry = incoming
        elif not entry.merge(incoming):
            return None
        if entry.alive and entry.physical[1]:
            self._records[entry.logical] = ServiceRecord(
                entry.logical,
                list(entry.physical[1]),
                metadata=dict(entry.metadata[1]),
                enabled=entry.enabled[1],
            )
        else:
            self._records.pop(entry.logical, None)
        self._cache.invalidate(entry.logical)
        return entry

    def _persist(self, entry: _Entry) -> None:
        """Write a changed entry to the text file and the journal; the
        journal's previous state for the name is retired."""
        record = self._records.get(entry.logical)
        if self._db is not None:
            if record is None:
                self._db.remove(entry.logical)
            else:
                attrs = dict(record.metadata)
                if len(record.physical) > 1:
                    attrs["_alt"] = ",".join(record.physical[1:])
                self._db.put(record.logical, record.physical[0], attrs)
        if self.journal is not None:
            self._append_n += 1
            body = json.dumps(entry.to_wire(), sort_keys=True).encode()
            seq = self.journal.append(
                f"{self.peer_id}:{entry.logical}:{self._append_n}",
                entry.logical, body, kind=REGISTRY_KIND,
            )
            prev = self._journal_seq.get(entry.logical)
            if prev is not None:
                self.journal.mark(prev, ABSORBED, reason="superseded")
            self._journal_seq[entry.logical] = seq

    def _restore(self) -> int:
        """Rebuild state from the journal (crash rejoin).  Records are
        scanned in sequence order; marks lost in the crash can leave more
        than one ``enqueued`` state per name, so the latest wins and the
        stragglers are retired."""
        count = 0
        with self._lock:
            for rec in self.journal.undelivered(kind=REGISTRY_KIND):
                try:
                    entry = _Entry.from_wire(json.loads(rec.body.decode()))
                except (RegistryError, ValueError, UnicodeDecodeError):
                    continue
                prev_seq = self._journal_seq.get(entry.logical)
                if prev_seq is not None:
                    self.journal.mark(prev_seq, ABSORBED, reason="superseded")
                self._journal_seq[entry.logical] = rec.seq
                self._merge(entry)
                count += 1
        return count

    # -- lookup ---------------------------------------------------------------
    def lookup(self, logical: str) -> ServiceRecord:
        """Full record for a logical address (raises UnknownServiceError).

        Read-through cached (see ``lookup_cache_ttl``): a hit returns the
        live record without resolving under the registry lock; a miss
        does.  Unknown/disabled names are never negatively cached — a
        service that registers becomes resolvable immediately.
        """
        self._m_lookups.inc()
        if not self._available:
            raise RegistryUnavailable(f"registry {self.peer_id} is unavailable")
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
            raise UnknownServiceError(logical)
        return record

    def resolve(self, logical: str) -> str:
        """One physical address for a logical name, via the selector policy."""
        record = self.lookup(logical)
        with self._lock:
            return self._selector(record)

    def set_available(self, available: bool) -> None:
        """Fault injection switch: an unavailable registry refuses every
        read, write and gossip exchange with :class:`RegistryUnavailable`
        until restored."""
        with self._lock:
            self._available = available

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

    # -- anti-entropy surface --------------------------------------------------
    @property
    def vv(self) -> dict[str, int]:
        """Version vector: max lamport seen per peer (a copy)."""
        with self._lock:
            return dict(self._vv)

    def merge_vv(self, remote_vv: dict[str, int]) -> None:
        """Adopt a peer's frontier element-wise.  ONLY sound after a full
        exchange — the caller must already hold every entry the remote
        vector summarizes (a superseded event's stamp survives in no
        entry, so without this step the losing side of an LWW tie could
        never be marked as seen and convergence would never be reached).
        """
        with self._lock:
            self._check_available()
            for peer, lamport in remote_vv.items():
                if lamport > self._vv.get(peer, 0):
                    self._vv[peer] = lamport

    def digest(self) -> dict:
        """The summary exchanged each gossip round: who am I, what do I
        hold.  Content depends only on applied stamps — two converged
        peers always produce equal vectors regardless of arrival order or
        PYTHONHASHSEED."""
        with self._lock:
            return {"peer": self.peer_id, "vv": dict(self._vv)}

    def delta_for(self, remote_vv: dict[str, int]) -> list[dict]:
        """Entries holding any stamp the remote vector does not dominate,
        sorted by logical name (deterministic wire order)."""
        out = []
        with self._lock:
            for logical in sorted(self._entries):
                entry = self._entries[logical]
                if any(
                    lamport > remote_vv.get(peer, 0)
                    for lamport, peer in entry.stamps()
                ):
                    out.append(entry.to_wire())
        return out

    def apply_delta(self, entries: list[dict]) -> int:
        """State-based merge of received entries; returns how many local
        entries changed.  Idempotent: re-applying a delta changes nothing
        and advances nothing."""
        changed = 0
        with self._lock:
            self._check_available()
            for payload in entries:
                entry = self._merge(_Entry.from_wire(payload))
                if entry is not None:
                    changed += 1
                    self._persist(entry)
            self._applied += changed
        if changed:
            self._m_applied.inc(changed)
        return changed

    # -- introspection ---------------------------------------------------------
    @property
    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "lookups": self._lookups,
                "misses": self._misses,
                "entries": len(self._records),
                "tombstones": sum(
                    1 for e in self._entries.values() if not e.alive
                ),
                "applied": self._applied,
                "restored": self.restored,
            }

    def snapshot(self) -> dict:
        """Health-surface view of this peer (per-replica ``/health``)."""
        with self._lock:
            return {
                "peer": self.peer_id,
                "available": self._available,
                "vv": dict(sorted(self._vv.items())),
                "durable": self.journal is not None,
                **self.stats,
            }

    def cache_stats(self) -> dict[str, float]:
        """Lookup-cache effectiveness (also exported as
        ``registry_cache_total{outcome=hit|miss|coalesced}``)."""
        return self._cache.stats()

    # -- liveness (future work: "checking if service is alive") -----------
    def check_alive(
        self, logical: str, probe: Callable[[str], bool], now: float | None = None
    ) -> bool:
        """Probe the selected physical address; record and return liveness.

        The result is kept on the current record: any later change of the
        entry rebuilds the record, and its ``last_health`` starts over."""
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
