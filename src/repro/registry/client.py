"""Client-side failover over a set of replicated registries.

:class:`ReplicatedRegistryClient` is a drop-in for the dispatchers'
``registry`` slot (threaded, simnet, and aio alike — they only call
``lookup``/``resolve``): reads and writes sweep the replica set in a
seeded-shuffled preference order, each replica guarded by its own
circuit breaker (:class:`~repro.reliable.breaker.BreakerRegistry`, so
replica health shows up as ``rt_breaker_state{dest=<peer>}`` and flight
``breaker-*`` events), with decorrelated-jitter retry between full
passes.  The shared TTL read-through
:class:`~repro.core.registry.LookupCache` sits on top, so concurrent
misses for one name collapse into one sweep.

Failure taxonomy: a replica that cannot answer
(:class:`~repro.errors.RegistryUnavailable`, transport failures) is
skipped and charged to its breaker.  A replica that *answers* with
"unknown service" is healthy but may be stale — a peer that just
rejoined from disk has not pulled recent registrations yet — so the
sweep continues, and :class:`~repro.errors.UnknownServiceError` is
raised only once every reachable replica agrees (availability bias: any
single converged replica can satisfy the lookup).  Only when no replica
answers at all does the client raise
:class:`~repro.errors.RegistryUnavailable` — which the dispatchers park
on (``hold_registry_unavailable``) rather than dead-letter.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable

from repro.core.registry import LookupCache, ServiceRecord
from repro.errors import (
    RegistryError,
    RegistryUnavailable,
    ReproError,
    UnknownServiceError,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.reliable.breaker import BreakerConfig, BreakerRegistry
from repro.reliable.policy import ExponentialBackoff, RetryPolicy
from repro.util.clock import Clock, MonotonicClock


class ReplicatedRegistryClient:
    """Fronts N replicated registries with failover, breakers, retry, cache.

    ``replicas`` maps replica name → a registry handle (a
    :class:`~repro.core.registry.ServiceRegistry` peer, or a remote proxy
    with the same surface); the handle's methods raise
    :class:`RegistryUnavailable` / transport errors when that replica
    cannot answer.

    ``max_passes`` bounds full sweeps per call; between passes the retry
    policy's decorrelated-jitter delay is slept on ``clock``.  Simulation
    callers pass ``max_passes=1`` — there the hold store, not a blocking
    sleep, provides the retry.
    """

    def __init__(
        self,
        replicas: "dict[str, object] | Iterable[tuple[str, object]]",
        seed: int | None = None,
        cache_ttl: float = 5.0,
        breaker_config: BreakerConfig | None = None,
        retry: RetryPolicy | None = None,
        max_passes: int = 3,
        clock: Clock | None = None,
        selector: Callable[[ServiceRecord], str] | None = None,
        metrics: MetricsRegistry | None = None,
        flight: FlightRecorder | None = None,
    ) -> None:
        self._replicas = dict(replicas)
        if not self._replicas:
            raise RegistryError("ReplicatedRegistryClient needs >=1 replica")
        if max_passes < 1:
            raise RegistryError("max_passes must be >= 1")
        self.max_passes = max_passes
        self.clock = clock or MonotonicClock()
        self.metrics = metrics if metrics is not None else default_registry()
        self._selector = selector or (lambda record: record.physical[0])
        #: fixed per-client preference order: a seeded shuffle spreads
        #: load across replicas fleet-wide while keeping each client's
        #: sweep (and therefore each seeded run) deterministic
        self._order = sorted(self._replicas)
        random.Random(seed).shuffle(self._order)
        self.retry = retry if retry is not None else ExponentialBackoff(
            max_attempts=max_passes, base=0.02, max_delay=1.0,
            jitter=True, seed=seed,
        )
        self.breakers = BreakerRegistry(
            config=breaker_config
            or BreakerConfig(consecutive_failures=2, open_for=1.0),
            clock=self.clock, metrics=self.metrics, flight=flight,
        )
        self._m_failover = self.metrics.counter(
            "registry_client_failover_total",
            "lookup attempts that skipped past a failed replica",
        )
        self._cache = LookupCache(
            lambda logical: self._sweep(lambda h: h.lookup(logical)),
            self.clock.now, cache_ttl, self.metrics,
        )

    # -- reads -------------------------------------------------------------
    def lookup(self, logical: str) -> ServiceRecord:
        """Resolve through cache → single-flight → replica sweep."""
        return self._cache.get(logical)

    def resolve(self, logical: str) -> str:
        record = self.lookup(logical)
        return self._selector(record)

    def peek(self, logical: str) -> bool:
        """True when :meth:`lookup` would answer from the cache: no sweep,
        no breaker charge, no back-off sleep (see
        :meth:`~repro.core.registry.LookupCache.peek`)."""
        return self._cache.peek(logical)

    # -- writes (forwarded to the first replica that accepts; gossip
    #    propagates them to the rest) --------------------------------------
    def register(
        self,
        logical: str,
        physical: str | list[str],
        metadata: dict[str, str] | None = None,
    ) -> ServiceRecord:
        record = self._sweep(
            lambda h: h.register(logical, physical, metadata=metadata)
        )
        self._cache.invalidate(logical)
        return record

    def unregister(self, logical: str) -> bool:
        existed = self._sweep(lambda h: h.unregister(logical))
        self._cache.invalidate(logical)
        return existed

    # -- the failover sweep ------------------------------------------------
    def _sweep(self, op: Callable[[object], object]):
        """Apply ``op`` to replicas in preference order until one answers.

        Unavailable replicas are skipped, charged to their breakers, and
        — after ``max_passes`` full sweeps with backoff — surfaced as one
        :class:`RegistryUnavailable`.  :class:`UnknownServiceError` keeps
        the sweep going (the answering replica may be stale) and is
        raised once a full pass ends with every reachable replica
        agreeing the name is unknown."""
        last_error: Exception | None = None
        for attempt in range(self.max_passes):
            if attempt:
                self.clock.sleep(self.retry.delay_before(attempt + 1))
            unknown: UnknownServiceError | None = None
            for name in self._order:
                if not self.breakers.allow(name):
                    continue
                try:
                    result = op(self._replicas[name])
                except UnknownServiceError as exc:
                    # healthy answer, possibly stale — a peer that has
                    # converged further may still know the name
                    self.breakers.record(name, True)
                    unknown = exc
                    continue
                except RegistryUnavailable as exc:
                    self.breakers.record(name, False)
                    self._m_failover.inc()
                    last_error = exc
                    continue
                except RegistryError:
                    # the replica answered; the *request* is bad — not a
                    # replica failure, so don't charge the breaker or sweep on
                    raise
                except ReproError as exc:
                    self.breakers.record(name, False)
                    self._m_failover.inc()
                    last_error = exc
                    continue
                self.breakers.record(name, True)
                return result
            if unknown is not None:
                # every replica that answered says unknown: authoritative
                # enough — retry passes are for outages, not staleness
                raise unknown
        raise RegistryUnavailable(
            f"no registry peer answered after {self.max_passes} pass(es) "
            f"over {len(self._order)} replica(s)"
        ) from last_error

    # -- introspection -----------------------------------------------------
    @property
    def replica_names(self) -> list[str]:
        """The failover preference order (shuffled once per client)."""
        return list(self._order)

    def cache_stats(self) -> dict[str, float]:
        return self._cache.stats()

    def health_snapshot(self) -> dict:
        """Per-replica health for ``GET /health`` (register via
        ``Introspection.add_health_source("registry", ...)``)."""
        return {
            "order": list(self._order),
            "replicas": {
                name: {
                    "breaker": self.breakers.state(name),
                    **self._replicas[name].snapshot(),
                }
                for name in self._order
            },
            "cache": self.cache_stats(),
        }
