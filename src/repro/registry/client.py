"""Client-side failover over a set of replicated registries.

:class:`ReplicatedRegistryClient` is a drop-in for the dispatchers'
``registry`` slot (threaded, simnet, and aio alike — they only call
``lookup``/``resolve``): reads and writes sweep the replica set once, in
a seeded-shuffled preference order.

A call never waits: a replica is a registry handle that answers or
raises at once, and the client makes one sweep and no retry pass.  The
retry is the caller's — the dispatchers park a message whose
lookup found no replica under ``hold+resolve:`` and the hold pump
re-routes it.

Failure taxonomy: a replica that cannot answer
(:class:`~repro.errors.RegistryUnavailable`, transport failures) is
skipped and counted in ``registry_client_failover_total``.  A replica
that *answers* with "unknown service" is healthy but may be stale — a
peer that just rejoined from disk has not pulled recent registrations
yet — so the sweep continues, and
:class:`~repro.errors.UnknownServiceError` is raised only once every
reachable replica agrees (availability bias: any single converged
replica can satisfy the lookup).  Only when no replica answers at all
does the client raise :class:`~repro.errors.RegistryUnavailable` —
which the dispatchers park on (``hold_registry_unavailable``) rather
than dead-letter.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable

from repro.core.registry import ServiceRecord
from repro.errors import (
    RegistryError,
    RegistryUnavailable,
    ReproError,
    UnknownServiceError,
)
from repro.obs.metrics import MetricsRegistry, default_registry


class ReplicatedRegistryClient:
    """Fronts N replicated registries with one failover sweep per call.

    ``replicas`` maps replica name → a registry handle (a
    :class:`~repro.core.registry.ServiceRegistry` peer); the handle's
    methods raise :class:`RegistryUnavailable` / transport errors when
    that replica cannot answer.
    """

    def __init__(
        self,
        replicas: "dict[str, object] | Iterable[tuple[str, object]]",
        seed: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._replicas = dict(replicas)
        if not self._replicas:
            raise RegistryError("ReplicatedRegistryClient needs >=1 replica")
        self.metrics = metrics if metrics is not None else default_registry()
        #: fixed per-client preference order: a seeded shuffle spreads
        #: load across replicas fleet-wide while keeping each client's
        #: sweep (and therefore each seeded run) deterministic
        self._order = sorted(self._replicas)
        random.Random(seed).shuffle(self._order)
        self._m_failover = self.metrics.counter(
            "registry_client_failover_total",
            "lookup attempts that skipped past a failed replica",
        )

    # -- reads -------------------------------------------------------------
    def lookup(self, logical: str) -> ServiceRecord:
        """The record of the first replica in preference order that knows
        ``logical`` (one sweep)."""
        return self._sweep(lambda h: h.lookup(logical))

    def resolve(self, logical: str) -> str:
        return self.lookup(logical).physical[0]

    # -- writes (forwarded to the first replica that accepts; gossip
    #    propagates them to the rest) --------------------------------------
    def register(
        self,
        logical: str,
        physical: str | list[str],
        metadata: dict[str, str] | None = None,
    ) -> ServiceRecord:
        return self._sweep(
            lambda h: h.register(logical, physical, metadata=metadata)
        )

    def unregister(self, logical: str) -> bool:
        return self._sweep(lambda h: h.unregister(logical))

    # -- the failover sweep ------------------------------------------------
    def _sweep(self, op: Callable[[object], object]):
        """Apply ``op`` to replicas in preference order until one answers.

        Unavailable replicas are skipped and counted; when none answers,
        the sweep raises one :class:`RegistryUnavailable`.
        :class:`UnknownServiceError` keeps the sweep going (the answering
        replica may be stale) and is raised once the sweep ends with every
        reachable replica agreeing the name is unknown."""
        unknown: UnknownServiceError | None = None
        last_error: Exception | None = None
        for name in self._order:
            try:
                return op(self._replicas[name])
            except UnknownServiceError as exc:
                # healthy answer, possibly stale — a peer that has
                # converged further may still know the name
                unknown = exc
            except RegistryUnavailable as exc:
                self._m_failover.inc()
                last_error = exc
            except RegistryError:
                # the replica answered; the *request* is bad — not a
                # replica failure, so don't sweep on
                raise
            except ReproError as exc:
                self._m_failover.inc()
                last_error = exc
        if unknown is not None:
            # every replica that answered says unknown: authoritative
            raise unknown
        raise RegistryUnavailable(
            f"no registry peer answered over {len(self._order)} replica(s)"
        ) from last_error

    # -- introspection -----------------------------------------------------
    @property
    def replica_names(self) -> list[str]:
        """The failover preference order (shuffled once per client)."""
        return list(self._order)

    def health_snapshot(self) -> dict:
        """Per-replica health for ``GET /health`` (register via
        ``Introspection.add_health_source("registry", ...)``)."""
        return {
            "order": list(self._order),
            "replicas": {
                name: self._replicas[name].snapshot()
                for name in self._order
            },
        }
