"""Simulation resources: FIFO stores and capacity-limited resources.

Both support *cancelable* pending requests so processes can race a request
against a timeout and then ``cancel()`` the loser without leaking a queued
claim.  A timed ``SimTcpConnection.recv`` cancels its own claim: the
reader yields the ``get()`` alone, and the timer's callback cancels it and
fails it with ``ConnectionTimeout``.

The same rule applies to interrupts: a process interrupted while waiting
on a ``get()``/``request()`` must ``cancel()`` the event it was waiting
on, otherwise the stale claim stays queued and will silently consume the
next item/slot (see ``tests/simnet/test_kernel_interrupts.py``).
"""

from __future__ import annotations

import collections
from typing import Any

from repro.errors import SimulationError
from repro.simnet.kernel import Event, Simulator


class StoreGet(Event):
    """Pending take from a :class:`Store`."""

    __slots__ = ("_store", "_cancelled")

    def __init__(self, store: "Store") -> None:
        super().__init__(store.sim)
        self._store = store
        self._cancelled = False

    def cancel(self) -> None:
        """Withdraw the request if it has not been fulfilled yet."""
        if not self._triggered:
            self._cancelled = True


class StorePut(Event):
    """Pending insert into a bounded :class:`Store`."""

    __slots__ = ("_store", "item")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.sim)
        self._store = store
        self.item = item


class Store:
    """FIFO item store with optional capacity.

    ``put`` returns an event that fires when the item is accepted;
    ``get`` an event that fires with the oldest item.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: collections.deque[Any] = collections.deque()
        self._getters: collections.deque[StoreGet] = collections.deque()
        self._putters: collections.deque[StorePut] = collections.deque()

    def put(self, item: Any) -> StorePut:
        evt = StorePut(self, item)
        self._putters.append(evt)
        self._settle()
        return evt

    def get(self) -> StoreGet:
        evt = StoreGet(self)
        self._getters.append(evt)
        self._settle()
        return evt

    def try_put(self, item: Any) -> bool:
        """Immediate put; False when the store is full.  Nobody waits on
        it, so unless a putter is queued ahead it schedules no event."""
        full = len(self.items) >= self.capacity
        if full and not self._getters:
            return False
        if full or self._putters:
            self.put(item)
        else:
            self.items.append(item)
            self._settle()
        return True

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._getters and self._getters[0]._cancelled:
                self._getters.popleft()
            if self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            if self._getters and self.items:
                get = self._getters.popleft()
                get.succeed(self.items.popleft())
                progress = True

    def __len__(self) -> int:
        return len(self.items)


class ResourceRequest(Event):
    """Pending claim on a :class:`Resource` slot."""

    __slots__ = ("_resource", "_cancelled", "_held")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self._resource = resource
        self._cancelled = False
        self._held = False

    def cancel(self) -> None:
        if not self._triggered:
            self._cancelled = True
        elif self._held:
            self.release()

    def release(self) -> None:
        if self._held:
            self._held = False
            self._resource._release()

    def _grant(self) -> None:
        self._held = True
        self.succeed(self)


class Resource:
    """Capacity-limited resource with FIFO granting."""

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: collections.deque[ResourceRequest] = collections.deque()

    def request(self) -> ResourceRequest:
        req = ResourceRequest(self)
        self._waiters.append(req)
        self._settle()
        return req

    def _release(self) -> None:
        self.in_use -= 1
        if self.in_use < 0:
            raise SimulationError("resource released more than acquired")
        self._settle()

    def _settle(self) -> None:
        while self._waiters:
            head = self._waiters[0]
            if head._cancelled:
                self._waiters.popleft()
                continue
            if self.in_use >= self.capacity:
                return
            self._waiters.popleft()
            self.in_use += 1
            head._grant()
