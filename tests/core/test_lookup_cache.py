"""LookupCache: the one TTL read-through cache both registry front ends
share (ServiceRegistry, ReplicatedRegistryClient)."""

import sys
import threading
import time

import pytest

from repro.core.registry import LookupCache, ServiceRecord
from repro.errors import UnknownServiceError
from repro.obs.metrics import MetricsRegistry
from repro.util.clock import ManualClock
from repro.util.concurrency import SingleFlight


class Backing:
    """The owner's slow path: a dict, with every resolve counted."""

    def __init__(self, **records):
        self.records = {
            name: ServiceRecord(name, [url]) for name, url in records.items()
        }
        self.resolves = 0

    def resolve(self, logical):
        self.resolves += 1
        try:
            return self.records[logical]
        except KeyError:
            raise UnknownServiceError(logical) from None


def make_cache(backing, clock=None):
    clock = clock or ManualClock()
    return LookupCache(backing.resolve, clock.now, 5.0, MetricsRegistry())


def test_entry_expires_on_the_injected_clock():
    clock = ManualClock()
    backing = Backing(echo="http://ws:9000/echo")
    cache = make_cache(backing, clock)
    assert cache.get("echo") is backing.records["echo"]
    assert cache.get("echo") is backing.records["echo"]
    assert backing.resolves == 1
    clock.advance(5.0)  # the deadline itself is still a hit
    cache.get("echo")
    assert backing.resolves == 1
    clock.advance(0.5)
    cache.get("echo")  # expired: resolved again
    assert backing.resolves == 2
    assert cache.stats() == {
        "hits": 2.0, "misses": 2.0, "coalesced": 0.0, "hit_rate": 0.5,
    }


def test_invalidate_drops_the_entry_and_failures_cache_nothing():
    backing = Backing(echo="http://ws:9000/echo")
    cache = make_cache(backing)
    cache.get("echo")
    backing.records["echo"] = ServiceRecord("echo", ["http://ws:9001/echo-v2"])
    assert cache.get("echo").physical == ["http://ws:9000/echo"]  # cached
    cache.invalidate("echo")  # what every owner does after a mutation
    assert cache.get("echo").physical == ["http://ws:9001/echo-v2"]
    with pytest.raises(UnknownServiceError):
        cache.get("ghost")
    backing.records["ghost"] = ServiceRecord("ghost", ["http://ws:9000/ghost"])
    assert cache.get("ghost").logical == "ghost"  # no negative entry


def test_concurrent_misses_share_one_resolve():
    backing = Backing(echo="http://ws:9000/echo")
    entered, gate = threading.Event(), threading.Event()

    def gated_resolve(logical):
        entered.set()
        assert gate.wait(5.0)
        return backing.resolve(logical)

    cache = LookupCache(gated_resolve, ManualClock().now, 5.0, MetricsRegistry())
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(cache.get("echo")))
        for _ in range(2)
    ]
    threads[0].start()
    assert entered.wait(5.0)  # the leader is inside resolve, flight open
    threads[1].start()

    def joined_the_flight():
        frame = sys._current_frames().get(threads[1].ident)
        while frame is not None:
            if frame.f_code is SingleFlight.run.__code__:
                return True
            frame = frame.f_back
        return False

    deadline = time.monotonic() + 5.0
    while not joined_the_flight() and time.monotonic() < deadline:
        time.sleep(0.001)
    gate.set()
    for t in threads:
        t.join(timeout=5.0)
        assert not t.is_alive()
    assert results == [backing.records["echo"]] * 2
    assert backing.resolves == 1
    stats = cache.stats()
    assert (stats["misses"], stats["coalesced"], stats["hits"]) == (1, 1, 0)


# -- a fill never stores what an invalidate overtook ---------------------------

def test_an_invalidate_landing_mid_fill_is_not_lost():
    """The fill resolved before the mutation and stores after its
    invalidate: what it found must not be cached for the TTL."""
    backing = Backing(echo="http://ws:9000/echo")
    resolved, gate = threading.Event(), threading.Event()

    def slow_resolve(logical):
        record = backing.resolve(logical)
        resolved.set()
        assert gate.wait(5.0)  # resolved, not yet stored
        return record

    cache = LookupCache(slow_resolve, ManualClock().now, 5.0, MetricsRegistry())
    filler = threading.Thread(target=cache.get, args=("echo",))
    filler.start()
    assert resolved.wait(5.0)
    backing.records["echo"] = ServiceRecord("echo", ["http://ws:9001/echo-v2"])
    cache.invalidate("echo")  # the mutation lands while the fill is out
    gate.set()
    filler.join(5.0)
    assert not filler.is_alive()
    assert cache.get("echo").physical == ["http://ws:9001/echo-v2"]


def test_stress_no_lookup_outlives_the_mutation_it_raced():
    """Readers fill the cache from a backing store that takes a while (the
    replicated client resolves over HTTP) while a writer mutates it in
    bursts, invalidating after each mutation as every owner does.  Once
    every reader is parked, a lookup answers the last write."""
    backing = Backing(svc="http://ws/0")

    def slow_resolve(logical):
        record = backing.resolve(logical)
        time.sleep(0.0002)
        return record

    cache = LookupCache(slow_resolve, time.monotonic, 5.0, MetricsRegistry())
    rounds, readers = 100, 3
    barrier = threading.Barrier(readers + 1, timeout=10.0)
    written = threading.Event()

    def reader():
        for _ in range(rounds):
            barrier.wait()
            while not written.is_set():
                cache.get("svc")
            barrier.wait()

    threads = [threading.Thread(target=reader) for _ in range(readers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    for t in threads:
        t.start()
    stale = []
    try:
        for n in range(rounds):
            barrier.wait()
            for k in range(3):
                last = f"http://ws/{n}.{k}"
                backing.records["svc"] = ServiceRecord("svc", [last])
                cache.invalidate("svc")
                time.sleep(0.0001)
            written.set()
            barrier.wait()  # no fill is in flight from here on
            written.clear()
            if cache.get("svc").physical != [last]:
                stale.append(n)
    except BaseException:
        # free the readers from a round that will never trip; aborting
        # after the last round would break a reader still waking from it
        barrier.abort()
        raise
    finally:
        for t in threads:
            t.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert stale == []
