"""Tests for simulation stores and resources."""

import pytest

from repro.errors import SimulationError
from repro.simnet.resources import Resource, Store


class TestStore:
    def test_fifo_order(self, sim):
        store = Store(sim)
        received = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        for i in range(3):
            store.put(i)
        sim.run(sim.process(consumer()))
        assert received == [0, 1, 2]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def consumer():
            item = yield store.get()
            return (sim.now, item)

        def producer():
            yield sim.timeout(2)
            yield store.put("late")

        c = sim.process(consumer())
        sim.process(producer())
        assert sim.run(c) == (2.0, "late")

    def test_capacity_blocks_put(self, sim):
        store = Store(sim, capacity=1)
        log = []

        def producer():
            yield store.put("a")
            log.append(("a", sim.now))
            yield store.put("b")
            log.append(("b", sim.now))

        def consumer():
            yield sim.timeout(5)
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert log == [("a", 0.0), ("b", 5.0)]

    def test_try_put_respects_capacity(self, sim):
        store = Store(sim, capacity=1)
        assert store.try_put("a") is True
        assert store.try_put("b") is False

    def test_try_put_succeeds_with_waiting_getter(self, sim):
        store = Store(sim, capacity=1)
        results = []

        def getter():
            item = yield store.get()
            results.append(item)

        sim.process(getter())
        store.put("x")
        sim.run()
        # store momentarily full but the getter drains it
        assert store.try_put("y") is True
        assert results == ["x"]

    def test_cancelled_get_not_fulfilled(self, sim):
        store = Store(sim)

        def waiter():
            get = store.get()
            idx, _ = yield sim.any_of([get, sim.timeout(1)])
            if idx == 1:
                get.cancel()
            yield sim.timeout(10)

        sim.process(waiter())
        sim.run(until=2.0)
        store.put("late item")
        sim.run()
        assert len(store) == 1  # still there; cancelled getter didn't eat it

    def test_invalid_capacity(self, sim):
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)


class TestResource:
    def test_capacity_enforced(self, sim):
        res = Resource(sim, capacity=2)
        grants = []

        def user(tag):
            req = yield res.request()
            grants.append((tag, sim.now))
            yield sim.timeout(1)
            req.release()

        for tag in "abcd":
            sim.process(user(tag))
        sim.run()
        times = [t for _, t in grants]
        assert times == [0.0, 0.0, 1.0, 1.0]

    def test_fifo_granting(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def user(tag):
            req = yield res.request()
            order.append(tag)
            yield sim.timeout(1)
            req.release()

        for tag in "abc":
            sim.process(user(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_cancel_waiting_request(self, sim):
        res = Resource(sim, capacity=1)
        got = []

        def holder():
            req = yield res.request()
            yield sim.timeout(5)
            req.release()

        def impatient():
            req = res.request()
            idx, _ = yield sim.any_of([req, sim.timeout(1)])
            if idx == 1:
                req.cancel()
                got.append("gave up")

        def patient():
            yield sim.timeout(2)
            req = yield res.request()
            got.append(("patient", sim.now))
            req.release()

        sim.process(holder())
        sim.process(impatient())
        sim.process(patient())
        sim.run()
        assert "gave up" in got
        assert ("patient", 5.0) in got

    def test_cancel_held_request_releases(self, sim):
        res = Resource(sim, capacity=1)

        def proc():
            req = yield res.request()
            req.cancel()  # cancel after grant == release
            assert res.in_use == 0

        sim.run(sim.process(proc()))

    def test_double_release_detected(self, sim):
        res = Resource(sim, capacity=1)

        def proc():
            req = yield res.request()
            req.release()
            req.release()  # second release is a no-op (already released)

        sim.run(sim.process(proc()))
        assert res.in_use == 0

    def test_invalid_capacity(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)
