"""Interrupt semantics across waiting contexts."""

import pytest

from repro.errors import SimInterrupt
from repro.simnet.kernel import Simulator
from repro.simnet.resources import Resource, Store


def test_interrupt_while_waiting_on_store(sim):
    """The documented pattern: an interrupted waiter cancels its request,
    so a later put is not eaten by the dead waiter's stale claim."""
    store = Store(sim)

    def victim():
        get = store.get()
        try:
            yield get
        except SimInterrupt:
            get.cancel()
            return "interrupted"

    def attacker(target):
        yield sim.timeout(1.0)
        target.interrupt()

    v = sim.process(victim())
    sim.process(attacker(v))
    assert sim.run(v) == "interrupted"

    store.put("item")

    def consumer():
        value = yield store.get()
        return value

    assert sim.run(sim.process(consumer())) == "item"


def test_interrupt_while_waiting_on_resource(sim):
    res = Resource(sim, capacity=1)

    def holder():
        req = yield res.request()
        yield sim.timeout(10.0)
        req.release()

    def victim():
        req = res.request()
        try:
            yield req
        except SimInterrupt:
            req.cancel()
            return "gave up"

    def attacker(target):
        yield sim.timeout(1.0)
        target.interrupt()

    sim.process(holder())
    v = sim.process(victim())
    sim.process(attacker(v))
    assert sim.run(v) == "gave up"
    sim.run()
    assert res.in_use == 0  # the holder released; no phantom grant


def test_interrupt_cause_propagates(sim):
    def victim():
        try:
            yield sim.timeout(100)
        except SimInterrupt as exc:
            return exc.cause

    def attacker(target):
        yield sim.timeout(1)
        target.interrupt({"reason": "shutdown"})

    v = sim.process(victim())
    sim.process(attacker(v))
    assert sim.run(v) == {"reason": "shutdown"}


def test_double_interrupt_is_safe(sim):
    def victim():
        try:
            yield sim.timeout(100)
        except SimInterrupt:
            return "once"

    v = sim.process(victim())

    def attacker():
        yield sim.timeout(1)
        v.interrupt("a")
        v.interrupt("b")  # second is a no-op on a completed process

    sim.process(attacker())
    assert sim.run(v) == "once"


def test_process_can_continue_after_interrupt(sim):
    """An interrupted wait can be retried — interruption is not death."""
    store = Store(sim)

    def victim():
        get = store.get()
        try:
            yield get
        except SimInterrupt:
            get.cancel()
        # try again; this time the item arrives
        value = yield store.get()
        return (value, sim.now)

    def attacker(target):
        yield sim.timeout(1.0)
        target.interrupt()
        yield sim.timeout(1.0)
        yield store.put("late")

    v = sim.process(victim())
    sim.process(attacker(v))
    value, now = sim.run(v)
    assert value == "late"
    assert now == 2.0


def test_interrupt_withdraws_a_parked_resume(sim):
    """A process that yields an already-fired event resumes from a fresh
    kernel event one step later.  An interrupt that lands before that step
    must withdraw the parked resume; otherwise the process is resumed
    twice, and the stale wake-up lands in the middle of its ``except``."""
    early = sim.event()
    early.succeed("early")
    sim.run()
    woke = []

    def victim():
        try:
            yield early
            yield sim.timeout(5.0)
        except SimInterrupt:
            yield sim.timeout(10.0)
            woke.append(sim.now)

    p = sim.process(victim())
    sim.step()  # the bootstrap: the victim yields ``early`` and parks
    p.interrupt()
    sim.run()
    assert woke == [10.0]
    assert not p.is_alive
