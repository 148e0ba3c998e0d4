"""Property-based tests of kernel invariants.

Invariants: time never goes backwards; every scheduled timeout fires at
exactly its due time; timeouts and delayed ``succeed``s fire in time
order and, at equal times, in scheduling order; FIFO stores conserve and order items under any
interleaving of producers and consumers; resources never exceed capacity.
"""

from hypothesis import given, settings, strategies as st

from repro.simnet.kernel import Simulator
from repro.simnet.resources import Resource, Store

_delays = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30)


@given(_delays)
@settings(max_examples=100, deadline=None)
def test_timeouts_fire_at_due_time_in_order(delays):
    sim = Simulator()
    fired: list[tuple[float, float]] = []  # (due, actual)

    def waiter(delay):
        yield sim.timeout(delay)
        fired.append((delay, sim.now))

    for d in delays:
        sim.process(waiter(d))
    sim.run()
    assert len(fired) == len(delays)
    for due, actual in fired:
        assert actual == due
    actuals = [a for _, a in fired]
    assert actuals == sorted(actuals)  # monotone time


@given(st.lists(
    st.tuples(st.sampled_from(["timeout", "succeed"]), st.sampled_from([0.0, 0.5, 1.0])),
    min_size=1, max_size=40,
))
@settings(max_examples=100, deadline=None)
def test_timeouts_and_succeeds_fire_in_scheduling_order(entries):
    sim = Simulator()
    fired: list[tuple[float, int]] = []
    for index, (kind, delay) in enumerate(entries):
        def record(_event, index=index):
            fired.append((sim.now, index))

        if kind == "timeout":
            sim.timeout(delay).callbacks.append(record)
        else:
            event = sim.event()
            event.callbacks.append(record)
            event.succeed(delay=delay)
    sim.run()
    # time order first, then the order they were scheduled in (a stable sort)
    expected = sorted(
        ((delay, index) for index, (_, delay) in enumerate(entries)), key=lambda e: e[0]
    )
    assert fired == expected
    assert sim.events_processed == len(entries)


@given(_delays)
@settings(max_examples=100, deadline=None)
def test_now_is_monotone_under_nested_processes(delays):
    sim = Simulator()
    observed: list[float] = []

    def child(delay):
        yield sim.timeout(delay)
        observed.append(sim.now)

    def parent():
        procs = [sim.process(child(d)) for d in delays]
        for proc in procs:
            yield proc
        observed.append(sim.now)

    sim.run(sim.process(parent()))
    assert observed == sorted(observed)
    assert observed[-1] == max(delays)


@given(
    items=st.lists(st.integers(), min_size=1, max_size=50),
    capacity=st.integers(1, 8),
    consumer_delay=st.floats(0.0, 0.1),
)
@settings(max_examples=100, deadline=None)
def test_store_conserves_and_orders_items(items, capacity, consumer_delay):
    sim = Simulator()
    store = Store(sim, capacity=capacity)
    received: list[int] = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        for _ in range(len(items)):
            value = yield store.get()
            received.append(value)
            if consumer_delay:
                yield sim.timeout(consumer_delay)

    sim.process(producer())
    done = sim.process(consumer())
    sim.run(done)
    assert received == items  # all items, FIFO order, none duplicated


@given(
    capacity=st.integers(1, 5),
    users=st.integers(1, 20),
    hold=st.floats(0.01, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_resource_never_exceeds_capacity(capacity, users, hold):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    peak = [0]

    def user():
        req = yield res.request()
        peak[0] = max(peak[0], res.in_use)
        yield sim.timeout(hold)
        req.release()

    for _ in range(users):
        sim.process(user())
    sim.run()
    assert peak[0] <= capacity
    assert res.in_use == 0  # everything released at quiescence
    # total service time is serialized by capacity
    expected = (users + capacity - 1) // capacity * hold
    assert abs(sim.now - expected) < 1e-6


@given(st.lists(st.tuples(st.floats(0.0, 5.0), st.integers(0, 100)),
                min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_events_with_values_deliver_exactly_once(specs):
    sim = Simulator()
    deliveries: list[int] = []

    def waiter(evt):
        value = yield evt
        deliveries.append(value)

    def firer(evt, delay, value):
        yield sim.timeout(delay)
        evt.succeed(value)

    for delay, value in specs:
        evt = sim.event()
        sim.process(waiter(evt))
        sim.process(firer(evt, delay, value))
    sim.run()
    assert sorted(deliveries) == sorted(v for _, v in specs)
