"""Tests for the discrete-event kernel."""

import pytest

from repro.errors import SimInterrupt, SimulationError


class TestTimeAdvance:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_time(self, sim):
        def proc():
            yield sim.timeout(2.5)
            return sim.now

        p = sim.process(proc())
        assert sim.run(p) == 2.5

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_events_fire_in_time_order(self, sim):
        order = []

        def proc(delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(proc(3, "c"))
        sim.process(proc(1, "a"))
        sim.process(proc(2, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_schedule_order(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_run_until_time(self, sim):
        fired = []

        def proc():
            yield sim.timeout(5)
            fired.append(True)

        sim.process(proc())
        sim.run(until=3.0)
        assert sim.now == 3.0 and not fired
        sim.run(until=10.0)
        assert fired

    def test_run_to_past_rejected(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)


class TestEvents:
    def test_succeed_delivers_value(self, sim):
        evt = sim.event()

        def proc():
            value = yield evt
            return value

        p = sim.process(proc())
        evt.succeed("payload")
        assert sim.run(p) == "payload"

    def test_fail_raises_in_process(self, sim):
        evt = sim.event()

        def proc():
            try:
                yield evt
            except ValueError as exc:
                return f"caught {exc}"

        p = sim.process(proc())
        evt.fail(ValueError("boom"))
        assert sim.run(p) == "caught boom"

    def test_double_trigger_rejected(self, sim):
        evt = sim.event()
        evt.succeed(1)
        with pytest.raises(SimulationError):
            evt.succeed(2)

    def test_fail_requires_exception(self, sim):
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")

    def test_waiting_on_already_processed_event(self, sim):
        evt = sim.event()
        evt.succeed("early")
        sim.run()

        def proc():
            value = yield evt
            return value

        assert sim.run(sim.process(proc())) == "early"

    def test_process_failure_propagates_via_run(self, sim):
        def proc():
            yield sim.timeout(1)
            raise RuntimeError("process died")

        p = sim.process(proc())
        with pytest.raises(RuntimeError):
            sim.run(p)

    def test_yielding_non_event_is_error(self, sim):
        def proc():
            yield "nonsense"

        p = sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run(p)


class TestConditions:
    def test_any_of_returns_first(self, sim):
        def proc():
            idx, value = yield sim.any_of([sim.timeout(5, "slow"), sim.timeout(1, "fast")])
            return (sim.now, idx, value)

        now, idx, value = sim.run(sim.process(proc()))
        assert now == 1.0 and idx == 1 and value == "fast"


class TestProcesses:
    def test_process_return_value_is_event_value(self, sim):
        def child():
            yield sim.timeout(1)
            return 42

        def parent():
            result = yield sim.process(child())
            return result * 2

        assert sim.run(sim.process(parent())) == 84

    def test_interrupt_raises_sim_interrupt(self, sim):
        def victim():
            try:
                yield sim.timeout(100)
            except SimInterrupt as exc:
                return f"interrupted: {exc.cause}"

        def attacker(target):
            yield sim.timeout(1)
            target.interrupt("deadline")

        v = sim.process(victim())
        sim.process(attacker(v))
        assert sim.run(v) == "interrupted: deadline"
        assert sim.now == 1.0

    def test_interrupt_completed_process_is_noop(self, sim):
        def quick():
            yield sim.timeout(1)
            return "done"

        p = sim.process(quick())
        sim.run()
        p.interrupt("too late")
        assert p.value == "done"

    def test_is_alive(self, sim):
        def proc():
            yield sim.timeout(1)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_uncaught_interrupt_terminates_silently(self, sim):
        def victim():
            yield sim.timeout(100)

        def attacker(target):
            yield sim.timeout(1)
            target.interrupt()

        v = sim.process(victim())
        sim.process(attacker(v))
        assert sim.run(v) is None


class TestClockAdapter:
    def test_now_tracks_sim(self, sim):
        def proc():
            yield sim.timeout(3)

        sim.process(proc())
        sim.run()
        assert sim.clock.now() == 3.0

    def test_sleep_forbidden(self, sim):
        with pytest.raises(SimulationError):
            sim.clock.sleep(1)


def test_events_processed_counter(sim):
    def proc():
        yield sim.timeout(1)
        yield sim.timeout(1)

    sim.process(proc())
    sim.run()
    assert sim.events_processed >= 3


def test_run_until_event_with_empty_queue_raises(sim):
    evt = sim.event()
    with pytest.raises(SimulationError):
        sim.run(until=evt)
