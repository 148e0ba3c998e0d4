"""Coroutine-based discrete-event simulation kernel (SimPy-style).

Processes are generator functions that ``yield`` events; the kernel
resumes a process when the yielded event fires, sending the event's value
back into the generator (or throwing its exception).  Everything is
single-threaded and deterministic: ties in time are broken by scheduling
order, and all randomness lives in explicitly-seeded RNGs owned by the
models.

Example:

>>> sim = Simulator()
>>> def worker(sim):
...     yield sim.timeout(1.0)
...     return "done"
>>> p = sim.process(worker(sim))
>>> sim.run()
>>> (sim.now, p.value)
(1.0, 'done')
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable

from repro.errors import SimInterrupt, SimulationError

ProcessGen = Generator["Event", Any, Any]

_FOREVER = float("inf")


class Event:
    """A one-shot occurrence processes can wait on.

    States: pending → triggered (scheduled to fire) → processed.
    ``succeed``/``fail`` trigger it; callbacks run when the kernel
    processes it.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered", "_processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._exc: BaseException | None = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def value(self) -> Any:
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._triggered = True
        self._value = value
        sim = self.sim  # queued at (time, seq): ties fire in scheduling order
        sim._seq += 1
        heapq.heappush(sim._queue, (sim.now + delay, sim._seq, self))
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self.succeed(None, delay)
        self._exc = exc
        return self


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        # Event.__init__ and succeed(), inlined: the most made event
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self._triggered = True
        self._processed = False
        sim._seq += 1
        heapq.heappush(sim._queue, (sim.now + delay, sim._seq, self))


class Process(Event):
    """A running coroutine; itself an event that fires on completion."""

    __slots__ = ("_gen", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "proc") -> None:
        super().__init__(sim)
        self._gen = gen
        self._waiting_on: Event | None = None
        self.name = name
        sim.processes_started += 1
        Timeout(sim, 0.0).callbacks.append(self._resume)  # bootstrap

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`~repro.errors.SimInterrupt` into the process."""
        if self._triggered:
            return  # completed; nothing to interrupt
        target = self._waiting_on
        if target is not None:
            target.callbacks = [
                cb for cb in target.callbacks if getattr(cb, "__self__", None) is not self
            ]
        # deliver the interrupt as an immediate failed event
        evt = Event(self.sim)
        evt.callbacks.append(self._resume)
        evt.fail(SimInterrupt(cause))

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event._exc is not None:
                next_event = self._gen.throw(event._exc)
            else:
                next_event = self._gen.send(event._value)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        except SimInterrupt:
            # interrupt escaped the generator: treat as silent termination
            if not self._triggered:
                self.succeed(None)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            if not self._triggered:
                self.fail(exc)
            return
        if not isinstance(next_event, Event):
            self._gen.throw(
                SimulationError(f"process yielded non-event {next_event!r}")
            )
            return
        if next_event.sim is not self.sim:
            self._gen.throw(SimulationError("event belongs to another simulator"))
            return
        if next_event._processed:
            # already fired: resume on the next kernel step, from an event
            # an interrupt can withdraw the resume from
            immediate = Event(self.sim)
            immediate.callbacks.append(self._resume)
            self._waiting_on = immediate
            if next_event._exc is not None:
                immediate.fail(next_event._exc)
            else:
                immediate.succeed(next_event._value)
        else:
            self._waiting_on = next_event
            next_event.callbacks.append(self._resume)


class _Condition(Event):
    """Base for AllOf/AnyOf composite waits."""

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._pending = len(self._events)
        if not self._events:
            self.succeed([])
            return
        for evt in self._events:
            if evt._processed:
                self._on_child(evt)
            else:
                evt.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child fired; value = list of child values."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e._value for e in self._events])


class AnyOf(_Condition):
    """Fires when the first child fires; value = (index, child value)."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self.succeed((self._events.index(event), event._value))


class _SimClock:
    """Read-only Clock adapter over a simulator (for shared components)."""

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim

    def now(self) -> float:
        return self._sim.now

    def sleep(self, seconds: float) -> None:  # pragma: no cover - misuse guard
        raise SimulationError(
            "components inside a simulation must yield sim.timeout(), not sleep()"
        )


class Simulator:
    """The event loop: a time-ordered queue of triggered events."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self.events_processed = 0
        self.processes_started = 0
        self.clock = _SimClock(self)

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: ProcessGen, name: str = "proc") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution -----------------------------------------------------------
    def step(self) -> bool:
        """Process one event; False when the queue is empty."""
        if not self._queue:
            return False
        self._advance(_FOREVER, None, 1)
        return True

    def run(self, until: float | Event | None = None) -> Any:
        """Run to quiescence, to time ``until``, or until an event fires.

        Running until an event returns (or raises) that event's value.
        """
        if isinstance(until, Event):
            if not until._processed:
                self._advance(_FOREVER, until, -1)
                if not until._processed:
                    raise SimulationError("queue exhausted before target event fired")
            return until.value
        if until is None:
            self._advance(_FOREVER, None, -1)
            return None
        if until < self.now:
            raise SimulationError(f"cannot run to the past ({until} < {self.now})")
        self._advance(until, None, -1)
        self.now = until
        return None

    def _advance(self, until: float, target: Event | None, budget: int) -> None:
        """The one event loop, inlined so an event costs no call of its own:
        fire events due by ``until`` until ``target`` or ``budget`` fired."""
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        try:
            while queue and queue[0][0] <= until:
                when, _seq, event = pop(queue)
                if when < self.now:
                    raise SimulationError("time went backwards")
                self.now = when
                fired += 1
                event._processed = True
                callbacks, event.callbacks = event.callbacks, []
                for cb in callbacks:
                    cb(event)
                if event is target or fired == budget:
                    return
        finally:
            self.events_processed += fired

    @property
    def queue_size(self) -> int:
        return len(self._queue)
