"""Thread-pool and queue primitives for the threaded runtime.

The paper's MSG-Dispatcher "manages two pools of threads (the sizes of the
pools are configurable)" with "a FIFO queue and the concurrent hash map
from the Concurrent Java Library".  Python dicts are already safe for the
single-key operations the registry needs, so the interesting pieces here
are a bounded executor whose rejection policy is explicit (the unbounded
variant is exactly the WS-MsgBox bug the paper reports) and a closable
FIFO queue for the WsThread delivery loops.
"""

from __future__ import annotations

import collections
import threading
from typing import Callable, Generic, Optional, TypeVar

T = TypeVar("T")


class QueueClosed(Exception):
    """Raised by :class:`ClosableQueue` operations after :meth:`close`."""


class ClosableQueue(Generic[T]):
    """FIFO queue with optional capacity and a close signal.

    ``get`` returns ``None``-safe items until the queue is both closed and
    drained, at which point it raises :class:`QueueClosed`.  The WsThread
    delivery loops use this to shut down cleanly while still delivering
    messages already accepted.
    """

    def __init__(self, maxsize: int = 0) -> None:
        self._maxsize = maxsize
        self._items: collections.deque[T] = collections.deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self._listeners: list[Callable[[], None]] = []

    def add_listener(self, callback: Callable[[], None]) -> None:
        """Register a wakeup callback fired after every successful put and
        on :meth:`close`.

        This is the asyncio seam: an event-loop consumer registers
        ``loop.call_soon_threadsafe(event.set)`` here and waits on the
        event instead of blocking a thread in :meth:`get` — producers on
        any thread (HTTP workers, journal replay, hold-store pumps) wake
        the drain task without polling.  Callbacks run outside the queue
        lock on the producer's thread and must not block; exceptions are
        swallowed (a dead loop must not break producers).
        """
        with self._lock:
            self._listeners.append(callback)

    def _notify_listeners(self) -> None:
        for callback in list(self._listeners):
            try:
                callback()
            except Exception:  # noqa: BLE001 - a dead listener can't stop puts
                pass

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def put(self, item: T, timeout: float | None = None) -> bool:
        """Enqueue; returns False if the queue stayed full for ``timeout``.

        Raises :class:`QueueClosed` when the queue is closed.
        """
        with self._not_full:
            if self._closed:
                raise QueueClosed
            if self._maxsize > 0:
                if not self._not_full.wait_for(
                    lambda: self._closed or len(self._items) < self._maxsize,
                    timeout,
                ):
                    return False
                if self._closed:
                    raise QueueClosed
            self._items.append(item)
            self._not_empty.notify()
        self._notify_listeners()
        return True

    def try_put(self, item: T) -> bool:
        """Non-blocking put; False when full, QueueClosed when closed."""
        with self._not_full:
            if self._closed:
                raise QueueClosed
            if self._maxsize > 0 and len(self._items) >= self._maxsize:
                return False
            self._items.append(item)
            self._not_empty.notify()
        self._notify_listeners()
        return True

    def get(self, timeout: float | None = None) -> T:
        """Dequeue one item; raises QueueClosed once closed *and* empty."""
        with self._not_empty:
            if not self._not_empty.wait_for(
                lambda: self._items or self._closed, timeout
            ):
                raise TimeoutError("queue.get timed out")
            if self._items:
                item = self._items.popleft()
                self._not_full.notify()
                return item
            raise QueueClosed

    def get_batch(self, max_items: int, timeout: float | None = None) -> list[T]:
        """Dequeue up to ``max_items`` in one call (connection batching).

        Blocks for the first item only; anything already queued rides
        along immediately.  The whole batch is taken under one lock
        acquisition, so two competing consumers cannot interleave inside
        one batch — each batch is a contiguous FIFO slice of the queue.
        """
        if max_items <= 0:
            raise ValueError("max_items must be positive")
        with self._not_empty:
            if not self._not_empty.wait_for(
                lambda: self._items or self._closed, timeout
            ):
                raise TimeoutError("queue.get_batch timed out")
            if not self._items:
                raise QueueClosed
            batch = [self._items.popleft()]
            while self._items and len(batch) < max_items:
                batch.append(self._items.popleft())
            self._not_full.notify_all()
            return batch

    def close(self) -> None:
        """Close the queue; waiting getters drain remaining items then stop."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
        self._notify_listeners()


class RejectedExecution(Exception):
    """BoundedExecutor refused a task (pool saturated, policy='reject')."""


class BoundedExecutor:
    """Fixed-size thread pool with an explicit saturation policy.

    Policies:

    - ``"block"``   — submit blocks until a queue slot frees (backpressure).
    - ``"reject"``  — submit raises :class:`RejectedExecution` immediately;
      callers count the rejection (this is how the fixed WS-MsgBox sheds
      load instead of dying).
    - ``"unbounded"`` — **the paper's bug**: every task spawns a fresh
      thread with no limit.  Provided so the WS-MsgBox failure mode can be
      reproduced deliberately (see ``repro.msgbox.service``).
    """

    def __init__(
        self,
        workers: int,
        queue_size: int = 0,
        policy: str = "block",
        name: str = "pool",
    ) -> None:
        if policy not in ("block", "reject", "unbounded"):
            raise ValueError(f"unknown policy {policy!r}")
        if policy != "unbounded" and workers <= 0:
            raise ValueError("workers must be positive")
        self.policy = policy
        self.name = name
        self._queue: ClosableQueue[Callable[[], None]] = ClosableQueue(queue_size)
        self._threads: list[threading.Thread] = []
        self._unbounded_threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._started = 0
        self._completed = 0
        self._rejected = 0
        self._peak_threads = 0
        self._shutdown = False
        if policy != "unbounded":
            for i in range(workers):
                t = threading.Thread(
                    target=self._worker, name=f"{name}-{i}", daemon=True
                )
                t.start()
                self._threads.append(t)

    # -- metrics ----------------------------------------------------------
    @property
    def tasks_completed(self) -> int:
        with self._lock:
            return self._completed

    @property
    def tasks_rejected(self) -> int:
        with self._lock:
            return self._rejected

    @property
    def peak_threads(self) -> int:
        with self._lock:
            return self._peak_threads

    @staticmethod
    def _thread_counts(thread: threading.Thread) -> bool:
        """True while a thread occupies (or is about to occupy) a stack.

        A thread created but not yet started (``ident is None``) must be
        counted: under concurrent submission several exist at once and
        they are all about to own real stacks.
        """
        return thread.is_alive() or thread.ident is None

    def live_threads(self) -> int:
        if self.policy == "unbounded":
            with self._lock:
                self._unbounded_threads = [
                    t for t in self._unbounded_threads if self._thread_counts(t)
                ]
                return len(self._unbounded_threads)
        return sum(1 for t in self._threads if t.is_alive())

    # -- execution --------------------------------------------------------
    def submit(self, fn: Callable[[], None]) -> None:
        if self._shutdown:
            raise RejectedExecution(f"{self.name} is shut down")
        if self.policy == "unbounded":
            with self._lock:
                self._started += 1
                t = threading.Thread(
                    target=self._run_one,
                    args=(fn,),
                    name=f"{self.name}-adhoc-{self._started}",
                    daemon=True,
                )
                self._unbounded_threads.append(t)
                self._unbounded_threads = [
                    x for x in self._unbounded_threads if self._thread_counts(x)
                ]
                self._peak_threads = max(
                    self._peak_threads, len(self._unbounded_threads)
                )
            t.start()
            return
        try:
            if self.policy == "reject":
                if not self._queue.try_put(fn):
                    with self._lock:
                        self._rejected += 1
                    raise RejectedExecution(f"{self.name} queue full")
            else:
                self._queue.put(fn)
        except QueueClosed:
            raise RejectedExecution(f"{self.name} is shut down") from None
        with self._lock:
            self._peak_threads = max(self._peak_threads, len(self._threads))

    def _run_one(self, fn: Callable[[], None]) -> None:
        try:
            fn()
        except Exception:  # noqa: BLE001 - a task failure must not kill a worker
            pass
        finally:
            with self._lock:
                self._completed += 1

    def _worker(self) -> None:
        while True:
            try:
                fn = self._queue.get()
            except QueueClosed:
                return
            self._run_one(fn)

    def shutdown(self, wait: bool = True, timeout: float = 5.0) -> None:
        """Stop accepting tasks; optionally wait for in-flight work."""
        self._shutdown = True
        self._queue.close()
        if wait:
            for t in self._threads:
                t.join(timeout)
            with self._lock:
                pending = list(self._unbounded_threads)
            for t in pending:
                t.join(timeout)


class _Flight(Generic[T]):
    """One in-progress call shared by a leader and its waiters."""

    __slots__ = ("done", "result", "exc")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Optional[T] = None
        self.exc: BaseException | None = None


class SingleFlight(Generic[T]):
    """Coalesce concurrent calls for the same key behind one execution.

    The first caller for a key becomes the *leader* and runs ``fn``;
    callers that arrive while the leader is in flight block and share the
    leader's result (or exception).  The flight is retired before waiters
    wake, so a call that starts *after* the leader finished always runs
    fresh — stale results are never replayed.

    This is stampede protection for read-through caches: N concurrent
    misses for one registry name collapse into one trip to the backing
    store (or one failover sweep across replicated registries).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[object, _Flight[T]] = {}

    def run(self, key: object, fn: Callable[[], T]) -> tuple[T, bool]:
        """Run ``fn`` (or wait for the in-flight run); returns
        ``(result, coalesced)`` where ``coalesced`` is True for waiters
        that shared a leader's flight."""
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[key] = flight
        if leader:
            try:
                flight.result = fn()
            except BaseException as exc:
                flight.exc = exc
                raise
            finally:
                with self._lock:
                    self._flights.pop(key, None)
                flight.done.set()
            return flight.result, False
        flight.done.wait()
        if flight.exc is not None:
            raise flight.exc
        return flight.result, True
