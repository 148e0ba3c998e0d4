"""Loop-thread embedding: run the asyncio runtime inside a sync program.

The threaded runtime, the test suite, and the benchmarks are synchronous
programs; :class:`AioLoopThread` gives them one dedicated thread running
an event loop, plus a blocking ``run()`` bridge for coroutines.  This is
how a deployment hosts the single-threaded aio server next to threaded
components — and how the rt/aio-parameterized tests drive both backends
through the same synchronous assertions.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Awaitable, Callable, TypeVar

T = TypeVar("T")


def loop_waker(loop: asyncio.AbstractEventLoop, callback: Callable[[], None]):
    """Wrap ``callback`` (which touches loop-bound state: ``event.set``)
    so any thread may call it.  Make the wrapper *on* the loop thread: a
    caller already there runs ``callback`` directly, any other goes
    through the loop's self-pipe."""
    loop_thread = threading.get_ident()

    def wake() -> None:
        if threading.get_ident() == loop_thread:
            callback()
            return
        try:
            loop.call_soon_threadsafe(callback)
        except RuntimeError:
            pass  # loop already closed during shutdown

    return wake


async def wait_until_set(loop, event: asyncio.Event, timeout: float) -> None:
    """Return when ``event`` is set or ``timeout`` has passed — the timer
    sets the event too, so the caller re-checks its own deadline.  One
    ``TimerHandle``; ``wait_for`` would build a ``Task`` as well."""
    timer = loop.call_later(timeout, event.set)
    try:
        await event.wait()
    finally:
        timer.cancel()


class AioLoopThread:
    """A daemon thread owning one asyncio event loop.

    ``run(coro)`` submits a coroutine to the loop and blocks the calling
    thread for its result — never call it *from* the loop thread (that
    would be a deadlock by construction; await the coroutine instead).
    """

    def __init__(self, name: str = "aio-loop") -> None:
        self._name = name
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "AioLoopThread":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._main, name=self._name, daemon=True
        )
        self._thread.start()
        self._started.wait()
        return self

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._started.set()
        try:
            loop.run_forever()
        finally:
            # drain cancellations so transports close cleanly
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def stop(self, timeout: float = 5.0) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:
            pass  # already stopped
        thread.join(timeout)
        self._loop = None
        self._thread = None
        self._started.clear()

    # -- the bridge ---------------------------------------------------------
    def run(self, coro: "Awaitable[T]", timeout: float | None = 30.0) -> T:
        """Run a coroutine on the loop; block this thread for the result."""
        if self._loop is None:
            raise RuntimeError("loop thread is not running")
        if threading.current_thread() is self._thread:
            raise RuntimeError("run() called from the loop thread")
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise TimeoutError(
                f"coroutine did not finish within {timeout}s"
            ) from None
