"""The dispatchers on an event loop: tasks where the paper had thread pools.

:class:`AioMsgDispatcher` subclasses :class:`~repro.core.MsgDispatcher`
and replaces only the *execution* substrate:

- the CxThread pool becomes one routing task draining the (unchanged,
  thread-safe) accept queue, woken by the queue's listener hook instead
  of blocking in ``get()``; an admission made *on the loop* is routed
  where it is admitted under the core's rule
  (:meth:`~repro.core.dispatch.DispatchCore.routes_in_place`), an
  admission from any other thread always takes the queue — destination
  queues, writer tasks and their events are loop-bound state;
- each WsThread becomes a per-destination writer task, created and
  retired under the same ``ws_threads`` slot budget and the same
  ``destination_idle_ttl``;
- the hold pump becomes a task running the core's
  :meth:`~repro.core.dispatch.DispatchCore.requeue_due`;
- the core's delivery steps await an :class:`~repro.aio.client.AioHttpClient`
  (and ``asyncio.sleep`` for the retry backoff) instead of blocking.

Everything semantic is :class:`~repro.core.dispatch.DispatchCore`'s:
admission and the journal-before-ack protocol, routing /
rewriting / correlation, the delivery step (settle, retry,
parking), hold redelivery, dead-letter taxonomy, metrics, spans and
flight-recorder events.  Admission runs synchronous, thread-safe code,
so ``handle`` can be called from *any* thread — the HTTP edge may live
on the loop (:class:`~repro.aio.server.AioHttpServer`) or on threads,
and recovery / ``drain()`` / ``stop()`` work from the outside exactly as
they do for the threaded dispatcher.

Construct it on the loop (inside a coroutine): the worker tasks bind to
``asyncio.get_running_loop()``.

:class:`AioRpcDispatcher` is the RPC-Dispatcher's loop driver: every
decision is :class:`~repro.core.rpc.RpcCore`'s, and its handler is a
coroutine that :class:`~repro.aio.server.AioHttpServer` parks while the
forward is awaited on an :class:`~repro.aio.client.AioHttpClient`.
"""

from __future__ import annotations

import asyncio
import threading

from repro.aio.runtime import loop_waker, wait_until_set
from repro.core.dispatch import PIPELINE, REQUEST
from repro.core.msg_dispatcher import MsgDispatcher, _Destination
from repro.core.rpc import RpcCore
from repro.errors import ReproError
from repro.http import HttpRequest
from repro.util.concurrency import QueueClosed


class AioMsgDispatcher(MsgDispatcher):
    """The asynchronous dispatcher, multiplexed on one event loop."""

    def _start_workers(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._loop_thread = threading.get_ident()
        self._tasks: set[asyncio.Task] = set()
        self._dest_events: dict[str, asyncio.Event] = {}
        self._accept_event = asyncio.Event()
        self._accept_queue.add_listener(loop_waker(self._loop, self._accept_event.set))
        self._spawn(self._acx_loop(), name="aio-cx")
        if self.hold_store is not None:
            self._spawn(
                self._ahold_pump_loop(self.config.hold_pump_interval),
                name="aio-hold-pump",
            )

    # -- plumbing ----------------------------------------------------------
    def _may_enqueue_here(self) -> bool:
        return self._running and threading.get_ident() == self._loop_thread

    def _spawn(self, coro, name: str) -> asyncio.Task:
        task = self._loop.create_task(coro, name=name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def stop(self, drain: bool = False, timeout: float = 10.0) -> bool:
        """Same contract as the base; additionally cancels loop tasks.

        Call from *off* the loop thread (queue closing wakes the tasks;
        the drain poll would deadlock the loop it is waiting on).
        """
        drained = super().stop(drain=drain, timeout=timeout)
        loop = getattr(self, "_loop", None)
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._cancel_tasks)
            except RuntimeError:
                pass
        return drained

    def _cancel_tasks(self) -> None:
        for task in list(self._tasks):
            task.cancel()

    # -- routing task (the CxThread pool) ----------------------------------
    async def _acx_loop(self) -> None:
        while True:
            try:
                work = self._accept_queue.get(timeout=0)
            except TimeoutError:
                await self._accept_event.wait()
                self._accept_event.clear()
                continue
            except QueueClosed:
                return
            # route → _enqueue → _ensure_worker spawns writer tasks
            self._route_pooled(work)
            # one queue entry per scheduler turn: a routing storm must not
            # starve the writer tasks (or 10k pollers) sharing the loop
            await asyncio.sleep(0)

    # -- writer tasks (the WsThread pool) -----------------------------------
    @staticmethod
    def _working(dest: _Destination) -> bool:
        return dest.thread is not None and not dest.thread.done()

    def _ensure_worker(self, dest: _Destination) -> None:
        # runs on the loop thread only (_enqueue is called from the
        # routing task or an on-loop admission, see _may_enqueue_here);
        # the base thread variant is fully overridden
        if self._working(dest):
            return
        if not self._ws_slots.acquire(blocking=False):
            # all writer slots busy; an exiting task adopts this
            # destination via _adopt_orphan
            return
        event = self._dest_events.get(dest.endpoint_key)
        if event is None:
            event = asyncio.Event()
            self._dest_events[dest.endpoint_key] = event
            dest.queue.add_listener(loop_waker(self._loop, event.set))
        event.set()  # there is work now; don't park before checking
        dest.thread = self._spawn(
            self._aws_loop(dest, event), name=f"aio-ws-{dest.endpoint_key}"
        )

    async def _aws_loop(self, dest: _Destination, event: asyncio.Event) -> None:
        idle_ttl = self.config.destination_idle_ttl
        try:
            while self._running:
                try:
                    batch = dest.queue.get_batch(self.config.batch_size, timeout=0)
                except TimeoutError:
                    event.clear()
                    if len(dest.queue):
                        continue  # raced a put; don't park on a set flag
                    await wait_until_set(self._loop, event, idle_ttl)
                    if not len(dest.queue):
                        return  # set on an empty queue: idle (or closed)
                    continue
                except QueueClosed:
                    return
                await self._deliver(batch)
        finally:
            dest.thread = None
            self._ws_slots.release()
            self._adopt_orphan()

    # -- delivery (await the wire; every decision is the core's) -------------
    async def _deliver(self, batch) -> None:
        """:meth:`DispatchCore.deliver` on this writer task: every effect
        is awaited, so the backoff yields the loop instead of holding it."""
        steps = self.deliver(batch)
        try:
            op, url, arg = next(steps)
            while True:
                try:
                    if op is REQUEST:
                        result = await self.client.request(url, arg)
                    elif op is PIPELINE:
                        result = await self.client.pipeline(url, arg)
                    else:
                        result = await asyncio.sleep(arg)
                except ReproError as exc:
                    op, url, arg = steps.throw(exc)
                else:
                    op, url, arg = steps.send(result)
        except StopIteration:
            pass

    # -- sync-over-async bridge (Table 1 quadrant 2) ------------------------
    def _waiter(self) -> asyncio.Future:
        return self._loop.create_future()

    async def bridge_handler(
        self, request: HttpRequest, bridge_timeout: float = 30.0, mount_prefix="/bridge"
    ):
        """:meth:`DispatchCore.bridge`, parked by :class:`~repro.aio.AioHttpServer`."""
        steps = self.bridge(request, bridge_timeout, mount_prefix)
        try:
            _op, waiter, timeout = next(steps)
            # the timeout answers None: one TimerHandle, no wait_for task
            timer = self._loop.call_later(
                timeout, lambda: waiter.done() or waiter.set_result(None)
            )
            try:
                steps.send(await waiter)
            finally:
                timer.cancel()
        except StopIteration as done:
            return done.value

    # -- hold pump task ------------------------------------------------------
    async def _ahold_pump_loop(self, interval: float) -> None:
        while self._running:
            try:
                self.requeue_due(self.clock.now())
            except Exception:  # noqa: BLE001 - keep the maintenance task up
                self.counters.inc("internal_errors")
            await asyncio.sleep(interval)


class AioRpcDispatcher(RpcCore):
    """The RPC-Dispatcher on the loop; construct it with an
    :class:`~repro.aio.client.AioHttpClient`."""

    async def handle_request(self, request: HttpRequest, peer: str | None = None):
        """:class:`~repro.aio.AioHttpServer` handler, parked by the server."""
        steps = self.forward(request)
        try:
            _op, url, forward = next(steps)
            try:
                response = await self.client.request(url, forward)
            except BaseException as exc:
                steps.throw(exc)
            steps.send(response)
        except StopIteration as done:
            return done.value
