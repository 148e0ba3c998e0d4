"""Tests for queues and bounded executors."""

import threading
import time

import pytest

from repro.util.concurrency import (
    BoundedExecutor,
    ClosableQueue,
    QueueClosed,
    RejectedExecution,
)


class TestClosableQueue:
    def test_fifo_order(self):
        q = ClosableQueue()
        for i in range(5):
            q.put(i)
        assert [q.get() for _ in range(5)] == list(range(5))

    def test_len(self):
        q = ClosableQueue()
        q.put("a")
        q.put("b")
        assert len(q) == 2

    def test_try_put_respects_capacity(self):
        q = ClosableQueue(maxsize=1)
        assert q.try_put(1) is True
        assert q.try_put(2) is False

    def test_put_timeout_when_full(self):
        q = ClosableQueue(maxsize=1)
        q.put(1)
        assert q.put(2, timeout=0.05) is False

    def test_get_timeout(self):
        q = ClosableQueue()
        with pytest.raises(TimeoutError):
            q.get(timeout=0.05)

    def test_close_drains_then_raises(self):
        q = ClosableQueue()
        q.put(1)
        q.close()
        assert q.get() == 1
        with pytest.raises(QueueClosed):
            q.get()

    def test_put_after_close_raises(self):
        q = ClosableQueue()
        q.close()
        with pytest.raises(QueueClosed):
            q.put(1)

    def test_close_wakes_blocked_getter(self):
        q = ClosableQueue()
        errors = []

        def getter():
            try:
                q.get(timeout=5)
            except QueueClosed:
                errors.append("closed")

        t = threading.Thread(target=getter)
        t.start()
        time.sleep(0.05)
        q.close()
        t.join(2)
        assert errors == ["closed"]

    def test_get_batch_takes_up_to_max(self):
        q = ClosableQueue()
        for i in range(10):
            q.put(i)
        batch = q.get_batch(4)
        assert batch == [0, 1, 2, 3]
        assert len(q) == 6

    def test_get_batch_blocks_for_first_only(self):
        q = ClosableQueue()
        q.put(1)
        assert q.get_batch(8) == [1]

    def test_get_batch_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ClosableQueue().get_batch(0)

    def test_get_batch_returns_already_queued_items_immediately(self):
        """Queued backlog must ride along with the first item — no second
        wait, no trickle of one-item batches."""
        q = ClosableQueue()
        for i in range(5):
            q.put(i)
        start = time.monotonic()
        batch = q.get_batch(8, timeout=5.0)
        assert batch == [0, 1, 2, 3, 4]
        assert time.monotonic() - start < 1.0  # no per-item blocking

    def test_get_batch_wakes_on_late_first_item(self):
        q = ClosableQueue()
        got = []

        def consumer():
            got.extend(q.get_batch(4, timeout=5.0))

        t = threading.Thread(target=consumer)
        t.start()
        time.sleep(0.05)
        q.put("a")
        t.join(timeout=5.0)
        assert got == ["a"]

    def test_get_batch_timeout(self):
        q = ClosableQueue()
        with pytest.raises(TimeoutError):
            q.get_batch(4, timeout=0.05)

    def test_get_batch_raises_once_closed_and_drained(self):
        q = ClosableQueue()
        q.put(1)
        q.close()
        assert q.get_batch(4) == [1]
        with pytest.raises(QueueClosed):
            q.get_batch(4)

    def test_get_batch_is_contiguous_under_contention(self):
        """Competing consumers must each take a contiguous FIFO slice —
        the whole batch comes out under one lock acquisition."""
        q = ClosableQueue()
        batches = []
        lock = threading.Lock()
        barrier = threading.Barrier(4)

        def consumer():
            barrier.wait()
            while True:
                try:
                    b = q.get_batch(16, timeout=0.5)
                except (QueueClosed, TimeoutError):
                    return
                with lock:
                    batches.append(b)

        threads = [threading.Thread(target=consumer) for _ in range(3)]
        for t in threads:
            t.start()
        barrier.wait()
        for i in range(300):
            q.put(i)
        q.close()
        for t in threads:
            t.join(timeout=5.0)
        seen = sorted(x for b in batches for x in b)
        assert seen == list(range(300))  # nothing lost or duplicated
        for b in batches:
            # contiguity: each batch is an unbroken run of the sequence
            assert b == list(range(b[0], b[0] + len(b)))


class TestBoundedExecutor:
    def test_runs_tasks(self):
        pool = BoundedExecutor(2, name="t")
        done = threading.Event()
        pool.submit(done.set)
        assert done.wait(2)
        pool.shutdown()

    def test_counts_completions(self):
        pool = BoundedExecutor(4)
        barrier = threading.Barrier(5)
        done = []
        for _ in range(4):
            pool.submit(lambda: done.append(barrier.wait(2)))
        barrier.wait(2)
        deadline = time.monotonic() + 2
        while len(done) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(done) == 4
        pool.shutdown()

    def test_reject_policy_raises_when_saturated(self):
        pool = BoundedExecutor(1, queue_size=1, policy="reject")
        release = threading.Event()
        pool.submit(lambda: release.wait(5))  # occupies the worker
        time.sleep(0.05)
        pool.submit(lambda: None)  # fills the queue
        with pytest.raises(RejectedExecution):
            pool.submit(lambda: None)
        release.set()
        pool.shutdown()

    def test_unbounded_policy_spawns_threads(self):
        pool = BoundedExecutor(0, policy="unbounded", name="burst")
        release = threading.Event()
        for _ in range(10):
            pool.submit(lambda: release.wait(5))
        time.sleep(0.05)
        assert pool.live_threads() == 10
        assert pool.peak_threads >= 10
        release.set()
        pool.shutdown()

    def test_unbounded_threads_die_after_task(self):
        pool = BoundedExecutor(0, policy="unbounded")
        for _ in range(5):
            pool.submit(lambda: None)
        deadline = time.monotonic() + 2
        while pool.live_threads() > 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool.live_threads() == 0

    def test_submit_after_shutdown_rejected(self):
        pool = BoundedExecutor(1)
        pool.shutdown()
        with pytest.raises(RejectedExecution):
            pool.submit(lambda: None)

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            BoundedExecutor(1, policy="bogus")

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            BoundedExecutor(0, policy="block")

    def test_task_exception_does_not_kill_worker(self):
        pool = BoundedExecutor(1)
        pool.submit(lambda: 1 / 0)
        done = threading.Event()
        pool.submit(done.set)
        assert done.wait(2)
        pool.shutdown()
