"""Tests for online statistics."""

import math
import statistics
import threading

import pytest
from hypothesis import given, strategies as st

from repro.util.stats import Counter, Histogram, OnlineStats


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.count == 0
        assert s.mean == 0.0

    def test_single_value(self):
        s = OnlineStats()
        s.add(3.0)
        assert s.mean == 3.0
        assert s.min == s.max == 3.0

    def test_known_values(self):
        s = OnlineStats()
        data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        for x in data:
            s.add(x)
        assert s.mean == pytest.approx(statistics.mean(data))
        assert s.min == 2.0 and s.max == 9.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    def test_matches_statistics_module(self, data):
        s = OnlineStats()
        for x in data:
            s.add(x)
        assert s.mean == pytest.approx(statistics.mean(data), rel=1e-6, abs=1e-6)


class TestHistogram:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Histogram(0)
        with pytest.raises(ValueError):
            Histogram(1.0, num_buckets=0)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            Histogram(1.0).add(-0.1)

    def test_quantile_empty(self):
        assert Histogram(1.0).quantile(0.5) == 0.0

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram(1.0).quantile(1.5)

    def test_quantiles_of_uniform_data(self):
        h = Histogram(1.0, num_buckets=100)
        for i in range(100):
            h.add(i + 0.5)
        assert h.quantile(0.5) == pytest.approx(50.0, abs=1.0)
        assert h.quantile(0.99) == pytest.approx(99.0, abs=1.5)

    def test_overflow_bucket(self):
        h = Histogram(1.0, num_buckets=4)
        h.add(100.0)
        assert h.overflow == 1
        assert h.quantile(1.0) == math.inf

    def test_quantile_zero_is_minimum_edge(self):
        # regression: q=0 used to report the *upper* edge of the first
        # occupied bucket, overstating the minimum by a bucket width
        h = Histogram(1.0, num_buckets=10)
        h.add(3.5)  # lands in bucket [3, 4)
        h.add(7.2)
        assert h.quantile(0.0) == 3.0
        assert h.quantile(0.0) < h.quantile(1.0)

    def test_quantile_zero_in_first_bucket(self):
        h = Histogram(1.0, num_buckets=4)
        h.add(0.25)
        assert h.quantile(0.0) == 0.0

    def test_quantile_one_is_last_occupied_upper_edge(self):
        h = Histogram(1.0, num_buckets=10)
        h.add(1.5)
        h.add(4.5)
        assert h.quantile(1.0) == 5.0

    def test_quantile_edges_when_all_samples_overflow(self):
        h = Histogram(1.0, num_buckets=4)
        h.add(50.0)
        h.add(60.0)
        # the minimum is at least the overflow bucket's lower edge; the
        # maximum is unbounded
        assert h.quantile(0.0) == 4.0
        assert h.quantile(1.0) == math.inf


class TestCounter:
    def test_inc_and_get(self):
        c = Counter()
        c.inc("a")
        c.inc("a", 2)
        assert c.get("a") == 3
        assert c.get("missing") == 0

    def test_as_dict_is_copy(self):
        c = Counter()
        c.inc("a")
        d = c.as_dict()
        d["a"] = 99
        assert c.get("a") == 1

    def test_concurrent_inc_is_not_lossy(self):
        # regression: inc() was an unlocked read-modify-write, so the
        # dispatchers' CxThreads and WsThreads lost increments under load
        c = Counter()
        per_thread, n_threads = 5000, 8
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for _ in range(per_thread):
                c.inc("hits")

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.get("hits") == per_thread * n_threads
