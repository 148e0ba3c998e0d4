"""Unit tests for the unified metrics registry."""

import threading

import pytest

from repro.obs.metrics import (
    NOOP_CHILD,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)


class TestCounters:
    def test_unlabeled_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total", "help text")
        c.inc()
        c.inc(3)
        assert c.labels().get() == 4

    def test_labeled_children_are_independent(self):
        reg = MetricsRegistry()
        fam = reg.counter("drops_total")
        fam.labels(reason="full").inc()
        fam.labels(reason="full").inc()
        fam.labels(reason="auth").inc(5)
        assert fam.labels(reason="full").get() == 2
        assert fam.labels(reason="auth").get() == 5

    def test_label_order_does_not_matter(self):
        fam = MetricsRegistry().counter("c")
        fam.labels(a="1", b="2").inc()
        assert fam.labels(b="2", a="1").get() == 1

    def test_family_is_idempotent_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("same") is reg.counter("same")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("taken")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("taken")

    def test_concurrent_increments_are_not_lost(self):
        child = MetricsRegistry().counter("hammer_total").labels()
        per_thread, n_threads = 2000, 8
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for _ in range(per_thread):
                child.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert child.get() == per_thread * n_threads


class TestGauges:
    def test_live_callback(self):
        queue = [1, 2, 3]
        g = MetricsRegistry().gauge("depth").labels()
        g.set_function(lambda: len(queue))
        assert g.get() == 3.0
        queue.pop()
        assert g.get() == 2.0

    def test_dead_callback_reads_zero(self):
        g = MetricsRegistry().gauge("depth").labels()
        g.set_function(lambda: 1 / 0)
        assert g.get() == 0.0


class TestHistograms:
    def test_observe_and_summary(self):
        h = MetricsRegistry().histogram(
            "latency_seconds", bucket_width=0.01
        ).labels()
        for v in (0.005, 0.015, 0.025, 0.035):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(0.08)
        s = h.summary()
        assert s["count"] == 4
        assert s["min"] == pytest.approx(0.005)
        assert s["max"] == pytest.approx(0.035)
        assert 0.0 < s["quantiles"][0.5] <= 0.04

    def test_negative_values_clamped_for_bucketing(self):
        h = MetricsRegistry().histogram("h").labels()
        h.observe(-1.0)  # clock skew should not blow up the histogram
        assert h.count == 1


class TestDisabledMode:
    def test_all_instruments_are_the_shared_noop(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is NOOP_CHILD
        assert reg.gauge("b") is NOOP_CHILD
        assert reg.histogram("c") is NOOP_CHILD
        assert reg.counter("a").labels(x="1") is NOOP_CHILD

    def test_noop_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("a")
        c.inc()
        c.observe(1.0)
        c.set_function(lambda: 5)
        assert c.get() == 0.0
        assert c.count == 0
        assert reg.snapshot() == {}


class TestExposition:
    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "counts").labels(kind="x").inc(2)
        reg.histogram("h_seconds").observe(0.01)
        snap = reg.snapshot()
        assert snap["c_total"]["kind"] == "counter"
        assert snap["c_total"]["help"] == "counts"
        assert snap["c_total"]["samples"][0] == {
            "labels": {"kind": "x"},
            "value": 2,
        }
        hist_sample = snap["h_seconds"]["samples"][0]
        assert hist_sample["count"] == 1
        assert 0.5 in hist_sample["quantiles"]

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests").labels(dest="a b").inc()
        reg.gauge("depth").labels().set_function(lambda: 3)
        reg.histogram("lat_seconds", "latency").observe(0.02)
        text = reg.render_prometheus()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{dest="a b"} 1' in text
        assert "depth 3" in text
        assert "# HELP lat_seconds latency" in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 0.02" in text
        assert "lat_seconds_count 1" in text

    def test_prometheus_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h_seconds", bucket_width=0.1, num_buckets=10)
        for value in (0.05, 0.05, 0.15, 0.95):
            hist.observe(value)
        text = reg.render_prometheus()
        assert 'h_seconds_bucket{le="0.1"} 2' in text
        assert 'h_seconds_bucket{le="0.2"} 3' in text
        assert 'h_seconds_bucket{le="1"} 4' in text
        assert 'h_seconds_bucket{le="+Inf"} 4' in text
        assert "h_seconds_count 4" in text

    def test_prometheus_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c").labels(v='say "hi"\n').inc()
        assert '\\"hi\\"\\n' in reg.render_prometheus()


class TestDefaultRegistry:
    def test_swap_and_restore(self):
        mine = MetricsRegistry()
        previous = set_default_registry(mine)
        try:
            assert default_registry() is mine
        finally:
            set_default_registry(previous)
        assert default_registry() is previous
