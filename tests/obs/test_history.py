"""MetricsSnapshotter: flattening, ring bounding, export, sim sampling."""

import json

from repro.obs.history import MetricsSnapshotter
from repro.obs.metrics import MetricsRegistry


def _registry_with_traffic():
    metrics = MetricsRegistry()
    metrics.counter("msgd_delivered_total", "delivered").labels(dest="a").inc(3)
    metrics.gauge("msgd_backlog", "backlog").labels().set(7)
    hist = metrics.histogram(
        "msgd_queue_wait_seconds", "wait", bucket_width=0.1, num_buckets=10
    )
    hist.labels(queue="accept").observe(0.25)
    hist.labels(queue="accept").observe(0.35)
    return metrics


class TestFlatten:
    def test_sample_flattens_counters_gauges_histograms(self):
        snapshotter = MetricsSnapshotter(_registry_with_traffic(), clock=lambda: 5.0)
        sample = snapshotter.sample()
        assert sample["t"] == 5.0
        values = sample["values"]
        assert values["msgd_delivered_total{dest=a}"] == 3
        assert values["msgd_backlog"] == 7
        assert values["msgd_queue_wait_seconds{queue=accept}_count"] == 2
        assert values["msgd_queue_wait_seconds{queue=accept}_sum"] == 0.6
        assert "msgd_queue_wait_seconds{queue=accept}_p99" in values

    def test_explicit_timestamp_wins_over_clock(self):
        snapshotter = MetricsSnapshotter(MetricsRegistry(), clock=lambda: 99.0)
        assert snapshotter.sample(t=1.5)["t"] == 1.5


class TestRing:
    def test_capacity_bounds_the_ring(self):
        snapshotter = MetricsSnapshotter(MetricsRegistry(), capacity=4)
        for i in range(10):
            snapshotter.sample(t=float(i))
        assert len(snapshotter) == 4
        assert [s["t"] for s in snapshotter.history()] == [6.0, 7.0, 8.0, 9.0]

    def test_invalid_construction_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            MetricsSnapshotter(MetricsRegistry(), interval=0)
        with pytest.raises(ValueError):
            MetricsSnapshotter(MetricsRegistry(), capacity=0)


class TestExport:
    def test_export_json_is_deterministic(self, tmp_path):
        metrics = _registry_with_traffic()
        snapshotter = MetricsSnapshotter(metrics, interval=2.0, capacity=16)
        snapshotter.sample(t=1.0)
        snapshotter.sample(t=3.0)
        path = str(tmp_path / "out" / "metrics_history.json")
        assert snapshotter.export_json(path) == path
        first = open(path).read()
        payload = json.loads(first)
        assert payload["interval"] == 2.0
        assert [s["t"] for s in payload["samples"]] == [1.0, 3.0]
        # re-export is byte-identical (sorted keys, fixed indent)
        snapshotter.export_json(path)
        assert open(path).read() == first


class TestSimDriver:
    def test_sim_process_samples_in_simulated_time(self, sim):
        metrics = MetricsRegistry()
        counter = metrics.counter("ticks_total", "ticks").labels()

        def ticker():
            while sim.now < 10.0:
                yield sim.timeout(1.0)
                counter.inc()

        snapshotter = MetricsSnapshotter(metrics, interval=2.0, clock=lambda: -1.0)
        sim.process(ticker())
        sim.process(snapshotter.sim_process(sim, until=10.0))
        sim.run(until=30.0)
        history = snapshotter.history()
        assert [s["t"] for s in history] == [2.0, 4.0, 6.0, 8.0, 10.0]
        # the counter's trajectory is visible sample over sample (at equal
        # timestamps the snapshotter is scheduled ahead of the ticker, so
        # each sample sees the previous second's count)
        assert [s["values"]["ticks_total"] for s in history] == [1, 3, 5, 7, 9]

    def test_sim_process_diagnoses_fig4_congestion(self):
        """Registry gauges sampled in simulated time make Figure 4's
        mechanism visible: the consumer host's connection table and its
        uplink backlog climbing with offered load."""
        from repro.rt.service import SoapHttpApp
        from repro.simnet.httpsim import SimHttpServer
        from repro.simnet.scenarios import CABLE_MODEM_US, INRIA_SLOW, make_network
        from repro.workload.echo import EchoService
        from repro.workload.sim_testclient import SimRampConfig, SimRampTester

        sim, net, hosts = make_network(CABLE_MODEM_US, INRIA_SLOW)
        client_host, server_host = hosts["iuLow"], hosts["inriaSlow"]
        server_host.firewall.open_ports = frozenset({8080})
        app = SoapHttpApp()
        app.mount("/echo", EchoService())
        SimHttpServer(net, server_host, 8080, app)

        metrics = MetricsRegistry()
        metrics.gauge("cable_connections", "open connections").set_function(
            lambda: client_host.active_connections
        )
        metrics.gauge("cable_up_backlog_seconds", "queued uplink").set_function(
            lambda: client_host.link.up.backlog_seconds
        )
        snapshotter = MetricsSnapshotter(metrics, interval=2.0)
        sim.process(snapshotter.sim_process(sim, until=20.0))

        tester = SimRampTester(net, client_host, "inriaSlow", 8080, "/echo")
        tester.run(SimRampConfig(clients=400, duration=20.0))

        history = snapshotter.history()
        # the consumer connection table pegs at its 256 limit...
        assert max(s["values"]["cable_connections"] for s in history) == 256
        # ...and the 288 kbps uplink runs a persistent backlog
        assert max(s["values"]["cable_up_backlog_seconds"] for s in history) > 0.5
