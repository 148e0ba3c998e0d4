"""Determinism guarantees of the simulation experiments.

A reproduction whose numbers wobble between runs cannot support the
paper-vs-measured claims in EXPERIMENTS.md; these tests pin bit-identical
results for repeated runs of the same configuration.
"""

import pytest

from repro.experiments import fig5, fig6


@pytest.mark.slow
def test_fig5_is_bit_identical_across_runs():
    a = fig5.run(client_counts=[10, 50], duration=5.0)
    b = fig5.run(client_counts=[10, 50], duration=5.0)
    for series_a, series_b in zip(a.series, b.series):
        assert [(r.transmitted, r.not_sent) for r in series_a.results] == [
            (r.transmitted, r.not_sent) for r in series_b.results
        ]
        for ra, rb in zip(series_a.results, series_b.results):
            assert ra.latency.mean == rb.latency.mean


@pytest.mark.slow
def test_fig6_is_bit_identical_across_runs():
    a = fig6.run(client_counts=[10], duration=10.0)
    b = fig6.run(client_counts=[10], duration=10.0)
    for series_a, series_b in zip(a.series, b.series):
        assert [r.transmitted for r in series_a.results] == [
            r.transmitted for r in series_b.results
        ]


def test_sim_ramp_deterministic():
    from repro.rt.service import SoapHttpApp
    from repro.simnet.httpsim import SimHttpServer
    from repro.simnet.kernel import Simulator
    from repro.simnet.topology import AccessLink, Network
    from repro.workload.echo import EchoService
    from repro.workload.sim_testclient import SimRampConfig, SimRampTester

    def run_once():
        sim = Simulator()
        net = Network(sim)
        client = net.add_host("c", AccessLink(5000, 5000, 0.005))
        server = net.add_host("s", AccessLink(5000, 5000, 0.005))
        app = SoapHttpApp()
        app.mount("/echo", EchoService())
        SimHttpServer(net, server, 80, lambda r: app.handle_request(r, None))
        tester = SimRampTester(net, client, "s", 80, "/echo")
        result = tester.run(SimRampConfig(clients=3, duration=5.0))
        return (result.transmitted, result.not_sent, result.latency.mean,
                sim.events_processed)

    assert run_once() == run_once()
