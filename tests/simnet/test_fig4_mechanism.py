"""Figure 4's mechanism, not just its outcome: under the ramp, the cable
consumer's connection table and its uplink backlog are what give out."""

from repro.rt.service import SoapHttpApp
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.scenarios import CABLE_MODEM_US, INRIA_SLOW, make_network
from repro.workload.echo import EchoService
from repro.workload.sim_testclient import SimRampConfig, SimRampTester


def test_the_ramp_pegs_the_connection_table_and_backs_up_the_uplink():
    sim, net, hosts = make_network(CABLE_MODEM_US, INRIA_SLOW)
    client_host, server_host = hosts["iuLow"], hosts["inriaSlow"]
    server_host.firewall.open_ports = frozenset({8080})
    app = SoapHttpApp()
    app.mount("/echo", EchoService())
    SimHttpServer(net, server_host, 8080, app)

    samples = []

    def watch():
        # every 2 simulated seconds; reading takes no simulated time
        while sim.now < 20.0:
            uplink = client_host.link.up
            samples.append(
                (client_host.active_connections, max(0.0, uplink._free_at - sim.now))
            )
            yield sim.timeout(2.0)

    sim.process(watch())
    SimRampTester(net, client_host, "inriaSlow", 8080, "/echo").run(
        SimRampConfig(clients=400, duration=20.0)
    )

    # the consumer connection table pegs at its 256 limit...
    assert max(conns for conns, _backlog in samples) == 256
    # ...and the 288 kbps uplink runs a persistent backlog
    assert max(backlog for _conns, backlog in samples) > 0.5
