"""Service relocation while traffic is flowing (location transparency).

The registry's point (paper §4.1) is that clients address *logical*
names; operators can move a service between hosts without telling anyone.
This test re-registers the physical address repeatedly while a load
generator hammers the dispatcher, and requires zero client-visible
failures.
"""

import threading
import time

from repro.core import RpcDispatcher, ServiceRegistry
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import SoapHttpApp
from repro.workload.echo import EchoService, make_echo_request


def test_relocation_under_concurrent_load(inproc):
    registry = ServiceRegistry()

    # two generations of the service on different hosts
    services = []
    for i in range(2):
        app = SoapHttpApp()
        svc = EchoService()
        app.mount("/echo", svc)
        server = HttpServer(
            inproc.listen(f"gen{i}:9000"), app.handle_request, workers=8
        ).start()
        services.append((server, svc))
    registry.register("echo", "http://gen0:9000/echo")

    dispatcher = RpcDispatcher(registry, HttpClient(inproc))
    front = HttpServer(
        inproc.listen("wsd:8000"), dispatcher.handle_request, workers=8
    ).start()

    stop = threading.Event()
    failures = []
    successes = [0]
    lock = threading.Lock()

    def load():
        client = HttpClient(inproc)
        while not stop.is_set():
            resp = client.post_envelope(
                "http://wsd:8000/rpc/echo", make_echo_request()
            )
            with lock:
                if resp.status == 200:
                    successes[0] += 1
                else:
                    failures.append(resp.status)
        client.close()

    workers = [threading.Thread(target=load, daemon=True) for _ in range(4)]
    for w in workers:
        w.start()

    # flip the physical binding back and forth while traffic flows
    for flip in range(10):
        time.sleep(0.05)
        registry.register("echo", f"http://gen{flip % 2}:9000/echo")
    time.sleep(0.1)
    stop.set()
    for w in workers:
        w.join(5)

    assert failures == []
    assert successes[0] > 50
    # both generations actually served traffic
    assert services[0][1].calls > 0
    assert services[1][1].calls > 0

    front.stop()
    for server, _ in services:
        server.stop()
