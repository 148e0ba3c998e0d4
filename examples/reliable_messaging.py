#!/usr/bin/env python
"""Future-work demo: hold/retry delivery with expiration + dedup.

Paper §4.4: "adding hold/retry on delivery to simple one way messaging
(HTTP) with messages stored in DB with expiration time ... related with
use of WS-ReliableMessaging."

This example wires a :class:`HoldRetryStore` in front of a flaky service
(down for the first 3 seconds, then healthy) and shows: at-least-once
delivery across the outage, expiration of messages that outlive their
TTL, and receiver-side duplicate suppression keyed by ``wsa:MessageID``.

Run:  python examples/reliable_messaging.py
"""

import threading
import time

from repro.errors import TransportError
from repro.reliable import DuplicateFilter, ExponentialBackoff, HoldRetryStore
from repro.rt import HttpClient, HttpServer, SoapHttpApp
from repro.rt.service import FunctionService
from repro.soap import Envelope
from repro.transport import InprocNetwork
from repro.util.ids import IdGenerator
from repro.workload import make_echo_message
from repro.wsa import AddressingHeaders


def main() -> None:
    net = InprocNetwork()
    boot_at = time.monotonic() + 3.0  # the service is "down" for 3 s
    dedup = DuplicateFilter(window=60.0)
    received: list[str] = []
    duplicates = [0]

    def flaky_service(envelope: Envelope, ctx) -> None:
        if time.monotonic() < boot_at:
            raise TransportError("service still booting")
        message_id = AddressingHeaders.from_envelope(envelope).message_id or "?"
        if dedup.seen(message_id):
            duplicates[0] += 1
            return None  # at-least-once made effectively-once
        received.append(message_id)
        return None

    app = SoapHttpApp()
    app.mount("/inbox", FunctionService(flaky_service))
    server = HttpServer(net.listen("svc.example:9000"), app.handle_request).start()
    print(f"[svc]  flaky service at {server.url} (down for the first 3 s)")

    http = HttpClient(net, connect_timeout=1.0, response_timeout=2.0)

    def deliver(msg) -> None:
        response = http.post_envelope(msg.target_url, Envelope.from_bytes(msg.envelope_bytes))
        if response.status >= 400:
            raise TransportError(f"HTTP {response.status}")

    store = HoldRetryStore(
        deliver,
        policy=ExponentialBackoff(max_attempts=8, base=0.25, max_delay=2.0),
        default_ttl=30.0,
    )

    ids = IdGenerator("reliable", seed=1)
    print("[send] holding 10 messages while the service is down…")
    for _ in range(10):
        message_id = ids.next()
        envelope = make_echo_message("http://svc.example:9000/inbox", message_id)
        store.hold(message_id, "http://svc.example:9000/inbox", envelope.to_bytes())

    # one message with a hopeless TTL, to demonstrate expiration
    doomed = ids.next()
    envelope = make_echo_message("http://svc.example:9000/inbox", doomed)
    store.hold(doomed, "http://svc.example:9000/inbox", envelope.to_bytes(), ttl=1.0)

    # pump on a background cadence, like a dispatcher maintenance thread
    stop = threading.Event()

    def pump_loop():
        while not stop.is_set() and store.pending():
            store.pump()
            time.sleep(0.25)

    pump_thread = threading.Thread(target=pump_loop)
    pump_thread.start()
    pump_thread.join(timeout=20)
    stop.set()

    stats = store.stats
    print(f"[done] delivered={stats['delivered']} expired={stats['expired']} "
          f"attempts={stats['attempts']}")
    print(f"[svc]  unique messages received: {len(received)}; "
          f"duplicates suppressed: {duplicates[0]}")
    assert stats["delivered"] == 10 and stats["expired"] == 1

    server.stop()
    http.close()
    print("done.")


if __name__ == "__main__":
    main()
