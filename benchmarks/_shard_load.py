"""Sink and feeder subprocesses for ``bench_shards`` — run out-of-process.

The sharding benchmark measures how fast the *dispatcher fleet* drains,
so neither the message source nor the destination services may share the
bench process's GIL with anything hot.  Two modes:

- ``sink``: a threaded HTTP server that 202s every envelope POSTed to it
  and answers ``GET /count`` with the number absorbed so far.  Prints one
  JSON line (``{"port": ...}``) on stdout when listening, then serves
  until SIGTERM.
- ``feed``: POSTs ``messages`` echo envelopes to a dispatcher data URL
  over persistent connections, round-robin across the given logical
  destinations.  Prints one JSON line of fed/error counts and exits.

Usage::

    python _shard_load.py sink
    python _shard_load.py feed <data_url> <logicals_csv> <messages> <seed>
"""

from __future__ import annotations

import json
import signal
import sys
import threading


def run_sink() -> None:
    from repro.errors import ReproError
    from repro.http import HttpResponse
    from repro.rt.server import HttpServer
    from repro.soap import Envelope
    from repro.transport.tcp import TcpListener

    count = 0
    lock = threading.Lock()

    def handler(request, peer):
        nonlocal count
        if request.method == "GET":
            with lock:
                body = str(count).encode("ascii")
            return HttpResponse(status=200, body=body)
        try:
            Envelope.from_bytes(request.body)
        except ReproError:
            return HttpResponse(status=400)
        with lock:
            count += 1
        return HttpResponse(status=202)

    server = HttpServer(
        TcpListener("127.0.0.1:0"), handler, workers=16, name="bench-sink"
    ).start()
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    print(json.dumps({"port": server.endpoint.port}), flush=True)
    stop.wait()
    server.stop()


def run_feed(data_url: str, logicals: list[str], messages: int, seed: int) -> None:
    from repro.errors import ReproError
    from repro.rt.client import HttpClient
    from repro.transport.tcp import TcpConnector
    from repro.util.ids import IdGenerator
    from repro.workload.echo import make_echo_message

    ids = IdGenerator(f"shardfeed{seed}", seed=seed)
    stats = {"fed": 0, "errors": 0}
    client = HttpClient(TcpConnector())
    try:
        for i in range(messages):
            logical = logicals[i % len(logicals)]
            envelope = make_echo_message(
                to=f"urn:wsd:{logical}", message_id=ids.next()
            )
            for attempt in range(8):
                try:
                    response = client.post_envelope(
                        f"{data_url}/msg/{logical}", envelope
                    )
                except ReproError:
                    continue
                if response.status == 202:
                    stats["fed"] += 1
                    break
            else:
                stats["errors"] += 1
    finally:
        client.close()
    print(json.dumps(stats), flush=True)


def main() -> None:
    mode = sys.argv[1]
    if mode == "sink":
        run_sink()
    elif mode == "feed":
        run_feed(
            sys.argv[2],
            [x for x in sys.argv[3].split(",") if x],
            int(sys.argv[4]),
            int(sys.argv[5]),
        )
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
