"""What AioHttpServer promises a peer beyond the shared server contract,
and AioHttpClient's two wire rules the shared client contract cannot see,
one row each.

Order, keep-alive, ``Connection: close``, EOF, idle expiry and what a
broken request or a raising handler drops are rows of the shared table,
``tests/http/test_server_contract.py``, run on every runtime.  What is
pinned here is the aio wire's own: the one receive buffer every
connection shares, back-pressure, ``TCP_NODELAY`` on a pre-bound socket
and ``stop()`` with parked polls — against real loopback sockets.  The
scripted peers are asyncio streams — test-side only.  Every test runs on
one loop; waits are events, loop turns and deadlines of at most 50 ms.
"""

import asyncio
import gc
import socket

import pytest

from repro.aio import AioHttpClient, AioHttpServer
from repro.http import Headers, HttpRequest, HttpResponse
from repro.http.wire import ResponseParser, serialize_request
from repro.obs.metrics import MetricsRegistry

DEADLINE = 5.0  # a hang fails the row instead of the run


def echo(request, peer):
    return HttpResponse(status=200, body=b"echo:" + request.body)


def wire(body: bytes = b"", **headers: str) -> bytes:
    request = HttpRequest("POST", "/x", headers=Headers(), body=body)
    request.headers.set("Host", "test")
    for name, value in headers.items():
        request.headers.set(name, value)
    return serialize_request(request)


class Peer:
    """A raw client connection that reads whole responses."""

    #: every peer of the running test; ``run`` closes them
    opened: "list[Peer]" = []

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.parser = ResponseParser()
        self.opened.append(self)

    @classmethod
    async def connect(cls, server: AioHttpServer) -> "Peer":
        endpoint = server.endpoint
        return cls(*await asyncio.open_connection(endpoint.host, endpoint.port))

    def send(self, data: bytes) -> None:
        self.writer.write(data)

    async def response(self) -> "HttpResponse | None":
        """The next response, or None once the server has closed."""
        while True:
            message = self.parser.next_message()
            if message is not None:
                return message
            data = await asyncio.wait_for(self.reader.read(1 << 16), DEADLINE)
            if not data:
                return None
            self.parser.feed(data)

    def close(self) -> None:
        self.writer.close()


async def turns(count: int = 5) -> None:
    """Let the loop (shared with the server) poll its sockets a few times."""
    for _ in range(count):
        await asyncio.sleep(0)


async def until(predicate) -> None:
    async def poll():
        while not predicate():
            await asyncio.sleep(0.001)

    await asyncio.wait_for(poll(), DEADLINE)


def run(main) -> None:
    """Run ``main(server_factory)``; every server it makes is stopped."""

    async def runner():
        servers = []

        async def serve(handler, **kw) -> AioHttpServer:
            servers.append(AioHttpServer(handler, metrics=MetricsRegistry(), **kw))
            return await servers[-1].start()

        try:
            await asyncio.wait_for(main(serve), 30.0)
        finally:
            for server in servers:
                await server.stop()
            while Peer.opened:
                Peer.opened.pop().close()

    asyncio.run(runner())


# -- framing: the parser sees the stream, however it was cut -------------------------

def test_a_request_split_at_every_byte_boundary():
    raw = wire(b"split me anywhere")

    async def main(serve):
        srv = await serve(echo)
        peer = await Peer.connect(srv)  # one keep-alive connection for all cuts
        for cut in range(1, len(raw)):
            peer.send(raw[:cut])
            await turns()  # the server reads the first part on its own
            peer.send(raw[cut:])
            assert (await peer.response()).body == b"echo:split me anywhere", cut
        assert srv.requests_served == len(raw) - 1
        assert srv.connections_served == 1

    run(main)


def test_two_connections_interleaving_halves_never_see_each_others_bytes():
    """The receive buffer is the server's, not the connection's: what one
    connection keeps of it must be copied out before the next read."""
    bodies = [bytes([65 + i]) * 700 for i in range(2)]

    async def main(serve):
        srv = await serve(echo)
        peers = [await Peer.connect(srv) for _ in bodies]
        raws = [wire(body) for body in bodies]
        for start, stop in ((0, 90), (90, 400), (400, None)):
            for peer, raw in zip(peers, raws):
                peer.send(raw[start:stop])
                await turns()
        for peer, body in zip(peers, bodies):
            assert (await peer.response()).body == b"echo:" + body

    run(main)


# -- back-pressure: a peer that does not read is not served ---------------------------

def test_a_peer_that_stops_reading_pauses_the_pump():
    calls = []
    big = b"x" * (128 * 1024)
    total = 200  # 25 MB of responses: more than loopback will buffer

    def handler(request, peer):
        calls.append(request.body)
        return HttpResponse(status=200, body=big)

    async def main(serve):
        srv = await serve(handler)
        peer = await Peer.connect(srv)
        peer.send(b"".join(wire(b"%d" % i) for i in range(total)))
        await until(lambda: len(calls) > 0)
        stalled_at = -1
        while stalled_at != len(calls):  # unchanged over 50 ms: it stopped
            stalled_at = len(calls)
            await asyncio.sleep(0.05)
        assert 0 < stalled_at < total
        for _ in range(total):
            response = await peer.response()
            assert response is not None and len(response.body) == len(big)
        assert calls == [b"%d" % i for i in range(total)]  # resumed, in order

    run(main)


# -- TCP_NODELAY on a supervisor's pre-bound socket -----------------------------------

def test_nodelay_is_set_on_connections_of_a_pre_bound_socket():
    """``socket.socket()`` has proto 0; the selector transport sets
    TCP_NODELAY only where proto is IPPROTO_TCP, so the server sets it."""
    async def main(serve):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        srv = await serve(echo, sock=sock)
        peer = await Peer.connect(srv)
        peer.send(wire(b"x"))
        assert (await peer.response()).status == 200
        (conn,) = srv._connections
        accepted = conn._transport.get_extra_info("socket")
        assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    run(main)


# -- stop(): nothing parked is left behind --------------------------------------------

def test_stop_with_two_hundred_parked_long_polls_leaves_nothing():
    parked = 0

    def handler(request, peer):
        async def forever():
            nonlocal parked
            parked += 1
            await asyncio.Event().wait()
        return forever()

    async def main(serve):
        loop = asyncio.get_running_loop()
        reported = []
        loop.set_exception_handler(lambda loop, context: reported.append(context))
        bystanders = asyncio.all_tasks()
        srv = await serve(handler)
        peers = [await Peer.connect(srv) for _ in range(200)]
        for peer in peers:
            peer.send(wire(b"poll"))
        await until(lambda: parked == 200)
        assert srv.open_connections == 200
        await srv.stop()
        assert srv.open_connections == 0
        assert asyncio.all_tasks() == bystanders  # no handler task is left
        for peer in peers:
            assert await peer.response() is None  # every poller saw the close
        gc.collect()  # a lost task would complain from its finalizer
        await turns()
        assert reported == []

    run(main)


# -- the client's wire: what the shared contract's table cannot script ----------------

def test_a_response_that_arrives_before_recv_is_asked_for_is_kept():
    early = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nearly"

    async def main(serve):
        written = asyncio.Event()
        hold = asyncio.Event()

        async def accepted(reader, writer):
            writer.write(early)  # before the request is even sent
            await writer.drain()
            written.set()
            await hold.wait()
            writer.close()

        server = await asyncio.start_server(accepted, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = AioHttpClient(response_timeout=0.05, metrics=MetricsRegistry())
        url = f"http://127.0.0.1:{port}/x"
        try:
            lease = await client.lease(url)
            await written.wait()
            await turns()  # the bytes reach the protocol; nobody is waiting
            request = HttpRequest("POST", "/x", headers=Headers(), body=b"q")
            client.prepare(url, request)
            (response,) = await lease.pipeline([request])
            assert response.body == b"early"
            sock = lease._conn.transport.get_extra_info("socket")
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
            lease.release()
        finally:
            hold.set()
            client.close()
            server.close()
            await server.wait_closed()

    run(main)


def recv_deadlines(loop) -> list:
    """The loop's live timers that are a client connection's RECV deadline."""
    return [
        handle for handle in loop._scheduled
        if not handle.cancelled() and handle._callback.__name__ == "_expire"
    ]


def test_a_cancel_mid_recv_closes_the_connection_and_leaves_no_timer():
    async def main(serve):
        got_request = asyncio.Event()
        saw_eof = asyncio.Event()

        async def accepted(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            got_request.set()  # and never answer
            if not await reader.read():
                saw_eof.set()
            writer.close()

        server = await asyncio.start_server(accepted, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = AioHttpClient(response_timeout=30.0, metrics=MetricsRegistry())
        loop = asyncio.get_running_loop()
        request = HttpRequest("GET", "/x", headers=Headers())
        task = loop.create_task(client.request(f"http://127.0.0.1:{port}/x", request))
        try:
            await asyncio.wait_for(got_request.wait(), DEADLINE)
            await turns()  # the client is parked in RECV under its deadline
            assert len(recv_deadlines(loop)) == 1
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            await asyncio.wait_for(saw_eof.wait(), DEADLINE)  # closed, not pooled
            assert not any(client._pools.values())
            assert recv_deadlines(loop) == []
        finally:
            client.close()
            server.close()
            await server.wait_closed()

    run(main)
