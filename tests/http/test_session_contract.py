"""The pipelining client contract as one table, run over the sans-io core
and end-to-end over each runtime's wire.

A row scripts what the *server side* of each connection does — how many
requests it reads, which bytes it writes back in which chunks, whether it
then stays open, closes or goes silent — and states what the client must
end with: a per-request outcome, what each connection was sent, how many
connections were opened, how many are pooled afterwards, and the counters.

``[core]`` plays the script against :mod:`repro.http.session` through a
socket-free trampoline; ``[rt]`` / ``[aio]`` / ``[sim]`` play it through a
scripted raw server on the in-process transport, loopback TCP and the
simulated network.  The rows are the contract; the wires must agree.
"""

from __future__ import annotations

import asyncio
import copy
import threading
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aio import AioHttpClient
from repro.errors import (
    ConnectionClosed,
    ConnectionRefused,
    ConnectionTimeout,
    ReproError,
    SimInterrupt,
)
from repro.http import Headers, HttpRequest, HttpResponse
from repro.http.session import CONNECT, RECV, SEND, ClientSession, Lease, exchange
from repro.http.wire import RequestParser, serialize_response
from repro.obs.metrics import MetricsRegistry
from repro.rt.client import HttpClient
from repro.simnet.httpsim import SimHttpClientPool
from repro.simnet.tcpsim import listen
from repro.simnet.topology import AccessLink, Network

KEEP, CLOSE, SILENT = "keep", "close", "silent"
TIMEOUT = 0.2  # the clients' response timeout (wall seconds; sim seconds)


# -- the script language -------------------------------------------------------

@dataclass
class Round:
    """One turn of a scripted connection: read ``reads`` requests, write
    ``chunks`` (one write each), then stay open for the next round, close,
    or hold the connection open and say nothing more."""

    reads: int
    chunks: list[bytes] = field(default_factory=list)
    then: str = KEEP

    @property
    def closed_on_send(self) -> bool:
        return self.reads == 0 and not self.chunks and self.then == CLOSE


def reply(body: bytes = b"", status: int = 200, close: bool = False, **headers) -> bytes:
    response = HttpResponse(status, body=body)
    for name, value in headers.items():
        response.headers.set(name.replace("_", "-"), value)
    if close:
        response.headers.set("Connection", "close")
    return serialize_response(response)


def drip(wire: bytes, size: int) -> list[bytes]:
    return [wire[i : i + size] for i in range(0, len(wire), size)]


@dataclass
class Row:
    name: str
    #: per accepted connection, in accept order; None = nothing listens
    conns: "list[list[Round]] | None"
    #: ("request", method, body) or ("pipeline", [bodies])
    op: tuple
    #: per request: the answer's body, or "timeout" / "closed" / "refused";
    #: a lone int is the status the single request must come back with
    expect: list
    #: request bodies each connection read, in order
    seen: list[list[bytes]]
    pooled: int
    counters: dict[str, int]
    #: first make one plain exchange, so connection 1 is a pooled one
    warm: bool = False
    #: [core] only: what each connection was sent
    sent: "list[bytes] | None" = None
    #: [sim] only, where it differs: the simulated pool reads the peer's
    #: state at check-out, so a dead pooled connection is skipped for a
    #: fresh one instead of being found stale by a failed exchange
    sim_counters: "dict[str, int] | None" = None


def times(n: int, current: Round) -> "list[Round]":
    return [copy.deepcopy(current) for _ in range(n)]


def burst(n: int) -> tuple:
    return ("pipeline", [b"m%d" % i for i in range(n)])


ONE = ("request", "POST", b"m0")
WARM = Round(1, [reply(b"warm")])
UNTIL_CLOSE = b"HTTP/1.1 200 OK\r\nX-Framing: none\r\n\r\n"

ROWS = [
    # -- the single exchange ---------------------------------------------------
    Row("single", [[Round(1, [reply(b"a")])]], ONE, [b"a"], [[b"m0"]], 1,
        dict(requests=1, fresh=1),
        sent=[b"POST /x HTTP/1.1\r\nContent-Type: text/plain\r\nHost: peer:80\r\n"
              b"User-Agent: repro-client/1.0\r\nContent-Length: 2\r\n\r\nm0"]),
    Row("head", [[Round(1, [reply(Content_Length="100")])]], ("request", "HEAD", b""),
        [b""], [[b""]], 1, dict(requests=1, fresh=1)),
    Row("read-until-close-completed-by-eof",
        [[Round(1, [UNTIL_CLOSE + b"par", b"tial"], CLOSE)]], ONE,
        [b"partial"], [[b"m0"]], 0, dict(requests=1, fresh=1)),
    Row("trailing-bytes-are-not-a-clean-boundary",
        [[Round(1, [reply(b"a") + b"junk"])]], ONE, [b"a"], [[b"m0"]], 0,
        dict(requests=1, fresh=1)),
    Row("connection-close-is-not-pooled", [[Round(1, [reply(b"a", close=True)], CLOSE)]],
        ONE, [b"a"], [[b"m0"]], 0, dict(requests=1, fresh=1)),
    Row("fresh-connection-closed-is-not-retried", [[Round(1, [], CLOSE)]], ONE,
        ["closed"], [[b"m0"]], 0, dict(fresh=1)),
    Row("stale-pooled-connection-retried-once",
        [[WARM, Round(0, [], CLOSE)], [Round(1, [reply(b"b")])]], ONE,
        [b"b"], [[b"warm"], [b"m0"]], 1,
        dict(requests=2, fresh=1, reused=1, stale_retry=1), warm=True,
        sim_counters=dict(requests=2, fresh=2)),
    Row("timeout-on-a-fresh-connection", [[Round(1, [], SILENT)]], ONE,
        ["timeout"], [[b"m0"]], 0, dict(fresh=1)),
    Row("timeout-on-a-reused-connection-is-never-re-sent",
        [[WARM, Round(1, [], SILENT)]], ONE,
        ["timeout"], [[b"warm", b"m0"]], 0, dict(requests=1, fresh=1, reused=1),
        warm=True),
    # -- a 503 is an answer like any other: never slept out, never re-sent -------
    Row("503-with-retry-after-is-returned-not-re-sent",
        [[Round(1, [reply(Retry_After="1", status=503, body=b"busy")])]], ONE,
        [503], [[b"m0"]], 1, dict(requests=1, fresh=1)),
    # -- the pipelined burst (the cases of tests/rt/test_client_pipeline.py) -------
    Row("burst", [[Round(4, [b"".join(reply(b"r%d" % i) for i in range(4))])]], burst(4),
        [b"r0", b"r1", b"r2", b"r3"], [[b"m0", b"m1", b"m2", b"m3"]], 1,
        dict(requests=4, fresh=1, bursts=1),
        sent=[b"".join(
            b"POST /x HTTP/1.1\r\nContent-Type: text/plain\r\nHost: peer:80\r\n"
            b"User-Agent: repro-client/1.0\r\nContent-Length: 2\r\n\r\nm%d" % i
            for i in range(4))]),
    Row("burst-read-in-seven-byte-pieces",
        [[Round(3, drip(b"".join(reply(b"reply-%d" % i) for i in range(3)), 7))]], burst(3),
        [b"reply-0", b"reply-1", b"reply-2"], [[b"m0", b"m1", b"m2"]], 1,
        dict(requests=3, fresh=1, bursts=1)),
    Row("burst-closed-mid-way-replays-the-tail-once",
        [[Round(4, [reply(b"ok-0") + reply(b"ok-1")], CLOSE)],
         times(2, Round(1, [reply(b"again")]))], burst(4),
        [b"ok-0", b"ok-1", b"again", b"again"],
        [[b"m0", b"m1", b"m2", b"m3"], [b"m2", b"m3"]], 1,
        dict(requests=4, fresh=2, reused=1, bursts=1, replayed=2)),
    Row("burst-connection-close-demotes-to-serial",
        [[Round(3, [reply(b"closing", close=True)], CLOSE)],
         times(2, Round(1, [reply(b"serial")]))], burst(3),
        [b"closing", b"serial", b"serial"], [[b"m0", b"m1", b"m2"], [b"m1", b"m2"]], 1,
        dict(requests=3, fresh=2, reused=1, bursts=1, replayed=2)),
    Row("burst-timeout-poisons-the-tail", [[Round(3, [reply(b"only-one")], SILENT)]],
        burst(3), [b"only-one", "timeout", "timeout"], [[b"m0", b"m1", b"m2"]], 0,
        dict(requests=1, fresh=1, bursts=1)),
    Row("burst-garbled-after-an-answer-replays-the-rest",
        [[Round(2, [reply(b"r0") + b"garbage\r\n"])], [Round(1, [reply(b"again")])]],
        burst(2), [b"r0", b"again"], [[b"m0", b"m1"], [b"m1"]], 1,
        dict(requests=2, fresh=2, bursts=1, replayed=1)),
    Row("burst-on-a-stale-connection-is-all-tail",
        [[WARM, Round(0, [], CLOSE)], times(2, Round(1, [reply(b"again")]))], burst(2),
        [b"again", b"again"], [[b"warm"], [b"m0", b"m1"]], 1,
        dict(requests=3, fresh=2, reused=2, bursts=1, replayed=2), warm=True,
        sim_counters=dict(requests=3, fresh=2, bursts=1)),
    Row("empty-burst-opens-nothing", [], burst(0), [], [], 0, {}),
    Row("burst-with-nothing-listening", None, burst(2), ["refused", "refused"], [], 0, {}),
]

ROW_IDS = [row.name for row in ROWS]

FAILURES = {"timeout": ConnectionTimeout, "closed": ConnectionClosed,
            "refused": ConnectionRefused}


def post(body: bytes, method: str = "POST") -> HttpRequest:
    headers = Headers()
    if method == "POST":
        headers.set("Content-Type", "text/plain")
    return HttpRequest(method, "/x", headers=headers, body=body)


def check(
    row: Row, outcomes: list, seen: list, client: ClientSession, counters=None
) -> None:
    """The part of a row every runner can observe."""
    assert len(outcomes) == len(row.expect)
    for outcome, expected in zip(outcomes, row.expect):
        if isinstance(expected, str):
            assert isinstance(outcome, FAILURES[expected]), outcome
        elif isinstance(expected, int):
            assert outcome.status == expected
        else:
            assert outcome.body == expected
    assert seen == row.seen
    assert sum(len(pool) for pool in client._pools.values()) == row.pooled
    counted = {
        "requests": client._m_requests.get(),
        "fresh": client._m_reuse_fresh.get(),
        "reused": client._m_reuse_reused.get(),
        "stale_retry": client._m_reuse_stale.get(),
        "bursts": client._m_pipeline_bursts.labels().get(),
        "replayed": client._m_pipeline_replayed.labels().get(),
    }
    assert {k: v for k, v in counted.items() if v} == (counters or row.counters)


def single_outcome(call):
    """A single request raises where a burst fills a slot."""
    try:
        return [call()]
    except ReproError as exc:
        return [exc]


# -- [core]: the session over a socket-free wire ---------------------------------

class FakeConn:
    def __init__(self, rounds: "list[Round]") -> None:
        self.rounds = copy.deepcopy(rounds)
        self.parser = RequestParser()
        self.seen: list[bytes] = []
        self.sent = b""
        self.closed = False

    def close(self) -> None:
        self.closed = True


class FakeWire:
    """Performs the session's effects against scripted connections."""

    def __init__(self, conns: "list[list[Round]] | None") -> None:
        self.scripts = list(conns or [])
        self.opened: list[FakeConn] = []

    def perform(self, op, conn: FakeConn, arg):
        if op is CONNECT:
            if len(self.opened) == len(self.scripts):
                raise ConnectionRefused("nothing listens")
            self.opened.append(FakeConn(self.scripts[len(self.opened)]))
            return self.opened[-1]
        assert not conn.closed, f"{op} on a connection the session closed"
        if op is SEND:
            if conn.rounds and conn.rounds[0].closed_on_send:
                raise ConnectionClosed("peer closed before the send")
            conn.sent += arg
            return conn.parser.feed(arg)
        assert op is RECV and arg == TIMEOUT
        while conn.rounds:
            current = conn.rounds[0]
            while current.reads:
                message = conn.parser.next_message()
                if message is None:
                    # the server waits for a request, the client for a response
                    raise ConnectionTimeout("scripted deadlock")
                conn.seen.append(message.body)
                current.reads -= 1
            if current.chunks:
                return current.chunks.pop(0)
            if current.then == CLOSE:
                return b""
            if current.then == SILENT:
                raise ConnectionTimeout("scripted silence")
            conn.rounds.pop(0)
        raise ConnectionTimeout("idle server")

    def run(self, steps):
        try:
            effect = next(steps)
            while True:
                try:
                    result = self.perform(*effect)
                except BaseException as exc:
                    effect = steps.throw(exc)
                else:
                    effect = steps.send(result)
        except StopIteration as done:
            return done.value
        finally:
            steps.close()


def core_session() -> ClientSession:
    ticks = iter(range(10**6))
    return ClientSession(
        MetricsRegistry(), "core_client", "client", lambda: next(ticks), TIMEOUT,
        pool_size=4, user_agent="repro-client/1.0",
    )


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_contract_core(row):
    session, wire = core_session(), FakeWire(row.conns)
    url = "http://peer:80/x"
    if row.warm:
        wire.run(session._request(url, post(b"warm")))
    if row.op[0] == "request":
        _kind, method, body = row.op
        outcomes = single_outcome(
            lambda: wire.run(session._request(url, post(body, method)))
        )
    else:
        outcomes = wire.run(session._pipeline_url(url, [post(b) for b in row.op[1]]))
    check(row, outcomes, [conn.seen for conn in wire.opened], session)
    if row.sent is not None:
        assert [conn.sent for conn in wire.opened] == row.sent
    # pooled or closed, never neither: nothing leaks
    pooled = [conn for pool in session._pools.values() for conn in pool]
    assert all(conn.closed != (conn in pooled) for conn in wire.opened)


# -- [rt]: blocking client, scripted threads on the in-process transport ---------------

def play_blocking(stream, rounds: "list[Round]", seen: list[bytes]) -> None:
    parser = RequestParser()

    def read_one() -> bool:
        while True:
            message = parser.next_message()
            if message is not None:
                seen.append(message.body)
                return True
            try:
                data = stream.recv(65536, timeout=5.0)
            except ReproError:
                return False
            if not data:
                return False
            parser.feed(data)

    for current in copy.deepcopy(rounds):
        if not all(read_one() for _ in range(current.reads)):
            break
        for chunk in current.chunks:
            stream.send(chunk)
        if current.then == CLOSE:
            break
        if current.then == SILENT:
            read_one()  # holds the connection open until the client drops it
            break
    else:
        read_one()
    stream.close()


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_contract_rt(row, inproc):
    seen: list[list[bytes]] = []
    players: list[threading.Thread] = []
    listener = inproc.listen("peer:80") if row.conns is not None else None

    def accept_loop() -> None:
        while True:
            try:
                stream = listener.accept(timeout=5.0)
            except ReproError:
                return
            seen.append([])
            players.append(threading.Thread(
                target=play_blocking,
                args=(stream, row.conns[len(seen) - 1], seen[-1]), daemon=True,
            ))
            players[-1].start()

    if listener is not None:
        acceptor = threading.Thread(target=accept_loop, daemon=True)
        acceptor.start()
    client = HttpClient(inproc, response_timeout=TIMEOUT, metrics=MetricsRegistry())
    url = "http://peer:80/x"
    try:
        if row.warm:
            client.request(url, post(b"warm"))
        if row.op[0] == "request":
            _kind, method, body = row.op
            outcomes = single_outcome(lambda: client.request(url, post(body, method)))
        else:
            outcomes = client.pipeline(url, [post(b) for b in row.op[1]])
        check(row, outcomes, seen, client)
    finally:
        client.close()
        if listener is not None:
            listener.close()
            acceptor.join(5.0)
        for player in players:
            player.join(5.0)
            assert not player.is_alive()


# -- [aio]: asyncio client, scripted raw server on loopback TCP ---------------------

async def play_async(reader, writer, rounds: "list[Round]", seen: list[bytes]) -> None:
    parser = RequestParser()

    async def read_one() -> bool:
        while True:
            message = parser.next_message()
            if message is not None:
                seen.append(message.body)
                return True
            try:
                data = await asyncio.wait_for(reader.read(65536), 5.0)
            except (OSError, asyncio.TimeoutError):
                return False
            if not data:
                return False
            parser.feed(data)

    async def read_all(count: int) -> bool:
        for _ in range(count):
            if not await read_one():
                return False
        return True

    for current in copy.deepcopy(rounds):
        if not await read_all(current.reads):
            break
        for chunk in current.chunks:
            writer.write(chunk)
            await writer.drain()
        if current.then == CLOSE:
            break
        if current.then == SILENT:
            await read_one()
            break
    else:
        await read_one()
    writer.close()


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_contract_aio(row):
    async def main() -> None:
        seen: list[list[bytes]] = []
        players: list[asyncio.Task] = []

        async def accepted(reader, writer) -> None:
            seen.append([])
            players.append(asyncio.current_task())
            await play_async(reader, writer, row.conns[len(seen) - 1], seen[-1])

        server = await asyncio.start_server(accepted, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        if row.conns is None:
            server.close()
            await server.wait_closed()
        client = AioHttpClient(response_timeout=TIMEOUT, metrics=MetricsRegistry())
        url = f"http://127.0.0.1:{port}/x"
        try:
            if row.warm:
                await client.request(url, post(b"warm"))
            if row.op[0] == "request":
                _kind, method, body = row.op
                try:
                    outcomes = [await client.request(url, post(body, method))]
                except ReproError as exc:
                    outcomes = [exc]
            else:
                outcomes = await client.pipeline(url, [post(b) for b in row.op[1]])
            check(row, outcomes, seen, client)
        finally:
            client.close()
            server.close()
            await asyncio.wait_for(asyncio.gather(*players), 5.0)

    asyncio.run(main())


# -- [sim]: simulated pool, scripted raw server as simulation processes ----------------

def play_sim(conn, rounds: "list[Round]", seen: list[bytes]):
    parser = RequestParser()

    def read_one():
        while True:
            message = parser.next_message()
            if message is not None:
                seen.append(message.body)
                return True
            try:
                data = yield from conn.recv(timeout=60.0)
            except ReproError:
                return False
            if not data:
                return False
            parser.feed(data)

    def read_all(count: int):
        for _ in range(count):
            if not (yield from read_one()):
                return False
        return True

    for current in copy.deepcopy(rounds):
        if not (yield from read_all(current.reads)):
            break
        for chunk in current.chunks:
            yield from conn.send(chunk)
        if current.then == CLOSE:
            break
        if current.then == SILENT:
            yield from read_one()
            break
    else:
        yield from read_one()
    conn.close()


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_contract_sim(row, sim):
    net = Network(sim)
    link = AccessLink(5000, 5000, 0.005)
    here, there = net.add_host("client", link), net.add_host("peer", link)
    seen: list[list[bytes]] = []

    def accept_loop(listener):
        while True:
            try:
                conn = yield listener.accept()
            except ReproError:
                return
            seen.append([])
            sim.process(play_sim(conn, row.conns[len(seen) - 1], seen[-1]))

    if row.conns is not None:
        sim.process(accept_loop(listen(sim, there, 80)))
    pool = SimHttpClientPool(net, here, connect_timeout=0.5, response_timeout=TIMEOUT)

    def scenario():
        if row.warm:
            yield from pool.exchange("peer", 80, post(b"warm"))
        if row.op[0] == "pipeline":
            return (yield from pool.pipeline("peer", 80, [post(b) for b in row.op[1]]))
        _kind, method, body = row.op
        try:
            return [(yield from pool.exchange("peer", 80, post(body, method)))]
        except ReproError as exc:
            return [exc]

    outcomes = sim.run(sim.process(scenario()))
    check(row, outcomes, seen, pool, row.sim_counters)


def test_the_wires_send_the_bytes_they_always_sent(inproc, sim):
    """A capture per wire, byte for byte what the parent commit sent:
    ``rt`` and ``aio`` prepare a request (Host, User-Agent), the simulator
    sends it as given — adding either would move every seeded timing."""
    captured: dict[str, bytes] = {}

    # rt
    listener = inproc.listen("peer:80")

    def capture_rt() -> None:
        stream = listener.accept(timeout=5.0)
        captured["rt"] = stream.recv(65536, timeout=5.0)
        stream.send(reply(b"ok"))
        stream.close()

    server = threading.Thread(target=capture_rt, daemon=True)
    server.start()
    client = HttpClient(inproc, metrics=MetricsRegistry())
    try:
        client.request("http://peer:80/x", post(b"m0"))
    finally:
        client.close()
    server.join(5.0)
    listener.close()

    # aio
    async def capture_aio() -> int:
        async def accepted(reader, writer) -> None:
            captured["aio"] = await reader.read(65536)
            writer.write(reply(b"ok"))
            await writer.drain()
            writer.close()

        async with await asyncio.start_server(accepted, "127.0.0.1", 0) as srv:
            port = srv.sockets[0].getsockname()[1]
            client = AioHttpClient(metrics=MetricsRegistry())
            await client.request(f"http://127.0.0.1:{port}/x", post(b"m0"))
            client.close()
        return port

    port = asyncio.run(capture_aio())

    # sim
    net = Network(sim)
    link = AccessLink(5000, 5000, 0.005)
    here, there = net.add_host("client", link), net.add_host("peer", link)
    listener = listen(sim, there, 80)

    def capture_sim():
        conn = yield listener.accept()
        captured["sim"] = yield from conn.recv(timeout=5.0)
        yield from conn.send(reply(b"ok"))

    sim.process(capture_sim())
    pool = SimHttpClientPool(net, here)
    sim.run(sim.process(pool.exchange("peer", 80, post(b"m0"))))

    line = b"POST /x HTTP/1.1\r\nContent-Type: text/plain\r\n"
    tail = b"Content-Length: 2\r\n\r\nm0"
    assert captured == {
        "rt": line + b"Host: peer:80\r\nUser-Agent: repro-client/1.0\r\n" + tail,
        "aio": line + b"Host: 127.0.0.1:%d\r\nUser-Agent: repro-aio-client/1.0\r\n" % port + tail,
        "sim": line + tail,
    }


# -- a connection is unclean from the first byte sent until the last response ----------
#
# Whatever ends an exchange early — not only the wire errors the rows above
# script — reaches the session as a thrown exception and closes the
# connection; ``release()`` then finds nothing to pool.

class Interrupt(BaseException):
    """Nothing the session knows: a stand-in for ``KeyboardInterrupt``."""


def test_core_an_unknown_exception_mid_burst_closes_the_connection():
    session, wire = core_session(), FakeWire([[Round(2, [reply(b"r0")])]])
    scripted = wire.perform

    def interrupted(op, conn, arg):
        if op is RECV and conn.seen:
            raise Interrupt()  # after the first answer was read
        return scripted(op, conn, arg)

    wire.perform = interrupted
    lease = Lease(session, "peer:80", *wire.run(session._checkout("peer:80")))
    with pytest.raises(Interrupt):
        try:
            wire.run(lease._burst([post(b"m0"), post(b"m1")]))
        finally:
            lease.release()
    assert wire.opened[0].closed and not any(session._pools.values())


def test_core_a_lease_is_exclusive_and_returns_to_the_pool():
    session, wire = core_session(), FakeWire([[WARM, Round(1, [reply(b"r0")])]])
    url = "http://peer:80/x"
    wire.run(session._request(url, post(b"warm")))
    endpoint = session.prepare(url, post(b"m0"))
    lease = Lease(session, endpoint, *wire.run(session._checkout(endpoint)))
    assert lease.reused and not any(session._pools.values())  # checked out
    assert [r.body for r in wire.run(lease._burst([post(b"m0")]))] == [b"r0"]
    lease.release()
    assert sum(len(pool) for pool in session._pools.values()) == 1  # returned
    with pytest.raises(ReproError):
        wire.run(lease._burst([post(b"m0")]))  # a released lease refuses bursts


def test_rt_an_exception_mid_burst_is_not_pooled():
    class Stream:
        closed = False

        def send(self, data): pass

        def recv(self, max_bytes, timeout=None): raise Interrupt()

        def close(self): self.closed = True

    class Connector:
        def connect(self, endpoint, timeout=None): return stream

    stream = Stream()
    client = HttpClient(Connector(), metrics=MetricsRegistry())
    lease = client.lease("http://peer:80/x")
    with pytest.raises(Interrupt):
        try:
            lease.pipeline([post(b"m0"), post(b"m1")])
        finally:
            lease.release()
    assert stream.closed and not any(client._pools.values())


def aio_cancelled(operation) -> "tuple[bool, bool]":
    """Cancel ``operation(client, url)`` once the server holds its bytes;
    returns (the server saw the connection closed, something was pooled)."""

    async def main():
        arrived = asyncio.Event()
        closed = asyncio.Event()

        async def accepted(reader, writer) -> None:
            await reader.read(65536)
            arrived.set()
            if not await reader.read(65536):  # answers nothing, waits for EOF
                closed.set()
            writer.close()

        async with await asyncio.start_server(accepted, "127.0.0.1", 0) as server:
            port = server.sockets[0].getsockname()[1]
            client = AioHttpClient(metrics=MetricsRegistry())
            task = asyncio.ensure_future(operation(client, f"http://127.0.0.1:{port}/x"))
            await asyncio.wait_for(arrived.wait(), 5.0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            pooled = any(client._pools.values())
            try:
                await asyncio.wait_for(closed.wait(), 1.0)
            except asyncio.TimeoutError:
                pass
            client.close()
            return closed.is_set(), pooled

    return asyncio.run(main())


def test_aio_a_writer_task_cancelled_mid_burst_pools_nothing():
    """What ``AioMsgDispatcher.stop()`` does to every writer task."""

    async def writer_task(client, url):
        lease = await client.lease(url)
        try:
            requests = [post(b"m0"), post(b"m1")]
            for request in requests:
                client.prepare(url, request)
            await lease.pipeline(requests)
        finally:
            lease.release()

    assert aio_cancelled(writer_task) == (True, False)


def test_aio_a_cancelled_request_closes_its_connection():
    assert aio_cancelled(lambda client, url: client.request(url, post(b"m0"))) == (
        True, False,
    )


def test_sim_an_interrupt_mid_burst_closes_the_connection(sim):
    net = Network(sim)
    link = AccessLink(5000, 5000, 0.005)
    here, there = net.add_host("client", link), net.add_host("peer", link)
    listener = listen(sim, there, 80)

    def mute_server():
        conn = yield listener.accept()
        while (yield from conn.recv()):
            pass

    sim.process(mute_server())
    pool = SimHttpClientPool(net, here)

    def burst_then_interrupted():
        try:
            yield from pool.pipeline("peer", 80, [post(b"m0"), post(b"m1")])
        except SimInterrupt:
            return "interrupted"

    victim = sim.process(burst_then_interrupted())

    def interrupter():
        yield sim.timeout(1.0)
        victim.interrupt("stop")

    sim.process(interrupter())
    assert sim.run(victim) == "interrupted"
    assert here.active_connections == 0 and not any(pool._pools.values())


# -- one property over the core ----------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_request_ends_answered_replayed_or_poisoned_never_two(data):
    """For any chunking of the response stream and any cut point — by EOF,
    by silence or by bytes that are not HTTP — every request of a burst
    ends exactly one way: answered by the burst, replayed once, or
    poisoned by the timeout."""
    n = data.draw(st.integers(1, 5), label="requests")
    answers = [reply(b"r%d" % i) for i in range(n)]
    whole = data.draw(st.integers(0, n), label="complete answers")
    kind = data.draw(st.sampled_from(["eof", "timeout", "garbage"]), label="cut by")
    wire_bytes = b"".join(answers[:whole])
    if kind == "garbage":
        wire_bytes += b"garbage\r\n"
    elif whole < n:
        wire_bytes += answers[whole][: data.draw(st.integers(0, len(answers[whole]) - 1))]
    points = data.draw(
        st.lists(st.integers(1, max(1, len(wire_bytes) - 1)), unique=True), label="chunking"
    )
    edges = [0, *sorted(p for p in points if p < len(wire_bytes)), len(wire_bytes)]
    chunks = [wire_bytes[a:b] for a, b in zip(edges, edges[1:]) if a < b]
    session = core_session()
    wire = FakeWire([
        [Round(n, chunks, CLOSE if kind == "eof" else SILENT)],
        times(n, Round(1, [reply(b"again")])),
    ])

    results = wire.run(session._pipeline("peer:80", [post(b"m%d" % i) for i in range(n)]))

    assert len(results) == n
    assert [r.body for r in results[:whole]] == [b"r%d" % i for i in range(whole)]
    tail = [b"m%d" % i for i in range(whole, n)]
    if kind == "timeout":
        assert all(isinstance(r, ConnectionTimeout) for r in results[whole:])
        assert len(wire.opened) == 1  # poisoned: nothing was sent again
    else:
        assert [r.body for r in results[whole:]] == [b"again"] * len(tail)
        assert [conn.seen for conn in wire.opened[1:]] == ([tail] if tail else [])
    burst_conn = wire.opened[0]
    pooled = [conn for pool in session._pools.values() for conn in pool]
    assert burst_conn.closed != (burst_conn in pooled)
    assert whole == n or burst_conn.closed


# -- the client half of the parser at any chunk boundary ---------------------

RESPONSES = st.lists(
    st.tuples(
        st.sampled_from(["length", "chunked", "close", "204", "304"]),
        st.binary(max_size=40),
    ),
    min_size=1, max_size=5,
)


def response_stream(specs, until_eof: bool) -> bytes:
    """The responses of ``specs``, plus one read-until-close response."""
    out = []
    for framing, body in specs:
        if framing in ("204", "304"):
            # a 304 may name the length it would have had; it ends at its head
            out.append(b"HTTP/1.1 %s X\r\nContent-Length: 9\r\n\r\n" % framing.encode())
        elif framing == "chunked":
            pieces = [body[i:i + 7] for i in range(0, len(body), 7)]
            out.append(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                + b"".join(b"%x\r\n%s\r\n" % (len(p), p) for p in pieces)
                + b"0\r\n\r\n"
            )
        else:
            close = b"Connection: close\r\n" if framing == "close" else b""
            out.append(
                b"HTTP/1.1 200 OK\r\n" + close
                + b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
    if until_eof:
        out.append(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nto the end")
    return b"".join(out)


class PieceConn:
    """Answers each ``RECV`` with its next piece, then with EOF."""

    def __init__(self, pieces: "list[bytes]") -> None:
        self.pieces = [piece for piece in pieces if piece]
        self.closed = False

    def close(self) -> None:
        self.closed = True


def exchange_over(pieces: "list[bytes]", n: int):
    conn = PieceConn(pieces)
    steps = exchange(conn, [HttpRequest("GET", "/r") for _ in range(n)], TIMEOUT)
    try:
        op, _conn, _arg = next(steps)
        while True:
            data = (conn.pieces.pop(0) if conn.pieces else b"") if op == RECV else None
            op, _conn, _arg = steps.send(data)
    except StopIteration as done:
        responses, cut, resend, clean = done.value
    return (
        [(r.status, list(r.headers), r.body) for r in responses],
        None if cut is None else (type(cut), str(cut)),
        resend, clean, conn.closed,
    )


@settings(max_examples=150)
@given(
    RESPONSES, st.booleans(),
    st.lists(st.integers(min_value=0, max_value=2000), max_size=8),
)
def test_any_split_reads_what_one_recv_reads(specs, until_eof, cuts):
    wire_bytes = response_stream(specs, until_eof)
    n = len(specs) + until_eof
    bounds = sorted({c % (len(wire_bytes) + 1) for c in cuts})
    pieces = [wire_bytes[a:b] for a, b in zip([0, *bounds], [*bounds, len(wire_bytes)])]
    whole = exchange_over([wire_bytes], n)
    assert exchange_over(pieces, n) == whole
    # what was read is each response up to and including the first close
    framings = [framing for framing, _body in specs] + ["eof"] * until_eof
    upto = next(
        (i + 1 for i, f in enumerate(framings) if f in ("close", "eof")), n
    )
    responses, cut, resend, clean, closed = whole
    assert [(status, body) for status, _h, body in responses] == [
        (int(f), b"") if f in ("204", "304")
        else (200, b"to the end" if f == "eof" else body)
        for f, body in [*specs, ("eof", b"")][:upto]
    ]
    assert (cut is None) == (upto == n) and resend
    assert clean == (upto == n and framings[-1] not in ("close", "eof"))
    assert closed != clean
