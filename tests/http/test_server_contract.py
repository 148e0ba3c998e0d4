"""The HTTP server contract as one table, run over the sans-io session and
end-to-end over each runtime's server.

A row scripts what a *peer* does on one connection — the bytes it writes,
one write each, and whether it then half-closes — and states what it must
end with: the answers it read, in order; whether the server then closed
the connection or still serves it (a last ``more`` request is answered);
and which requests the handler was called with.  The handler echoes the
request body, and some bodies ask for more: ``close`` is answered with
``Connection: close``, ``boom`` raises (a handler bug), ``gone`` raises
``ConnectionResetError`` (its backend went away), and a body starting
with ``park`` takes 2.5 keep-alive timeouts before it is answered — a
parked awaitable on ``aio``, a blocked worker on ``rt``, a simulated wait
on ``sim``.  A request the handler is called with while a parked one is
unanswered is logged as overtaking it.

``[session]`` drives :class:`repro.http.session.ServerSession` from a
socket-free loop; ``[rt]`` / ``[aio]`` / ``[sim]`` serve the row with
``HttpServer`` on the in-process transport, ``AioHttpServer`` on loopback
TCP and ``SimHttpServer`` on the simulated network.  On a wire, a
bystander connection is opened before the row and answered after it:
what drops a connection drops that connection only.  The rows are the
contract; the wires must agree.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.aio import AioHttpServer
from repro.errors import ConnectionClosed, HttpParseError, TransportError
from repro.http import Headers, HttpRequest, HttpResponse
from repro.http.session import ServerSession
from repro.http.wire import DEFAULT_MAX_BODY, ResponseParser, serialize_request
from repro.obs.metrics import MetricsRegistry
from repro.rt.server import HttpServer
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.tcpsim import _EOF, connect
from repro.simnet.topology import AccessLink, Network

SESSION, RT, AIO, SIM = "session", "rt", "aio", "sim"
CLOCKED = (RT, AIO, SIM)  # idle expiry is the driver's clock
EOF = "eof"  # a script step: the peer half-closes
LONG = 30.0  # the keep-alive timeout of a row that is not about expiry
IDLE = 0.05  # ... and of one that is (wall seconds; simulated seconds)
PARK = 2.5 * IDLE
DEADLINE = 5.0  # a hang fails the row instead of the run


def req(body: bytes, **headers: str) -> bytes:
    request = HttpRequest("POST", "/x", headers=Headers(), body=body)
    request.headers.set("Host", "test")
    for name, value in headers.items():
        request.headers.set(name, value)
    return serialize_request(request)


@dataclass
class Row:
    name: str
    #: what the peer does, in order: bytes are one write, EOF half-closes
    script: list
    #: bodies of the answers the peer reads, in order
    answers: list[bytes]
    #: then the server closes the connection (else it answers ``more``)
    closes: bool
    #: request bodies the handler was called with
    handled: list[bytes]
    #: the last answer carries ``Connection: close``
    said_close: bool = False
    keep_alive_timeout: float = LONG
    #: the close comes about one keep-alive timeout after the last answer
    idle: bool = False
    #: [sim] only: how many writes carried the answers
    writes: "int | None" = None
    wires: tuple = (SESSION, RT, AIO, SIM)


ROWS = [
    # -- one request at a time per connection, answered in order ---------------
    Row("pipelined-answers-in-request-order",
        [req(b"1") + req(b"2") + req(b"3")], [b"1", b"2", b"3"], False,
        [b"1", b"2", b"3"]),
    Row("behind-a-parked-request-waits-its-turn",
        [req(b"1") + req(b"park") + req(b"3")], [b"1", b"park", b"3"], False,
        [b"1", b"park", b"3"]),
    # -- Connection: close either way ends it; later requests go unanswered ----
    Row("close-on-the-request-ends-the-exchange",
        [req(b"bye", Connection="close") + req(b"unreached")], [b"bye"], True,
        [b"bye"], said_close=True),
    Row("http-1.0-request-ends-the-exchange",
        [b"POST /x HTTP/1.0\r\nContent-Length: 3\r\n\r\nold" + req(b"unreached")],
        [b"old"], True, [b"old"], said_close=True),
    Row("close-on-the-response-ends-the-exchange",
        [req(b"close") + req(b"unreached")], [b"close"], True, [b"close"],
        said_close=True),
    # -- EOF, and what drops a connection (never with an error answer) ----------
    Row("half-closed-peer-gets-what-it-asked",
        [req(b"1") + req(b"2"), EOF], [b"1", b"2"], True, [b"1", b"2"]),
    Row("eof-mid-request-drops",
        [req(b"never finished")[:-5], EOF], [], True, []),
    Row("malformed-start-line-drops",
        [req(b"before") + b"NOT-HTTP\r\n\r\n"], [], True, []),
    Row("over-max-body-dropped-without-413",
        [b"POST /x HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n"
         % (DEFAULT_MAX_BODY + 1)], [], True, []),
    # -- a raising handler: what was answered is written, then the close -------
    Row("handler-raises-mid-burst",
        [req(b"a") + req(b"boom") + req(b"c")], [b"a"], True, [b"a", b"boom"]),
    Row("backend-lost-mid-burst",
        [req(b"a") + req(b"gone") + req(b"c")], [b"a"], True, [b"a", b"gone"]),
    Row("parked-backend-lost-mid-burst",
        [req(b"a") + req(b"park-gone") + req(b"c")], [b"a"], True,
        [b"a", b"park-gone"]),
    # -- idle expiry, on the driver's clock --------------------------------------
    Row("idle-expires-at-keep-alive-timeout",
        [req(b"a")], [b"a"], True, [b"a"], keep_alive_timeout=IDLE, idle=True,
        wires=CLOCKED),
    Row("parked-or-blocking-handler-not-idle",
        [req(b"park")], [b"park"], True, [b"park"], keep_alive_timeout=IDLE,
        idle=True, wires=CLOCKED),
    # -- the simulator's own: a timing input of Figs 4-6 -------------------------
    Row("one-write-per-ready-burst",
        [req(b"1") + req(b"2") + req(b"3")], [b"1", b"2", b"3"], False,
        [b"1", b"2", b"3"], writes=1, wires=(SIM,)),
]


def rows(wire: str):
    chosen = [row for row in ROWS if wire in row.wires]
    return pytest.mark.parametrize("row", chosen, ids=[row.name for row in chosen])


# -- the handler every wire serves --------------------------------------------

class Boom(Exception):
    """A handler bug."""


class Handler:
    """Echo, and what a body asks for; ``park(make)`` is the wire's way of
    answering ``make()`` after :data:`PARK` seconds."""

    def __init__(self, park) -> None:
        self.park = park
        self.handled: list[bytes] = []
        self.parked = False

    def __call__(self, request: HttpRequest, *peer):
        overtook = b"overtook:" if self.parked else b""
        self.handled.append(overtook + request.body)
        if request.body.startswith(b"park"):
            self.parked = True
            return self.park(lambda: self.answer(request))
        return self.answer(request)

    def answer(self, request: HttpRequest) -> HttpResponse:
        self.parked = False
        if request.body == b"boom":
            raise Boom("handler bug")
        if request.body.endswith(b"gone"):
            raise ConnectionResetError("backend went away")
        response = HttpResponse(200, body=request.body)
        if request.body == b"close":
            response.headers.set("Connection", "close")
        return response


# -- the peer, written once: each wire performs its steps ----------------------

OPEN, WRITE, SHUT, READ, NOW = "open", "write", "shut", "read", "now"


@dataclass
class Seen:
    answers: list[HttpResponse]
    closed: bool
    #: reads that carried the row's answers
    chunks: int
    #: from the last answer to the close
    idle: "float | None"
    #: what the bystander was answered, if there was one
    bystander: "bytes | None"


def peer(row: Row):
    """Steps ``(op, connection, argument)``: play ``row`` → :class:`Seen`.

    ``OPEN`` / ``SHUT`` a named connection; ``WRITE`` bytes (a server
    that closed already may drop them); ``READ`` → bytes, ``b""`` once
    the server closed; ``NOW`` → the wire's clock."""
    parsers = {}

    def answer(conn: str):
        chunks = 0
        while True:
            message = parsers[conn].next_message()
            if message is not None:
                return message, chunks
            data = yield READ, conn, None
            if not data:
                return None, chunks
            chunks += 1
            parsers[conn].feed(data)

    bystander = row.keep_alive_timeout == LONG
    for conn in ("bystander", "row") if bystander else ("row",):
        parsers[conn] = ResponseParser()
        yield OPEN, conn, None
    for step in row.script:
        yield (SHUT, "row", None) if step == EOF else (WRITE, "row", step)
    answers, chunks, answered_at, closed = [], 0, None, False
    while row.closes or len(answers) < len(row.answers):
        response, read = yield from answer("row")
        chunks += read
        if response is None:
            closed = True
            break
        answers.append(response)
        answered_at = yield NOW, None, None
    idle = None
    if closed and answered_at is not None:
        idle = (yield NOW, None, None) - answered_at
    if not closed:
        yield WRITE, "row", req(b"more")
        response, _ = yield from answer("row")
        closed = response is None
        answers += [] if closed else [response]
    heard = None
    if bystander:
        yield WRITE, "bystander", req(b"bystander")
        response, _ = yield from answer("bystander")
        heard = response.body if response is not None else None
    return Seen(answers, closed, chunks, idle, heard)


def check(row: Row, seen: Seen, handler: Handler, wire: str) -> None:
    more = [] if row.closes else [b"more"]
    assert [a.body for a in seen.answers] == row.answers + more
    assert seen.closed == row.closes
    heard = [b for b in handler.handled if b != b"bystander"]
    assert heard == row.handled + more
    if row.said_close:
        assert seen.answers[-1].headers.get("Connection") == "close"
    else:
        assert all(a.headers.get("Connection") is None for a in seen.answers)
    if row.idle:
        assert 0.5 * row.keep_alive_timeout <= seen.idle < row.keep_alive_timeout + 0.5
    if row.writes is not None and wire == SIM:
        assert seen.chunks == row.writes
    if wire != SESSION and row.keep_alive_timeout == LONG:
        assert seen.bystander == b"bystander"


def drive(steps, perform):
    """Run the peer's steps through a blocking ``perform``."""
    try:
        effect = next(steps)
        while True:
            effect = steps.send(perform(*effect))
    except StopIteration as done:
        return done.value


# -- [session]: the session over a socket-free loop ---------------------------

class SessionConn:
    """A driver at its smallest: a write is fed and everything ready is
    answered at once; EOF, a parse error, a handler error or ``closing``
    close the connection, after what was answered."""

    def __init__(self, handler: Handler) -> None:
        self.handler = handler
        self.session = ServerSession()
        self.out = bytearray()
        self.closed = False

    def write(self, data: bytes) -> None:
        if self.closed:
            return
        try:
            self.session.feed(data)
            while (request := self.session.next_request()) is not None:
                self.out += self.session.answer(request, self.handler(request))
        except (HttpParseError, Boom, ConnectionResetError):
            self.closed = True
        self.closed = self.closed or self.session.closing

    def read(self) -> bytes:
        data, self.out = bytes(self.out), bytearray()
        assert data or self.closed, "the peer waits on a server with nothing to say"
        return data


@rows(SESSION)
def test_contract_session(row):
    handler = Handler(park=lambda make: make())
    conns: dict[str, SessionConn] = {}

    def perform(op, conn, arg):
        if op == OPEN:
            conns[conn] = SessionConn(handler)
        elif op == WRITE:
            conns[conn].write(arg)
        elif op == SHUT:
            conns[conn].closed = True  # everything ready was answered
        elif op == READ:
            return conns[conn].read()
        return 0.0

    check(row, drive(peer(row), perform), handler, SESSION)


# -- [rt]: HttpServer on the in-process transport -----------------------------

def blocking_park(make):
    time.sleep(PARK)
    return make()


@rows(RT)
def test_contract_rt(row, inproc):
    handler = Handler(park=blocking_park)
    server = HttpServer(
        inproc.listen("srv:80"), handler, workers=4,
        keep_alive_timeout=row.keep_alive_timeout, metrics=MetricsRegistry(),
    ).start()
    streams = {}

    def perform(op, conn, arg):
        if op == OPEN:
            streams[conn] = inproc.connect("srv:80", timeout=DEADLINE)
        elif op == WRITE:
            try:
                streams[conn].send(arg)
            except TransportError:
                pass  # the server closed both directions
        elif op == SHUT:
            streams[conn]._tx.close()  # our direction only
        elif op == READ:
            return streams[conn].recv(1 << 16, timeout=DEADLINE)
        return time.monotonic()

    try:
        seen = drive(peer(row), perform)
    finally:
        for stream in streams.values():
            stream.close()
        server.stop()
    check(row, seen, handler, RT)


# -- [aio]: AioHttpServer on loopback TCP --------------------------------------

def aio_park(make):
    async def parked():
        await asyncio.sleep(PARK)
        return make()
    return parked()


@rows(AIO)
def test_contract_aio(row):
    handler = Handler(park=aio_park)

    async def main() -> Seen:
        server = AioHttpServer(
            handler, keep_alive_timeout=row.keep_alive_timeout,
            metrics=MetricsRegistry(),
        )
        await server.start()
        loop = asyncio.get_running_loop()
        streams = {}

        async def perform(op, conn, arg):
            if op == OPEN:
                streams[conn] = await asyncio.open_connection(
                    server.endpoint.host, server.endpoint.port)
            elif op == WRITE:
                streams[conn][1].write(arg)
            elif op == SHUT:
                streams[conn][1].write_eof()
            elif op == READ:
                try:
                    reader = streams[conn][0]
                    return await asyncio.wait_for(reader.read(1 << 16), DEADLINE)
                except ConnectionResetError:
                    return b""
            return loop.time()

        steps = peer(row)
        try:
            effect = next(steps)
            while True:
                effect = steps.send(await perform(*effect))
        except StopIteration as done:
            return done.value
        finally:
            for _reader, writer in streams.values():
                writer.close()
            await server.stop()

    check(row, asyncio.run(main()), handler, AIO)


# -- [sim]: SimHttpServer on the simulated network ------------------------------

@rows(SIM)
def test_contract_sim(row, sim):
    net = Network(sim)
    link = AccessLink(5000, 5000, 0.005)
    here, there = net.add_host("client", link), net.add_host("server", link)

    def sim_park(make):
        yield sim.timeout(PARK)
        return make()

    handler = Handler(park=sim_park)
    SimHttpServer(net, there, 80, handler, keep_alive_timeout=row.keep_alive_timeout)
    conns = {}

    def perform(op, conn, arg):
        if op == OPEN:
            conns[conn] = yield from connect(net, here, "server", 80)
        elif op == WRITE:
            try:
                yield from conns[conn].send(arg)
            except ConnectionClosed:
                pass
        elif op == SHUT:
            # the simulated stack has no half-close: the server reads EOF,
            # and this end still reads what is sent to it
            conns[conn].peer.inbox.put(_EOF)
        elif op == READ:
            return (yield from conns[conn].recv(timeout=60.0))
        return sim.now

    def play():
        steps = peer(row)
        try:
            effect = next(steps)
            while True:
                effect = steps.send((yield from perform(*effect)))
        except StopIteration as done:
            return done.value

    check(row, sim.run(sim.process(play())), handler, SIM)


# -- the server half of the parser at any chunk boundary ---------------------

def chunked(body: bytes, size: int) -> bytes:
    pieces = [body[i:i + size] for i in range(0, len(body), size)]
    return b"".join(b"%x\r\n%s\r\n" % (len(p), p) for p in pieces) + b"0\r\n\r\n"


REQUESTS = st.lists(
    st.tuples(
        st.sampled_from(["GET", "POST", "PUT"]),
        st.binary(max_size=40),
        st.sampled_from(["length", "chunked", "close"]),
    ),
    min_size=1, max_size=5,
)


def stream_of(specs) -> bytes:
    out = []
    for method, body, framing in specs:
        head = f"{method} /r HTTP/1.1\r\nHost: test\r\n".encode()
        if framing == "chunked":
            out.append(head + b"Transfer-Encoding: chunked\r\n\r\n" + chunked(body, 7))
        else:
            close = b"Connection: close\r\n" if framing == "close" else b""
            out.append(head + close + b"Content-Length: %d\r\n\r\n" % len(body) + body)
    return b"".join(out)


def serve_in(pieces: "list[bytes]"):
    """Feed ``pieces`` one by one, answering whatever is ready after each."""
    session, seen, answers = ServerSession(), [], b""
    for piece in pieces:
        session.feed(piece)
        while (request := session.next_request()) is not None:
            seen.append((request.method, request.target, request.body))
            answers += session.answer(request, HttpResponse(200, body=request.body))
    return seen, answers, session.closing


@settings(max_examples=150)
@given(REQUESTS, st.lists(st.integers(min_value=0, max_value=2000), max_size=8))
def test_any_split_serves_what_one_feed_serves(specs, cuts):
    wire = stream_of(specs)
    bounds = sorted({c % (len(wire) + 1) for c in cuts})
    pieces = [wire[a:b] for a, b in zip([0, *bounds], [*bounds, len(wire)])]
    whole = serve_in([wire])
    assert serve_in(pieces) == whole
    # what was answered is each request up to and including the first close
    upto = next((i + 1 for i, s in enumerate(specs) if s[2] == "close"), len(specs))
    assert whole[0] == [(m, "/r", body) for m, body, _f in specs[:upto]]
    assert whole[2] == any(framing == "close" for _m, _b, framing in specs)
