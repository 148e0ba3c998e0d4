"""Connection-level TCP model: handshake, transfer, timeouts, limits.

Granularity: connections carry discrete byte segments (each ``send`` is
one application write delivered whole).  What is modelled, because the
paper's results hinge on it:

- **Handshake** — one full RTT of propagation plus serialization of a
  64-byte SYN and SYN-ACK through the shared access-link pipes, bounded by
  a connect timeout (a 2005 BSD-ish stack gives up after ~21 s of SYN
  retries).  Under uplink congestion the SYN queues behind data, so
  connect times degrade exactly when the paper loses packets.
- **Firewalls** — an inbound SYN to a protected host is silently dropped;
  the connector burns the whole connect timeout (Figure 6's "response
  blocked" case).
- **Connection tables** — per-host caps on concurrent connections; the
  connector gets an immediate local failure when its own table is full,
  and a drop (→ timeout) when the server's is.
- **Data transfer** — serialization through sender-up and receiver-down
  pipes plus propagation, sharing bandwidth with every other flow.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    ConnectionClosed,
    ConnectionLimitExceeded,
    ConnectionRefused,
    ConnectionTimeout,
)
from repro.simnet.kernel import Simulator
from repro.simnet.resources import Store
from repro.simnet.topology import Host, Network

_SYN_BYTES = 64
_EOF = object()


@dataclass
class TcpParams:
    """Connection behaviour knobs."""

    connect_timeout: float = 21.0
    #: overhead bytes added to each segment (TCP/IP headers)
    segment_overhead: int = 40
    #: listener accept-queue depth
    backlog: int = 128


class SimListener:
    """A listening port on a host."""

    def __init__(self, sim: Simulator, host: Host, port: int, backlog: int) -> None:
        self.sim = sim
        self.host = host
        self.port = port
        self.backlog_store: Store = Store(sim, capacity=backlog)
        self.closed = False
        host.listeners[port] = self

    def accept(self):
        """Event yielding the next established server-side connection."""
        return self.backlog_store.get()

    def close(self) -> None:
        self.closed = True
        self.host.listeners.pop(self.port, None)


class SimTcpConnection:
    """One endpoint of an established connection."""

    def __init__(
        self,
        net: Network,
        local: Host,
        remote: Host,
        params: TcpParams,
        counts_on_local: bool = True,
    ) -> None:
        self.net = net
        self.sim = net.sim
        self.local = local
        self.remote = remote
        self.params = params
        self.inbox: Store = Store(self.sim)
        self.peer: "SimTcpConnection | None" = None
        self.closed = False
        self._counts_on_local = counts_on_local
        self.bytes_sent = 0
        # A reboot loses TCP state: connections pin the host epochs they
        # were established under and are dead once either host crashes,
        # even after it recovers.
        self._local_epoch = local.epoch
        self._remote_epoch = remote.epoch

    def _stale(self) -> bool:
        return (
            self.local.epoch != self._local_epoch
            or self.remote.epoch != self._remote_epoch
        )

    @property
    def broken(self) -> bool:
        """Connection unusable: closed, or a host crashed since setup."""
        return (
            self.closed
            or self._stale()
            or self.local.failed
            or self.remote.failed
        )

    # -- data path -----------------------------------------------------------
    def send(self, data: bytes):
        """Process step: deliver ``data`` into the peer's inbox.

        Usage: ``yield from conn.send(payload)``.  Completion means the
        last byte reached the peer (sender-paced model; no separate ACK
        clocking).  Raises ConnectionClosed if either side closed first
        or if either host has crashed.
        """
        if self.closed or self.peer is None:
            raise ConnectionClosed("send on closed connection")
        if self.local.failed or self.remote.failed or self._stale():
            raise ConnectionClosed(
                f"connection {self.local.name}->{self.remote.name} broken "
                "(host down)"
            )
        size = len(data) + self.params.segment_overhead
        yield self.net.transfer(self.local, self.remote, size)
        if self.closed or self.peer is None or self.peer.closed:
            raise ConnectionClosed("peer closed during send")
        if self.remote.failed or self._stale():
            raise ConnectionClosed(f"{self.remote.name} went down during send")
        self.bytes_sent += len(data)
        self.peer.inbox.try_put(data)

    def recv(self, timeout: float | None = None):
        """Process step: next segment, b"" on EOF.

        Usage: ``data = yield from conn.recv(timeout)``.  Raises
        ConnectionTimeout when ``timeout`` elapses first.
        """
        if self._stale() and not self.remote.failed:
            # The peer rebooted: its fresh stack knows nothing of this
            # connection and RSTs our next segment.  While it is still
            # down there is no RST — the reader just waits out its
            # timeout, exactly like the real silent-crash case.
            raise ConnectionClosed(
                f"{self.remote.name} restarted; connection lost"
            )
        get = self.inbox.get()
        if timeout is not None:
            def expire(_event) -> None:
                if not get.triggered:
                    get.cancel()
                    get.fail(ConnectionTimeout(
                        f"recv timed out after {timeout}s on {self.local.name}"
                    ))
            self.sim.timeout(timeout).callbacks.append(expire)
        item = yield get
        if item is _EOF:
            self.inbox.try_put(_EOF)  # keep EOF visible for subsequent reads
            return b""
        return item

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._counts_on_local:
            self.local.release_connection()
        peer = self.peer
        if peer is not None and not peer.closed:
            peer.inbox.try_put(_EOF)


def listen(sim: Simulator, host: Host, port: int, params: TcpParams | None = None) -> SimListener:
    """Open a listening port on a host."""
    params = params or TcpParams()
    return SimListener(sim, host, port, params.backlog)


def connect(
    net: Network,
    client: Host,
    server_name: str,
    port: int,
    params: TcpParams | None = None,
):
    """Process step establishing a connection; yields the client endpoint.

    Usage: ``conn = yield from connect(net, client, "server", 80)``.

    Raises ConnectionLimitExceeded / ConnectionRefused / ConnectionTimeout
    per the failure taxonomy in the module docstring.
    """
    sim = net.sim
    params = params or TcpParams()
    server = net.host(server_name)

    if not client.try_acquire_connection():
        raise ConnectionLimitExceeded(
            f"{client.name}: local connection table full "
            f"({client.max_connections})"
        )
    client_owns_slot = True
    server_owns_slot = False
    try:
        # SYN travels to the server through the shared pipes.
        deadline = sim.now + params.connect_timeout
        yield net.transfer(client, server, _SYN_BYTES)

        if server.failed:
            # a dead host answers nothing: the connector times out
            yield sim.timeout(max(0.0, deadline - sim.now))
            raise ConnectionTimeout(
                f"connect {client.name}->{server.name}:{port} timed out "
                "(host down)"
            )
        if not server.firewall.admits_inbound(client.name, port):
            # silent drop: connector waits out the rest of its timeout
            yield sim.timeout(max(0.0, deadline - sim.now))
            raise ConnectionTimeout(
                f"connect {client.name}->{server.name}:{port} timed out "
                "(firewall drop)"
            )

        listener = server.listeners.get(port)
        if listener is None or getattr(listener, "closed", False):
            # active refusal: RST comes back one propagation later
            yield sim.timeout(net.propagation(server, client))
            raise ConnectionRefused(f"nothing listening at {server.name}:{port}")

        if not server.try_acquire_connection():
            # server table full: SYN dropped, connector times out
            yield sim.timeout(max(0.0, deadline - sim.now))
            raise ConnectionTimeout(
                f"connect {client.name}->{server.name}:{port} timed out "
                "(server connection table full)"
            )
        server_owns_slot = True

        # SYN-ACK back through the pipes; if it arrives past the budget
        # the client has already given up.
        yield net.transfer(server, client, _SYN_BYTES)
        if sim.now > deadline:
            raise ConnectionTimeout(
                f"connect {client.name}->{server.name}:{port} timed out "
                "(SYN-ACK too slow)"
            )

        client_side = SimTcpConnection(net, client, server, params)
        server_side = SimTcpConnection(net, server, client, params)
        client_side.peer = server_side
        server_side.peer = client_side

        if not listener.backlog_store.try_put(server_side):
            raise ConnectionTimeout(f"{server.name}:{port} backlog overflow")

        # the connection objects now own the table slots (released on close)
        client_owns_slot = False
        server_owns_slot = False
        return client_side
    finally:
        if server_owns_slot:
            server.release_connection()
        if client_owns_slot:
            client.release_connection()
