"""Real TCP transport over :mod:`socket` (loopback for examples/tests)."""

from __future__ import annotations

import socket

from repro.errors import (
    ConnectionClosed,
    ConnectionRefused,
    ConnectionTimeout,
    TransportError,
)
from repro.transport.base import Endpoint


def reuse_port_supported() -> bool:
    """Probe whether this platform can bind SO_REUSEPORT sockets.

    Linux ≥3.9 and the BSDs have it; some kernels expose the constant
    but refuse the setsockopt, so we try it on a throwaway socket.
    """
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False
    finally:
        probe.close()


class TcpStream:
    """Stream adapter over a connected socket.

    Nagle's algorithm is always disabled.  The protocol writes one
    fully serialized HTTP message (or a whole pipelined burst) per
    ``send``, so coalescing never helps — it only adds a delayed-ACK
    round trip to every small exchange.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (e.g. AF_UNIX): nothing to disable

    def send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise ConnectionClosed(str(exc)) from exc
        except OSError as exc:
            raise TransportError(str(exc)) from exc

    def recv(self, max_bytes: int, timeout: float | None = None) -> bytes:
        try:
            self._sock.settimeout(timeout)
            return self._sock.recv(max_bytes)
        except socket.timeout:
            raise ConnectionTimeout("recv timed out") from None
        except ConnectionResetError:
            return b""  # treat reset as EOF; the HTTP layer detects truncation
        except OSError as exc:
            raise TransportError(str(exc)) from exc

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class TcpListener:
    """Bound listening socket.

    ``reuse_port=True`` binds with SO_REUSEPORT so several processes can
    listen on one port and let the kernel spread accepted connections
    across them (the shard supervisor's data plane).  Platforms without
    SO_REUSEPORT raise :class:`TransportError` — callers probe first via
    :func:`reuse_port_supported`.
    """

    def __init__(
        self,
        endpoint: Endpoint | str,
        backlog: int = 128,
        reuse_port: bool = False,
    ) -> None:
        if isinstance(endpoint, str):
            endpoint = Endpoint.parse(endpoint)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                self._sock.close()
                raise TransportError(
                    "SO_REUSEPORT is not supported on this platform"
                )
            try:
                self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            except OSError as exc:
                self._sock.close()
                raise TransportError(
                    f"SO_REUSEPORT refused by kernel: {exc}"
                ) from exc
        try:
            self._sock.bind((endpoint.host, endpoint.port))
            self._sock.listen(backlog)
        except OSError as exc:
            self._sock.close()
            raise TransportError(f"cannot bind {endpoint}: {exc}") from exc
        host, port = self._sock.getsockname()[:2]
        self._endpoint = Endpoint(endpoint.host or host, port)

    @property
    def endpoint(self) -> Endpoint:
        return self._endpoint

    def accept(self, timeout: float | None = None) -> TcpStream:
        try:
            self._sock.settimeout(timeout)
            conn, _addr = self._sock.accept()
            return TcpStream(conn)
        except socket.timeout:
            raise ConnectionTimeout("accept timed out") from None
        except OSError as exc:
            raise TransportError(str(exc)) from exc

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class TcpConnector:
    """Outbound TCP connection factory."""

    def connect(self, endpoint: Endpoint | str, timeout: float | None = None) -> TcpStream:
        if isinstance(endpoint, str):
            endpoint = Endpoint.parse(endpoint)
        try:
            sock = socket.create_connection(
                (endpoint.host, endpoint.port), timeout=timeout
            )
            sock.settimeout(None)
            return TcpStream(sock)
        except socket.timeout:
            raise ConnectionTimeout(f"connect to {endpoint} timed out") from None
        except ConnectionRefusedError as exc:
            raise ConnectionRefused(f"connect to {endpoint}: {exc}") from exc
        except OSError as exc:
            raise TransportError(f"connect to {endpoint}: {exc}") from exc
