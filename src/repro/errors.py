"""Shared exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.  The
hierarchy mirrors the subsystem layout: XML/SOAP/addressing parse errors,
HTTP wire errors, transport errors, simulation errors, and the
dispatcher-level routing/registry errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


# ---------------------------------------------------------------------------
# Message-format layer
# ---------------------------------------------------------------------------

class XmlError(ReproError):
    """Malformed XML or an illegal operation on an XML tree."""


class XmlParseError(XmlError):
    """Raised by the XML parser; carries the byte/char offset of the fault."""

    def __init__(self, message: str, pos: int = -1, line: int = -1) -> None:
        suffix = ""
        if line >= 0:
            suffix = f" (line {line})"
        elif pos >= 0:
            suffix = f" (offset {pos})"
        super().__init__(message + suffix)
        self.pos = pos
        self.line = line


class SoapError(ReproError):
    """A SOAP envelope could not be built or understood."""


class FastPathUnsupported(ReproError):
    """The zero-copy envelope scanner bailed out; fall back to the full parse.

    Deliberately *not* a subclass of :class:`XmlError` or :class:`SoapError`:
    it does not mean the document is invalid, only that the fast path cannot
    prove it safe to splice — ``except (XmlError, SoapError)`` handlers that
    turn parse failures into HTTP 400s must never swallow it.  ``reason`` is
    a short stable label used as the ``outcome`` of the
    ``soap_fastpath_total`` counter.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        message = f"fast path unsupported: {reason}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.reason = reason
        self.detail = detail


class SoapFaultError(SoapError):
    """A SOAP Fault was received; carries the parsed fault."""

    def __init__(self, code: str, reason: str, detail: str | None = None) -> None:
        super().__init__(f"SOAP fault {code}: {reason}")
        self.code = code
        self.reason = reason
        self.detail = detail


class AddressingError(SoapError):
    """WS-Addressing headers are missing, duplicated, or invalid."""


class BadParameter(SoapError):
    """An RPC parameter is present but its value is malformed: the
    service answers a 400 ``Client`` fault naming the parameter."""


# ---------------------------------------------------------------------------
# Wire / transport layer
# ---------------------------------------------------------------------------

class HttpError(ReproError):
    """HTTP message violates the wire protocol."""


class HttpParseError(HttpError):
    """Bytes on the wire do not form a valid HTTP message."""


class TransportError(ReproError):
    """A byte-stream transport failed (reset, refused, closed)."""


class ConnectionRefused(TransportError):
    """No listener at the destination, or the firewall rejected the SYN."""


class ConnectionTimeout(TransportError):
    """Connect or read deadline expired."""


class ConnectionClosed(TransportError):
    """Peer closed the stream mid-message."""


class ConnectionLimitExceeded(TransportError):
    """The host's connection table (or listen backlog) is full."""


# ---------------------------------------------------------------------------
# Simulation layer
# ---------------------------------------------------------------------------

class SimulationError(ReproError):
    """Internal inconsistency in the discrete-event kernel."""


class SimInterrupt(ReproError):
    """A simulated process was interrupted; carries the interrupt cause."""

    def __init__(self, cause: object = None) -> None:
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


# ---------------------------------------------------------------------------
# Dispatcher / service layer
# ---------------------------------------------------------------------------

class RegistryError(ReproError):
    """Registry lookup or mutation failed."""


class UnknownServiceError(RegistryError):
    """Logical address has no registered physical binding."""

    def __init__(self, logical: str) -> None:
        super().__init__(f"no service registered for logical address {logical!r}")
        self.logical = logical


class RoutingError(ReproError):
    """The dispatcher cannot decide where to forward a message."""


class MailboxError(ReproError):
    """WS-MsgBox operation failed."""


class MailboxNotFound(MailboxError):
    """The mailbox address does not exist (or was destroyed)."""


class MailboxQuotaExceeded(MailboxError):
    """The mailbox is full; deposit rejected."""


class MailboxAuthError(MailboxError):
    """Owner-token check failed for a protected mailbox operation."""


class AuthError(ReproError):
    """Single-sign-on authentication or authorization rejected the call."""


class DeliveryExpired(ReproError):
    """A held message exceeded its expiration before delivery succeeded."""


class RegistryUnavailable(RegistryError):
    """The registry is administratively down (fault injection / outage)."""


class OverloadedError(ReproError):
    """The dispatcher's accept queue is full: the client hears a 503 with
    ``Retry-After``."""


class JournalError(ReproError):
    """The durable message journal rejected an operation or is unusable."""
