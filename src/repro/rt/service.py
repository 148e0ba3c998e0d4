"""SOAP service hosting: the bridge between HTTP and envelopes.

A :class:`SoapService` receives a parsed envelope and returns a reply
envelope (RPC style), or ``None`` for accepted one-way messages (the HTTP
layer then answers ``202 Accepted`` — the messaging pattern of the
MSG-Dispatcher).  :class:`SoapHttpApp` routes by URL path prefix, so one
server can host a dispatcher, a registry browser, and a mailbox service on
different paths exactly as the paper co-locates them.
"""

from __future__ import annotations

import inspect
import traceback
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Protocol

from repro.errors import OverloadedError, ReproError, SoapError, XmlError
from repro.http import Headers, HttpRequest, HttpResponse
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.soap import Envelope, Fault, fastpath_counter, parse_envelope
from repro.soap.constants import SoapVersion


@dataclass
class RequestContext:
    """Per-request information handed to services."""

    path: str
    http_request: HttpRequest | None = None
    #: transport-level peer identity, when the server knows it
    peer: str | None = None
    #: free-form slots services/middleware may use (e.g. SSO principal)
    attributes: dict[str, object] = field(default_factory=dict)


class SoapService(Protocol):
    """Anything that can process a SOAP envelope."""

    def handle(self, envelope: Envelope, ctx: RequestContext) -> Envelope | None:
        """Process one message; return the reply envelope or None (one-way)."""
        ...


class FunctionService:
    """Adapter turning a plain callable into a :class:`SoapService`."""

    def __init__(
        self, fn: Callable[[Envelope, RequestContext], Envelope | None]
    ) -> None:
        self._fn = fn

    def handle(self, envelope: Envelope, ctx: RequestContext) -> Envelope | None:
        return self._fn(envelope, ctx)


def soap_response(envelope: Envelope, status: int = 200) -> HttpResponse:
    """Wrap a reply envelope into an HTTP response."""
    body = envelope.to_bytes()
    headers = Headers()
    headers.set("Content-Type", envelope.version.content_type)
    return HttpResponse(status=status, headers=headers, body=body)


def soap_fault_response(
    fault: Fault,
    status: int = 500,
    version: SoapVersion = SoapVersion.V11,
) -> HttpResponse:
    """HTTP response carrying a SOAP fault envelope."""
    envelope = Envelope(fault.to_element(version), version=version)
    return soap_response(envelope, status=status)


def overloaded_response(
    text: str, retry_after: float, version: SoapVersion = SoapVersion.V11
) -> HttpResponse:
    """Admission control refused the request: the client should back off
    and retry, so the fault rides a 503 with ``Retry-After`` rather than a
    hard 500.  Every runtime's dispatcher answers a refusal with this."""
    response = soap_fault_response(Fault("Server", text), status=503, version=version)
    response.headers.set("Retry-After", f"{retry_after:g}")
    return response


class SoapHttpApp:
    """HTTP request handler that dispatches SOAP posts to mounted services.

    Mounting is by path prefix; the longest matching prefix wins.  ``GET``
    requests are delegated to optional page handlers (used by the registry's
    browsable Yellow-Pages listing).
    """

    def __init__(
        self,
        server_header: str = "repro-wsd/1.0",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Envelopes are parsed with the zero-copy scanner
        (:func:`repro.soap.parse_envelope`): headers become Elements,
        the Body stays an unparsed byte slice until a service actually
        reads it.  Outcomes are counted on the ``soap_fastpath_total``
        metric of ``metrics``."""
        self._services: list[tuple[str, SoapService]] = []
        self._pages: list[tuple[str, Callable[[HttpRequest], HttpResponse]]] = []
        self._raw: list[tuple[str, Callable[[HttpRequest], HttpResponse]]] = []
        #: objects with a ``hosted_on(app)`` method told of every mount
        #: though not mounted themselves (a simulated Host)
        self.watchers: list = []
        self._server_header = server_header
        registry = metrics if metrics is not None else default_registry()
        self._m_fastpath = fastpath_counter(registry)

    def mount(self, prefix: str, service: SoapService) -> None:
        """Mount ``service`` under ``prefix``.

        Every mounted service with a ``hosted_on(app)`` method (duck-typed;
        the MSG-Dispatcher has one) is then handed this app — on *every*
        :meth:`mount` and :meth:`mount_raw`, so a service learns of peers
        mounted before and after it.
        """
        if not prefix.startswith("/"):
            raise ValueError("mount prefix must start with '/'")
        self._services.append((prefix, service))
        self._services.sort(key=lambda item: len(item[0]), reverse=True)
        self._announce()

    def _announce(self) -> None:
        """Tell the mounted services — and the ``watchers``, which hear
        of it without being mounted — that the ``POST`` routing table
        changed."""
        for mounted in (*self.services(), *self.watchers):
            hook = getattr(mounted, "hosted_on", None)
            if hook is not None:
                hook(self)

    def mount_page(
        self, prefix: str, handler: Callable[[HttpRequest], HttpResponse]
    ) -> None:
        if not prefix.startswith("/"):
            raise ValueError("mount prefix must start with '/'")
        self._pages.append((prefix, handler))
        self._pages.sort(key=lambda item: len(item[0]), reverse=True)

    def mount_raw(
        self, prefix: str, handler: Callable[[HttpRequest], HttpResponse]
    ) -> None:
        """Mount a non-SOAP ``POST`` handler (e.g. the span-report
        endpoint): checked before SOAP service lookup, so operator-plane
        JSON traffic can share the server with envelope traffic."""
        if not prefix.startswith("/"):
            raise ValueError("mount prefix must start with '/'")
        self._raw.append((prefix, handler))
        self._raw.sort(key=lambda item: len(item[0]), reverse=True)
        self._announce()

    def _lookup(self, path: str) -> SoapService | None:
        for prefix, service in self._services:
            if path == prefix or path.startswith(prefix.rstrip("/") + "/") or (
                prefix.endswith("/") and path.startswith(prefix)
            ):
                return service
        return None

    def services(self) -> list[SoapService]:
        """The mounted SOAP services (longest prefix first)."""
        return [service for _, service in self._services]

    def owns_subtree(self, path: str, service: SoapService) -> bool:
        """True when a ``POST`` to *every* path starting with ``path``
        (which must end in ``/``) reaches ``service``: ``path`` resolves to
        it, nothing else is mounted beneath it, and no raw handler sits on
        or above or beneath it."""
        if not path.endswith("/") or self._lookup(path) is not service:
            return False
        if any(
            prefix.startswith(path) and other is not service
            for prefix, other in self._services
        ):
            return False
        return not any(
            prefix.startswith(path) or path.startswith(prefix.rstrip("/") + "/")
            for prefix, _ in self._raw
        )

    # -- HttpServer handler entry point ----------------------------------
    def handle_request(
        self, request: HttpRequest, peer: str | None = None
    ) -> "HttpResponse | Awaitable[HttpResponse]":
        """Route one request.  Always returns an :class:`HttpResponse` for
        sync services; returns an awaitable only when a mounted service
        itself returned one (async-aware servers must await it)."""
        path = request.target.split("?", 1)[0]
        if request.method == "GET":
            for prefix, handler in self._pages:
                if path == prefix or path.startswith(prefix.rstrip("/") + "/"):
                    return handler(request)
            return HttpResponse(status=404, body=b"not found")
        if request.method != "POST":
            return HttpResponse(status=405, body=b"SOAP endpoints accept POST")
        for prefix, handler in self._raw:
            if path == prefix or path.startswith(prefix.rstrip("/") + "/"):
                return handler(request)

        service = self._lookup(path)
        if service is None:
            return soap_fault_response(
                Fault("Client", f"no service mounted at {path}"), status=404
            )
        try:
            envelope = parse_envelope(request.body, counter=self._m_fastpath)
        except (XmlError, SoapError) as exc:
            return soap_fault_response(
                Fault("Client", f"malformed SOAP request: {exc}"), status=400
            )
        ctx = RequestContext(path=path, http_request=request, peer=peer)
        try:
            reply = service.handle(envelope, ctx)
        except Exception as exc:  # noqa: BLE001 - fault barrier at HTTP edge
            return self._fault_response(exc, envelope.version)
        if inspect.isawaitable(reply):
            # A mounted service chose the asyncio escape hatch: it returned
            # a coroutine instead of blocking (e.g. a long-poll take on the
            # event loop).  The sync contract is unchanged for every other
            # caller; only an async-aware server (AioHttpServer) will see —
            # and must await — a coroutine here, with the same fault
            # barrier applied to the awaited result.
            return self._finish_async(reply, envelope.version)
        return self._reply_response(reply, envelope.version)

    def _fault_response(
        self, exc: BaseException, version: SoapVersion
    ) -> HttpResponse:
        """The service fault barrier, shared by sync and async paths."""
        if isinstance(exc, OverloadedError):
            return overloaded_response(str(exc), exc.retry_after, version)
        if isinstance(exc, ReproError):
            return soap_fault_response(
                Fault("Server", str(exc)), status=500, version=version
            )
        detail = traceback.format_exc(limit=5)
        return soap_fault_response(
            Fault("Server", f"internal error: {exc}", detail=detail),
            status=500,
            version=version,
        )

    def _reply_response(
        self,
        reply: "Envelope | None",
        version: SoapVersion,
    ) -> HttpResponse:
        if reply is None:
            return HttpResponse(status=202)
        status = 500 if reply.is_fault() else 200
        return soap_response(reply, status=status)

    async def _finish_async(
        self,
        pending: "object",
        version: SoapVersion,
    ) -> HttpResponse:
        try:
            reply = await pending  # type: ignore[misc]
        except Exception as exc:  # noqa: BLE001 - same barrier as the sync path
            return self._fault_response(exc, version)
        return self._reply_response(reply, version)
