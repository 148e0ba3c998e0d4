"""Client-side helper for WS-MsgBox (Fig. 2 choreography).

Wraps the RPC operations and provides the poll loop a firewalled client
runs: create a mailbox once, use its EPR as ``wsa:ReplyTo`` on outgoing
requests, then ``poll`` until the expected responses arrive.
"""

from __future__ import annotations

import base64

from repro.errors import MailboxError, SoapFaultError
from repro.msgbox.service import MSGBOX_NS, make_mailbox_epr
from repro.rt.client import HttpClient
from repro.soap import (
    Envelope,
    RpcRequest,
    build_rpc_request,
    parse_rpc_response,
)
from repro.util.clock import MonotonicClock
from repro.wsa import EndpointReference


class MsgBoxClient:
    """Talks RPC to a WS-MsgBox service endpoint."""

    def __init__(
        self,
        http: HttpClient,
        service_url: str,
    ) -> None:
        self.http = http
        self.service_url = service_url
        self.clock = MonotonicClock()
        self.mailbox_id: str | None = None
        self.owner_token: str | None = None

    # -- lifecycle ----------------------------------------------------------
    def create(self) -> str:
        """Create a mailbox; remembers id and owner token."""
        reply = self._call("create", [])
        mailbox_id = reply.result("mailboxId")
        if not mailbox_id:
            raise MailboxError("create returned no mailboxId")
        self.mailbox_id = mailbox_id
        self.owner_token = reply.result("ownerToken")
        return mailbox_id

    def destroy(self) -> None:
        self._call("destroy", self._auth_params())
        self.mailbox_id = None
        self.owner_token = None

    def epr(self) -> EndpointReference:
        """The EPR to advertise as ReplyTo (address + MailboxId property)."""
        if self.mailbox_id is None:
            raise MailboxError("create() a mailbox first")
        return make_mailbox_epr(self.service_url, self.mailbox_id)

    # -- message retrieval -------------------------------------------------
    def take(self, max_messages: int = 10, wait: float = 0.0) -> list[Envelope]:
        """Take up to ``max_messages``; ``wait > 0`` long-polls server-side."""
        params = self._auth_params() + [("maxMessages", str(max_messages))]
        if wait > 0:
            params.append(("waitSeconds", f"{wait:.3f}"))
        reply = self._call("take", params)
        out: list[Envelope] = []
        for name, value in reply.results:
            if name == "message":
                out.append(Envelope.from_bytes(base64.b64decode(value)))
        return out

    def poll(
        self,
        expected: int = 1,
        timeout: float = 5.0,
        interval: float = 0.05,
    ) -> list[Envelope]:
        """Poll until ``expected`` messages arrive or ``timeout`` elapses."""
        deadline = self.clock.now() + timeout
        received: list[Envelope] = []
        while len(received) < expected:
            received.extend(self.take(max_messages=expected - len(received)))
            if len(received) >= expected:
                break
            if self.clock.now() >= deadline:
                break
            self.clock.sleep(interval)
        return received

    # -- plumbing ----------------------------------------------------------
    def _auth_params(self) -> list[tuple[str, str]]:
        if self.mailbox_id is None:
            raise MailboxError("create() a mailbox first")
        params = [("mailboxId", self.mailbox_id)]
        if self.owner_token:
            params.append(("ownerToken", self.owner_token))
        return params

    def _call(self, op: str, params: list[tuple[str, str]]):
        envelope = build_rpc_request(RpcRequest(MSGBOX_NS, op, params))
        reply = self.http.call_soap(self.service_url, envelope)
        if reply is None:
            raise MailboxError(f"WS-MsgBox {op} returned no response")
        try:
            return parse_rpc_response(reply)
        except SoapFaultError as exc:
            raise MailboxError(f"WS-MsgBox {op} failed: {exc.reason}") from exc
