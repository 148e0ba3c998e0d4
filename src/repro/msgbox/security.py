"""Mailbox owner tokens (paper future work §4.4).

"We also plan to add security to WS-MsgBox: currently the message box has
unique hard to guess address but that is the only protection."

Scheme: on create, the service mints an owner token = HMAC-SHA256 of the
mailbox id under a service-private secret.  ``take``/``destroy`` (the
operations that affect the owner) must present the token; ``deposit``
stays open, since anyone may send you mail — the unguessable id already
gates deposits.  Tokens are stateless: verification recomputes the HMAC,
so the store needs no extra per-mailbox state.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.errors import MailboxAuthError


class MailboxSecurity:
    """Stateless owner-token mint/verify for mailbox operations."""

    def __init__(self, secret: bytes) -> None:
        if not secret:
            raise ValueError("secret must be non-empty")
        self._secret = secret

    def mint(self, mailbox_id: str) -> str:
        return hmac.new(
            self._secret, mailbox_id.encode(), hashlib.sha256
        ).hexdigest()

    def check(self, mailbox_id: str, token: str | None) -> None:
        """Raise :class:`~repro.errors.MailboxAuthError` on a bad token.
        (A service without a :class:`MailboxSecurity` checks nothing: the
        paper's original posture.)"""
        if not token:
            raise MailboxAuthError("owner token required")
        if not hmac.compare_digest(self.mint(mailbox_id), token):
            raise MailboxAuthError("owner token invalid")
