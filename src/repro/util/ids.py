"""Identifier generation for messages, mailboxes, and connections.

WS-Addressing requires globally-unique ``MessageID`` URIs.  The paper's
WS-MsgBox relies on "unique hard to guess" mailbox addresses as its only
protection, so mailbox ids must be unpredictable; message ids only need
uniqueness.  For reproducible simulation runs every generator can be
seeded.
"""

from __future__ import annotations

import random
import threading
import uuid


def new_uuid() -> str:
    """Return a random RFC-4122 UUID string (process-global entropy)."""
    return str(uuid.uuid4())


def new_message_id() -> str:
    """Return a WS-Addressing MessageID URI (``uuid:`` scheme, as XSUL did)."""
    return f"uuid:{new_uuid()}"


class IdGenerator:
    """Deterministic, thread-safe id factory.

    A seeded :class:`IdGenerator` yields the same sequence of ids on every
    run, which keeps simulation transcripts and test expectations stable.
    Ids combine a namespace, a random 64-bit tag, and a sequence number so
    that two generators with different seeds never collide in practice.
    """

    def __init__(self, namespace: str = "id", seed: int | None = None) -> None:
        self._namespace = namespace
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._counter = 0

    def next(self) -> str:
        """Return the next id, e.g. ``uuid:msg-1f3a...-17``."""
        with self._lock:
            self._counter += 1
            tag = self._rng.getrandbits(64)
            return f"uuid:{self._namespace}-{tag:016x}-{self._counter}"

    def next_token(self, bits: int = 128) -> str:
        """Return an unguessable hex token (mailbox addresses, SSO tokens)."""
        if bits <= 0:
            raise ValueError("token size must be positive")
        with self._lock:
            return f"{self._rng.getrandbits(bits):0{(bits + 3) // 4}x}"

    def __iter__(self) -> "IdGenerator":
        return self

    def __next__(self) -> str:
        return self.next()
