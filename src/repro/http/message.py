"""HTTP message model: case-insensitive headers, requests, responses."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import HttpError

#: what may not appear in a field name: SP, HT, CR, LF and the colon
_NOT_IN_A_NAME = re.compile(r"[ \t\r\n:]").search


class Headers:
    """Ordered, case-insensitive multi-map of HTTP header fields.

    Field names are stored with the casing of first insertion; lookups are
    case-insensitive.  Multiple fields with the same name are preserved in
    order (needed for e.g. Via chains a forwarding proxy appends to).
    """

    __slots__ = ("_items", "_index")

    def __init__(self, items: list[tuple[str, str]] | None = None) -> None:
        self._items: list[tuple[str, str]] = []
        #: lower-cased name -> the values of the fields so called, in order
        #: (repro.http.wire reads both lists and builds them for a parsed head)
        self._index: dict[str, list[str]] = {}
        for name, value in items or []:
            self.add(name, value)

    @staticmethod
    def _check(name: str, value: str) -> None:
        if not name or _NOT_IN_A_NAME(name):
            raise HttpError(f"invalid header name {name!r}")
        if "\r" in value or "\n" in value:
            raise HttpError("header value may not contain CR/LF")

    def add(self, name: str, value: str) -> None:
        self._check(name, value)
        self._items.append((name, value))
        self._index.setdefault(name.lower(), []).append(value)

    def set(self, name: str, value: str) -> None:
        """Replace all fields called ``name`` with a single one."""
        self._check(name, value)
        lowered = name.lower()
        if lowered in self._index:
            self._items = [(n, v) for n, v in self._items if n.lower() != lowered]
        self._items.append((name, value))
        self._index[lowered] = [value]

    def get(self, name: str, default: str | None = None) -> str | None:
        values = self._index.get(name.lower())
        return values[0] if values else default

    def get_all(self, name: str) -> list[str]:
        return list(self._index.get(name.lower(), ()))

    def remove(self, name: str) -> None:
        lowered = name.lower()
        if self._index.pop(lowered, None) is not None:
            self._items = [(n, v) for n, v in self._items if n.lower() != lowered]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._index

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._items)

    def copy(self) -> "Headers":
        return Headers(list(self._items))


def _token_in_list(header_value: str, token: str) -> bool:
    return token in [part.strip().lower() for part in header_value.split(",")]


@dataclass
class HttpRequest:
    """An HTTP request with a fully-buffered body."""

    method: str
    target: str
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def __post_init__(self) -> None:
        if not self.method or not self.method.isupper():
            raise HttpError(f"invalid method {self.method!r}")
        if not self.target or " " in self.target:
            raise HttpError(f"invalid request target {self.target!r}")

    @property
    def keep_alive(self) -> bool:
        conn = self.headers.get("Connection")
        if self.version == "HTTP/1.0":
            return conn is not None and _token_in_list(conn, "keep-alive")
        return conn is None or not _token_in_list(conn, "close")


@dataclass
class HttpResponse:
    """An HTTP response with a fully-buffered body."""

    status: int
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    version: str = "HTTP/1.1"
    reason: str | None = None

    def __post_init__(self) -> None:
        if not 100 <= self.status <= 599:
            raise HttpError(f"invalid status code {self.status}")

    @property
    def keep_alive(self) -> bool:
        conn = self.headers.get("Connection")
        if self.version == "HTTP/1.0":
            return conn is not None and _token_in_list(conn, "keep-alive")
        return conn is None or not _token_in_list(conn, "close")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300
