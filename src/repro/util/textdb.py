"""Text-file backed key/value map — the registry's persistence format.

The paper: "RPC-Dispatcher contains a simple registry service that uses
text files for mapping logical address with physical address."  The format
here is one mapping per line, ``logical <TAB> physical [<TAB> k=v ...]``,
with ``#`` comments.  Writes rewrite the whole file atomically (tmp file +
rename) so a crashed dispatcher never leaves a half-written registry.
"""

from __future__ import annotations

import os
import tempfile
import threading
from pathlib import Path


class TextFileMap:
    """A dict-like map persisted to a simple tab-separated text file.

    Values are ``(primary, attrs)`` where ``primary`` is a string and
    ``attrs`` a flat ``dict[str, str]``.  All operations are thread-safe.
    """

    def __init__(self, path: str | os.PathLike[str] | None = None) -> None:
        self._path = Path(path) if path is not None else None
        self._lock = threading.RLock()
        self._data: dict[str, tuple[str, dict[str, str]]] = {}
        if self._path is not None and self._path.exists():
            self._load()

    # -- file format -------------------------------------------------------
    @staticmethod
    def _format_line(key: str, primary: str, attrs: dict[str, str]) -> str:
        for field in (key, primary):
            if "\t" in field or "\n" in field:
                raise ValueError("keys/values may not contain tabs or newlines")
        parts = [key, primary]
        for k, v in sorted(attrs.items()):
            if any(c in k or c in v for c in "\t\n="):
                raise ValueError("attrs may not contain tabs, newlines, or '='")
            parts.append(f"{k}={v}")
        return "\t".join(parts)

    def _load(self) -> None:
        assert self._path is not None
        data: dict[str, tuple[str, dict[str, str]]] = {}
        for raw in self._path.read_text(encoding="utf-8").splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ValueError(f"malformed registry line: {raw!r}")
            key, primary, *rest = parts
            attrs: dict[str, str] = {}
            for item in rest:
                k, sep, v = item.partition("=")
                if not sep:
                    raise ValueError(f"malformed attribute {item!r} in {raw!r}")
                attrs[k] = v
            data[key] = (primary, attrs)
        self._data = data

    def _flush(self) -> None:
        if self._path is None:
            return
        lines = ["# repro service registry — logical\tphysical\tattr=value..."]
        for key in sorted(self._data):
            primary, attrs = self._data[key]
            lines.append(self._format_line(key, primary, attrs))
        body = "\n".join(lines) + "\n"
        fd, tmp = tempfile.mkstemp(
            dir=str(self._path.parent), prefix=self._path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(body)
            os.replace(tmp, self._path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- map operations ------------------------------------------------------
    def put(self, key: str, primary: str, attrs: dict[str, str] | None = None) -> None:
        attrs = dict(attrs or {})
        # validate eagerly even for in-memory maps, so adding persistence
        # later can never hit unserializable entries
        self._format_line(key, primary, attrs)
        with self._lock:
            self._data[key] = (primary, attrs)
            self._flush()

    def remove(self, key: str) -> bool:
        with self._lock:
            if key in self._data:
                del self._data[key]
                self._flush()
                return True
            return False

    def items(self) -> list[tuple[str, str, dict[str, str]]]:
        with self._lock:
            return [
                (k, primary, dict(attrs))
                for k, (primary, attrs) in sorted(self._data.items())
            ]
