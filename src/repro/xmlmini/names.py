"""Qualified names and namespace utilities for the mini XML infoset."""

from __future__ import annotations

import re

from repro.errors import XmlError

XMLNS_NS = "http://www.w3.org/2000/xmlns/"
XML_NS = "http://www.w3.org/XML/1998/namespace"

# An ASCII letter or "_", then ASCII letters, digits, "." "-" "_"; beyond ASCII,
# what ``\w`` takes, which _beyond_ascii_ok narrows.
_NC = r"[^\W\d][\w.\-]*"
_NCNAME = re.compile(_NC).fullmatch
_QNAME = re.compile(rf"(?:({_NC}):)?({_NC})").fullmatch


def _beyond_ascii_ok(name: str) -> bool:
    # the pattern's word class also takes the ~1,000 code points that are
    # numeric without being letters or digits (fractions, letter numbers)
    first = name[0]
    return (first.isascii() or first.isalpha()) and all(
        c.isascii() or c.isalpha() or c.isdigit() for c in name
    )


def is_ncname(name: str) -> bool:
    """True when ``name`` is a valid no-colon XML name (ASCII subset).

    SOAP element names are all ASCII; we accept non-ASCII letters too since
    Python's ``str.isalpha`` covers the XML letter classes closely enough
    for the documents this library produces and consumes.
    """
    return _NCNAME(name) is not None and (name.isascii() or _beyond_ascii_ok(name))


def split_prefixed(name: str) -> tuple[str | None, str]:
    """Split ``prefix:local`` into (prefix, local); prefix None if absent."""
    prefix, sep, local = name.partition(":")
    if not sep:
        return None, name
    if not prefix or not local or ":" in local:
        raise XmlError(f"malformed qualified name {name!r}")
    return prefix, local


def split_name(raw: str) -> tuple[str | None, str]:
    """The (prefix or None, local) parts of the tag or attribute name
    ``raw`` (``local`` or ``prefix:local``), both valid NCNames.  Raises
    :class:`XmlError` for a malformed or invalid name.  The answer depends
    on the spelling alone, so a caller may keep it (the parser does).
    """
    name = _QNAME(raw)
    if name is None or not (raw.isascii() or all(map(_beyond_ascii_ok, raw.split(":")))):
        try:
            split_prefixed(raw)
        except XmlError:
            raise XmlError(f"malformed name {raw!r}") from None
        raise XmlError(f"invalid name {raw!r}")
    return name.groups()


class QName:
    """An expanded XML name: (namespace URI or None, local part).

    Hashable and comparable so it can key header-lookup dicts.
    """

    __slots__ = ("ns", "local")

    def __init__(self, ns: str | None, local: str) -> None:
        if not is_ncname(local):
            raise XmlError(f"invalid local name {local!r}")
        if ns is not None and not ns:
            raise XmlError("namespace URI must be None or non-empty")
        self.ns = ns
        self.local = local

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QName):
            return self.ns == other.ns and self.local == other.local
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ns, self.local))

    def __repr__(self) -> str:
        return f"QName({self.ns!r}, {self.local!r})"

    def clark(self) -> str:
        """Clark notation ``{ns}local`` (or bare local when unnamespaced)."""
        return f"{{{self.ns}}}{self.local}" if self.ns else self.local

    @classmethod
    def from_clark(cls, text: str) -> "QName":
        """Parse Clark notation produced by :meth:`clark`."""
        if text.startswith("{"):
            ns, sep, local = text[1:].partition("}")
            if not sep:
                raise XmlError(f"malformed Clark name {text!r}")
            return cls(ns or None, local)
        return cls(None, text)
