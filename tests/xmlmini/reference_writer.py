"""The two-pass writer ``repro.xmlmini.writer`` had before it became one
pass, kept unchanged as the reference ``test_writer_differential.py``
checks it against (same string, same exception, for every tree).  Not a
test module and not imported by ``src/``.

Namespace handling: prefixes are assigned document-globally in first-use
order (honouring preferred prefixes such as ``soapenv`` or ``wsa``), and an
``xmlns:p`` declaration is emitted on any element that uses a prefix not
already declared by an ancestor.  Output is deterministic — attributes are
written in insertion order — so byte-level golden tests are stable.
"""

from __future__ import annotations

from repro.errors import XmlError
from repro.xmlmini.names import XML_NS, XMLNS_NS
from repro.xmlmini.node import Element

#: Conventional prefixes used when these namespaces appear in a document.
PREFERRED_PREFIXES: dict[str, str] = {
    "http://schemas.xmlsoap.org/soap/envelope/": "soapenv",
    "http://www.w3.org/2003/05/soap-envelope": "soapenv",
    "http://schemas.xmlsoap.org/ws/2004/08/addressing": "wsa",
    "http://www.w3.org/2005/08/addressing": "wsa",
    XML_NS: "xml",
}


def escape_text(text: str) -> str:
    """Escape character data (``&``, ``<``, ``>``)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attr(text: str) -> str:
    """Escape attribute values (quotes, angle brackets, newlines/tabs)."""
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
        .replace("\r", "&#13;")
    )


class _PrefixAllocator:
    """Document-global namespace→prefix assignment."""

    def __init__(self) -> None:
        self.by_ns: dict[str, str] = {XML_NS: "xml"}
        self.used: set[str] = {"xml", "xmlns"}
        self._auto = 0

    def prefix_for(self, ns: str) -> str:
        if ns in self.by_ns:
            return self.by_ns[ns]
        want = PREFERRED_PREFIXES.get(ns)
        if want is None or want in self.used:
            while True:
                candidate = f"n{self._auto}"
                self._auto += 1
                if candidate not in self.used:
                    want = candidate
                    break
        self.by_ns[ns] = want
        self.used.add(want)
        return want


def _collect_namespaces(root: Element, alloc: _PrefixAllocator) -> list[str]:
    """Pre-walk the tree allocating prefixes in first-use document order.

    Returns the namespaces in allocation order so they can all be declared
    on the root element (the compact style typical of SOAP toolkits).
    """
    ordered: list[str] = []
    stack = [root]
    while stack:
        el = stack.pop()
        names = [el.name, *el.attrs.keys()]
        for q in names:
            if q.ns and q.ns not in (XML_NS, XMLNS_NS):
                if q.ns not in alloc.by_ns:
                    ordered.append(q.ns)
                alloc.prefix_for(q.ns)
        stack.extend(
            c for c in reversed(el.children) if isinstance(c, Element)
        )
    return ordered


def serialize(root: Element, xml_decl: bool = False) -> str:
    """Serialize an element tree to a string.

    Elements without a namespace are written unprefixed; the default
    namespace declaration is never used, so unnamespaced and namespaced
    elements can mix freely (SOAP bodies very often contain both).  Every
    namespace used anywhere in the tree is declared once, on the root.
    """
    alloc = _PrefixAllocator()
    hoisted = _collect_namespaces(root, alloc)
    parts: list[str] = []
    if xml_decl:
        parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    _write_element(
        root,
        alloc,
        frozenset({XML_NS}),
        parts,
        hoist=hoisted,
    )
    return "".join(parts)


def write_document(root: Element) -> bytes:
    """Serialize with the XML declaration, UTF-8 encoded (wire form)."""
    return serialize(root, xml_decl=True).encode("utf-8")


def _write_element(
    el: Element,
    alloc: _PrefixAllocator,
    in_scope: frozenset[str],
    out: list[str],
    hoist: list[str] | None = None,
) -> None:
    """Write one element; ``in_scope`` is the set of namespace URIs whose
    prefix declarations are visible from ancestors.  ``hoist`` (root call
    only) lists extra namespaces to declare here even if unused locally."""
    new_decls: list[tuple[str, str]] = []
    scope = set(in_scope)
    if hoist:
        for ns in hoist:
            if ns not in scope:
                scope.add(ns)
                new_decls.append((alloc.prefix_for(ns), ns))

    def resolve(ns: str) -> str:
        prefix = alloc.prefix_for(ns)
        if ns not in scope:
            scope.add(ns)
            if ns != XML_NS:
                new_decls.append((prefix, ns))
        return prefix

    if el.name.ns == XMLNS_NS:
        raise XmlError("xmlns pseudo-namespace cannot name an element")
    opening = (
        el.name.local
        if el.name.ns is None
        else f"{resolve(el.name.ns)}:{el.name.local}"
    )

    attr_parts: list[str] = []
    for aname, avalue in el.attrs.items():
        if aname.ns == XMLNS_NS:
            continue  # namespace decls are computed, never copied through
        if aname.ns is None:
            attr_parts.append(f'{aname.local}="{escape_attr(avalue)}"')
        else:
            attr_parts.append(
                f'{resolve(aname.ns)}:{aname.local}="{escape_attr(avalue)}"'
            )

    out.append(f"<{opening}")
    for prefix, ns in new_decls:
        out.append(f' xmlns:{prefix}="{escape_attr(ns)}"')
    for chunk in attr_parts:
        out.append(" " + chunk)

    if not el.children:
        out.append("/>")
        return
    out.append(">")
    child_scope = frozenset(scope)
    for child in el.children:
        if isinstance(child, str):
            out.append(escape_text(child))
        else:
            _write_element(child, alloc, child_scope, out)
    out.append(f"</{opening}>")
