"""Serializer for the mini XML infoset.

Namespace handling: prefixes are assigned document-globally in first-use
order (honouring preferred prefixes such as ``soapenv`` or ``wsa``), and
every namespace the tree uses is declared once, on the root element.  No
descendant ever declares one, so the whole document is written in one
pre-order pass: a prefix is allocated where its namespace is first met,
and the root's ``xmlns:`` declarations are spliced in behind its name
when the walk ends.  Output is deterministic — attributes are written in
insertion order — so byte-level golden tests are stable.
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
    if "&" in text or "<" in text or ">" in text:
        return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text


def escape_attr(text: str) -> str:
    """Escape attribute values (quotes, angle brackets, newlines/tabs)."""
    if (
        "&" in text or "<" in text or '"' in text
        or "\n" in text or "\t" in text or "\r" in text
    ):
        return (
            text.replace("&", "&amp;")
            .replace("<", "&lt;")
            .replace('"', "&quot;")
            .replace("\n", "&#10;")
            .replace("\t", "&#9;")
            .replace("\r", "&#13;")
        )
    return text


def serialize(root: Element, xml_decl: bool = False) -> str:
    """Serialize an element tree to a string.

    Elements without a namespace are written unprefixed; the default
    namespace declaration is never used, so unnamespaced and namespaced
    elements can mix freely (SOAP bodies very often contain both).  Every
    namespace used anywhere in the tree is declared once, on the root.
    """
    prefixes: dict[str, str] = {XML_NS: "xml"}  # namespace -> prefix
    taken = {"xml", "xmlns"}
    decls: list[str] = []  # ' xmlns:p="uri"', in first-use order
    auto = 0
    out: list[str] = []
    append = out.append

    def prefix_of(ns: str) -> str:
        """``ns``'s prefix, allocated (and declared) at first use."""
        nonlocal auto
        prefix = PREFERRED_PREFIXES.get(ns)
        if prefix is None or prefix in taken:
            while f"n{auto}" in taken:
                auto += 1
            prefix = f"n{auto}"
            auto += 1
        prefixes[ns] = prefix
        taken.add(prefix)
        decls.append(f' xmlns:{prefix}="{escape_attr(ns)}"')
        return prefix

    def write(el: Element) -> None:
        name = el.name
        ns = name.ns
        if ns is None:
            tag = name.local
        else:
            prefix = prefixes.get(ns)
            if prefix is None:
                if ns == XMLNS_NS:
                    raise XmlError("xmlns pseudo-namespace cannot name an element")
                prefix = prefix_of(ns)
            tag = f"{prefix}:{name.local}"
        if el.attrs:
            attrs = []
            for aname, value in el.attrs.items():
                ns = aname.ns
                if ns is None:
                    attrs.append(f' {aname.local}="{escape_attr(value)}"')
                elif ns != XMLNS_NS:  # namespace decls are computed, never copied
                    prefix = prefixes.get(ns) or prefix_of(ns)
                    attrs.append(f' {prefix}:{aname.local}="{escape_attr(value)}"')
            start = f"<{tag}{''.join(attrs)}"
        else:
            start = "<" + tag
        children = el.children
        if not children:
            append(start + "/>")
            return
        append(start + ">")
        for child in children:
            if isinstance(child, str):
                append(escape_text(child))
            else:
                write(child)
        append(f"</{tag}>")

    try:
        write(root)
    finally:
        # write() reaches itself through a closure cell; left alone, every
        # call would leave that cycle, and the output list, to the collector
        del write
    if decls:
        # the root's start tag is out[0]; its declarations go behind its name
        head = out[0]
        cut = head.find(" ")  # names hold no space; attributes start with one
        if cut < 0:
            cut = len(head) - (2 if head.endswith("/>") else 1)
        out[0] = head[:cut] + "".join(decls) + head[cut:]
    if xml_decl:
        out[0] = '<?xml version="1.0" encoding="UTF-8"?>' + out[0]
    return "".join(out)


def write_document(root: Element) -> bytes:
    """Serialize with the XML declaration, UTF-8 encoded (wire form)."""
    return serialize(root, xml_decl=True).encode("utf-8")
