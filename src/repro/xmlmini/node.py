"""Element tree for the mini XML infoset.

The model is intentionally simple: an element has a :class:`QName`, an
attribute map keyed by QName, a list of children (elements interleaved
with text runs), and helper accessors tuned for SOAP processing (find one
child by name, collect all, get trimmed text).
"""

from __future__ import annotations

from typing import Iterator, Union

from repro.errors import XmlError
from repro.xmlmini.names import QName

Child = Union["Element", str]
_new = object.__new__


class Element:
    """A namespaced XML element.

    ``children`` holds :class:`Element` nodes and ``str`` text runs in
    document order.  ``text=`` in the constructor is shorthand for a single
    text child.
    """

    __slots__ = ("name", "attrs", "children")

    def __init__(
        self,
        name: QName | str,
        attrs: dict[QName, str] | None = None,
        children: list[Child] | None = None,
        text: str | None = None,
    ) -> None:
        if isinstance(name, str):
            name = QName.from_clark(name)
        self.name = name
        self.attrs: dict[QName, str] = dict(attrs) if attrs else {}
        if text is not None:
            if children:
                raise XmlError("pass either children or text, not both")
            self.children: list[Child] = [text]
        else:
            self.children = list(children) if children else []

    # -- construction helpers ----------------------------------------------
    def add(self, child: Child) -> "Element":
        """Append a child and return it (fluent building of subtrees)."""
        if not isinstance(child, (Element, str)):
            raise XmlError(f"child must be Element or str, not {type(child)!r}")
        self.children.append(child)
        return child if isinstance(child, Element) else self

    def set(self, name: QName | str, value: str) -> None:
        if isinstance(name, str):
            name = QName.from_clark(name)
        self.attrs[name] = value

    def get(self, name: QName | str, default: str | None = None) -> str | None:
        if isinstance(name, str):
            name = QName.from_clark(name)
        return self.attrs.get(name, default)

    # -- navigation ----------------------------------------------------------
    def element_children(self) -> Iterator["Element"]:
        for c in self.children:
            if isinstance(c, Element):
                yield c

    def find(self, name: QName | str) -> "Element | None":
        """First child element with the given name, or None."""
        if isinstance(name, str):
            name = QName.from_clark(name)
        for c in self.children:
            if isinstance(c, Element) and c.name == name:
                return c
        return None

    def find_all(self, name: QName | str) -> list["Element"]:
        if isinstance(name, str):
            name = QName.from_clark(name)
        return [c for c in self.element_children() if c.name == name]

    def require(self, name: QName | str) -> "Element":
        """Like :meth:`find` but raises :class:`XmlError` when absent."""
        found = self.find(name)
        if found is None:
            want = name if isinstance(name, str) else name.clark()
            raise XmlError(f"<{self.name.clark()}> has no child {want}")
        return found

    @property
    def text(self) -> str:
        """Concatenated direct text content (no descent into children)."""
        children = self.children
        if len(children) == 1 and type(children[0]) is str:
            return children[0]  # the usual case: one text run
        return "".join(c for c in children if isinstance(c, str))

    def full_text(self) -> str:
        """Concatenated text of the whole subtree."""
        parts: list[str] = []
        stack: list[Child] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
            else:
                stack.extend(reversed(node.children))
        return "".join(parts)

    # -- structural equality ---------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.name == other.name
            and self.attrs == other.attrs
            and _normalized(self.children) == _normalized(other.children)
        )

    def __repr__(self) -> str:
        return (
            f"Element({self.name.clark()!r}, attrs={len(self.attrs)}, "
            f"children={len(self.children)})"
        )

    def copy(self) -> "Element":
        """Deep copy of the subtree (dispatchers mutate copies, not inputs)."""
        el = _new(Element)  # an element's own parts need no re-checking
        el.name = self.name
        el.attrs = dict(self.attrs)
        el.children = children = []
        for c in self.children:
            children.append(c.copy() if isinstance(c, Element) else c)
        return el


def _normalized(children: list[Child]) -> list[Child]:
    """Merge adjacent text runs and drop empty ones, for equality checks."""
    out: list[Child] = []
    for c in children:
        if isinstance(c, str):
            if not c:
                continue
            if out and isinstance(out[-1], str):
                out[-1] = out[-1] + c
            else:
                out.append(c)
        else:
            out.append(c)
    return out
