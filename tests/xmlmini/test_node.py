"""Tests for the element tree."""

import pytest

from repro.errors import XmlError
from repro.xmlmini import Element, QName


def test_constructor_accepts_clark_strings():
    e = Element("{urn:x}tag")
    assert e.name == QName("urn:x", "tag")


def test_text_shorthand():
    e = Element("tag", text="hello")
    assert e.text == "hello"


def test_add_returns_child_element():
    root = Element("root")
    child = root.add(Element("child"))
    assert child.name.local == "child"
    assert root.children == [child]


def test_attrs_set_get_with_clark():
    e = Element("tag")
    e.attrs[QName.from_clark("{urn:a}attr")] = "v"
    assert e.attrs[QName("urn:a", "attr")] == "v"
    assert e.attrs.get(QName.from_clark("missing"), "dflt") == "dflt"


def test_add_rejects_bad_types():
    with pytest.raises(XmlError):
        Element("root").add(42)


def test_find_and_find_all():
    root = Element("root")
    a1 = root.add(Element("{urn:x}a"))
    root.add(Element("b"))
    a2 = root.add(Element("{urn:x}a"))
    assert root.find("{urn:x}a") is a1
    assert list(root.element_children()) == [a1, root.children[1], a2]
    assert root.find("missing") is None


def test_require_raises_when_absent():
    with pytest.raises(XmlError):
        Element("root").require("child")


def test_text_ignores_child_elements():
    root = Element("root")
    root.children = ["a", Element("mid", text="X"), "b"]
    assert root.text == "ab"
    assert root.full_text() == "aXb"


def test_structural_equality_normalizes_text_runs():
    a = Element("r")
    a.children = ["he", "llo"]
    b = Element("r")
    b.children = ["hello"]
    assert a == b


def test_structural_equality_ignores_empty_text():
    a = Element("r")
    a.children = ["", Element("c")]
    b = Element("r")
    b.children = [Element("c")]
    assert a == b


def test_inequality_on_attrs():
    a = Element("r")
    a.attrs[QName(None, "x")] = "1"
    b = Element("r")
    assert a != b


def test_copy_is_deep():
    root = Element("root")
    child = root.add(Element("child", text="t"))
    dup = root.copy()
    assert dup == root
    dup.element_children().__next__().children[0] = "changed"
    assert child.text == "t"


def test_element_children_iterates_only_elements():
    root = Element("root")
    root.children = ["txt", Element("a"), "more", Element("b")]
    assert [c.name.local for c in root.element_children()] == ["a", "b"]
