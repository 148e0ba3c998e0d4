"""Tests for the text-file backed map."""

import threading

import pytest

from repro.util.textdb import TextFileMap


def mapping(db: TextFileMap) -> dict:
    return {key: (primary, attrs) for key, primary, attrs in db.items()}


def test_in_memory_when_no_path():
    db = TextFileMap()
    db.put("echo", "http://a:1/echo")
    assert mapping(db) == {"echo": ("http://a:1/echo", {})}


def test_put_get_roundtrip(tmp_path):
    db = TextFileMap(tmp_path / "registry.txt")
    db.put("echo", "http://inside:8080/echo", {"owner": "alice"})
    assert mapping(db) == {"echo": ("http://inside:8080/echo", {"owner": "alice"})}


def test_persistence_across_instances(tmp_path):
    path = tmp_path / "reg.txt"
    db = TextFileMap(path)
    db.put("a", "x", {"k": "v"})
    db.put("b", "y")
    reloaded = TextFileMap(path)
    assert mapping(reloaded) == {"a": ("x", {"k": "v"}), "b": ("y", {})}


def test_remove(tmp_path):
    path = tmp_path / "reg.txt"
    db = TextFileMap(path)
    db.put("a", "x")
    assert db.remove("a") is True
    assert db.remove("a") is False
    assert mapping(TextFileMap(path)) == {}


def test_file_format_is_line_oriented(tmp_path):
    path = tmp_path / "reg.txt"
    db = TextFileMap(path)
    db.put("svc", "http://h:1/", {"zeta": "1", "alpha": "2"})
    content = path.read_text()
    assert content.startswith("#")
    assert "svc\thttp://h:1/\talpha=2\tzeta=1" in content


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "reg.txt"
    path.write_text("# comment\n\nsvc\thttp://h:1/\n")
    db = TextFileMap(path)
    assert mapping(db) == {"svc": ("http://h:1/", {})}


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "reg.txt"
    path.write_text("just-one-field\n")
    with pytest.raises(ValueError):
        TextFileMap(path)


def test_malformed_attr_rejected(tmp_path):
    path = tmp_path / "reg.txt"
    path.write_text("svc\thttp://h:1/\tnoequals\n")
    with pytest.raises(ValueError):
        TextFileMap(path)


def test_tabs_in_values_rejected():
    db = TextFileMap()
    with pytest.raises(ValueError):
        db.put("a\tb", "x")


def test_items_returns_copies():
    db = TextFileMap()
    db.put("a", "x", {"k": "v"})
    [(_, _, attrs)] = db.items()
    attrs["k"] = "mutated"
    assert mapping(db) == {"a": ("x", {"k": "v"})}


def test_items_sorted():
    db = TextFileMap()
    db.put("zebra", "z")
    db.put("ant", "a")
    assert [k for k, _, _ in db.items()] == ["ant", "zebra"]


def test_concurrent_writes(tmp_path):
    db = TextFileMap(tmp_path / "reg.txt")

    def writer(prefix: str):
        for i in range(50):
            db.put(f"{prefix}-{i}", f"url-{i}")

    threads = [threading.Thread(target=writer, args=(p,)) for p in "abcd"]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(db.items()) == 200
    assert len(TextFileMap(tmp_path / "reg.txt").items()) == 200
