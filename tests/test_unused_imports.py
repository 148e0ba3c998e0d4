"""No module-level import goes unused.

A module-level import (one at the top of a file, or inside a top-level
``if`` / ``try``, such as an ``if TYPE_CHECKING:`` block) binds a name; the
name must be used somewhere else in the same file.  A use is a name read
or written anywhere in the module, a parameter of that name (a pytest
fixture imported into a test module is used that way), a name inside a
string annotation (``-> "Iterable[HttpRequest]"``), or an entry of
``__all__``.  ``from __future__`` imports and the re-exports of an
``__init__.py`` are exempt.  The check reads source with :mod:`ast` and
imports nothing it checks.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHECKED = ("src", "examples", "tests")


def _imports(tree: ast.Module):
    """``(name it binds, line)`` for each module-level import."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                pending.extend(block)
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_in(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                elt.value for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return set()


def _quoted_names(tree: ast.Module) -> set[str]:
    """The names inside string annotations, whole or nested
    (``list["Node"]``)."""
    names: set[str] = set()
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    names |= _names_in(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    """``(name, line)`` of each module-level import in ``source`` whose
    name is used nowhere else in it."""
    tree = ast.parse(source)
    used = _names_in(tree) | _exported(tree)
    unused = [(name, line) for name, line in _imports(tree) if name not in used]
    if unused:
        quoted = _quoted_names(tree)
        unused = [(name, line) for name, line in unused if name not in quoted]
    return unused


def test_no_module_level_import_is_unused():
    found = []
    for top in CHECKED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for name, line in unused_imports(path.read_text(encoding="utf-8")):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name} is imported and never used")
    assert not found, "\n".join(found)


# -- the check itself -------------------------------------------------------

def test_an_unused_import_is_found():
    source = "import os\nfrom typing import Iterable, Optional\n\ndef f(x: Optional[int]):\n    return x\n"
    assert unused_imports(source) == [("os", 1), ("Iterable", 2)]


def test_a_name_in_a_string_annotation_is_a_use():
    source = (
        "from typing import TYPE_CHECKING, Iterable\n"
        "if TYPE_CHECKING:\n    from http import HTTPStatus\n"
        "def f(codes) -> \"Iterable[HTTPStatus]\":\n    return codes\n"
    )
    assert unused_imports(source) == []


def test_all_future_and_fixture_parameters_count_as_uses():
    source = (
        "from __future__ import annotations\n"
        "from json import dumps, loads\n"
        "from tests.conftest import inproc\n"
        "__all__ = ['dumps']\n"
        "def test_x(inproc):\n    return inproc\n"
    )
    assert unused_imports(source) == [("loads", 2)]
