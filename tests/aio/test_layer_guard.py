"""The stream layer stays gone from ``repro.aio``.

PR 24 took ``AioHttpServer`` / ``AioHttpClient`` off ``asyncio`` streams
(a task per connection, a ``Task`` + timer per read) onto protocols.  No
module of the package may name the stream API again, and ``wait_for`` —
a task and a timer per call — is allowed exactly once, around the
client's connect: per connection, not per message.
"""

import ast
import pathlib

import repro.aio

BANNED_NAMES = {"start_server", "open_connection", "StreamReader", "StreamWriter"}
BANNED_CALLS = {"drain"}


def named_in(tree: ast.AST) -> "list[tuple[int, str]]":
    """(line, identifier) for every name, attribute and imported name."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            names.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(node.lineno, a.name.rpartition(".")[2]) for a in node.names]
    return names


def test_nothing_under_repro_aio_names_the_stream_layer():
    package = pathlib.Path(repro.aio.__file__).parent
    wait_for_sites = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for lineno, name in named_in(tree):
            assert name not in BANNED_NAMES, f"{path.name}:{lineno} names {name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                assert attr not in BANNED_CALLS, f"{path.name}:{node.lineno} calls .{attr}("
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                wait_for_sites += [
                    (path.name, scope.name)
                    for lineno, name in named_in(scope) if name == "wait_for"
                ]
    assert wait_for_sites == [("client.py", "_connect")]
