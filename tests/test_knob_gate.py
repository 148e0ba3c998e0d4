"""Every dispatcher config field has a caller outside the tests.

A field of ``DispatcherConfigBase``, ``MsgDispatcherConfig`` or
``SimMsgDispatcherConfig`` must be given a value other than its default
somewhere under ``src/repro/`` or ``benchmarks/e2e/`` — a keyword of a
call to one of the three classes, or an assignment to ``<...>.config.<field>``
— or be listed in :data:`ALLOWED` with the test that sets it and why.  A
field only a test sets is a mode no experiment, example or benchmark
workload runs: delete it, or give it a caller.  The check reads source
with :mod:`ast` and imports nothing it checks.
"""

from __future__ import annotations

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = {
    "DispatcherConfigBase": "src/repro/core/dispatch.py",
    "MsgDispatcherConfig": "src/repro/core/msg_dispatcher.py",
    "SimMsgDispatcherConfig": "src/repro/core/sim_dispatcher.py",
}
SEARCHED = ("src/repro", "benchmarks/e2e")

#: field -> (the test file that sets it, why no caller outside the tests does)
ALLOWED = {
    "destination_idle_ttl": (
        "tests/store/test_recovery.py",
        "a timing value: tests shorten it so an idle WsThread exits within the test",
    ),
    "correlation_ttl": (
        "tests/core/test_dispatch_core.py",
        "a timing value: tests shorten it to expire a correlation on a manual clock",
    ),
    "hold_pump_interval": (
        "tests/core/test_dispatcher_robustness.py",
        "a timing value: tests shorten it so held messages come back within the test",
    ),
    "shed_on_full": (
        "tests/integration/test_sim_soak.py",
        "fig6 passes False, the default; the soak runs the simulator's 503 refusal",
    ),
    "cx_workers": (
        "tests/core/test_sim_dispatcher.py",
        "the paper's configurable CxThread pool on the simulator; "
        "every experiment runs the default 4",
    ),
}

_MISSING = object()


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _MISSING


def config_fields() -> dict[str, object]:
    """Field name -> its default (``_MISSING`` when not a literal)."""
    fields: dict[str, object] = {}
    for name, path in CONFIGS.items():
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        (cls,) = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == name
        ]
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                default = _MISSING if stmt.value is None else _literal(stmt.value)
                fields[stmt.target.id] = default
    return fields


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _on_a_config(target: ast.expr) -> bool:
    base = target.value if isinstance(target, ast.Attribute) else None
    return (isinstance(base, ast.Name) and base.id == "config") or (
        isinstance(base, ast.Attribute) and base.attr == "config"
    )


def fields_set(tree: ast.AST, fields: dict[str, object]) -> set[str]:
    """The config fields ``tree`` gives a value other than the default."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node) in CONFIGS:
            for keyword in node.keywords:
                name = keyword.arg
                if name in fields and _literal(keyword.value) != fields[name]:
                    found.add(name)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in fields
                    and _on_a_config(target)
                ):
                    found.add(target.attr)
    return found


@functools.cache
def survey() -> tuple[dict[str, object], set[str]]:
    """The config fields with their defaults, and those set outside the tests."""
    fields = config_fields()
    found: set[str] = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            found |= fields_set(ast.parse(path.read_text(encoding="utf-8")), fields)
    return fields, found


def test_every_config_field_has_a_caller_outside_the_tests():
    fields, callers = survey()
    assert len(fields) >= 15, fields  # the three classes were found
    unset = sorted(set(fields) - callers - set(ALLOWED))
    assert not unset, (
        f"config fields no caller under {SEARCHED} sets: {unset} — delete "
        "them, give them a caller, or allowlist the test that sets them"
    )


def test_every_allowlist_entry_is_needed_and_names_a_test_that_sets_it():
    fields, callers = survey()
    for name, (test_file, why) in ALLOWED.items():
        assert name in fields, f"{name}: no such config field (stale entry)"
        assert name not in callers, f"{name}: set outside the tests (stale entry)"
        assert why
        tree = ast.parse((ROOT / test_file).read_text(encoding="utf-8"))
        assert name in fields_set(tree, fields), f"{test_file} does not set {name}"


def test_the_gate_sees_a_field_only_a_test_sets():
    """The check itself: a default literal is not a caller, a variable or
    a ``config`` attribute assignment is, and so is any other literal."""
    fields = {"knob": 3, "other": None}
    assert fields_set(ast.parse("MsgDispatcherConfig(knob=3)"), fields) == set()
    assert fields_set(ast.parse("MsgDispatcherConfig(knob=4)"), fields) == {"knob"}
    assert fields_set(ast.parse("SimMsgDispatcherConfig(knob=n)"), fields) == {"knob"}
    assert fields_set(ast.parse("d.config.other = 1"), fields) == {"other"}
    assert fields_set(ast.parse("Unrelated(knob=4); d.other = 1"), fields) == set()
