"""Every documented constructor parameter has a caller outside the tests.

``docs/api.md`` documents a public class by its constructor, written
`` `Name(...)` `` in a table row or a bullet.  Such a class must be
constructed by a call under ``src/repro/``, ``examples/`` or
``benchmarks/e2e/``, and each of its parameters (an ``__init__``
argument or a dataclass field, keyed by the class that declares it, so a
subclass's call counts for the base) passed by one — by keyword or by
position, with a value other than a literal default — or be listed in
:data:`ALLOWED` with the test that uses it and why.  A ``**kwargs`` or
``*args`` pass-through forwards nothing: a parameter that reaches the
class only through one is passed by whoever called the wrapper, which is
what this check asks about.  For the three dispatcher configs an
assignment to ``<...>.config.<field>`` counts too.  A parameter only a
test passes is a mode no experiment, example or benchmark workload runs:
delete it, or give it a caller.  The pytest benchmarks outside
``benchmarks/e2e/`` count with the tests: each checks one claim in CI,
and none of them is a workload.  The check reads source with :mod:`ast`
and imports nothing it checks.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOC = "docs/api.md"
DEFINED = "src/repro"
SEARCHED = ("src/repro", "examples", "benchmarks/e2e")
CONFIGS = {"DispatcherConfigBase", "MsgDispatcherConfig", "SimMsgDispatcherConfig"}

#: ``Class`` or ``Owner.param`` -> (the test or pytest benchmark file that
#: constructs or passes it, why no caller outside the tests does).  Only
#: three kinds belong here: a timing value that tests shorten, a deployment
#: setting, and a caller that an open ROADMAP item names.
ALLOWED: dict[str, tuple[str, str]] = {
    # -- timing values that tests shorten --------------------------------
    "DispatcherConfigBase.destination_idle_ttl": (
        "tests/store/test_recovery.py",
        "a timing value: tests shorten it so an idle WsThread exits within the test",
    ),
    "DispatcherConfigBase.correlation_ttl": (
        "tests/core/test_dispatch_core.py",
        "a timing value: tests shorten it to expire a correlation on a manual clock",
    ),
    "DispatcherConfigBase.hold_pump_interval": (
        "tests/core/test_dispatcher_robustness.py",
        "a timing value: tests shorten it so held messages come back within the test",
    ),
    "AioHttpClient.response_timeout": (
        "tests/aio/test_server_contract.py",
        "a timing value: tests shorten it to see a response timeout within the test",
    ),
    "HttpServer.keep_alive_timeout": (
        "tests/http/test_server_contract.py",
        "a timing value: tests shorten it to see an idle connection expire",
    ),
    "AioHttpServer.keep_alive_timeout": (
        "tests/http/test_server_contract.py",
        "a timing value: tests shorten it to see an idle connection expire",
    ),
    "SimHttpServer.keep_alive_timeout": (
        "tests/http/test_server_contract.py",
        "a timing value: tests shorten it to see an idle connection expire",
    ),
    "ServiceRegistry.lookup_cache_ttl": (
        "tests/core/test_registry.py",
        "a timing value: tests set 0 to read through a disabled lookup cache",
    ),
    "MailboxStore.message_ttl": (
        "tests/msgbox/test_store.py",
        "a timing value: tests set it to expire stored messages on a manual clock",
    ),
    "SupervisorConfig.ready_timeout": (
        "tests/shard/test_crash_restart.py",
        "a timing value: the bound on a worker's first boot",
    ),
    # -- deployment settings ----------------------------------------------
    "SimMsgDispatcherConfig.cx_workers": (
        "tests/core/test_sim_dispatcher.py",
        "the paper's configurable CxThread pool on the simulator; "
        "every experiment runs the default 4",
    ),
    "MsgBoxService.ack_workers": (
        "tests/msgbox/test_ack_paths.py",
        "a deployment setting: the pooled acknowledgement senders",
    ),
    "MailboxStore.max_mailboxes": (
        "tests/msgbox/test_store.py",
        "a deployment setting: the store's quota of mailboxes",
    ),
    "MailboxStore.max_bytes_per_box": (
        "tests/msgbox/test_store.py",
        "a deployment setting: the per-mailbox byte quota",
    ),
    "MailboxStore.durable": (
        "tests/store/test_recovery.py",
        "a deployment setting: the journal that keeps mailboxes across a crash",
    ),
    "HoldRetryStore.durable": (
        "tests/store/test_recovery.py",
        "a deployment setting: the journal that keeps held messages across a crash",
    ),
    "TraceStore.capacity": (
        "tests/obs/test_trace.py",
        "a deployment setting: how many traces the span ring keeps",
    ),
    "AccessLink.loss": (
        "tests/simnet/test_loss.py",
        "a deployment setting of the simulated network: a lossy access link",
    ),
    "AioHttpServer.backlog": (
        "benchmarks/bench_aio_c10k.py",
        "a deployment setting: the listen backlog ten thousand connects need",
    ),
    "SupervisorConfig.runtime": (
        "tests/shard/test_supervisor.py",
        "a deployment setting: the fleet on the threaded or the asyncio runtime",
    ),
    "SupervisorConfig.data_host": (
        "tests/shard/test_supervisor.py",
        "a deployment setting: the interface the fleet's ports bind",
    ),
    "SupervisorConfig.journal_dir": (
        "tests/shard/test_crash_restart.py",
        "a deployment setting: where a durable fleet keeps its journals",
    ),
    "SupervisorConfig.ws_threads": (
        "tests/shard/test_crash_restart.py",
        "a deployment setting: each shard's WsThread pool",
    ),
    "SupervisorConfig.server_workers": (
        "tests/shard/test_crash_restart.py",
        "a deployment setting: each shard's HTTP worker pool",
    ),
    # -- callers an open ROADMAP item names ---------------------------------
    "AioRpcDispatcher": (
        "tests/core/test_rpc_contract.py",
        "ROADMAP item 1: the benchmark's rpc_echo on aio would construct it",
    ),
    "MsgDispatcher.hold_store": (
        "tests/core/test_msg_dispatcher_reliable.py",
        "ROADMAP item 10: the conformance script holds messages on rt and aio",
    ),
}

_MISSING = object()


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _MISSING


def documented_names(text: str) -> set[str]:
    """The names written as `` `Name(...)` `` in ``text``'s code spans."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    names: set[str] = set()
    for span in re.findall(r"`([^`]+)`", text):
        names.update(re.findall(r"(?<![\w.])(?:\w+\.)*([A-Z]\w*)\(", span))
    return names


def _class_index(trees) -> dict[str, ast.ClassDef]:
    index: dict[str, ast.ClassDef] = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                index.setdefault(node.name, node)
    return index


def _base_names(cls: ast.ClassDef) -> list[str]:
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _dataclass_fields(cls: ast.ClassDef) -> list[tuple[str, object]]:
    fields = []
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", "")) == "field"
        ):
            keywords = {kw.arg: kw.value for kw in value.keywords}
            if _literal(keywords.get("init", ast.Constant(True))) is False:
                continue
            value = keywords.get("default")
        fields.append((stmt.target.id, _MISSING if value is None else _literal(value)))
    return fields


def parameters(name: str, index: dict[str, ast.ClassDef]) -> list[tuple[str, object, str]]:
    """``name``'s constructor parameters in order, each with its default
    and the class that declares it (``name`` or the base it inherits the
    constructor or a dataclass field from)."""
    cls = index[name]
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            args = stmt.args
            positional = args.posonlyargs + args.args
            defaults = [_MISSING] * (len(positional) - len(args.defaults)) + [
                _literal(d) for d in args.defaults
            ]
            named = [
                (a.arg, d, name) for a, d in zip(positional, defaults)
            ][1:]
            named += [
                (a.arg, _MISSING if d is None else _literal(d), name)
                for a, d in zip(args.kwonlyargs, args.kw_defaults)
            ]
            return named
    inherited: list[tuple[str, object, str]] = []
    for base in _base_names(cls):
        if base in index:
            inherited = parameters(base, index)
            break
    own = [(field, default, name) for field, default in _dataclass_fields(cls)]
    overridden = {field for field, _, _ in own}
    return [p for p in inherited if p[0] not in overridden] + own


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


def used(tree: ast.AST, classes: dict[str, list]) -> set[str]:
    """What ``tree`` uses of ``classes``: ``Class`` for each it constructs,
    and ``Owner.param`` for each parameter it passes a value."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _called_name(node)
            params = classes.get(name)
            if params is None:
                continue
            found.add(name)
            for (param, default, owner), arg in zip(params, node.args):
                if isinstance(arg, ast.Starred):
                    break
                if default is _MISSING or _literal(arg) != default:
                    found.add(f"{owner}.{param}")
            by_name = {param: (default, owner) for param, default, owner in params}
            for keyword in node.keywords:
                default, owner = by_name.get(keyword.arg, (None, None))
                if owner and (default is _MISSING or _literal(keyword.value) != default):
                    found.add(f"{owner}.{keyword.arg}")
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and _on_a_config(target):
                    for config in CONFIGS & classes.keys():
                        for param, _, owner in classes[config]:
                            if param == target.attr:
                                found.add(f"{owner}.{param}")
    return found


def findings(
    doc: str,
    defined: list[ast.Module],
    searched: list[ast.Module],
    tests: dict[str, ast.Module],
    allowed: dict[str, tuple[str, str]],
) -> tuple[set[str], list[str]]:
    """The documented classes and parameters (``Class`` and
    ``Owner.param``, where ``Owner`` declares the parameter), and what is
    wrong."""
    index = _class_index(defined)
    classes = {name: parameters(name, index) for name in index}
    documented = documented_names(doc) & index.keys() | CONFIGS & index.keys()
    checked = set(documented) | {
        f"{owner}.{param}" for name in documented for param, _, owner in classes[name]
    }
    callers: set[str] = set()
    for tree in searched:
        callers |= used(tree, classes)
    problems = [
        f"{key}: no caller outside the tests "
        + ("passes it" if "." in key else "constructs it")
        for key in sorted(checked - callers - allowed.keys() - CONFIGS)
    ]
    for key, (test_file, why) in allowed.items():
        if key not in checked:
            problems.append(f"{key}: no such documented class or parameter (stale entry)")
        elif key in callers:
            problems.append(f"{key}: used outside the tests (stale entry)")
        elif not why or key not in used(tests[test_file], classes):
            problems.append(f"{key}: {test_file} does not use it")
    return checked, problems


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


@functools.cache
def survey():
    paths = sorted((ROOT / DEFINED).rglob("*.py"))
    texts = {path: path.read_text(encoding="utf-8") for path in paths}
    defined = {path: ast.parse(text) for path, text in texts.items()}
    for top in SEARCHED[1:]:
        for path in sorted((ROOT / top).rglob("*.py")):
            texts[path] = path.read_text(encoding="utf-8")
    # a file that names no class before a "(" and sets no config field
    # uses nothing this check counts: skip walking it
    names = _class_index(defined.values()).keys()
    searched = [
        defined.get(path) or ast.parse(text)
        for path, text in texts.items()
        if ".config." in text or names & set(re.findall(r"(\w+)\(", text))
    ]
    tests = {test: _parse(ROOT / test) for test, _ in ALLOWED.values()}
    doc = (ROOT / DOC).read_text(encoding="utf-8")
    return findings(doc, list(defined.values()), searched, tests, ALLOWED)


def _unused(configs: bool) -> list[str]:
    """The gate's "no caller" findings, for the dispatcher configs or for
    every other documented class."""
    _, problems = survey()
    return [
        p for p in problems
        if "no caller outside the tests" in p and (p.split(".")[0] in CONFIGS) == configs
    ]


def test_every_config_field_has_a_caller_outside_the_tests():
    unused = _unused(configs=True)
    assert not unused, "\n".join(unused)


def test_every_documented_parameter_has_a_caller_outside_the_tests():
    checked, _ = survey()
    assert len({key for key in checked if "." not in key}) >= 40, checked
    unused = _unused(configs=False)
    assert not unused, "\n".join(unused) + (
        "\ndelete them, give them a caller, or allowlist the test that passes them"
    )


def test_every_allowlist_entry_is_needed_and_names_a_test_that_sets_it():
    _, problems = survey()
    stale = [p for p in problems if "no caller outside the tests" not in p]
    assert not stale, "\n".join(stale)


# -- the check itself -------------------------------------------------------

_DOC = "| `Knobbed(a, b)` | a row |\n- `mod.Other()` — a bullet; `helper(x)` is no class\n"
_DEFINED = """
class Knobbed:
    def __init__(self, a, b=3, *, c=None):
        pass

class Other:
    pass

class Undocumented:
    def __init__(self, z=1):
        pass
"""


def _run(callers: str, tests: dict[str, str] | None = None, allowed=None):
    _, problems = findings(
        _DOC,
        [ast.parse(_DEFINED)],
        [ast.parse(_DEFINED), ast.parse(callers + "\nOther()")],
        {name: ast.parse(text) for name, text in (tests or {}).items()},
        allowed or {},
    )
    return problems


def test_the_gate_reads_positions_keywords_and_literal_defaults():
    assert _run("Knobbed(1, 4, c=x)") == []
    assert _run("mod.Knobbed(a, b=n, c=0); Undocumented()") == []
    assert _run("Knobbed(1, b=3, c=x)") == [
        "Knobbed.b: no caller outside the tests passes it"
    ]


def test_the_gate_is_red_on_a_class_only_a_test_constructs():
    _, problems = findings(
        _DOC, [ast.parse(_DEFINED)], [ast.parse("Knobbed(1, 4, c=x)")], {}, {}
    )
    assert problems == ["Other: no caller outside the tests constructs it"]


def test_the_gate_sees_a_field_only_a_test_sets():
    assert _run("Knobbed(1, 4)", tests={"t.py": "Knobbed(1, c=2)"}) == [
        "Knobbed.c: no caller outside the tests passes it"
    ]
    allowed = {"Knobbed.c": ("t.py", "a timing value tests shorten")}
    assert _run("Knobbed(1, 4)", {"t.py": "Knobbed(1, c=2)"}, allowed) == []


def test_the_gate_is_red_on_a_parameter_that_arrives_through_kwargs():
    wrapper = "def make(**kw):\n    return Knobbed(1, 4, **kw)\n"
    assert _run(wrapper, tests={"t.py": "make(c=2)"}) == [
        "Knobbed.c: no caller outside the tests passes it"
    ]
    args = "def make(*args):\n    return Knobbed(1, *args)\n"
    assert _run(args + "Knobbed(0, c=1)") == [
        "Knobbed.b: no caller outside the tests passes it"
    ]


def test_the_gate_is_red_on_a_stale_allowlist_row():
    tests = {"t.py": "Knobbed(1, c=2)"}
    row = {"Knobbed.c": ("t.py", "why")}
    assert _run("Knobbed(1, 4, c=x)", tests, row) == [
        "Knobbed.c: used outside the tests (stale entry)"
    ]
    assert _run("Knobbed(1, 4, c=x)", tests, {"Knobbed.d": ("t.py", "why")}) == [
        "Knobbed.d: no such documented class or parameter (stale entry)"
    ]
    assert _run("Knobbed(1, 4)", {"t.py": "Knobbed(1)"}, row) == [
        "Knobbed.c: t.py does not use it"
    ]
