"""Which functions under ``src/repro/`` does no entry point run?

    python tests/golden/reachability.py              # record, then check (about 4 min on 2 vCPUs)
    python tests/golden/reachability.py --keep DIR   # the same, keeping the dumps in DIR
    python tests/golden/reachability.py --from DIR   # check earlier dumps without running anything

Every entry point in :data:`ENTRY_POINTS` runs with a recorder installed as a
``sitecustomize`` on ``PYTHONPATH``, so each Python process it starts (the
benchmark's children, the shard fleet's workers) records too.  The recorder
notes every code object that gets a ``call`` event and dumps the ones under
``src/repro/`` to ``<pid>.json`` once a second and at exit, so a child that is
SIGKILLed still leaves a file.

A function is keyed by its file, its first line (the first decorator's, which
is what ``co_firstlineno`` gives) and its name, so a method that runs does not
hide an unrun one of the same name in the same file.  An interface stub (a
body of ``...`` or ``raise NotImplementedError``) is not counted.

The check exits 1 and names every function that no entry point ran and
:data:`ALLOWLIST` does not list, and every allowlist entry that is stale: its
function is gone, its test is gone, or an entry point now runs it.  An entry
whose comment starts with ``flips:`` runs on some recordings and not on
others; it is exempt from the last rule only.
"""

from __future__ import annotations

# every recorded process loads this module as its sitecustomize, so the
# imports only the check needs wait for the functions that use them
import json
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
ALLOWLIST = os.path.join(HERE, "reachability.allow")

#: one command per entry point, run from the root of the checkout; ``{out}``
#: is a scratch directory
ENTRY_POINTS = (
    ("sh", "tests/golden/experiments/run.sh", "{out}/golden"),
    ("{py}", "-m", "repro.experiments", "msgbox-bug"),
    ("{py}", "-m", "repro.experiments", "reliability"),
    ("{py}", "-m", "repro.experiments", "drain", "--runtime", "threaded"),
    ("{py}", "-m", "repro.experiments", "drain", "--runtime", "aio"),
    ("{py}", "-m", "repro.experiments", "drain", "--runtime", "sharded"),
    ("{py}", "examples/quickstart.py"),
    ("{py}", "examples/firewalled_peers.py"),
    ("{py}", "examples/reliable_messaging.py"),
    ("{py}", "examples/transatlantic_simulation.py"),
    # the only entry point that serves over AioHttpServer and long-polls an
    # aio mailbox
    ("{py}", "benchmarks/e2e/run.py", "--trace", "0", "--seconds", "4",
     "--out", "{out}/e2e.jsonl"),
    # the traced pass: the per-layer timings (benchmarks/e2e/layers.py)
    ("{py}", "benchmarks/e2e/run.py", "--workload", "fig6_rt", "--trace", "1",
     "--seconds", "4", "--out", "{out}/e2e-traced.jsonl"),
)

#: the benchmark appends a row here on every run; the check puts it back
#: once every entry point has run
HISTORY = os.path.join(ROOT, "benchmarks", "e2e", "history.jsonl")

#: generous: the slowest entry point, the golden experiments, takes about two
#: minutes under the recorder
ENTRY_TIMEOUT_S = 900


# -- the recorder -------------------------------------------------------------

SITECUSTOMIZE = """\
import importlib.util

_spec = importlib.util.spec_from_file_location("_reachability", {script!r})
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
_module.record({dumps!r}, {package!r})
"""


def tracer(seen: set):
    """A ``sys.setprofile`` function that adds each called code object to
    ``seen``."""
    add = seen.add

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    return profile


def keys(codes, package: str) -> set[tuple[str, int, str]]:
    """``(file, first line, name)`` of each code object under ``package``."""
    prefix = os.path.join(package, "")
    return {
        (os.path.relpath(path, ROOT), code.co_firstlineno, code.co_name)
        for code in codes
        for path in (os.path.abspath(code.co_filename),)
        if path.startswith(prefix)
    }


def record(dumps: str, package: str) -> None:
    """Record every code object this process calls; dump the ones under
    ``package`` to ``dumps/<pid>.json`` once a second and at exit."""
    import atexit

    seen: set = set()
    written = [-1]
    lock = threading.Lock()  # the dumping thread and atexit share one file

    def dump() -> None:
        with lock:
            codes = seen.copy()
            if len(codes) == written[0]:
                return
            written[0] = len(codes)
            target = os.path.join(dumps, f"{os.getpid()}.json")
            with open(target + ".tmp", "w", encoding="utf-8") as handle:
                json.dump(sorted(keys(codes, package)), handle)
            os.replace(target + ".tmp", target)

    def every_second() -> None:
        tick = threading.Event()
        while not tick.wait(1.0):
            dump()

    profile = tracer(seen)
    sys.setprofile(profile)
    threading.setprofile(profile)
    threading.Thread(target=every_second, name="reachability", daemon=True).start()
    atexit.register(dump)


def reached(dumps: str) -> set[tuple[str, int, str]]:
    """Every ``(file, first line, name)`` any dump in ``dumps`` holds."""
    keys: set[tuple[str, int, str]] = set()
    for name in sorted(os.listdir(dumps)):
        if name.endswith(".json"):
            with open(os.path.join(dumps, name), encoding="utf-8") as handle:
                keys.update(tuple(row) for row in json.load(handle))
    return keys


def run_entry_points(dumps: str, scratch: str) -> list[str]:
    """Run every entry point under the recorder; the ones that failed."""
    import subprocess

    recorder = os.path.join(scratch, "recorder")
    os.makedirs(recorder, exist_ok=True)
    with open(os.path.join(recorder, "sitecustomize.py"), "w", encoding="utf-8") as handle:
        handle.write(SITECUSTOMIZE.format(
            script=os.path.abspath(__file__), dumps=dumps, package=PACKAGE,
        ))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", recorder, env.get("PYTHONPATH", "")) if p
    )
    with open(HISTORY, "rb") as handle:
        history = handle.read()
    failed = []
    try:
        for template in ENTRY_POINTS:
            argv = [a.format(py=sys.executable, out=scratch) for a in template]
            print("==", " ".join(template), flush=True)
            try:
                done = subprocess.run(
                    argv, cwd=ROOT, env=env, timeout=ENTRY_TIMEOUT_S,
                    stdout=subprocess.DEVNULL,
                )
            except subprocess.TimeoutExpired:
                failed.append(f"{' '.join(template)}: no exit in {ENTRY_TIMEOUT_S} s")
                continue
            if done.returncode:
                failed.append(f"{' '.join(template)}: exit status {done.returncode}")
    finally:
        with open(HISTORY, "wb") as handle:
            handle.write(history)
    return failed


# -- the walk -----------------------------------------------------------------


def stub(node) -> bool:
    """Whether a ``def`` only declares an interface: its body, after any
    docstring, is ``...`` or ``raise NotImplementedError``.  A Protocol's
    or a base class's stub runs nowhere by design."""
    import ast

    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if len(body) != 1:
        return False
    only = body[0]
    if isinstance(only, ast.Expr):
        return isinstance(only.value, ast.Constant) and only.value.value is Ellipsis
    if isinstance(only, ast.Raise) and only.exc is not None:
        exc = only.exc.func if isinstance(only.exc, ast.Call) else only.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def functions(root: str) -> dict[tuple[str, int, str], str]:
    """Every ``def`` / ``async def`` in the ``.py`` files under ``root``
    except :func:`stub` ones: ``(file, first line, name)`` ->
    ``file::Qualified.name``.  A name that repeats in one scope (a
    property's setter) gets ``[2]``, ``[3]``, ..."""
    import ast

    found: dict[tuple[str, int, str], str] = {}
    for folder, dirs, files in os.walk(root):
        dirs.sort()
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(folder, filename)
            rel = os.path.relpath(path, ROOT)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            labels: set[str] = set()

            def visit(node, scope: str) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if stub(child):
                            continue
                        label = plain = f"{rel}::{scope}{child.name}"
                        n = 1
                        while label in labels:
                            n += 1
                            label = f"{plain}[{n}]"
                        labels.add(label)
                        first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                        found[(rel, first, child.name)] = label
                        visit(child, f"{scope}{child.name}.")
                    elif isinstance(child, ast.ClassDef):
                        visit(child, f"{scope}{child.name}.")
                    else:
                        visit(child, scope)

            visit(tree, "")
    return found


def read_allowlist(path: str) -> dict[str, tuple[str, str]]:
    """``function -> (test, comment)``, one entry a line:
    ``<file>::<Qualified.name>  <test id>  [# comment]``."""
    entries: dict[str, tuple[str, str]] = {}
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            text, _, comment = line.partition("#")
            fields = text.split()
            if not fields:
                continue
            if len(fields) != 2 or fields[0] in entries:
                raise SystemExit(f"{path}:{number}: want one '<function> <test>' per function")
            entries[fields[0]] = (fields[1], comment.strip())
    return entries


def names_a_test(test: str) -> bool:
    """Whether ``tests/x.py::[Class::]test_name[param]`` names a ``def`` in
    an existing file."""
    path, _, rest = test.partition("::")
    name = rest.rpartition("::")[2].partition("[")[0]
    try:
        with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return False
    return bool(name) and f"def {name}(" in text


def check(
    defined: dict[tuple[str, int, str], str],
    ran: set[tuple[str, int, str]],
    allowed: dict[str, tuple[str, str]],
) -> list[str]:
    """What is wrong: every function neither run nor allowlisted, and every
    stale allowlist entry."""
    problems = []
    labels = {label: key for key, label in defined.items()}
    for key, label in sorted(defined.items()):
        if key not in ran and label not in allowed:
            problems.append(f"{key[0]}:{key[1]}: {label.partition('::')[2]} runs on no entry point")
    for label, (test, comment) in sorted(allowed.items()):
        if label not in labels:
            problems.append(f"allowlist: {label} is no longer defined")
        elif labels[label] in ran and not comment.startswith("flips:"):
            problems.append(f"allowlist: {label} now runs on an entry point; drop its entry")
        if not names_a_test(test):
            problems.append(f"allowlist: {label} names {test}, which does not exist")
    return problems


def main(argv: list[str] | None = None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--keep", metavar="DIR", help="record into DIR and keep it")
    group.add_argument("--from", dest="source", metavar="DIR",
                       help="check what --keep DIR recorded; run nothing")
    args = parser.parse_args(argv)

    if args.source:
        ran = reached(os.path.join(args.source, "dumps"))
    else:
        with tempfile.TemporaryDirectory() as temporary:
            scratch = os.path.abspath(args.keep or temporary)
            dumps = os.path.join(scratch, "dumps")
            os.makedirs(dumps, exist_ok=True)
            failed = run_entry_points(dumps, scratch)
            if failed:
                print("entry points that failed under the recorder:", *failed, sep="\n  ")
                return 1
            ran = reached(dumps)

    defined = functions(PACKAGE)
    allowed = read_allowlist(ALLOWLIST)
    problems = check(defined, ran, allowed)
    run = len(defined.keys() & ran)
    print(f"{len(defined)} functions under src/repro/: {run} run on an entry point, "
          f"{len(allowed)} allowlisted, {len(defined) - run} run on none")
    if problems:
        print(*problems, sep="\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
