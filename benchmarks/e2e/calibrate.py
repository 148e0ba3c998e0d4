"""The machine-speed calibration kernel.

This host's speed swings by tens of percent for seconds at a time with
no competitor inside the VM, and the swing is common to everything that
runs during it.  Every measured window is therefore bracketed by this
fixed single-thread kernel, and the window's value is scaled to what it
would have read at the reference speed :data:`CAL_REF_US`.

The kernel imports nothing but the standard library (checked at start-up
by :func:`assert_stdlib_only`), so no change to ``repro`` can move it.
Its mix — integer arithmetic, dict and list traffic, bytes joins and
splits, string formatting — is the interpreter work the message path is
made of.
"""

from __future__ import annotations

import ast
import sys
import time

#: Kernel time on the reference machine, microseconds.  A constant: the
#: normalised numbers of two commits compare only while it stays put.
CAL_REF_US = 30000.0

_ROUNDS = 160


def _kernel() -> int:
    acc = 0
    table: dict[int, int] = {}
    for r in range(_ROUNDS):
        x = r + 1
        items = []
        for i in range(600):
            x = (x * 1103515245 + 12345 + i) & 0x7FFFFFFF
            table[x & 255] = i
            items.append(x)
        blob = b"|".join(b"%d" % v for v in items[:200])
        parts = blob.split(b"|")
        text = "".join(f"<k{v & 15}>{v}</k{v & 15}>" for v in items[:100])
        acc += len(parts) + text.count("<k3>") + len(table) + sum(items[::7]) % 97
    return acc


def calibrate() -> float:
    """Run the kernel once; its wall time in microseconds."""
    t0 = time.perf_counter()
    _kernel()
    return (time.perf_counter() - t0) * 1e6


class Bracket:
    """``with Bracket() as b: ...`` calibrates before and after the block;
    ``b.cal_us`` is then the mean of the two readings."""

    cal_us = 0.0

    def __enter__(self) -> "Bracket":
        self._before = calibrate()
        return self

    def __exit__(self, *exc_info) -> None:
        self.cal_us = (self._before + calibrate()) / 2.0


def imports_outside_stdlib(source: str) -> list[str]:
    """Top-level modules ``source`` imports that are not standard library."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add((node.module or ".").split(".")[0])
    return sorted(found - set(sys.stdlib_module_names))


def assert_stdlib_only() -> None:
    """Refuse to run if this module ever came to import ``repro`` (or
    anything else a change to the repo could move)."""
    with open(__file__, "r", encoding="utf-8") as handle:
        outside = imports_outside_stdlib(handle.read())
    if outside:
        raise RuntimeError(f"calibration kernel imports {outside}; it must stay stdlib-only")
