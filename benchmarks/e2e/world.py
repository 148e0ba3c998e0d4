"""Launching and reaping the processes of a run.

Every child runs in its own process group and is killed on any exit
path; every wait has a deadline, so a hung stack fails the workload in
seconds instead of hanging the pipeline.  Nothing is written outside the
temp directory :func:`temp_dir` hands out, which lives in the checkout.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from repro.http import HttpRequest
from repro.rt.client import HttpClient
from repro.transport.tcp import TcpConnector

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

READY_DEADLINE_S = 20.0
STOP_DEADLINE_S = 5.0


class HarnessError(RuntimeError):
    """The harness itself (not the system under test) could not proceed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None:
            pipe.close()


class Child:
    """One ``children.py`` process: spawned, awaited ready, later killed."""

    def __init__(self, role: str, spec: dict) -> None:
        self.role = role
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "children.py"), role, json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(), process_group=0,
        )
        try:
            ready = self._read_ready()
        except BaseException:
            _kill_group(self.proc)
            raise
        self.pid: int = ready["pid"]
        self.port: int = ready["port"]
        self.base = f"http://127.0.0.1:{self.port}"

    def _read_ready(self) -> dict:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + READY_DEADLINE_S
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise HarnessError(f"{self.role} not ready in {READY_DEADLINE_S:.0f}s")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise HarnessError(f"{self.role} exited before its ready line")
            line += chunk
        return json.loads(line)

    def stop(self) -> None:
        """SIGTERM, wait briefly, then kill whatever is left of the group."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(STOP_DEADLINE_S)
            except subprocess.TimeoutExpired:
                pass
        _kill_group(self.proc)


@contextmanager
def spinners(cpus):
    """One idle-priority spinner on each of ``cpus`` for the duration of
    the block (see ``spin.py`` for why)."""
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "spin.py"), str(cpu)],
            stdin=subprocess.DEVNULL, process_group=0,
        )
        for cpu in sorted(cpus)
    ]
    try:
        yield
    finally:
        for proc in procs:
            _kill_group(proc)


@contextmanager
def temp_dir():
    """A scratch directory inside the checkout, removed afterwards."""
    root = ROOT / ".bench_tmp"
    root.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            root.rmdir()
        except OSError:
            pass  # another run is using it


class World:
    """The three-process layout of a real workload, minus the loadgen:
    one ``harness-ws`` child for the whole run and one ``wsd`` child that
    :meth:`start_wsd` may replace (cold starts)."""

    SERVICES = ("echo-msg", "echo-rpc", "sink")

    def __init__(self, runtime: str, seed: int) -> None:
        self.runtime = runtime
        self.ws = Child("harness-ws", {"seed": seed})
        self.wsd: Child | None = None

    def stop_wsd(self) -> None:
        if self.wsd is not None:
            self.wsd.stop()
            self.wsd = None

    def start_wsd(self, count_calls: bool = False) -> Child:
        self.stop_wsd()
        self.wsd = Child("wsd", {
            "runtime": self.runtime,
            "count_calls": count_calls,
            "services": {name: f"{self.ws.base}/{name}" for name in self.SERVICES},
        })
        return self.wsd

    def close(self) -> None:
        self.stop_wsd()
        self.ws.stop()

    def __enter__(self) -> "World":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def new_client(response_timeout: float = 10.0) -> HttpClient:
    """An HTTP client whose every wait has a deadline."""
    return HttpClient(TcpConnector(), response_timeout=response_timeout)


def get(client: HttpClient, url: str) -> bytes:
    response = client.request(url, HttpRequest("GET", "/"))
    if response.status != 200:
        raise HarnessError(f"GET {url} answered {response.status}")
    return response.body


def get_json(client: HttpClient, url: str):
    return json.loads(get(client, url))
