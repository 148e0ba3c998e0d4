"""Telemetry acceptance for the chaos experiment.

One seeded grid point must bit-reproducibly yield fault events in the
flight recorder and a postmortem dump on disk.
"""

import hashlib
import json
import os

from repro.experiments.chaos import run_point

LOSS, FLAP = 0.1, 30.0


def _run(tmp_dir, messages=40, horizon=120.0):
    return run_point(
        LOSS, FLAP, messages=messages, send_gap=0.25, seed=7,
        horizon=horizon, telemetry_dir=str(tmp_dir),
    )


def _file_hashes(root):
    hashes = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            hashes[rel] = hashlib.sha256(open(path, "rb").read()).hexdigest()
    return hashes


def test_chaos_point_produces_the_acceptance_artifacts(tmp_path):
    out = _run(tmp_path / "a")

    # the flight recorder saw the injected chaos
    kinds = out["flight_events"]
    assert kinds.get("fault-inject", 0) > 0
    assert kinds.get("fault-restore", 0) > 0

    # a postmortem dump landed in the per-point directory
    assert out["postmortem"] is not None
    pm_dir = tmp_path / "a" / f"postmortem-loss{LOSS:g}-flap{FLAP:g}"
    dumps = sorted(p.name for p in pm_dir.iterdir())
    assert dumps, "no postmortem dumps written"
    payload = json.loads((pm_dir / dumps[-1]).read_text())
    kinds_in_dump = {e["kind"] for e in payload["events"]}
    assert "fault-inject" in kinds_in_dump


def test_telemetry_artifacts_are_bit_reproducible(tmp_path):
    first = _run(tmp_path / "one")
    second = _run(tmp_path / "two")
    # the postmortem value is an absolute path; compare by basename
    for out in (first, second):
        out["postmortem"] = os.path.basename(out["postmortem"])
    assert first == second
    assert _file_hashes(tmp_path / "one") == _file_hashes(tmp_path / "two")
