"""The reachability check (``tests/golden/reachability.py``) on a small
fixture: what it keys functions by, and what makes it fail."""

from __future__ import annotations

import os
import sys

from tests.golden import reach_fixture, reachability

FIXTURE = os.path.dirname(os.path.abspath(reach_fixture.__file__))
FILE = os.path.relpath(reach_fixture.__file__, reachability.ROOT)
#: a test that exists, for allowlist entries
TEST = "tests/golden/test_reachability.py::test_a_stale_allowlist_entry_fails"


def recorded() -> set[tuple[str, int, str]]:
    seen: set = set()
    previous = sys.getprofile()
    sys.setprofile(reachability.tracer(seen))
    try:
        reach_fixture.run()
    finally:
        sys.setprofile(previous)
    return reachability.keys(seen, FIXTURE)


def test_a_method_that_runs_does_not_hide_its_namesake():
    ran = recorded()
    defined = reachability.functions(FIXTURE)
    assert reachability.check(defined, ran, {}) == [
        f"{FILE}:{reach_fixture.Uncalled.shared.__code__.co_firstlineno}: "
        "Uncalled.shared runs on no entry point",
    ]
    # keyed by file and name alone, Uncalled.shared would pass as run
    assert (FILE, "shared") in {(path, name) for path, _, name in ran}


def test_a_decorated_function_is_keyed_by_its_first_decorator():
    defined = reachability.functions(FIXTURE)
    with open(reach_fixture.__file__, encoding="utf-8") as handle:
        first = handle.read().splitlines().index("@contextlib.contextmanager") + 1
    assert defined[(FILE, first, "decorated")] == f"{FILE}::decorated"
    assert (FILE, first, "decorated") in recorded()


def test_an_interface_stub_is_not_a_function_to_run():
    labels = set(reachability.functions(FIXTURE).values())
    assert f"{FILE}::Interface.shared" not in labels
    assert f"{FILE}::Interface.other" not in labels
    assert f"{FILE}::Called.shared" in labels


def test_an_allowlisted_function_passes():
    allowed = {f"{FILE}::Uncalled.shared": (TEST, "")}
    assert reachability.check(reachability.functions(FIXTURE), recorded(), allowed) == []


def test_a_stale_allowlist_entry_fails():
    defined, ran = reachability.functions(FIXTURE), recorded()
    allowed = {
        f"{FILE}::Uncalled.shared": (TEST, ""),
        f"{FILE}::Called.shared": (TEST, ""),
        f"{FILE}::Gone.shared": (TEST, ""),
    }
    assert reachability.check(defined, ran, allowed) == [
        f"allowlist: {FILE}::Called.shared now runs on an entry point; drop its entry",
        f"allowlist: {FILE}::Gone.shared is no longer defined",
    ]
    allowed = {f"{FILE}::Uncalled.shared": ("tests/golden/test_gone.py::test_x", "")}
    assert reachability.check(defined, ran, allowed) == [
        f"allowlist: {FILE}::Uncalled.shared names tests/golden/test_gone.py::test_x, "
        "which does not exist",
    ]


def test_a_flipping_entry_may_run():
    allowed = {
        f"{FILE}::Uncalled.shared": (TEST, ""),
        f"{FILE}::Called.shared": (TEST, "flips: runs on some recordings"),
    }
    assert reachability.check(reachability.functions(FIXTURE), recorded(), allowed) == []


def test_the_allowlist_names_functions_and_tests_that_exist():
    """The cheap half of the check, without recording anything: every entry
    names a function under src/repro/ and a test that exists."""
    labels = set(reachability.functions(reachability.PACKAGE).values())
    allowed = reachability.read_allowlist(reachability.ALLOWLIST)
    assert sorted(set(allowed) - labels) == []
    assert [
        test for test, _ in allowed.values() if not reachability.names_a_test(test)
    ] == []


def test_from_rechecks_what_keep_recorded(tmp_path, monkeypatch, capsys):
    """``--keep DIR`` records one tiny entry point; ``--from DIR`` reads
    that recording back without running anything, to the same verdict."""
    monkeypatch.setattr(reachability, "ENTRY_POINTS", (
        ("{py}", "-c", "from tests.golden import reach_fixture; reach_fixture.run()"),
    ))
    monkeypatch.setattr(reachability, "PACKAGE", FIXTURE)
    allowlist = tmp_path / "allow"
    allowlist.write_text("", encoding="utf-8")
    monkeypatch.setattr(reachability, "ALLOWLIST", str(allowlist))
    history = tmp_path / "history.jsonl"
    history.write_bytes(b"")
    monkeypatch.setattr(reachability, "HISTORY", str(history))
    kept = str(tmp_path / "kept")

    def verdict(*argv):
        status = reachability.main(list(argv))
        lines = capsys.readouterr().out.splitlines()
        return status, [line for line in lines if not line.startswith("== ")]

    recorded = verdict("--keep", kept)
    assert recorded == verdict("--from", kept)
    status, lines = recorded
    assert status == 1
    assert lines[1:] == [
        f"{FILE}:{reach_fixture.Uncalled.shared.__code__.co_firstlineno}: "
        "Uncalled.shared runs on no entry point",
    ]
