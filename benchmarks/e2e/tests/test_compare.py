"""`compare` verdicts against a bound."""

import json

import compare


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [100.2, 99.8, 100.0, 101.0, 99.0], "higher", 0.10) == "ok"
    assert compare.verdict(base, [85.0, 86.0, 84.0, 85.5, 84.5], "higher", 0.10) == "regressed"
    assert compare.verdict(base, [85.0, 86.0, 84.0, 85.5, 84.5], "lower", 0.10) == "ok"
    assert compare.verdict(base, [120.0, 121.0, 119.0], "lower", 0.10) == "regressed"
    # too wide to call unchanged
    assert compare.verdict(base, [80.0, 120.0, 100.0, 90.0, 110.0], "higher", 0.10) == "unresolved"
    # a single run has no spread to judge by
    assert compare.verdict([100.0], [100.0], "higher", 0.10) == "unresolved"


def test_compare_reads_result_files_and_fails_on_regression(tmp_path, capsys):
    def rows(path, rate):
        with open(path, "w") as handle:
            for i in range(5):
                handle.write(json.dumps({
                    "workload": "fig6_rt", "trace": 0,
                    "metrics": {"msgs_per_s": {"value": rate + i * 0.1, "unit": "1/s"}},
                }) + "\n")
            handle.write(json.dumps({"workload": "fig6_rt", "trace": 1, "metrics": {}}) + "\n")

    rows(tmp_path / "a.jsonl", 400.0)
    rows(tmp_path / "b.jsonl", 401.0)
    rows(tmp_path / "c.jsonl", 300.0)
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 0
    assert " ok" in capsys.readouterr().out
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "c.jsonl")]) == 1
    assert "regressed" in capsys.readouterr().out
