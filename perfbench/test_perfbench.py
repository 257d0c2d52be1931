"""Tests of the benchmark harness on the smoke workloads.

Run with: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    for workload in BENCHMARK["workloads"]:
        assert workload["why"] == run.WORKLOADS[workload["name"]].why
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_suite_smoke_reports_every_end_to_end_metric():
    proc = bench("--workload", "smoke-suite", "--seed", "3", "--seconds", "1", "--trace", "0")
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert re.search(r"^fail_share +0\.0000 share \(0 of \d+\)$", proc.stdout, re.M)


def test_traced_suite_smoke_sees_every_layer_across_threads():
    # smoke-suite runs --jobs 2, so checks run on pool threads; the run's
    # self-check fails if any active span records no calls
    result = result_of(bench("--workload", "smoke-suite", "--seed", "0", "--seconds", "1", "--trace", "1"))
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert all(metrics[f"suite.check_s.{c}"] > 0 for c in run.CHECK_IDS)
    assert 0 < metrics["trace.coverage"] <= 1


def test_traced_break_smoke_counts_repeat_exactly():
    runs = [
        result_of(bench("--workload", "smoke-break", "--seed", str(seed), "--seconds", "1", "--trace", "1"))
        for seed in (1, 2)
    ]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["categories.nerve_generators"] == 512
    assert counts[0]["homology.d2_check_calls"] == 2
    assert counts[0]["orders.act_calls"] == 0


def test_gate_rejects_a_report_that_differs_from_the_reference(tmp_path):
    reference = run.load_reference(2)
    reports = [dict(reference[c], wall_time=0.5) for c in run.CHECK_IDS]
    out = tmp_path / "out.json"
    out.write_text(json.dumps(reports))
    assert run.check_suite(out, list(run.CHECK_IDS), reference) == []
    reports[4] = dict(reports[4], details={"double_orders": {"1": 1}})
    out.write_text(json.dumps(reports))
    problems = run.check_suite(out, list(run.CHECK_IDS), reference)
    assert len(problems) == 1 and problems[0].startswith("free-action")
    assert run.check_suite(out, list(reversed(run.CHECK_IDS)), reference)


def test_gate_rejects_wrong_homology(tmp_path):
    out = tmp_path / "out.json"
    groups = [{"dim": k, "betti": b, "torsion": t} for k, (b, t) in enumerate(run.EXPECTED_HOMOLOGY[4])]
    out.write_text(json.dumps(groups))
    assert run.check_break(out, 4) == []
    groups[2]["torsion"] = []
    out.write_text(json.dumps(groups))
    assert run.check_break(out, 4)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "smoke-break", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_unknown_workload_is_refused():
    proc = bench("--workload", "suite-n9", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2
