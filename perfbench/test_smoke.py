"""Smoke test: every workload at tiny sizes, through the real command line.

Checks the output format (last line, metric names and units), that
every answer check passes (``success_frac`` is 1, so the error fraction
is 0), that the traced run writes its spans, that the determinism
guard accepts a same-seed rerun, rejects drift and ignores the record
of another program version, and that the command refuses to run without
the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CATALOGUE["workloads"]]
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def run_bench(cwd: Path, *args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def tiny(cwd: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return run_bench(
        cwd, "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_and_bounds():
    document = CATALOGUE
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert 2 <= len(document["workloads"]) <= 8
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    names += [w["name"] for w in document["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert len(name) <= 64 and set(name) <= NAME_CHARS and name[0].isalnum()
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = {m["name"]: m for m in document["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_end_to_end_and_traced(workload, tmp_path):
    result = last_json(tiny(tmp_path, workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in CATALOGUE["end_to_end"]}
    assert result["metrics"]["success_frac"]["value"] == 1.0
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name

    traced = last_json(tiny(tmp_path, workload, trace=1))
    assert traced["correct"] is True
    assert {
        name: m["unit"] for name, m in traced["metrics"].items()
    } == {m["name"]: m["unit"] for m in CATALOGUE["per_layer"]}
    spans = json.loads(
        (tmp_path / ".perfbench" / f"trace-{workload}-seed3.json").read_text()
    )["spans"]
    assert spans
    assert all(span[1] <= span[2] for span in spans)


def test_same_seed_is_deterministic_and_drift_fails(tmp_path):
    first = tiny(tmp_path, "cold_build", trace=0)
    second = tiny(tmp_path, "cold_build", trace=0)
    assert last_json(first)["correct"] and last_json(second)["correct"]
    counts = [
        json.loads(p.stdout.strip().splitlines()[-2])["diagnostics"]["counts"]
        for p in (first, second)
    ]
    assert counts[0] == counts[1]
    other = tiny(tmp_path, "cold_build", trace=0, seed=4)
    other_counts = json.loads(other.stdout.strip().splitlines()[-2])["diagnostics"]["counts"]
    assert other_counts["request_digest"] != counts[0]["request_digest"]

    record = tmp_path / ".perfbench" / "determinism.json"
    stored = json.loads(record.read_text())
    for entry in stored.values():
        entry["storage.blocks_read"] += 1
    record.write_text(json.dumps(stored))
    drifted = tiny(tmp_path, "cold_build", trace=0)
    assert drifted.returncode != 0
    assert json.loads(drifted.stdout.strip().splitlines()[-1])["correct"] is False
    assert "determinism" in drifted.stderr

    # The same drifted counts recorded for another program version (the
    # key's last field is the source digest) are not compared.
    record.write_text(json.dumps({
        key.rsplit(":", 1)[0] + ":" + "0" * 64: entry for key, entry in stored.items()
    }))
    assert last_json(tiny(tmp_path, "cold_build", trace=0))["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench(
        tmp_path, "--workload", "cold_build", "--seed", "1", "--seconds", "1",
        "--trace", "0", root=tmp_path,
    )
    assert proc.returncode == 2
    assert '"metrics"' not in proc.stdout
