"""Smoke test of the benchmark itself: tiny inputs, every metric emitted,
and a spoiled known answer counted as a failure.

Run from the checkout root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    done = run_cli(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in specs)
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0] for line in lines[:-1]}
    expected = {"ops_failed_frac"}
    if not trace:
        expected |= set(bench.NAMED[workload]) | {"setup_s", "peak_rss_mb"}
    assert expected <= printed
    stamp = json.loads(lines[0].split(" ", 1)[1])
    assert {"python", "nproc", "git_revision", "seed", "inputs"} <= set(stamp)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_spoiled_answer_counts_as_failure(workload):
    result = bench.run(workload, seed=3, seconds=0, trace=False, root=ROOT, tiny=True,
                       corrupt=True)
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = run_cli(tmp_path, "--workload", "ladder", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
