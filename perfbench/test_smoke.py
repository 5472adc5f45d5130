"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench

Runs every workload once untraced and once traced with the `smoke` profile,
and checks that every metric of BENCHMARK.json is printed with its unit,
that call counts repeat exactly, that self times add up, and that a wrong
recorded digest makes the run fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*extra: str, trace: int = 0, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(cwd / "perfbench" / "run.py"),
        "--seed", "5", "--seconds", "0.1", "--trace", str(trace), "--profile", "smoke",
        *extra,
    ]  # fmt: skip
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed(workload: str) -> None:
    done = bench("--workload", workload)
    assert done.returncode == 0, done.stderr
    assert_metrics(last_json(done), SPEC["end_to_end"])
    extras = json.loads(done.stdout.strip().splitlines()[-2])
    assert extras["failed_ratio"] == {"value": 0.0, "unit": "ratio"}
    assert min(extras["query_samples_per_run"]) >= 1
    assert {"nproc", "python", "implementation", "platform", "cpu"} <= set(extras["machine"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_printed_and_counts_repeat(workload: str) -> None:
    first = bench("--workload", workload, trace=1)
    second = bench("--workload", workload, trace=1)
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    results = [last_json(first), last_json(second)]
    for result in results:
        assert_metrics(result, SPEC["per_layer"])
    counts = [
        {n: m["value"] for n, m in r["metrics"].items() if m["unit"] == "count"}
        for r in results
    ]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_the_traced_phases(workload: str) -> None:
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--profile", "smoke", "--seed", "5", "--trace", "1",
        "--spawned", repr(time.monotonic()),
    ]  # fmt: skip
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    layers = json.loads(done.stdout)["layers"]
    phases = layers["trace.setup_s"] + layers["trace.run_s"]
    attributed = layers["trace.layer_self_s"] + layers["trace.harness_self_s"]
    assert attributed == pytest.approx(phases, rel=1e-6, abs=1e-6)


def test_wrong_digest_counts_as_failed(tmp_path: Path) -> None:
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    golden["smoke"]["pairs-long"]["variants"] = ["0" * 64] * len(
        golden["smoke"]["pairs-long"]["variants"]
    )
    wrong = tmp_path / "golden.json"
    wrong.write_text(json.dumps(golden), encoding="utf-8")
    done = bench("--workload", "pairs-long", "--golden", str(wrong))
    assert done.returncode == 1
    result = last_json(done)
    assert result["correct"] is False and result["failed"] > 0
    extras = json.loads(done.stdout.strip().splitlines()[-2])
    assert extras["failed_ratio"]["value"] > 0


def test_refuses_without_the_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "pairs-long", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
