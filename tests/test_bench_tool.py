"""tools/bench.py: the BENCH file recorder, on made-up run output (no benchmark runs)."""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench_tool", _PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

BOUNDS = {
    "run_s": {"name": "run_s", "better": "lower", "bound": 0.25},
    "ops_per_s": {"name": "ops_per_s", "better": "higher", "bound": 0.25},
}


def final(values):
    """A run's aggregate line with these metric values."""
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}


def test_parse_run_takes_the_first_machine_and_the_last_line():
    lines = [
        {"workload": "a", "machine": {"nproc": 2}},
        {"workload": "a", "correct": True, "metrics": {"run_s": {"value": 1.0}}},
        {"workload": "b", "machine": {"nproc": 3}},
        final({"a.run_s": 1.0}),
    ]
    machine, last = bench.parse_run("\n".join(map(json.dumps, lines)) + "\n")
    assert machine == {"nproc": 2}
    assert last == lines[-1]


def test_parse_run_refuses_a_run_without_its_aggregate():
    with pytest.raises(ValueError):
        bench.parse_run('{"workload": "a", "machine": {}}\n')
    with pytest.raises(ValueError):
        bench.parse_run("")


def test_aggregate_takes_the_median_of_the_shared_metrics():
    runs = [final({"a.run_s": 3.0, "a.x": 1.0}), final({"a.run_s": 1.0}), final({"a.run_s": 2.0})]
    assert bench.aggregate(runs) == {"a.run_s": {"value": 2.0, "unit": "s"}}


@pytest.mark.parametrize(
    "name, before, after, flag",
    [
        ("w.run_s", 1.0, 1.25, False),  # at the bound
        ("w.run_s", 1.0, 1.26, True),
        ("w.run_s", 1.0, 0.5, False),  # better
        ("w.ops_per_s", 100.0, 75.0, False),
        ("w.ops_per_s", 100.0, 74.0, True),
        ("w.ops_per_s", 100.0, 200.0, False),
        ("w.unbounded_metric", 1.0, 100.0, False),
    ],
)
def test_flagged_applies_each_bound_in_its_direction(name, before, after, flag):
    previous = {name: {"value": before, "unit": "s"}}
    current = {name: {"value": after, "unit": "s"}}
    assert bool(bench.flagged(previous, current, BOUNDS)) == flag


def test_a_metric_new_since_the_last_file_is_not_flagged():
    assert bench.flagged({}, {"w.run_s": {"value": 9.0, "unit": "s"}}, BOUNDS) == []


def test_bench_files_are_numbered(tmp_path):
    for name in ("BENCH_2.json", "BENCH_10.json", "BENCH_1.json", "BENCH_x.json", "BENCH.json"):
        (tmp_path / name).write_text("{}")
    assert [n for n, _ in bench.bench_files(tmp_path)] == [1, 2, 10]


def test_differs_names_what_a_previous_file_was_taken_with_otherwise():
    previous = {"command": ["run", "--seed", "1"], "machine": {"nproc": 2}}
    assert bench.differs(previous, ["run", "--seed", "1"], {"nproc": 2}) == []
    assert bench.differs(previous, ["run", "--seed", "2"], {"nproc": 2}) == ["command"]
    assert bench.differs(previous, ["run", "--seed", "2"], {"nproc": 4}) == [
        "command",
        "machine",
    ]


def fake_root(tmp_path, monkeypatch, returncode, stdout):
    """Point the recorder at `tmp_path`, where every run exits with `returncode`."""
    declared = {"command": ["run"], "end_to_end": list(BOUNDS.values())}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))
    monkeypatch.setattr(bench, "ROOT", tmp_path)

    def run(command, **kwargs):
        return bench.subprocess.CompletedProcess(command, returncode, stdout=stdout)

    monkeypatch.setattr(bench.subprocess, "run", run)


def test_a_run_that_exits_nonzero_writes_no_file(tmp_path, monkeypatch):
    stdout = json.dumps({"machine": {"nproc": 2}}) + "\n" + json.dumps(final({"w.run_s": 1.0}))
    fake_root(tmp_path, monkeypatch, 1, stdout)
    assert bench.main() == 1
    assert bench.bench_files(tmp_path) == []


def test_a_file_from_another_machine_is_not_compared_with(tmp_path, monkeypatch):
    stdout = json.dumps({"machine": {"nproc": 2}}) + "\n" + json.dumps(final({"w.run_s": 9.0}))
    fake_root(tmp_path, monkeypatch, 0, stdout)
    command = ["run", "--workload", "all", "--seed", "2026", "--seconds", "4"]
    metrics = final({"w.run_s": 1.0})["metrics"]
    earlier = {"command": command, "machine": {"nproc": 8}, "metrics": metrics}
    (tmp_path / "BENCH_1.json").write_text(json.dumps(earlier))
    assert bench.main() == 0
    record = json.loads((tmp_path / "BENCH_2.json").read_text())
    assert record["compared_with"] is None and record["flagged"] == []
    earlier["machine"] = {"nproc": 2}  # the same machine: 1.0 -> 9.0 s is flagged
    (tmp_path / "BENCH_2.json").write_text(json.dumps(earlier))
    assert bench.main() == 1
    record = json.loads((tmp_path / "BENCH_3.json").read_text())
    assert record["compared_with"] == "BENCH_2.json" and len(record["flagged"]) == 1


def fake_processes(monkeypatch, seconds, failing=None):
    """Replace the recorder's runs: the harness prints one run of `w.run_s`
    1.0, and the k-th start of a timed process takes seconds[name][k], by a
    clock that only those processes advance; `failing` exits with 1.  Every
    call is recorded as (argv, cwd, PYTHONPATH)."""
    stdout = json.dumps({"machine": {"nproc": 2}}) + "\n" + json.dumps(final({"w.run_s": 1.0}))
    names = {tuple(args): name for name, args in bench.PROCESSES.items()}
    clock, started, calls = [0.0], {}, []

    def run(command, **kwargs):
        calls.append((command, kwargs.get("cwd"), kwargs.get("env", {}).get("PYTHONPATH")))
        name = names.get(tuple(command[1:]))
        if name is None:
            return bench.subprocess.CompletedProcess(command, 0, stdout=stdout)
        k = started[name] = started.get(name, -1) + 1
        clock[0] += seconds[name][k]
        return bench.subprocess.CompletedProcess(command, int(name == failing))

    monkeypatch.setattr(bench.subprocess, "run", run)
    monkeypatch.setattr(bench, "perf_counter", lambda: clock[0])
    return calls


def test_each_process_is_timed_fresh_in_turn_and_recorded_as_its_median(
    tmp_path, monkeypatch
):
    fake_root(tmp_path, monkeypatch, 0, "")
    names = list(bench.PROCESSES)
    seconds = {name: [3.0 + k, 1.0 + k, 2.0 + k] for k, name in enumerate(names)}
    calls = fake_processes(monkeypatch, seconds)
    assert bench.main() == 0
    timed = [(command, cwd, path) for command, cwd, path in calls if command[0] == sys.executable]
    # the commands take turns, from the root, with its src first on the path
    assert [command[1:] for command, _, _ in timed] == list(bench.PROCESSES.values()) * bench.RUNS
    assert all(cwd == tmp_path for _, cwd, _ in timed)
    assert all(path.split(os.pathsep)[0] == str(tmp_path / "src") for _, _, path in timed)
    record = json.loads((tmp_path / "BENCH_1.json").read_text())
    for k, name in enumerate(names):
        assert record["metrics"][f"process.{name}"] == {"value": 2.0 + k, "unit": "s"}
    assert record["metrics"]["w.run_s"]["value"] == 1.0
    assert set(record["processes"]) == set(names)


def test_a_process_that_exits_nonzero_writes_no_file(tmp_path, monkeypatch):
    fake_root(tmp_path, monkeypatch, 0, "")
    seconds = {name: [1.0] * bench.RUNS for name in bench.PROCESSES}
    fake_processes(monkeypatch, seconds, failing="grid_8_s")
    assert bench.main() == 1
    assert bench.bench_files(tmp_path) == []


def test_a_slower_process_is_recorded_but_not_flagged(tmp_path, monkeypatch):
    """No bound covers `process.*`: a hundred times slower is not a flag."""
    fake_root(tmp_path, monkeypatch, 0, "")
    seconds = {name: [100.0] * bench.RUNS for name in bench.PROCESSES}
    fake_processes(monkeypatch, seconds)
    command = ["run", "--workload", "all", "--seed", "2026", "--seconds", "4"]
    metrics = {f"process.{name}": {"value": 1.0, "unit": "s"} for name in bench.PROCESSES}
    earlier = {"command": command, "machine": {"nproc": 2}, "metrics": metrics}
    (tmp_path / "BENCH_1.json").write_text(json.dumps(earlier))
    assert bench.main() == 0
    record = json.loads((tmp_path / "BENCH_2.json").read_text())
    assert record["compared_with"] == "BENCH_1.json" and record["flagged"] == []
    assert record["metrics"]["process.lipschitz_16384_s"]["value"] == 100.0
