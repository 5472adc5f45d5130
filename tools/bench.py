"""Record the end-to-end benchmark in a BENCH file and compare it with the last one.

    python3 tools/bench.py

Each of its three runs is the command that `BENCHMARK.json` declares, with
`--workload all --seed 2026 --seconds 4`.  Such a run prints, per workload,
a header line (`sizes`, `machine`, `runs`) and a result line, and last one
line that aggregates every end-to-end metric as `<workload>.<metric>`.  This
script takes that last line of each run and the `machine` of the first
header.  It then times each command of `PROCESSES` as a fresh process, with
`src` on the path, three times in turn, as `process.<name>`.  It writes the
median of each metric over the runs to `BENCH_<n>.json` at the repository
root, n one past the highest BENCH file there.  A run or a timed process
that exits nonzero stops the script with status 1 before any file is
written.

It then flags each metric that is worse than in `BENCH_<n-1>.json` by more
than its relative bound in `BENCHMARK.json`, in the direction that the
metric's `better` names; no bound covers the `process.*` metrics, so they
are recorded and never flagged.  The flags are printed and stored in the
new file.  A previous file taken with another command or on another
machine is not compared with, and the new file says so.  The exit status
is 1 when a run or a timed process fails, a run reports a failed check or
a metric is flagged, else 0.  Standard library only.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3
SEED = 2026
SECONDS = 4  # per workload and run; one run of all four workloads takes about 17 s

# the commands timed as fresh processes, each the interpreter's arguments
PROCESSES = {
    "verify_all_s": ["-m", "crossweave.cli", "verify", "--suite", "all"],
    "lipschitz_16384_s": [
        "-m", "crossweave.cli", "verify", "--suite", "lipschitz", "--depth", "16384",
    ],
    "oracle_256_s": ["-m", "crossweave.cli", "verify", "--suite", "oracle", "--depth", "256"],
    "welldef_1024_s": ["-m", "crossweave.cli", "verify", "--suite", "welldef", "--depth", "1024"],
    "grid_8_s": ["-m", "crossweave.cli", "grid", "--denominator", "8"],
    "import_cli_s": ["-c", "import crossweave.cli"],
}  # fmt: skip


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The machine facts of the first header line and the final aggregate line."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    if not lines or "metrics" not in lines[-1]:
        raise ValueError("the run printed no aggregate line")
    machine = next((line["machine"] for line in lines if "machine" in line), {})
    return machine, lines[-1]


def aggregate(finals: list[dict]) -> dict:
    """The median of each metric that every run reports, with its unit."""
    names = set.intersection(*(set(final["metrics"]) for final in finals))
    return {
        name: {
            "value": statistics.median(final["metrics"][name]["value"] for final in finals),
            "unit": finals[0]["metrics"][name]["unit"],
        }
        for name in sorted(names)
    }


def flagged(previous: dict, current: dict, bounds: dict[str, dict]) -> list[str]:
    """Each metric worse than in `previous` by more than its bound, as a line.

    `bounds` maps a metric's last name part (`run_s`) to its `BENCHMARK.json`
    entry; metrics without an entry, or missing from `previous`, are not
    compared.
    """
    lines = []
    for name, metric in current.items():
        rule = bounds.get(name.rsplit(".", 1)[-1])
        if rule is None or name not in previous:
            continue
        before, after = previous[name]["value"], metric["value"]
        if rule["better"] == "lower":
            worse = after > before * (1 + rule["bound"])
        else:
            worse = after < before * (1 - rule["bound"])
        if worse:
            lines.append(
                f"{name}: {before:.6g} -> {after:.6g} {metric['unit']}, "
                f"beyond its bound of {rule['bound']:.0%} ({rule['better']} is better)"
            )
    return lines


def time_processes() -> dict | None:
    """The median wall time of each of `PROCESSES` over `RUNS` fresh
    processes, as `process.<name>` metrics; None when one exits nonzero.

    The commands take turns, so a change in the host's speed reaches each.
    """
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    times: dict[str, list[float]] = {name: [] for name in PROCESSES}
    for _ in range(RUNS):
        for name, args in PROCESSES.items():
            start = perf_counter()
            done = subprocess.run(
                [sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.DEVNULL
            )
            times[name].append(perf_counter() - start)
            if done.returncode != 0:
                print(f"{name} exited with code {done.returncode}", file=sys.stderr)
                return None
    return {
        f"process.{name}": {"value": statistics.median(values), "unit": "s"}
        for name, values in times.items()
    }


def differs(previous: dict, command: list[str], machine: dict) -> list[str]:
    """Which of `command` and `machine` a previous BENCH file has otherwise."""
    now = {"command": command, "machine": machine}
    return [key for key in now if previous.get(key) != now[key]]


def bench_files(root: Path) -> list[tuple[int, Path]]:
    """The BENCH files at `root`, by number."""
    found = []
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = [
        *declared["command"],
        "--workload", "all",
        "--seed", str(SEED),
        "--seconds", str(SECONDS),
    ]  # fmt: skip
    machine: dict = {}
    finals = []
    for run in range(RUNS):
        print(f"run {run + 1}/{RUNS}: {' '.join(command)}", file=sys.stderr, flush=True)
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(f"run {run + 1} exited with code {done.returncode}", file=sys.stderr)
            return 1
        facts, final = parse_run(done.stdout)
        machine = machine or facts
        finals.append(final)

    print(f"timing {len(PROCESSES)} commands as processes", file=sys.stderr, flush=True)
    processes = time_processes()
    if processes is None:
        return 1
    metrics = {**aggregate(finals), **processes}
    existing = bench_files(ROOT)
    number = existing[-1][0] + 1 if existing else 1
    previous = json.loads(existing[-1][1].read_text(encoding="utf-8")) if existing else None
    mismatch = differs(previous, command, machine) if previous else []
    if mismatch:
        print(
            f"not compared with {existing[-1][1].name}: its {' and '.join(mismatch)} differ",
            file=sys.stderr,
        )
        previous = None
    bounds = {rule["name"]: rule for rule in declared["end_to_end"] if "bound" in rule}
    flags = flagged(previous["metrics"], metrics, bounds) if previous else []
    record = {
        "command": command,
        "processes": {name: ["python", *args] for name, args in PROCESSES.items()},
        "runs": RUNS,
        "statistic": "median over runs",
        "machine": machine,
        "correct": all(final["correct"] for final in finals),
        "attempted": sum(final["attempted"] for final in finals),
        "failed": sum(final["failed"] for final in finals),
        "compared_with": existing[-1][1].name if previous else None,
        "flagged": flags,
        "metrics": metrics,
    }
    path = ROOT / f"BENCH_{number}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.name}: {len(metrics)} metrics, {record['failed']} failed ops")
    for line in flags:
        print(f"FLAGGED {line}")
    return 0 if record["correct"] and not flags else 1


if __name__ == "__main__":
    raise SystemExit(main())
