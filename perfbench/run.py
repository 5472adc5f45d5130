"""The crossweave benchmark: four closed-loop, single-caller workloads.

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Each run of a workload happens in a fresh interpreter (`child.py`), one at a
time, so module-level caches start empty as in a user's process.  Runs
repeat until `--seconds` have passed and at least `MIN_RUNS` have finished;
every reported figure is a median over runs, latency percentiles included:
each run's own p50 and p99 first, then their medians.

Workloads (sizes in `child.SIZES`):

* `grid-cold`: `cli.main(["grid", ...])` over the unit square at pitch 1/7,
  written to a file.  The deepest column needs level 248, so nearly all the
  time goes to building the tower: the write path, where a sparse cross
  must show.  One op is one CSV cell.
* `query-warm`: a 256-level tower is built in set-up; the timed phase is a
  stream of 40 000 single evaluations, half through `value` and half
  through `value_via_row`, each rendered as a CSV row.  Half the points lie
  inside the tent of their level's center, the rest are small random
  rationals that mostly take the zero exit.  Nothing is built while timed,
  so work moved from building into evaluation shows here.  One op is one
  evaluation.
* `certify`: a 150-level tower is built in set-up; the timed phase runs the
  seven `verify` checks at reduced scale with the seed.  Dominated by
  `verify`, with the exponential oracle held to depth 5.  One op is one check.
* `pairs-long`: `cli.main(["pairs", "--count", N, "--json"])` into memory,
  N about 40 000.  The only workload where `rationals` and `pairing` do the
  work and where their module-level caches grow.  One op is one pair.

End-to-end metrics (`--trace 0`), on every workload:

* `setup_s`: from spawning the interpreter to the start of the timed phase;
* `run_s`: wall time of the timed phase;
* `ops_per_s`: ops divided by `run_s`;
* `query_p50_us`, `query_p99_us`: latency of one request.  On `query-warm`
  a request is one evaluation.  The other workloads make one request per
  run (one CLI call, or the whole certification), so there both equal
  `run_s`; they are printed because every workload reports every metric.
  The sample counts per run are printed on the line before the result;
* `peak_rss_mib`: the run's peak resident set (`ru_maxrss`).

Every output is checked: the CSV, the evaluation results, the pairs JSON
and the parameter tables against sha256 digests recorded in `golden.json`,
and every `verify` report must pass.  A mismatch, a failing report or a run
that dies counts its ops as failed; `failed_ratio` is printed on the line
before the result.

`--trace 1` alternates untraced runs with traced ones, in which `layers.py`
wraps the public functions of every module, and reports the per-layer
metrics (medians over traced runs) plus `trace.overhead_s`, the traced
minus the untraced `run_s`.  The spans of the last traced run are written
to `.perfbench/spans-<workload>.tsv`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402

MIN_RUNS = 3  # untraced runs per measurement; traced mode needs 2 of each kind
MIN_TRACE_RUNS = 2
DEADLINE_S = 150  # start no run that would likely end after this

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "peak_rss_mib": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".scan_yield")):
        return "ratio"
    return "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": cpu_model(),
    }


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted, nonempty list."""
    rank = max(1, -(-len(sorted_values) * share // 1))
    return sorted_values[int(rank) - 1]


def spawn(args: argparse.Namespace, workload: str, traced: bool, timeout: float) -> dict | None:
    """One run in a fresh interpreter; None when it dies or prints no result."""
    command = [
        sys.executable, "-I", str(HERE / "child.py"),
        "--workload", workload,
        "--profile", args.profile,
        "--seed", str(args.seed),
        "--trace", str(int(traced)),
        "--golden", str(args.golden),
        "--spawned", repr(time.monotonic()),
    ]  # fmt: skip
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: run exceeded {timeout:.0f} s and was stopped", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{workload}: run exited with code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def measure(args: argparse.Namespace, workload: str) -> tuple[dict, dict]:
    """Repeat runs of one workload; return the result object and the extras."""
    planned = child.planned_ops(workload, child.SIZES[args.profile][workload], args.seed)
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    begin = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - begin
        if args.trace:
            enough = len(plain) >= MIN_TRACE_RUNS and len(traced) >= MIN_TRACE_RUNS
        else:
            enough = len(plain) >= MIN_RUNS
        if (enough and elapsed >= args.seconds) or elapsed + longest > DEADLINE_S:
            break
        want_trace = bool(args.trace) and len(plain) > len(traced)
        started = time.monotonic()
        result = spawn(args, workload, want_trace, timeout=DEADLINE_S + 20 - elapsed)
        longest = max(longest, time.monotonic() - started)
        if result is None:
            attempted += planned
            failed += planned
            if not enough:
                break  # a run that dies will die again; do not burn the budget
            continue
        attempted += result["ops"]
        failed += result["failed"]
        (traced if want_trace else plain).append(result)

    metrics: dict[str, dict] = {}
    if plain and not args.trace:
        for run in plain:
            run["latencies_us"].sort()
        values = {
            "setup_s": statistics.median(run["setup_s"] for run in plain),
            "run_s": statistics.median(run["run_s"] for run in plain),
            "ops_per_s": statistics.median(run["ops"] / run["run_s"] for run in plain),
            "query_p50_us": statistics.median(
                percentile(run["latencies_us"], 0.50) for run in plain
            ),
            "query_p99_us": statistics.median(
                percentile(run["latencies_us"], 0.99) for run in plain
            ),
            "peak_rss_mib": statistics.median(run["peak_rss_mib"] for run in plain),
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }
    elif plain and traced:
        untraced_run_s = statistics.median(run["run_s"] for run in plain)
        layer_values = {
            name: statistics.median(run["layers"][name] for run in traced)
            for name in traced[0]["layers"]
        }
        layer_values["trace.untraced_run_s"] = untraced_run_s
        layer_values["trace.overhead_s"] = layer_values["trace.run_s"] - untraced_run_s
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in layer_values.items()
        }

    runs = plain + traced
    if attempted == 0:
        attempted = failed = 1  # nothing attempted is a failure, never a pass
    extras = {
        "workload": workload,
        "seed": args.seed,
        "variant": args.seed % child.VARIANTS,
        "profile": args.profile,
        "sizes": child.SIZES[args.profile][workload],
        "machine": machine_facts(),
        "runs": {"untraced": len(plain), "traced": len(traced)},
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        "query_samples_per_run": [len(run["latencies_us"]) for run in plain],
        "caches": runs[-1]["caches"] if runs else {},
    }
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, extras


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*child.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=tuple(child.SIZES), default="full")
    parser.add_argument(
        "--golden", type=Path, default=HERE / "golden.json", help="recorded output digests"
    )
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "crossweave" / "__init__.py").is_file():
        print(f"refused: no crossweave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.golden.is_file():
        print(f"refused: no recorded digests at {args.golden}", file=sys.stderr)
        return 2

    workloads = child.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        result, extras = measure(args, workload)
        print(json.dumps(extras), flush=True)
        if args.workload == "all":
            print(json.dumps({"workload": workload, **result}), flush=True)
        results[workload] = result

    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    else:
        final = results[args.workload]
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
