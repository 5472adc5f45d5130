"""One benchmark run of one workload, in a fresh interpreter.

`run.py` starts this script once per run, so every run pays the import and
starts with the module-level caches of `rationals` and `pairing` empty, as a
user's process would.  It prints one JSON object on its standard output:

* `setup_s`: from the parent's spawn timestamp (`time.monotonic`, which is
  system-wide) to the start of the timed phase, so it covers interpreter
  start, the import and any tower the workload pre-builds;
* `run_s`, `ops`, `failed`, and `latencies_us` (one per request: an
  evaluation on `query-warm`, the whole timed phase otherwise);
* `peak_rss_mib`, read right after the timed phase;
* `digests` of the outputs, compared here with the recorded ones;
* `caches`, the sizes of the module-level caches at the end of the run;
* with `--trace 1`, `layers`, the per-layer metrics of `layers.py`.

Inputs come from `--seed`: the seed picks one of `VARIANTS` recorded input
variants for the workloads checked against recorded digests (grid-cold,
query-warm, pairs-long), and seeds the checks of `certify` directly, whose
reports check themselves.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
VARIANTS = 16

# Sizes per profile.  "full" is what BENCHMARK.json runs; "smoke" keeps the
# same code paths at sizes that finish in about a second.
SIZES = {
    "full": {
        # denominator 7 on the unit square needs levels 0..248
        "grid-cold": {"denominator": 7},
        "query-warm": {"levels": 256, "queries": 40000, "tent_share": 0.5},
        "certify": {
            "singleton_levels": 150,
            "welldef_side": 64,
            "range_levels": 150,
            "density_pitch": 20,
            "witness_boxes": 50,
            "section_levels": 32,
            "section_samples": 200,
            "oracle_depth": 5,
            "oracle_samples": 600,
        },
        "pairs-long": {"count": 40000, "count_step": 16},
    },
    "smoke": {
        "grid-cold": {"denominator": 3},
        "query-warm": {"levels": 16, "queries": 200, "tent_share": 0.5},
        "certify": {
            "singleton_levels": 12,
            "welldef_side": 4,
            "range_levels": 12,
            "density_pitch": 4,
            "witness_boxes": 4,
            "section_levels": 3,
            "section_samples": 5,
            "oracle_depth": 3,
            "oracle_samples": 5,
        },
        "pairs-long": {"count": 300, "count_step": 16},
    },
}
WORKLOADS = tuple(SIZES["full"])


def import_crossweave():
    """Import the package from this checkout's `src`, never from elsewhere."""
    if not (SRC / "crossweave" / "__init__.py").is_file():
        raise SystemExit(f"no crossweave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import crossweave

    if Path(crossweave.__file__).resolve().parent != SRC / "crossweave":
        raise SystemExit(f"crossweave imported from {crossweave.__file__}, not {SRC}")
    return crossweave


def tables_digest(woven, levels: int) -> str:
    """sha256 of the first `levels` rows of the parameter tables, as p/q."""
    from crossweave.rationals import format_rational

    digest = hashlib.sha256()
    for level in range(levels):
        column = ",".join(format_rational(v) for v in woven.column_params[level])
        row = ",".join(format_rational(v) for v in woven.row_params[level])
        digest.update(f"{level}|{column}|{row}\n".encode("ascii"))
    return digest.hexdigest()


def small_rational(rng: random.Random) -> Fraction:
    denominator = rng.choice((1, 2, 3, 4, 8, 16, 64))
    return Fraction(rng.randint(-8 * denominator, 8 * denominator), denominator)


def planned_ops(workload: str, sizes: dict, seed: int) -> int:
    """Ops a run attempts; a run that dies early counts all of them failed."""
    if workload == "grid-cold":
        return (sizes["denominator"] + 1) ** 2
    if workload == "query-warm":
        return sizes["queries"]
    if workload == "certify":
        return 7
    return sizes["count"] + sizes["count_step"] * (seed % VARIANTS)


# -- workloads: the constructor is the set-up; timed() returns (ops, failed,
#    latencies in ns); check() returns the output digests, after the timed phase.


class GridCold:
    """`crossweave grid` over the unit square; the tower is built while timed."""

    def __init__(self, sizes: dict, seed: int) -> None:
        d = sizes["denominator"]
        y_min = Fraction(seed % VARIANTS - VARIANTS // 2, d)
        self.cells = planned_ops("grid-cold", sizes, seed)
        WORK.mkdir(exist_ok=True)
        self.out = WORK / f"grid-{os.getpid()}.csv"
        self.argv = [
            "grid",
            "--denominator", str(d),
            f"--y-min={y_min}",
            f"--y-max={y_min + 1}",
            "--out", str(self.out),
        ]  # fmt: skip

    def timed(self):
        from crossweave import cli

        start = time.perf_counter_ns()
        code = cli.main(self.argv)
        latency = time.perf_counter_ns() - start
        return self.cells, 0 if code == 0 else self.cells, [latency]

    def check(self) -> dict:
        data = self.out.read_bytes()
        self.out.unlink()
        if data.count(b"\n") != self.cells + 1:
            return {"variant": "wrong cell count"}
        return {"variant": hashlib.sha256(data).hexdigest()}


class QueryWarm:
    """A seeded stream of single evaluations against a tower built in set-up.

    Half the queries go through the column route `value`, half through the
    row route `value_via_row`.  A share `tent_share` of the points lies on
    the level's own line at an offset from its center smaller than the
    level's tent radius, so the center's tent (value 1) covers them and the
    evaluation takes the tent-and-multiply path.  The others are small
    random rationals, which mostly hit the zero early exit.
    """

    def __init__(self, sizes: dict, seed: int) -> None:
        from crossweave import WovenFunction

        self.levels = sizes["levels"]
        self.woven = WovenFunction()
        self.woven.build_to(self.levels - 1)
        rng = random.Random(seed % VARIANTS)
        pairs = self.woven.pairing.pairs
        self.queries = []
        for _ in range(sizes["queries"]):
            level = rng.randrange(self.levels)
            by_row = rng.random() < 0.5
            in_tent = rng.random() < sizes["tent_share"]
            center_x, center_y = pairs[level]
            if in_tent:
                radius = self.woven.cross(level).radius
                free = (center_x if by_row else center_y) + radius * Fraction(
                    rng.randint(-63, 63), 64
                )
            else:
                free = small_rational(rng)
            point = (free, center_y) if by_row else (center_x, free)
            self.queries.append((by_row, point))

    def timed(self):
        from crossweave import rationals

        value = self.woven.value
        value_via_row = self.woven.value_via_row
        self.rows = rows = []
        latencies = []
        failed = 0
        clock = time.perf_counter_ns
        for by_row, (x, y) in self.queries:
            start = clock()
            try:
                v = value_via_row(x, y) if by_row else value(x, y)
                rows.append(
                    f"{rationals.format_rational(x)},{rationals.format_rational(y)},"
                    f"{rationals.format_rational(v)},{rationals.decimal_approx(v)}\n"
                )
            except Exception:
                failed += 1
                rows.append("error\n")
            latencies.append(clock() - start)
        return len(self.queries), failed, latencies

    def check(self) -> dict:
        if self.woven.built_levels != self.levels:
            raise RuntimeError("the query stream grew the tower while timed")
        return {
            "variant": hashlib.sha256("".join(self.rows).encode("ascii")).hexdigest(),
            "tables": tables_digest(self.woven, self.levels),
        }


class Certify:
    """Every `verify` check at reduced scale on a tower built in set-up."""

    def __init__(self, sizes: dict, seed: int) -> None:
        from crossweave import WovenFunction

        s = sizes
        self.levels = max(
            s["singleton_levels"],
            s["welldef_side"],
            s["range_levels"],
            3 * s["witness_boxes"],
            s["section_levels"],
            s["oracle_depth"] + 1,
        )
        self.woven = WovenFunction()
        self.woven.build_to(self.levels - 1)
        self.checks = [
            ("check_singleton_image", {"levels": s["singleton_levels"]}),
            ("check_welldefined", {"columns": s["welldef_side"], "rows": s["welldef_side"]}),
            ("check_parameter_range", {"levels": s["range_levels"]}),
            (
                "check_image_density",
                {"pitch": s["density_pitch"], "eps": Fraction(1, 2 * s["density_pitch"])},
            ),
            ("nonfeeble_witness", {"boxes": s["witness_boxes"]}),
            (
                "check_sections",
                {
                    "levels": s["section_levels"],
                    "samples_per_kind": s["section_samples"],
                    "seed": seed,
                },
            ),
            (
                "check_oracle_equivalence",
                {"max_level": s["oracle_depth"], "samples": s["oracle_samples"], "seed": seed},
            ),
        ]

    def timed(self):
        from crossweave import verify

        self.failures = []
        start = time.perf_counter_ns()
        for name, kwargs in self.checks:
            try:
                report = getattr(verify, name)(self.woven, **kwargs)
                if not report.passed:
                    self.failures.append(f"{name}: {report.text_line()}")
            except Exception:
                self.failures.append(f"{name}: {traceback.format_exc()}")
        # the request is the whole certification, as `verify --suite all` is
        latency = time.perf_counter_ns() - start
        return len(self.checks), len(self.failures), [latency]

    def check(self) -> dict:
        for failure in self.failures:
            print(failure, file=sys.stderr)
        if self.woven.built_levels != self.levels:
            raise RuntimeError("the checks grew the tower while timed")
        return {"tables": tables_digest(self.woven, self.levels)}


class PairsLong:
    """`crossweave pairs --count N --json` into an in-memory sink."""

    def __init__(self, sizes: dict, seed: int) -> None:
        self.count = planned_ops("pairs-long", sizes, seed)

    def timed(self):
        from crossweave import cli

        self.sink = io.StringIO()
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(self.sink):
            code = cli.main(["pairs", "--count", str(self.count), "--json"])
        latency = time.perf_counter_ns() - start
        return self.count, 0 if code == 0 else self.count, [latency]

    def check(self) -> dict:
        payload = self.sink.getvalue().encode("ascii")
        return {"variant": hashlib.sha256(payload).hexdigest()}


CLASSES = {
    "grid-cold": GridCold,
    "query-warm": QueryWarm,
    "certify": Certify,
    "pairs-long": PairsLong,
}


def expected_digests(golden: dict, workload: str, seed: int) -> dict:
    recorded = golden[workload]
    expected = {}
    if "variants" in recorded:
        expected["variant"] = recorded["variants"][seed % VARIANTS]
    if "tables" in recorded:
        expected["tables"] = recorded["tables"]
    return expected


def run(workload: str, profile: str, seed: int, spawned: float, trace: bool) -> dict:
    """Set up, time and check one workload; `spawned` is the parent's monotonic time."""
    import_crossweave()
    tracer = None
    if trace:
        import layers  # imports crossweave, so only after import_crossweave
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    sizes = SIZES[profile][workload]
    phase = tracer.phase if tracer else lambda name: contextlib.nullcontext()

    with phase("setup"):
        state = CLASSES[workload](sizes, seed)
    setup_s = time.monotonic() - spawned
    with phase("timed"):
        start = time.perf_counter()
        ops, failed, latencies = state.timed()
        run_s = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # before the checks, whose own calls of the wrapped functions would count
    layer_metrics = layers.metrics(tracer) if tracer is not None else None

    from crossweave import pairing, rationals

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "ops": ops,
        "failed": failed,
        "latencies_us": [ns / 1000 for ns in latencies],
        "peak_rss_mib": peak_rss_mib,
        "digests": state.check(),
        "caches": {
            "rationals.tree_cache.size": rationals._tree_value.cache_info().currsize,
            "pairing.box_cache.size": len(pairing._box_cache),
        },
    }
    if layer_metrics is not None:
        result["layers"] = layer_metrics
        WORK.mkdir(exist_ok=True)
        tracer.write(str(WORK / f"spans-{workload}.tsv"))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--profile", choices=tuple(SIZES), default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", help="recorded digests to check against (JSON)")
    args = parser.parse_args()

    result = run(args.workload, args.profile, args.seed, args.spawned, bool(args.trace))
    if args.golden is not None:
        with open(args.golden, encoding="utf-8") as stream:
            golden = json.load(stream)[args.profile]
        expected = expected_digests(golden, args.workload, args.seed)
        mismatched = sorted(
            key for key, value in expected.items() if result["digests"].get(key) != value
        )
        if not expected:
            mismatched = ["nothing recorded to check against"]
        if mismatched:
            print(f"output mismatch in {args.workload}: {mismatched}", file=sys.stderr)
            result["failed"] = result["ops"]
        result["mismatched"] = mismatched
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    main()
