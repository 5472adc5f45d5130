"""Record the output digests that every benchmark run is checked against.

    python3 perfbench/record_golden.py > perfbench/golden.json

Runs each workload once per input variant, in this process, and prints the
sha256 digests of its outputs as JSON.  The recorded file fixes the outputs
of the commit it was recorded at: rerun it only when a change is meant to
alter the construction's outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import time

import child


def record(profile: str) -> dict:
    recorded: dict[str, dict] = {}
    for workload in child.WORKLOADS:
        # certify's checks sample with the seed but its tables do not depend on it
        seeds = [0] if workload == "certify" else range(child.VARIANTS)
        variants, tables = [], set()
        for seed in seeds:
            result = child.run(workload, profile, seed, time.monotonic(), trace=False)
            if result["failed"]:
                raise SystemExit(f"{profile} {workload} seed {seed}: failing ops, not recorded")
            digests = result["digests"]
            if "variant" in digests:
                variants.append(digests["variant"])
            if "tables" in digests:
                tables.add(digests["tables"])
        entry: dict[str, object] = {}
        if variants:
            entry["variants"] = variants
        if tables:
            (entry["tables"],) = tables
        recorded[workload] = entry
        print(f"{profile} {workload}: recorded", file=sys.stderr)
    return recorded


if __name__ == "__main__":
    print(json.dumps({profile: record(profile) for profile in child.SIZES}, indent=1))
