"""Per-layer metrics of the traced run: which public names are wrapped, and how
their spans and counters become the `per_layer` metrics of BENCHMARK.json."""

from __future__ import annotations

from tracer import Tracer

from crossweave import cli, cross_extension, pairing, rationals, verify, weave

VERIFY_CHECKS = (
    "check_singleton_image",
    "check_welldefined",
    "check_parameter_range",
    "check_image_density",
    "nonfeeble_witness",
    "check_sections",
    "check_oracle_equivalence",
)

# span name -> the (owner, attribute) pairs that callers look it up through
WRAPPED = {
    "cross_extension.value_at": [(cross_extension.CrossFunction, "value_at")],
    "cross_extension.build_cross": [(weave, "build_cross")],
    "weave.build_level": [(weave.WovenFunction, "build_level")],
    "weave.value": [(weave.WovenFunction, "value")],
    "weave.value_via_row": [(weave.WovenFunction, "value_via_row")],
    "verify.oracle_eval": [(verify, "oracle_eval")],
    "pairing.extend": [(pairing.Pairing, "extend")],
    "pairing.enumerate_box": [(pairing, "enumerate_box"), (verify, "enumerate_box")],
    "pairing.x_level": [(pairing.Pairing, "x_level")],
    "pairing.y_level": [(pairing.Pairing, "y_level")],
    "rationals.enumerate_rational": [(pairing, "enumerate_rational")],
    "rationals.index_of": [(pairing, "index_of")],
    "rationals.format_rational": [
        (rationals, "format_rational"),
        (cli, "format_rational"),
        (verify, "format_rational"),
    ],
    "rationals.decimal_approx": [(rationals, "decimal_approx"), (cli, "decimal_approx")],
    "cli.main": [(cli, "main")],
    **{f"verify.{check}": [(verify, check)] for check in VERIFY_CHECKS},
}

CALLS_AND_SELF = (
    "cross_extension.value_at",
    "cross_extension.build_cross",
    "weave.build_level",
    "weave.value",
    "weave.value_via_row",
    "verify.oracle_eval",
    "pairing.extend",
    "pairing.enumerate_box",
    "pairing.x_level",
    "pairing.y_level",
    "rationals.enumerate_rational",
    "rationals.index_of",
)
SELF_ONLY = (
    *(f"verify.{check}" for check in VERIFY_CHECKS),
    "rationals.format_rational",
    "rationals.decimal_approx",
    "cli.main",
)
GROWTH_CHECKPOINTS = (128, 256)


def install(tracer: Tracer) -> None:
    """Wrap every name in WRAPPED, with the hooks that feed the counters."""
    build_ns: dict[int, int] = {}

    def after_value_at(span: int, args: tuple, result: object) -> None:
        tracer.count("value_at.zero", result == 0)

    def after_build_level(span: int, args: tuple, result: object) -> None:
        woven, level = args[0], args[1]
        key = id(woven)
        build_ns[key] = build_ns.get(key, 0) + tracer.end[span] - tracer.start[span]
        if level + 1 in GROWTH_CHECKPOINTS:
            tracer.counters.setdefault(f"build_{level + 1}_ns", build_ns[key])
        params = woven.column_params[level] + woven.row_params[level]
        tracer.count("params.total", len(params))
        tracer.count("params.nonzero", sum(1 for value in params if value))

    def after_extend(span: int, args: tuple, result: object) -> None:
        tracer.count("extend.pairs", args[1])

    hooks = {
        "cross_extension.value_at": after_value_at,
        "weave.build_level": after_build_level,
        "pairing.extend": after_extend,
    }
    for name, targets in WRAPPED.items():
        for owner, attr in targets:
            tracer.wrap(owner, attr, name, after=hooks.get(name))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values of one traced child, keyed by metric name."""
    summary = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0}
    out: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        entry = summary.get(name, empty)
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = summary.get(name, empty)["self_s"]

    counters = tracer.counters
    out["cross_extension.value_at.zero_ratio"] = _ratio(
        counters.get("value_at.zero", 0), out["cross_extension.value_at.calls"]
    )
    for checkpoint in GROWTH_CHECKPOINTS:
        out[f"weave.build_{checkpoint}_s"] = counters.get(f"build_{checkpoint}_ns", 0) / 1e9
    out["weave.params.total"] = counters.get("params.total", 0)
    out["weave.params.nonzero"] = counters.get("params.nonzero", 0)

    names = tracer.names
    if "pairing.extend" in names and "rationals.enumerate_rational" in names:
        extend_id = names.index("pairing.extend")
        enumerate_id = names.index("rationals.enumerate_rational")
        name_of, parent = tracer.name_of, tracer.parent
        scans = sum(
            1
            for span in range(len(name_of))
            if name_of[span] == enumerate_id
            and parent[span] >= 0
            and name_of[parent[span]] == extend_id
        )
    else:
        scans = 0
    out["pairing.scan_yield"] = _ratio(counters.get("extend.pairs", 0), scans)
    out["pairing.box_cache.size"] = len(pairing._box_cache)

    tree = rationals._tree_value.cache_info()
    out["rationals.tree_cache.size"] = tree.currsize
    out["rationals.tree_cache.hit_ratio"] = _ratio(tree.hits, tree.hits + tree.misses)

    # the phase spans are the roots, so every span's self time lands in
    # exactly one of these two sums, and together they give the phases' length
    out["trace.setup_s"] = summary["setup"]["total_s"]
    out["trace.run_s"] = summary["timed"]["total_s"]
    out["trace.layer_self_s"] = sum(
        entry["self_s"] for name, entry in summary.items() if name in WRAPPED
    )
    out["trace.harness_self_s"] = sum(
        entry["self_s"] for name, entry in summary.items() if name not in WRAPPED
    )
    out["trace.spans"] = len(tracer.start)
    return out
