"""Desk-scale certification of every property the construction promises.

Each check returns a `Report` whose equalities are exact rational
equalities.  The only tolerance left is the `eps` of `check_image_density`,
a pass tolerance that a correct tower never uses: the first column's image
is exactly the rationals of [0, 1], and every target is hit with equality.
The argument goes when the benchmark harness stops passing it (ROADMAP.md,
item 1).  A failing report always carries a concrete counter-witness
(points, levels, and values, serialized as "p/q").

The checks deliberately re-derive what they test through independent routes:

* `oracle_eval` recomputes the function by direct recursion from the pair
  coordinates alone, so it shares no evaluation code or state with the
  fast path it checks.  This module holds the package's only reference
  for one cross: `brute_force_radius`, the tent radius from every pair of
  anchors, and `linear_scan_value`, hat times tent from one scan of the
  anchors.  The oracle derives each level's anchors, values and radius
  once per memo, scoped to one check, and evaluates points through these
  two functions.  It refuses above `MAX_ORACLE_LEVEL`.
* `check_welldefined` compares the defining column route against the row
  route that the construction must make equivalent.
* `check_sections` samples both lines of each level, its column and its
  row, against the level's recorded Lipschitz bound.
* `nonfeeble_witness` certifies that a value interval strictly between the
  diagonal value 1 and some attained value pulls back to a set with empty
  interior at box scale K: every basic box holds a diagonal point mapping
  exactly to 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .pairing import Pairing, Point, Refusal, enumerate_box
from .rationals import Rational, format_rational
from .weave import WovenFunction

DEFAULT_SEED = 1729
MAX_ORACLE_LEVEL = 64

ZERO = Fraction(0)
ONE = Fraction(1)

_DENOMINATOR_POOL = (1, 2, 3, 4, 8, 16, 64)


def random_rational(rng: random.Random) -> Rational:
    """A small random rational in [-8, 8] with a mixed denominator."""
    denominator = rng.choice(_DENOMINATOR_POOL)
    numerator = rng.randint(-8 * denominator, 8 * denominator)
    return Fraction(numerator, denominator)


def _plain(value: object) -> object:
    """Recursively turn rationals into 'p/q' strings for serialization."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


@dataclass
class Report:
    """Outcome of one check: name, verdict, the bounds used, and witnesses."""

    name: str
    passed: bool
    bounds: dict[str, object] = field(default_factory=dict)
    witnesses: list[dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "passed": self.passed,
            "bounds": _plain(self.bounds),
            "witnesses": _plain(self.witnesses),
        }

    def text_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        parts = [f"{verdict} {self.name}"]
        parts.extend(f"{k}={_plain(v)}" for k, v in self.bounds.items())
        for witness in self.witnesses[:3]:
            inner = " ".join(f"{k}={_plain(v)}" for k, v in witness.items())
            parts.append(f"[{inner}]")
        return "  ".join(parts)


# -- independent reference and oracle --------------------------------------


def _linf(a: Point, b: Point) -> Rational:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def cross_anchors(xs: Sequence[Rational], ys: Sequence[Rational]) -> list[Point]:
    """The anchors of the cross through (x_n, y_n) = (xs[-1], ys[-1]).

    Its column's (x_n, y_0)..(x_n, y_n), then its row's (x_0, y_n)..(x_{n-1}, y_n).
    """
    x_n, y_n = xs[-1], ys[-1]
    return [(x_n, y) for y in ys] + [(x, y_n) for x in xs[:-1]]


def brute_force_radius(anchors: Sequence[Point]) -> Rational:
    """min(1, half the minimum pairwise L-infinity distance), over every pair.

    A single anchor gets 1; coincident anchors are refused, since their
    tents would have no room.
    """
    separation = min(
        (_linf(a, b) for i, a in enumerate(anchors) for b in anchors[i + 1 :]),
        default=None,
    )
    if separation is None:
        return ONE
    if separation == 0:
        raise ValueError("anchors must be pairwise distinct")
    return min(ONE, separation / 2)


def linear_scan_value(
    point: Point, anchors: Sequence[Point], values: Sequence[Rational], radius: Rational
) -> Rational:
    """hat * tent at `point`, from one scan of its distances to every anchor.

    The hat is max(0, 1 - distance to the nearest anchor); the tent sums
    value * (1 - d/radius) over the anchors within `radius`.  A single
    anchor gives the bare hat, the level-0 function.
    """
    if len(values) != len(anchors):
        raise ValueError("one value per anchor required")
    if radius <= 0:
        raise ValueError("tent radius must be positive")
    distances = [_linf(point, anchor) for anchor in anchors]
    hat = max(ZERO, ONE - min(distances))
    if len(distances) == 1:
        return hat
    tent = sum(
        (value * (ONE - d / radius) for value, d in zip(values, distances) if d < radius),
        ZERO,
    )
    return hat * tent


def _oracle_level(
    pairing: Pairing, level: int, memo: dict
) -> tuple[list[Point], list[Rational], Rational]:
    """The level's anchors, their values and its brute-force radius.

    Derived from the pair coordinates once per `memo`; the values of the
    earlier levels come from the oracle's own recursion, never from the
    tower.  Sharing `memo` across calls is sound because a level depends
    only on the pairs up to it, and a pairing only appends.
    """
    if level not in memo:
        pairs = pairing.pairs[: level + 1]
        anchors = cross_anchors([x for x, _ in pairs], [y for _, y in pairs])
        column = [_oracle_cross_value(pairing, i, anchors[i], memo) for i in range(level)]
        row = [
            _oracle_cross_value(pairing, i, anchors[level + 1 + i], memo)
            for i in range(level)
        ]
        memo[level] = anchors, [*column, ONE, *row], brute_force_radius(anchors)
    return memo[level]


def _oracle_cross_value(
    pairing: Pairing, level: int, point: Point, memo: dict
) -> Rational:
    """Level-`level` value at a point of its cross, by the linear scan."""
    center_x, center_y = pairing.pairs[level]
    if point[0] != center_x and point[1] != center_y:
        raise ValueError(f"point lies off the level-{level} cross")
    return linear_scan_value(point, *_oracle_level(pairing, level, memo))


def oracle_eval(
    pairing: Pairing,
    x: Rational,
    y: Rational,
    max_level: int = MAX_ORACLE_LEVEL,
    memo: dict | None = None,
) -> Rational:
    """Value at (x, y) by the oracle's memoized direct recursion.

    Refuses when the level of x exceeds `max_level`, and refuses a
    `max_level` above the depth cap `MAX_ORACLE_LEVEL`.  Pass one `memo`
    dict to share derived levels across calls on the same pairing (as
    `check_oracle_equivalence` does); without one, a fresh dict is used.
    """
    if max_level > MAX_ORACLE_LEVEL:
        raise Refusal(f"max_level exceeds the oracle depth cap {MAX_ORACLE_LEVEL}")
    level = pairing.x_level(x, max_level=max_level)
    return _oracle_cross_value(pairing, level, (x, y), {} if memo is None else memo)


# -- checks ----------------------------------------------------------------


def check_singleton_image(woven: WovenFunction, levels: int = 512) -> Report:
    """Every diagonal pair must evaluate to exactly 1; no levels is a failure."""
    woven.build_to(levels - 1)
    failures = []
    for n in range(levels):
        x, y = woven.pairing.pairs[n]
        value = woven.value(x, y)
        if value != ONE:
            failures.append({"level": n, "x": x, "y": y, "value": value})
    passed = levels > 0 and not failures
    witnesses = failures
    if passed:
        last = levels - 1
        x, y = woven.pairing.pairs[last]
        witnesses = [{"level": last, "x": x, "y": y, "value": ONE}]
    return Report(
        name="singleton_image",
        passed=passed,
        bounds={"levels": levels},
        witnesses=witnesses,
    )


def check_welldefined(woven: WovenFunction, columns: int = 128, rows: int = 128) -> Report:
    """Column-route and row-route evaluation must agree on the pair grid.

    An empty grid examined nothing, so it fails.
    """
    woven.build_to(max(columns, rows) - 1)
    failures = []
    for m in range(columns):
        x = woven.pairing.pairs[m][0]
        for n in range(rows):
            y = woven.pairing.pairs[n][1]
            by_column = woven.value(x, y)
            by_row = woven.value_via_row(x, y)
            if by_column != by_row:
                failures.append(
                    {
                        "column_level": m,
                        "row_level": n,
                        "x": x,
                        "y": y,
                        "by_column": by_column,
                        "by_row": by_row,
                    }
                )
    return Report(
        name="well_defined",
        passed=columns > 0 and rows > 0 and not failures,
        bounds={"columns": columns, "rows": rows},
        witnesses=failures[:5],
    )


def check_parameter_range(woven: WovenFunction, levels: int = 256) -> Report:
    """Every prescribed value of the derived tables must lie in [0, 1) exactly.

    Level 0 has no parameters, so a check that examined no value fails.
    """
    woven.build_to(levels - 1)
    failures = []
    values = 0
    for k in range(levels):
        for table_name, table in (
            ("column", woven.column_params[k]),
            ("row", woven.row_params[k]),
        ):
            values += len(table)
            for i, value in enumerate(table):
                if not (ZERO <= value < ONE):
                    failures.append(
                        {"level": k, "table": table_name, "index": i, "value": value}
                    )
    return Report(
        name="parameter_range",
        passed=values > 0 and not failures,
        bounds={"levels": levels, "values": values},
        witnesses=failures[:5],
    )


def image_density_search(woven: WovenFunction, target: Rational) -> Rational:
    """The y with value(x_0, y) == target exactly, for any rational target in [0, 1].

    Level 0 is the bare hat around (x_0, y_0), so the first column falls
    linearly from 1 at y_0 to 0 at y_0 + 1: f(x_0, y_0 + 1 - t) = t.  The
    answer comes from that definition alone; `check_image_density`
    evaluates it through the tower.
    """
    if not (ZERO <= target <= ONE):
        raise ValueError("density targets live in [0, 1]")
    woven.build_to(0)
    return woven.pairing.pairs[0][1] + 1 - target


def check_image_density(
    woven: WovenFunction, pitch: int = 20, eps: Rational = Fraction(1, 40)
) -> Report:
    """Sweep targets k/pitch over [0, 1]; the first column must hit each within eps.

    Every target is evaluated at `image_density_search`'s point through the
    public `woven.value`, where a correct tower gives the target exactly, so
    eps 0 passes.  A pitch below 1 names no targets, so it fails.
    """
    failures = []
    witnesses = []
    woven.build_to(0)
    x0 = woven.pairing.pairs[0][0]
    for k in range(pitch + 1 if pitch > 0 else 0):
        target = Fraction(k, pitch)
        y = image_density_search(woven, target)
        value = woven.value(x0, y)
        entry = {"target": target, "y": y, "value": value}
        if abs(value - target) > eps:
            failures.append(entry)
        elif k in (0, pitch // 2, pitch):
            witnesses.append(entry)
    return Report(
        name="image_density",
        passed=pitch > 0 and not failures,
        bounds={"pitch": pitch, "eps": eps},
        witnesses=failures[:5] or witnesses,
    )


def nonfeeble_witness(
    woven: WovenFunction,
    boxes: int = 50,
    u_lo: Rational = Fraction(1, 4),
    u_hi: Rational = Fraction(3, 4),
) -> Report:
    """Certify that the preimage of (u_lo, u_hi) has empty interior at box scale.

    Passes iff (a) the first-column point that `image_density_search` names
    for the interval's midpoint maps into the interval, so the preimage is
    nonempty, and (b) each of the first `boxes` basic boxes contains a
    diagonal pair mapping exactly to 1, which lies outside the interval; so
    no basic box fits inside the preimage.  With `boxes` below 1, part (b)
    examined nothing, so the check fails.
    """
    if not (ZERO <= u_lo < u_hi <= ONE):
        raise ValueError("need 0 <= u_lo < u_hi <= 1")
    failures = []
    witnesses = []

    y = image_density_search(woven, (u_lo + u_hi) / 2)
    x0 = woven.pairing.pairs[0][0]
    member_value = woven.value(x0, y)
    member = {"kind": "member", "x": x0, "y": y, "value": member_value}
    if not (u_lo < member_value < u_hi):
        failures.append(member)
    else:
        witnesses.append(member)

    # box k is processed by the density task at step 3k + 2
    woven.build_to(3 * boxes - 1)
    for k in range(boxes):
        box = enumerate_box(k)
        level = woven.pairing.box_witness[k]
        x, y = woven.pairing.pairs[level]
        value = woven.value(x, y)
        entry = {"kind": "box", "box": k, "level": level, "x": x, "y": y, "value": value}
        if not box.strictly_inside(x, y) or value != ONE:
            failures.append(entry)
        elif k == 0:
            witnesses.append(entry)
    return Report(
        name="nonfeeble_witness",
        passed=boxes > 0 and not failures,
        bounds={"boxes": boxes, "u_lo": u_lo, "u_hi": u_hi},
        witnesses=failures[:5] or witnesses,
    )


def check_sections(
    woven: WovenFunction,
    levels: int = 64,
    samples_per_kind: int = 500,
    seed: int = DEFAULT_SEED,
) -> Report:
    """Random point pairs on both lines of every level below `levels` must
    respect the level's recorded Lipschitz bound.

    Each line is its level's cross restricted to it, and is sampled there.
    The column is the definition's own route; before the row is sampled,
    spot checks that the public evaluator agrees with the cross on up to
    five columns of levels 0..level (the compatibility that makes the row a
    section of the global function); they are drawn from the arguments
    alone, so a tower built deeper beforehand is examined at the same
    points.  A pair with equal values meets any bound and is not compared
    further.  A check that sampled no line fails.
    """
    rng = random.Random(seed)
    failures = []
    worst_bound = ONE
    for level in range(levels):
        woven.build_to(level)
        cross = woven.cross(level)
        bound = cross.lipschitz_bound
        worst_bound = max(worst_bound, bound)
        for axis, kind in enumerate(("column", "row")):
            fixed = woven.pairing.pairs[level][axis]
            if kind == "row":
                for m in rng.sample(range(level + 1), min(5, level + 1)):
                    x_m = woven.pairing.pairs[m][0]
                    via_public = woven.value(x_m, fixed)
                    via_cross = cross.value_at((x_m, fixed))
                    if via_public != via_cross:
                        failures.append(
                            {
                                "spot_level": m,
                                "x": x_m,
                                "y": fixed,
                                "public": via_public,
                                "cross": via_cross,
                                "level": level,
                                "kind": kind,
                            }
                        )
            # a witness names the fixed coordinate and the two free ones
            fixed_name, free_name = ("x", "y") if axis == 0 else ("y", "x")
            for _ in range(samples_per_kind):
                t_a, t_b = random_rational(rng), random_rational(rng)
                value_a, value_b = (
                    cross.value_at((fixed, t) if axis == 0 else (t, fixed))
                    for t in (t_a, t_b)
                )
                # equal values (mostly both 0) meet any nonnegative bound
                if value_a != value_b and (
                    abs(value_a - value_b) > bound * abs(t_a - t_b)
                ):
                    failures.append(
                        {
                            fixed_name: fixed,
                            f"{free_name}_a": t_a,
                            f"{free_name}_b": t_b,
                            "value_a": value_a,
                            "value_b": value_b,
                            "level": level,
                            "kind": kind,
                        }
                    )
    return Report(
        name="section_lipschitz",
        passed=levels > 0 and samples_per_kind > 0 and not failures,
        bounds={
            "levels": levels,
            "samples_per_kind": samples_per_kind,
            "seed": seed,
            "largest_lipschitz": worst_bound,
        },
        witnesses=failures[:5],
    )


def check_oracle_equivalence(
    woven: WovenFunction,
    max_level: int = 10,
    samples: int = 200,
    seed: int = DEFAULT_SEED,
) -> Report:
    """The memoized tower must match the independent oracle exactly.

    Samples are column points (x_m, q) with the level m uniform over
    0..max_level and q a random small rational.  All samples share one
    oracle memo, created here, so the oracle derives each level once per
    check and holds nothing between checks.  No samples is a failure.
    """
    if max_level > MAX_ORACLE_LEVEL:
        raise Refusal(f"max_level exceeds the oracle depth cap {MAX_ORACLE_LEVEL}")
    woven.build_to(max_level)
    rng = random.Random(seed)
    memo: dict = {}
    failures = []
    for _ in range(samples):
        level = rng.randint(0, max_level)
        x = woven.pairing.pairs[level][0]
        y = random_rational(rng)
        fast = woven.value(x, y)
        slow = oracle_eval(woven.pairing, x, y, max_level, memo)
        if fast != slow:
            failures.append({"level": level, "x": x, "y": y, "fast": fast, "oracle": slow})
    return Report(
        name="oracle_equivalence",
        passed=samples > 0 and not failures,
        bounds={"max_level": max_level, "samples": samples, "seed": seed},
        witnesses=failures[:5],
    )


# -- suite driver ------------------------------------------------------------

# suite name -> (canonical depth, the check at a depth and seed); each check
# is looked up by its module name when it runs, so a wrapped or replaced
# check takes effect
SUITES = {
    "singleton": (512, lambda woven, depth, seed: check_singleton_image(woven, depth)),
    "range": (512, lambda woven, depth, seed: check_parameter_range(woven, depth)),
    "welldef": (128, lambda woven, depth, seed: check_welldefined(woven, depth, depth)),
    "density": (
        20,
        lambda woven, depth, seed: check_image_density(
            woven, pitch=depth, eps=Fraction(1, 2 * depth)
        ),
    ),
    "witness": (50, lambda woven, depth, seed: nonfeeble_witness(woven, boxes=depth)),
    "lipschitz": (
        64,
        lambda woven, depth, seed: check_sections(woven, levels=depth, seed=seed),
    ),
    "oracle": (
        64,
        lambda woven, depth, seed: check_oracle_equivalence(
            woven, max_level=depth, seed=seed
        ),
    ),
}

SUITE_NAMES = ("all", *SUITES)


def run_suite(
    suite: str, depth: int | None = None, seed: int = DEFAULT_SEED
) -> list[Report]:
    """Run one named suite, or all of them at their canonical depths.

    `depth` overrides the canonical scale of a single suite; its meaning is
    suite-specific (levels, grid side, pitch, boxes, or oracle level cap).
    An unknown suite, a depth given with "all", a depth below 1 and an
    oracle depth above `MAX_ORACLE_LEVEL` raise `Refusal`.
    """
    if suite not in SUITE_NAMES:
        raise Refusal(f"unknown suite: {suite}")
    if suite == "all" and depth is not None:
        raise Refusal("a depth applies to a single suite, not to all")
    if depth is not None and depth < 1:
        raise Refusal(f"depth must be at least 1, got {depth}")
    woven = WovenFunction()
    selected = SUITES if suite == "all" else {suite: SUITES[suite]}
    return [
        check(woven, canonical if depth is None else depth, seed)
        for canonical, check in selected.values()
    ]
