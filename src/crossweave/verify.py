"""Desk-scale certification of every property the construction promises.

Each check returns a `Report` whose equalities are exact rational
equalities; no suite has a tolerance.  A check counts the items it
examined, and `Report` alone decides the verdict: a check that examined
nothing fails.  A failing report carries concrete counter-witnesses
(points, levels, and values, serialized as "p/q"), at most five.

The checks deliberately re-derive what they test through independent routes:

* `check_oracle_equivalence` compares the tower with `oracle_eval`, the
  reference in `oracle`, which rebuilds the function from the pair
  coordinates alone and shares no code with the tower.
* `check_welldefined` compares the defining column route against the row
  route that the construction must make equivalent, and is the only check
  of that agreement; it finds each column's and row's level once.
* `check_parameter_range` reads every value a level stores on its two
  lines, the only record of its parameters, and requires the center's to
  be 1 and every other one to lie in (0, 1); a parameter no line stores
  is 0.  The build stores the values it is given, so this check alone
  decides their range.
* `check_sections` certifies both lines of each level against its
  Lipschitz bound at every point, from five values per tent.
* `nonfeeble_witness` certifies that a value interval strictly between the
  diagonal value 1 and some attained value pulls back to a set with empty
  interior at box scale K: every basic box holds a diagonal point mapping
  exactly to 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator

from .cross_extension import ONE, ZERO
from .oracle import MAX_ORACLE_LEVEL, Level, oracle_eval, scan_level
from .pairing import Refusal, enumerate_box
from .rationals import Rational, format_rational
from .weave import WovenFunction

# the value interval (U_LO, U_HI) whose preimage `nonfeeble_witness` certifies
U_LO, U_HI = Fraction(1, 4), Fraction(3, 4)


def _plain(value: object) -> object:
    """Recursively turn rationals into 'p/q' strings for serialization."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


class Report:
    """Outcome of one check: its name, the bounds used, how many items it
    examined, and the failures and passing examples it found.

    The verdict is decided here and nowhere else: a check passes when it
    examined something and found no failure.  A failing report shows its
    first five failures, a passing one its examples.
    """

    def __init__(
        self,
        name: str,
        bounds: dict[str, object],
        checked: int,
        failures: list[dict[str, object]],
        examples: list[dict[str, object]] | None = None,
    ) -> None:
        self.name = name
        self.bounds = bounds
        self.checked = checked
        self.failures = failures
        self.examples = [] if examples is None else examples

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.failures

    @property
    def witnesses(self) -> list[dict[str, object]]:
        return self.failures[:5] or self.examples

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "bounds": _plain(self.bounds),
            "witnesses": _plain(self.witnesses),
        }

    def text_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        parts = [f"{verdict} {self.name}"]
        parts.extend(f"{k}={_plain(v)}" for k, v in self.bounds.items())
        parts.append(f"checked={self.checked}")
        for witness in self.witnesses[:3]:
            inner = " ".join(f"{k}={_plain(v)}" for k, v in witness.items())
            parts.append(f"[{inner}]")
        return "  ".join(parts)


# -- checks ----------------------------------------------------------------


def _stored_lines(woven: WovenFunction, levels: int) -> Iterator[tuple]:
    """Each stored line of every level below `levels`, row first: the level,
    its cross, the line's axis and name, and its nonzero anchors'
    coordinates and values, as `CrossFunction.line` gives them."""
    woven.build_to(levels - 1)
    for level in range(levels):
        cross = woven.cross(level)
        for axis, kind in enumerate(("row", "column")):
            yield level, cross, axis, kind, *cross.line(axis)


def check_singleton_image(woven: WovenFunction, levels: int = 512) -> Report:
    """Every diagonal pair below `levels` must evaluate to exactly 1."""
    woven.build_to(levels - 1)
    diagonal = woven.pairing.pairs[: max(levels, 0)]
    failures = []
    for n, (x, y) in enumerate(diagonal):
        value = woven.value(x, y)
        if value != ONE:
            failures.append({"level": n, "x": x, "y": y, "value": value})
    examples = [
        {"level": levels - 1, "x": x, "y": y, "value": ONE} for x, y in diagonal[-1:]
    ]
    return Report(
        "singleton_image", {"levels": levels}, len(diagonal), failures, examples
    )


def check_welldefined(woven: WovenFunction, columns: int = 128, rows: int = 128) -> Report:
    """Column-route and row-route evaluation must agree on the pair grid.

    Each column's and each row's level is found once, by the pairing's
    lookup that `woven.value` or `woven.value_via_row` makes, and its cross
    evaluates the route; the exact values are compared by their terms.
    """
    woven.build_to(max(columns, rows) - 1)
    pairing = woven.pairing
    row_routes = [
        (y, woven.cross(pairing.y_level(y)).value_at) for _, y in pairing.pairs[: max(rows, 0)]
    ]
    failures = []
    for m, (x, _) in enumerate(pairing.pairs[: max(columns, 0)]):
        column_route = woven.cross(pairing.x_level(x)).value_at
        for n, (y, row_route) in enumerate(row_routes):
            by_column, by_row = column_route((x, y)), row_route((x, y))
            if by_column.as_integer_ratio() != by_row.as_integer_ratio():
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
    bounds = {"columns": columns, "rows": rows}
    return Report("well_defined", bounds, max(columns, 0) * max(rows, 0), failures)


def check_parameter_range(woven: WovenFunction, levels: int = 256) -> Report:
    """Every value stored on the two lines of each level below `levels` must
    be in range: the center's exactly 1, every other one in (0, 1).

    A parameter that no line stores is 0, which is in range, so the stored
    values are all there is to read; counts them, two centers at level 0.
    The range is decided on each value's numerator n and denominator d,
    which is positive, as 0 < n < d.
    """
    failures = []
    read = 0
    for level, cross, axis, kind, anchors, values in _stored_lines(woven, levels):
        read += len(values)
        center = cross.center[axis]
        for a, value in zip(anchors, values):
            n, d = value.as_integer_ratio()
            if not (n == d == 1 if a == center else 0 < n < d):
                failures.append({"level": level, "line": kind, "anchor": a, "value": value})
    return Report("parameter_range", {"levels": levels}, read, failures)


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
    woven: WovenFunction, pitch: int = 20, eps: Rational = ZERO
) -> Report:
    """Sweep targets k/pitch over [0, 1]; the first column must hit each exactly.

    Every target is evaluated at `image_density_search`'s point through the
    public `woven.value`.  `eps` is ignored; the benchmark passes it.
    """
    failures = []
    examples = []
    woven.build_to(0)
    x0 = woven.pairing.pairs[0][0]
    # one target at a time, so memory does not grow with the pitch
    steps = range(pitch + 1 if pitch > 0 else 0)
    for k in steps:
        target = Fraction(k, pitch)
        y = image_density_search(woven, target)
        value = woven.value(x0, y)
        entry = {"target": target, "y": y, "value": value}
        if value != target:
            failures.append(entry)
        elif k in (0, pitch // 2, pitch):
            examples.append(entry)
    return Report("image_density", {"pitch": pitch}, len(steps), failures, examples)


def nonfeeble_witness(woven: WovenFunction, boxes: int = 50) -> Report:
    """Certify that the preimage of (U_LO, U_HI) has empty interior at box scale.

    Passes iff (a) the first-column point that `image_density_search` names
    for the interval's midpoint maps exactly to that midpoint, so the
    preimage is nonempty, and (b) each of the first `boxes` basic boxes
    contains a diagonal pair mapping exactly to 1, which lies outside the
    interval; so no basic box fits inside the preimage.  Counts the boxes
    examined.
    """
    failures = []
    examples = []

    midpoint = (U_LO + U_HI) / 2
    y = image_density_search(woven, midpoint)
    x0 = woven.pairing.pairs[0][0]
    member_value = woven.value(x0, y)
    member = {"kind": "member", "x": x0, "y": y, "value": member_value}
    if member_value != midpoint:
        failures.append(member)
    else:
        examples.append(member)

    # box k is processed by the density task at step 3k + 2
    woven.build_to(3 * boxes - 1)
    box_range = range(boxes)
    for k in box_range:
        level = 3 * k + 2
        x, y = woven.pairing.pairs[level]
        value = woven.value(x, y)
        entry = {"kind": "box", "box": k, "level": level, "x": x, "y": y, "value": value}
        if not enumerate_box(k).strictly_inside(x, y) or value != ONE:
            failures.append(entry)
        elif k == 0:
            examples.append(entry)
    return Report(
        "nonfeeble_witness",
        {"boxes": boxes, "u_lo": U_LO, "u_hi": U_HI},
        len(box_range),
        failures,
        examples,
    )


def check_sections(
    woven: WovenFunction, levels: int = 512, samples_per_kind: int = 0, seed: int = 0
) -> Report:
    """Both lines of every level below `levels` obey its Lipschitz bound at
    every point; counts the half tents examined.

    Premise, certified by the oracle's tent points and the tent digest of
    `test_values_around_every_nonzero_anchor`: a line is 0 outside its
    nonzero anchors' tents, and within radius r of an anchor of value v it
    is v (1 - d)(1 - d/r) in the distance d (the bare hat, r = 1, at level
    0).  So at each anchor a of `cross.line` the cross must give v, and 0
    at a +- r; a quadratic's slope is linear, so each half tent's two end
    slopes, exact from its values at a, a +- r/2 and a +- r, must lie within
    the bound; and the next anchor must be 2r or more away.  The range of v
    is `check_parameter_range`'s to decide, at the same depths; a v above 1
    also breaks the slope bound here.

    The slope test runs in integers and rests on the premise above alone:
    exact integers decide what exact `Fraction`s would.  Over W, the lcm of
    the tent's five denominators, a half tent's values are P0/W, P1/W and
    P2/W, so its end slopes times r W are N = 4 P1 - 3 P0 - P2 and
    N = P0 - 4 P1 + 3 P2.  With r = r_n/r_d and the bound b_n/b_d,
    |N| / (r W) <= b_n/b_d is |N| r_d b_d <= b_n W r_n, one
    cross-multiplication, as every denominator is positive; only a half
    that fails it gets its exact `Fraction` slopes, in its failure.
    `samples_per_kind` and `seed` are ignored; the benchmark passes them.
    """
    failures = []
    halves = 0
    largest = ONE
    for level, cross, axis, kind, anchors, values in _stored_lines(woven, levels):
        if not axis:  # the level's terms, read once, with its row
            r, bound = cross.radius, cross.lipschitz_bound
            largest = max(largest, bound) if level else bound
            (r_n, r_d), (b_n, b_d) = r.as_integer_ratio(), bound.as_integer_ratio()
            steep, flat, reach = r_d * b_d, b_n * r_n, 2 * r  # fails: |N| steep > W flat
        s = cross.center[1 - axis]  # the line's fixed coordinate
        for i, (a, v) in enumerate(zip(anchors, values)):
            # a + k r/2 for k = -2..2, over the denominator 2 a_d r_d
            a_n, a_d = a.as_integer_ratio()
            mid, step, den = 2 * a_n * r_d, a_d * r_n, 2 * a_d * r_d
            tent = [
                cross.value_at((t, s) if axis == 0 else (s, t))
                for t in (Fraction(mid + k * step, den) for k in (-2, -1, 0, 1, 2))
            ]
            w = lcm(*(t.denominator for t in tent))
            p = [t.numerator * (w // t.denominator) for t in tent]
            if not (tent[2] == v and p[0] == p[4] == 0):
                failures.append(
                    {"level": level, "kind": kind, "anchor": a, "value": v, "tent": tent}
                )
            halves += 2
            for j in (0, 2):
                p0, p1, p2 = p[j : j + 3]
                n = max(abs(4 * p1 - 3 * p0 - p2), abs(p0 - 4 * p1 + 3 * p2))
                if n * steep > w * flat:
                    f0, f1, f2 = tent[j : j + 3]
                    slopes = ((4 * f1 - 3 * f0 - f2) / r, (f0 - 4 * f1 + 3 * f2) / r)
                    failures.append({"level": level, "kind": kind, "anchor": a, "slopes": slopes})
            if i + 1 < len(anchors) and anchors[i + 1] - a < reach:
                gap = {"next": anchors[i + 1], "radius": r}
                failures.append({"level": level, "kind": kind, "anchor": a, **gap})
    bounds = {"levels": levels, "largest_lipschitz": largest}
    return Report("section_lipschitz", bounds, halves, failures)


def check_oracle_equivalence(
    woven: WovenFunction, max_level: int = 10, samples: int = 0, seed: int = 0
) -> Report:
    """The tower must match the independent oracle exactly at every level
    0..`max_level`.

    One `oracle_eval` at level `max_level`'s center derives every level
    into one list, created here, so the check holds nothing between runs.
    Then, at each level n, the points come from the oracle alone: at each
    anchor a of nonzero derived value, along its line (the center along
    both), a + k r/4 for k in -5..5, with r the derived radius, covers the
    tent's inside, its edge and just past it, and there the level's cross
    must equal the oracle's scan.  Last, every entry of the derived level is
    compared with the tower's: entries 0..2n are its values,
    [*column_params[n], 1, *row_params[n]], and entry 2n + 1 its radius.
    Counts the points plus the compared entries.  Refuses a `max_level`
    outside 0..`MAX_ORACLE_LEVEL`.  `samples` and `seed` are ignored; the
    benchmark passes them.
    """
    if not 0 <= max_level <= MAX_ORACLE_LEVEL:
        raise Refusal(f"max_level must lie in 0..{MAX_ORACLE_LEVEL}, got {max_level}")
    woven.build_to(max_level)
    derived: list[Level] = []
    oracle_eval(woven.pairing, *woven.pairing.pairs[max_level], max_level, derived)
    failures = []
    checked = 0
    for n, level in enumerate(derived):
        scale, lattice, denominator, values, radius = level
        steps = [k * Fraction(*radius) / 4 for k in range(-5, 6)]
        cross = woven.cross(n)
        points = []
        # anchors 0..n lie on the column, anchors n..2n on the row
        for i, ((ax, ay), v) in enumerate(zip(lattice, values)):
            if not v:
                continue
            x, y = Fraction(ax, scale), Fraction(ay, scale)
            if i <= n:
                points += [(x, y + step) for step in steps]
            if i >= n:
                points += [(x + step, y) for step in steps]
        for point in points:
            fast, slow = cross.value_at(point), scan_level(point, level)
            if fast != slow:
                failures.append(
                    {"level": n, "x": point[0], "y": point[1], "tower": fast, "oracle": slow}
                )
        tower = [*woven.column_params[n], ONE, *woven.row_params[n], cross.radius]
        oracle = [*(Fraction(v, denominator) for v in values), Fraction(*radius)]
        for entry, (expected, found) in enumerate(zip(tower, oracle, strict=True)):
            if expected != found:
                failures.append({"level": n, "entry": entry, "tower": expected, "oracle": found})
        checked += len(points) + len(tower)
    return Report("oracle_equivalence", {"max_level": max_level}, checked, failures)


# -- suite driver ------------------------------------------------------------

# suite name -> (canonical depth, maximum depth, the check at a depth);
# each maximum runs in under about 30 s on a 2-core Xeon VM, and each
# check is looked up by its module name when it runs, so a wrapped or
# replaced check takes effect
SUITES = {
    "singleton": (512, 16384, lambda woven, depth: check_singleton_image(woven, depth)),
    "range": (512, 16384, lambda woven, depth: check_parameter_range(woven, depth)),
    "welldef": (128, 1024, lambda woven, depth: check_welldefined(woven, depth, depth)),
    "density": (20, 10**5, lambda woven, depth: check_image_density(woven, pitch=depth)),
    "witness": (50, 4096, lambda woven, depth: nonfeeble_witness(woven, boxes=depth)),
    "lipschitz": (512, 16384, lambda woven, depth: check_sections(woven, depth)),
    "oracle": (64, MAX_ORACLE_LEVEL, lambda woven, depth: check_oracle_equivalence(woven, depth)),
}

SUITE_NAMES = ("all", *SUITES)


def run_suite(suite: str, depth: int | None = None) -> list[Report]:
    """Run one named suite, or all of them at their canonical depths.

    `depth` overrides the canonical scale of a single suite; its meaning is
    suite-specific (levels, grid side, pitch, boxes, or oracle level cap).
    An unknown suite, a depth given with "all", and a depth below 1 or
    above the suite's maximum raise `Refusal` before any work.
    """
    if suite not in SUITE_NAMES:
        raise Refusal(f"unknown suite: {suite}")
    if suite == "all" and depth is not None:
        raise Refusal("a depth applies to a single suite, not to all")
    if depth is not None and not 1 <= depth <= SUITES[suite][1]:
        raise Refusal(f"{suite} depth must lie in 1..{SUITES[suite][1]}, got {depth}")
    woven = WovenFunction()
    selected = SUITES if suite == "all" else {suite: SUITES[suite]}
    return [
        check(woven, canonical if depth is None else depth)
        for canonical, _, check in selected.values()
    ]
