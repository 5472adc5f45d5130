"""Desk-scale certification of every property the construction promises.

Each check returns a `Report` whose equalities are exact rational
equalities; no suite has a tolerance.  A check counts the items it
examined, and `Report` alone decides the verdict: a check that examined
nothing fails.  A failing report carries concrete counter-witnesses
(points, levels, and values, serialized as "p/q"), at most five.

The checks deliberately re-derive what they test through independent routes:

* `oracle_eval` recomputes the function from the pair coordinates alone,
  so it shares no evaluation code or state with the fast path it checks.
  This module holds the package's only reference for one cross:
  `brute_force_radius`, the tent radius from every pair of anchors, and
  `linear_scan_value`, hat times tent from one scan of the anchors.  The
  oracle derives the levels bottom-up, each level's anchors, values and
  radius once per list of derived levels, scoped to one check, and
  evaluates points by the same scan.  It refuses above `MAX_ORACLE_LEVEL`.
  `check_oracle_equivalence` derives every level up to its depth, tests
  the tower at eleven points along each nonzero tent the oracle derived,
  and compares every derived level, values and radius, with the tower.

  Both work on an integer lattice, and a derived level is kept only in
  that form (`Level`): its anchors as the integers a L, with L the lcm of
  their denominators, its values as integers over their common
  denominator, and its radius as a numerator and a denominator.  The
  separation is the minimum over every pair of those integers, and a scan
  scales the point and the anchors by M, the lcm of L and the point's
  denominators, so the distances, the hat, the test d < r and the tent
  sum are integers, and each value is one `Fraction` at the end.  Integer
  equality after scaling by a common factor is exact equality, and the
  lattice shares no code with the tower's own integer lines: this module
  imports nothing from `cross_extension`.  The two public functions wrap
  the scan for `Fraction` anchors; no `Fraction` distance (the former
  `_linf`) remains.
* `check_welldefined` compares the defining column route against the row
  route that the construction must make equivalent, and is the only check
  of that agreement.
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

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .pairing import Pairing, Point, Refusal, enumerate_box
from .rationals import Rational, format_rational
from .weave import WovenFunction

MAX_ORACLE_LEVEL = 256

ZERO = Fraction(0)
ONE = Fraction(1)

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


@dataclass
class Report:
    """Outcome of one check: its name, the bounds used, how many items it
    examined, and the failures and passing examples it found.

    The verdict is decided here and nowhere else: a check passes when it
    examined something and found no failure.  A failing report shows its
    first five failures, a passing one its examples.
    """

    name: str
    bounds: dict[str, object]
    checked: int
    failures: list[dict[str, object]]
    examples: list[dict[str, object]] = field(default_factory=list)

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


# -- independent reference and oracle --------------------------------------


# one derived level, all in integers: L, each anchor as (x L, y L), the
# common denominator W of the values and each value times W, and the radius
# as (numerator, denominator)
Level = tuple[int, list[tuple[int, int]], int, list[int], tuple[int, int]]


def _lattice(points: Sequence[Point]) -> tuple[int, list[tuple[int, int]]]:
    """L, the lcm of the points' coordinate denominators, and each point as
    the integers (x L, y L)."""
    ratios = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in points]
    scale = lcm(*(d for pair in ratios for _, d in pair))
    return scale, [
        (x_n * (scale // x_d), y_n * (scale // y_d)) for (x_n, x_d), (y_n, y_d) in ratios
    ]


def _common(values: Sequence[Rational]) -> tuple[int, list[int]]:
    """W, the lcm of the values' denominators, and each value times W."""
    ratios = [value.as_integer_ratio() for value in values]
    denominator = lcm(*(d for _, d in ratios))
    return denominator, [n * (denominator // d) for n, d in ratios]


def _radius(scale: int, lattice: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """min(1, half the minimum pairwise L-infinity distance) as (numerator,
    denominator), over every pair of points scaled by L."""
    separation = min(
        (
            max(abs(ax - bx), abs(ay - by))
            for i, (ax, ay) in enumerate(lattice)
            for bx, by in lattice[i + 1 :]
        ),
        default=None,
    )
    if separation is None:
        return 1, 1
    if separation == 0:
        raise ValueError("anchors must be pairwise distinct")
    return min(separation, 2 * scale), 2 * scale


def _scan(point: Point, level: Level) -> Rational:
    """hat * tent at `point` from one scan of the level's anchors, in integers.

    With M the lcm of L and the point's two denominators, every distance
    is an integer D over M: the hat is (M - min D) / M, an anchor is inside
    its tent when D r_d < r_n M, and there its tent is
    (r_n M - D r_d) / (r_n M).  The value is one `Fraction` at the end.
    """
    scale, anchors, denominator, values, (r_n, r_d) = level
    (x_n, x_d), (y_n, y_d) = point[0].as_integer_ratio(), point[1].as_integer_ratio()
    m = lcm(scale, x_d, y_d)
    k, px, py = m // scale, x_n * (m // x_d), y_n * (m // y_d)
    distances = [max(abs(k * ax - px), abs(k * ay - py)) for ax, ay in anchors]
    nearest = min(distances)
    if nearest >= m:
        return ZERO
    if len(distances) == 1:
        return Fraction(m - nearest, m)
    reach = r_n * m
    tent = sum(v * (reach - d * r_d) for v, d in zip(values, distances) if d * r_d < reach)
    return Fraction((m - nearest) * tent, m * m * denominator * r_n)


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
    return Fraction(*_radius(*_lattice(anchors)))


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
    return _scan(point, (*_lattice(anchors), *_common(values), radius.as_integer_ratio()))


def oracle_eval(
    pairing: Pairing,
    x: Rational,
    y: Rational,
    max_level: int = MAX_ORACLE_LEVEL,
    derived: list[Level] | None = None,
) -> Rational:
    """Value at (x, y) by the linear scan of the level of x, derived bottom-up.

    Level n's anchors come from the pair coordinates, their values from the
    linear scans of the earlier levels (never from the tower), and its
    radius by brute force; the level is kept in integers, as a `Level`.
    Refuses when the level of x exceeds `max_level`, and refuses a
    `max_level` above the depth cap `MAX_ORACLE_LEVEL`.  Pass one `derived`
    list to share the derived levels across calls on the same pairing, or
    to read them back (as `check_oracle_equivalence` does); that is sound
    because a level depends only on the pairs up to it, and a pairing only
    appends.  Without one, a fresh list is used.
    """
    if max_level > MAX_ORACLE_LEVEL:
        raise Refusal(f"max_level exceeds the oracle depth cap {MAX_ORACLE_LEVEL}")
    level = pairing.x_level(x, max_level=max_level)
    derived = [] if derived is None else derived
    for n in range(len(derived), level + 1):
        anchors = cross_anchors(*zip(*pairing.pairs[: n + 1]))
        # anchor i is on the row of level i, and anchor n + 1 + i on its column
        column = [_scan(anchors[i], derived[i]) for i in range(n)]
        row = [_scan(anchors[n + 1 + i], derived[i]) for i in range(n)]
        scale, lattice = _lattice(anchors)
        values = _common([*column, ONE, *row])
        derived.append((scale, lattice, *values, _radius(scale, lattice)))
    return _scan((x, y), derived[level])


# -- checks ----------------------------------------------------------------


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
    """Column-route and row-route evaluation must agree on the pair grid."""
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
    woven.build_to(levels - 1)
    failures = []
    read = 0
    for level in range(levels):
        cross = woven.cross(level)
        for axis, kind in enumerate(("row", "column")):
            center = (cross.column_x, cross.row_y)[axis]
            anchors, values = cross.line(axis)
            read += len(values)
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
    public `woven.value`.  `eps` is a pass tolerance, 0 by default and in
    every suite; it stays only because the benchmark harness passes it.
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
        if abs(value - target) > eps:
            failures.append(entry)
        elif k in (0, pitch // 2, pitch):
            examples.append(entry)
    return Report(
        "image_density", {"pitch": pitch, "eps": eps}, len(steps), failures, examples
    )


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
    `samples_per_kind` and `seed` are ignored; the benchmark passes them.
    """
    woven.build_to(levels - 1)
    failures = []
    halves = 0
    for level in range(levels):
        cross = woven.cross(level)
        r, bound = cross.radius, cross.lipschitz_bound
        for axis, kind in enumerate(("row", "column")):
            anchors, values = cross.line(axis)
            for i, (a, v) in enumerate(zip(anchors, values)):
                where = {"level": level, "kind": kind, "anchor": a}
                tent = [
                    cross.value_at((t, cross.row_y) if axis == 0 else (cross.column_x, t))
                    for t in (a - r, a - r / 2, a, a + r / 2, a + r)
                ]
                if not (tent[2] == v and tent[0] == tent[4] == ZERO):
                    failures.append({**where, "value": v, "tent": tent})
                for p0, p1, p2 in (tent[:3], tent[2:]):
                    halves += 1
                    slopes = ((4 * p1 - 3 * p0 - p2) / r, (p0 - 4 * p1 + 3 * p2) / r)
                    if max(map(abs, slopes)) > bound:
                        failures.append({**where, "slopes": slopes})
                if i + 1 < len(anchors) and anchors[i + 1] - a < 2 * r:
                    failures.append({**where, "next": anchors[i + 1], "radius": r})
    largest = max((woven.cross(n).lipschitz_bound for n in range(levels)), default=ONE)
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
            fast, slow = cross.value_at(point), _scan(point, level)
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
