"""The independent reference: the function rebuilt from the pair coordinates alone.

`brute_force_radius` gives a cross's tent radius from every pair of its
anchors, and `linear_scan_value` its value, hat times tent, from one scan
of the anchors.  `oracle_eval` derives the levels bottom-up, once per list
of derived levels, and evaluates points by `scan_level`; it refuses above
`MAX_ORACLE_LEVEL`.  A derived level is kept in integers (`Level`), and a
scan scales the point and the anchors by M, the lcm of their denominators,
so the distances, the hat, the test d < r and the tent sum are integers,
and each value is one `Fraction` at the end.  This module imports only
`rationals` and `pairing`, so it shares no code or state with the tower
it checks; a test holds it to that.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .pairing import Pairing, Point, Refusal
from .rationals import Rational

MAX_ORACLE_LEVEL = 256

# one derived level, all in integers: L, each anchor as (x L, y L), the
# common denominator W of the values and each value times W, and the radius
# as (numerator, denominator)
Level = tuple[int, list[tuple[int, int]], int, list[int], tuple[int, int]]


def _lattice(points: Sequence[Point]) -> tuple[int, list[tuple[int, int]]]:
    """L, the lcm of the points' coordinate denominators, and each point as
    the integers (x L, y L)."""
    scale, coordinates = _common([c for point in points for c in point])
    return scale, list(zip(coordinates[::2], coordinates[1::2]))


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


def scan_level(point: Point, level: Level) -> Rational:
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
        return Fraction(0)
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
    return scan_level(point, (*_lattice(anchors), *_common(values), radius.as_integer_ratio()))


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
    to read them back (as `verify.check_oracle_equivalence` does); that is
    sound because a level depends only on the pairs up to it, and a pairing
    only appends.  Without one, a fresh list is used.
    """
    if max_level > MAX_ORACLE_LEVEL:
        raise Refusal(f"max_level exceeds the oracle depth cap {MAX_ORACLE_LEVEL}")
    level = pairing.x_level(x, max_level=max_level)
    derived = [] if derived is None else derived
    for n in range(len(derived), level + 1):
        anchors = cross_anchors(*zip(*pairing.pairs[: n + 1]))
        # anchor i is on the row of level i, and anchor n + 1 + i on its column
        column = [scan_level(anchors[i], derived[i]) for i in range(n)]
        row = [scan_level(anchors[n + 1 + i], derived[i]) for i in range(n)]
        scale, lattice = _lattice(anchors)
        values = _common([*column, Fraction(1), *row])
        derived.append((scale, lattice, *values, _radius(scale, lattice)))
    return scan_level((x, y), derived[level])
