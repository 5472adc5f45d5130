"""Continuous interpolants on a cross of lines, with prescribed anchor values.

A level-n cross is the vertical line through x_n together with the
horizontal line through y_n.  The level-n function must take the value 1 at
(x_n, y_n) and prescribed values in [0, 1) at the finitely many points where
the cross meets the earlier lines.  We realize it as the product of

* a hat: max(0, 1 - distance to the nearest anchor), and
* a tent interpolant: one tent of radius r per anchor, scaled by the
  prescribed value, with r small enough that the tents' supports are
  pairwise disjoint.

All distances are L-infinity (max of coordinate distances), which keeps
every computed value rational.  The product is 1 exactly at (x_n, y_n),
matches every prescribed anchor value exactly, stays within [0, 1], and is
(1 + 1/r)-Lipschitz on the whole plane.

Level 0 has a single anchor and is special: its function is the bare hat
(multiplying by the tent would square the slope), which is 1-Lipschitz.

A cross evaluates a point through its nearest nonzero anchor alone.
Because r is at most half the minimum anchor separation, a point p within
r of an anchor a is more than r from every other anchor, so a is p's
nearest anchor and the product is v_a * (1 - d) * (1 - d/r), with d the
distance from p to a; a point within r of no anchor gets 0.  An anchor on
the other line of the cross lies at least one coordinate gap, hence at
least 2r, from every point of this line (the center, on both lines, is the
exception).  So a cross keeps only the nonzero anchors of each line,
sorted, with the center on both, and one bisection over that short list
finds a point's only two candidates.  The rest is integer arithmetic on
numerators and denominators: the tent test d < r is one
cross-multiplication, and a nonzero value is built as one `Fraction`.
The radius is the caller's: a tower keeps it in `weave` as a running
minimum over the coordinate gaps, and this module only checks that it lies
in (0, 1].  The linear-scan reference that these shortcuts are tested
against lives in `verify`, which shares no code with this module.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable

from .pairing import Point
from .rationals import Rational

ZERO = Fraction(0)
ONE = Fraction(1)

Line = tuple[tuple[Rational, ...], tuple[Rational, ...]]


def base_value(x0: Rational, y0: Rational, point: Point) -> Rational:
    """The level-0 function: a bare unit hat centered at (x0, y0).

    On the vertical line this is max(0, 1 - |y - y0|), on the horizontal
    line max(0, 1 - |x - x0|); both agree with the L-infinity hat there.
    """
    px, py = point
    if px != x0 and py != y0:
        raise ValueError("point lies off the level-0 cross")
    return max(ZERO, ONE - max(abs(px - x0), abs(py - y0)))


class CrossFunction:
    """One level's interpolant, holding only what exact evaluation needs.

    Immutable after construction; build instances through `build_cross`.
    """

    def __init__(
        self,
        level: int,
        center: Point,
        radius: Rational,
        lines: tuple[Line, Line],
    ) -> None:
        self.level = level
        self.column_x, self.row_y = center
        self.radius = radius
        # the nonzero anchors of each line, indexed by the axis their
        # coordinates lie on: the row's at x-coordinates, the column's at
        # y-coordinates.  The center, value 1, is on both.  These are the
        # only record of the level's prescribed values.
        self.lines = lines

    @property
    def lipschitz_bound(self) -> Rational:
        """1 + 1/radius for both lines; 1 for the bare hat at level 0."""
        return ONE if self.level == 0 else ONE + ONE / self.radius

    def value_at(self, point: Point) -> Rational:
        """Exact value at a point of the cross, through its nearest nonzero anchor.

        The tent radius r is at most half the minimum anchor separation, so
        the tent supports are disjoint, and a point p within r of an anchor
        a is nearer to a than to any other anchor (those are more than
        2r - r = r away).  So value(p) = v_a * (1 - d) * (1 - d/r) with d
        the distance from p to a, and value(p) = 0 when no anchor, or only
        a zero-valued one, lies within r.  An anchor on the other line of
        the cross is at least one coordinate gap, hence at least 2r, from
        every point of this line; only the center lies on both lines, and
        it is stored with each.  So one bisection over the nonzero anchors
        of p's own line finds the only two candidates, its neighbors.

        Past the bisection everything is in integers.  With t = t_n/t_d the
        free coordinate, a = a_n/a_d a neighbor and r = r_n/r_d, the
        distance is d = |a_n t_d - t_n a_d| / (a_d t_d), and d < r is
        decided by cross-multiplying.  A hit returns v (1 - d) (1 - d/r) as
        one `Fraction(numerator, denominator)`, which normalises to exactly
        the value the `Fraction` formula gives; a miss returns zero.
        """
        px, py = point
        if px == self.column_x:
            (coordinates, values), t = self.lines[1], py
        elif py == self.row_y:
            (coordinates, values), t = self.lines[0], px
        else:
            raise ValueError(f"point lies off the level-{self.level} cross")
        if self.level == 0:
            return base_value(self.column_x, self.row_y, point)
        r_n, r_d = self.radius.numerator, self.radius.denominator
        t_n, t_d = t.numerator, t.denominator
        pos = bisect_left(coordinates, t)
        for i in (pos, pos - 1):
            if 0 <= i < len(coordinates):
                # d = |a - t| = d_n / d_d, not reduced; d < r cross-multiplied
                a_n, a_d = coordinates[i].numerator, coordinates[i].denominator
                d_d = a_d * t_d
                d_n = abs(a_n * t_d - t_n * a_d)
                if d_n * r_d < r_n * d_d:
                    # v (1 - d) (1 - d/r), each factor over its own denominator
                    v = values[i]
                    return Fraction(
                        v.numerator * (d_d - d_n) * (r_n * d_d - d_n * r_d),
                        v.denominator * d_d * d_d * r_n,
                    )
        return ZERO


def _nonzero_line(
    anchors: Iterable[tuple[Rational, Rational]], center: Rational
) -> Line:
    """The center (value 1) and the nonzero anchors of one line, sorted.

    Refuses a prescribed value outside [0, 1); a zero one is in range, so
    only the nonzero ones need comparing, and it is dropped.
    """
    line = [(center, ONE)]
    for coordinate, value in anchors:
        if value:
            if not (ZERO < value < ONE):
                raise ValueError("prescribed values must lie in [0, 1)")
            line.append((coordinate, value))
    line.sort()
    return tuple(c for c, _ in line), tuple(v for _, v in line)


def build_cross(
    level: int,
    center: Point,
    column_anchors: Iterable[tuple[Rational, Rational]],
    row_anchors: Iterable[tuple[Rational, Rational]],
    radius: Rational,
) -> CrossFunction:
    """Build the level-n interpolant centered at (x_n, y_n).

    `column_anchors` holds pairs (y_i, value at (x_n, y_i)) and
    `row_anchors` pairs (x_i, value at (x_i, y_n)), for earlier levels i
    and values in [0, 1); an anchor left out has value 0.  The center
    (x_n, y_n) always gets value 1.

    `radius` is the tent radius, in (0, 1]: it must be at most half the
    minimum pairwise anchor distance, which the caller knows from the
    coordinates it has placed (`weave` keeps it as a running minimum).
    """
    if not (ZERO < radius <= ONE):
        raise ValueError("the tent radius must lie in (0, 1]")
    row_line = _nonzero_line(row_anchors, center[0])
    column_line = _nonzero_line(column_anchors, center[1])
    return CrossFunction(level, center, radius, (row_line, column_line))
