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

Level 0 has a single anchor and radius 1, and its function is the bare hat
(multiplying by the tent would square the slope), which is 1-Lipschitz: it
is evaluated on its stored line like any level, without the tent factor.

A cross evaluates a point through its nearest nonzero anchor alone.
Because r is at most half the minimum anchor separation, a point p within
r of an anchor a is more than r from every other anchor, so a is p's
nearest anchor and the product is v_a * (1 - d) * (1 - d/r), with d the
distance from p to a; a point within r of no anchor gets 0.  An anchor on
the other line of the cross lies at least one coordinate gap, hence at
least 2r, from every point of this line (the center, on both lines, is the
exception).  So a cross keeps only the nonzero anchors of each line, with
the center on both, and finds a point's only two candidates by one
bisection over that short list.

A line is stored once, in integers: L, the lcm of its anchor coordinates'
denominators, and each coordinate a as the integer a L, increasing; the
values stay `Fraction`s.  `CrossFunction.line` derives one line's
`Fraction` coordinates from these, and no other module knows the format.
A point's coordinate t = t_n/t_d is located among the integers at
ceil(t L), since an integer A is below t L exactly when it is below
ceil(t L); so the bisection compares integers only.  The rest is integer
arithmetic too: the tent test d < r is one cross-multiplication, and a
nonzero value is built as one `Fraction`.

The radius is the caller's: a tower keeps it in `weave` as a running
minimum over the coordinate gaps, and this module only checks that it lies
in (0, 1].  The linear-scan reference that these shortcuts are tested
against lives in `oracle`, which shares no code with this module.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Iterable

from .pairing import Point
from .rationals import Rational

ZERO = Fraction(0)
ONE = Fraction(1)

# one line's nonzero anchors: the common denominator L of their coordinates,
# each coordinate a as the integer a L in increasing order, and their values
Line = tuple[int, tuple[int, ...], tuple[Rational, ...]]
# one line's anchors as a caller gives them: (coordinate, value) pairs
Anchors = Iterable[tuple[Rational, Rational]]


class CrossFunction:
    """One level's interpolant, holding only what exact evaluation needs:
    its center (x_n, y_n) as one pair, its radius, and its two lines in
    integers, row first, as `line` reads them.  Both are indexed by axis:
    `center[axis]` is the center's coordinate along `line(axis)`, x_n on
    the row, whose anchors lie at x-coordinates, and y_n on the column.

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
        self.center = center
        self.radius = radius
        # the nonzero anchors of the row, then the column, each a `Line`.
        # The center, value 1, is on both.  These are the only record of the
        # level's prescribed values.
        self._lines = lines

    def line(self, axis: int) -> tuple[list[Rational], tuple[Rational, ...]]:
        """The nonzero anchors of the row (axis 0) or the column (axis 1):
        their coordinates, increasing, as a new list of `Fraction`s on each
        call, and their values."""
        # a list, not a tuple: the interpreter keeps up to 2 000 freed tuples
        # of each short length for reuse, and tuples here raised the peak
        # RSS of a 150-level tower's certification by 0.1 MiB
        scale, coordinates, values = self._lines[axis]
        return [Fraction(a, scale) for a in coordinates], values

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

        Everything is in integers.  The line is picked by comparing
        numerator-denominator pairs.  With t = t_n/t_d the free coordinate
        and L the line's denominator, the anchors are the integers A = a L,
        and A < t L exactly when A < ceil(t L) = -(-t_n L // t_d), so
        bisecting at that integer finds the position that bisecting the
        `Fraction` coordinates at t would.  With r = r_n/r_d, the distance
        to a neighbor is d = |A t_d - t_n L| / (L t_d), and d < r is
        decided by cross-multiplying.  A hit returns v (1 - d) (1 - d/r) as
        one `Fraction(numerator, denominator)`, which normalises to exactly
        the value the `Fraction` formula gives; a miss returns zero.  Level
        0 takes the same path: its line holds only the center, its radius is
        1, and a hit returns the bare hat 1 - d, without the tent factor.
        """
        (px, py), (cx, cy) = point, self.center
        x = px.as_integer_ratio()
        if x == cx.as_integer_ratio():
            (scale, coordinates, values), (t_n, t_d) = self._lines[1], py.as_integer_ratio()
        elif py.as_integer_ratio() == cy.as_integer_ratio():
            (scale, coordinates, values), (t_n, t_d) = self._lines[0], x
        else:
            raise ValueError(f"point lies off the level-{self.level} cross")
        r_n, r_d = self.radius.as_integer_ratio()
        t_scaled = t_n * scale
        pos = bisect_left(coordinates, -(-t_scaled // t_d))
        # d = |a - t| = d_n / d_d, not reduced; d < r cross-multiplied
        d_d = scale * t_d
        for i in (pos, pos - 1):
            if 0 <= i < len(coordinates):
                d_n = abs(coordinates[i] * t_d - t_scaled)
                if d_n * r_d < r_n * d_d:
                    if self.level == 0:  # the bare hat 1 - d
                        return Fraction(d_d - d_n, d_d)
                    # v (1 - d) (1 - d/r), each factor over its own denominator
                    v = values[i]
                    return Fraction(
                        v.numerator * (d_d - d_n) * (r_n * d_d - d_n * r_d),
                        v.denominator * d_d * d_d * r_n,
                    )
        return ZERO


def _nonzero_line(anchors: Anchors, center: Rational) -> Line:
    """The center (value 1) and the nonzero anchors of one line, as integers
    over their common denominator, sorted; a zero-valued anchor is dropped."""
    line = [(center.as_integer_ratio(), ONE)]
    line += [(a.as_integer_ratio(), value) for a, value in anchors if value]
    scale = lcm(*(a_d for (_, a_d), _ in line))
    line = sorted((a_n * (scale // a_d), v) for (a_n, a_d), v in line)
    return scale, tuple(a for a, _ in line), tuple(v for _, v in line)


def build_cross(
    level: int, center: Point, anchors: tuple[Anchors, Anchors], radius: Rational
) -> CrossFunction:
    """Build the level-n interpolant centered at (x_n, y_n).

    `anchors` holds the two lines' anchors in the order of `line`, row
    first: the row's pairs (x_i, value at (x_i, y_n)), then the column's
    pairs (y_i, value at (x_n, y_i)), for earlier levels i; an anchor left
    out has value 0.  The center (x_n, y_n) always gets value 1.  The
    values are the caller's and are not checked here: the construction
    keeps them in [0, 1), and `verify`'s range suite certifies that from the
    stored lines.

    `radius` is the tent radius, in (0, 1]: it must be at most half the
    minimum pairwise anchor distance, which the caller knows from the
    coordinates it has placed (`weave` keeps it as a running minimum).  At
    level 0 it must be 1, the reach of the bare hat.
    """
    if not (ZERO < radius <= ONE) or (level == 0 and radius != ONE):
        raise ValueError("the tent radius must lie in (0, 1], and be 1 at level 0")
    # the row's center coordinate is x_n, the column's y_n
    row, column = (_nonzero_line(line, t) for line, t in zip(anchors, center))
    return CrossFunction(level, center, radius, (row, column))
