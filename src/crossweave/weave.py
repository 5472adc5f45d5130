"""The global function on Q x Q woven from one cross interpolant per level.

Level k contributes a continuous function on the cross of (x_k, y_k) whose
prescribed values are evaluations of the *earlier* levels:

    column_params[k][i] = F_i(x_k, y_i)      (i < k)
    row_params[k][i]    = F_i(x_i, y_k)      (i < k)

and whose center value is F_k(x_k, y_k) = 1.  Since a tent interpolant
reproduces its prescribed values exactly, F_k agrees with every earlier F_i
at the finitely many points their crosses share.  That compatibility makes
the global definition

    value(x, y) = F_m(x, y)   where m is the level with x_m = x

independent of the route: evaluating through the level n with y_n = y gives
the identical rational, and each vertical or horizontal section of the
global function is a single F_m restricted to a line, hence continuous.

The parameters are memoized level by level (the table is the construction).
Almost all of them are 0, and a screen per axis (`Screen`) finds the rest
without evaluating them.  Level i's value at a point of one of its lines is
nonzero exactly when a nonzero anchor of that line lies within the radius
r_i of the point.  The radius never grows from level to level: r_0 = 1 is
the reach of the level-0 hat, and r_n = min(1, half the running minimum
coordinate gap) after it.  So at distance d from an anchor a, the levels
that reach the point are a prefix of the increasing levels with a nonzero
anchor at a, those with r_i > d, and every one of them is nonzero.
Building m levels then evaluates each nonzero parameter once, each through
one bisection over the few nonzero anchors of one line of an earlier cross;
every other entry is filled with 0.  The screen asks one sorted group of
anchors per radius scale, so a level costs a bisection per group and axis,
plus one bisection per axis to keep the tent radius current.  The
prescribed values always land in [0, 1): the point (x_k, y_i) is never an
anchor of the earlier F_i, and off its anchors a hat-tent product stays
strictly below 1.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from itertools import islice

from .cross_extension import ZERO, Axis, CrossFunction, build_cross
from .pairing import Pairing, Point
from .rationals import Rational


class Screen:
    """The earlier levels whose line along one axis is nonzero at a coordinate.

    Axis 0 screens the levels' rows, whose anchors sit at x-coordinates;
    axis 1 screens their columns.  Each anchor coordinate a maps to the
    increasing levels with a nonzero anchor at a on that line.  The first
    is the level whose center is a, and it has the largest radius of them,
    since radii never grow.  The coordinates are grouped by
    k = floor(log2(1/r)) of their first level's radius r, each group
    sorted, so only the coordinates within 2^-k of a query can reach it.
    """

    def __init__(self, axis: int) -> None:
        self.axis = axis
        self._levels: dict[Rational, list[int]] = {}
        self._groups: dict[int, tuple[Rational, list[Rational]]] = {}

    def reaching(self, t: Rational, crosses: list[CrossFunction]) -> list[int]:
        """The levels whose line is nonzero at coordinate t, in no set order."""
        found = []
        for width, coordinates in self._groups.values():
            pos = bisect_left(coordinates, t - width)
            for a in islice(coordinates, pos, None):
                d = a - t
                if d >= width:
                    break
                d = abs(d)
                for level in self._levels[a]:
                    if d >= crosses[level].radius:
                        break
                    found.append(level)
        return found

    def prescribed(
        self, t: Rational, crosses: list[CrossFunction], pairs: list[Point]
    ) -> tuple[tuple[Rational, ...], list[int]]:
        """Every earlier level's value on its line at coordinate t, and the
        levels where it is nonzero; only those are evaluated."""
        params = [ZERO] * len(crosses)
        levels = self.reaching(t, crosses)
        for i in levels:
            x, y = pairs[i]
            params[i] = crosses[i].value_at((t, y) if self.axis == 0 else (x, t))
        return tuple(params), levels

    def add(
        self, level: int, radius: Rational, pairs: list[Point], nonzero: list[int]
    ) -> None:
        """Record the new level's line on this axis: its center, first seen
        here, and the coordinates of the earlier levels where it is nonzero."""
        center = pairs[level][self.axis]
        self._levels[center] = []
        # floor(log2(1/r)) equals floor(log2(floor(1/r))), as 1/r >= 1
        k = (radius.denominator // radius.numerator).bit_length() - 1
        if k not in self._groups:
            self._groups[k] = (Fraction(1, 1 << k), [])
        insort(self._groups[k][1], center)
        for i in (*nonzero, level):
            self._levels[pairs[i][self.axis]].append(level)


class WovenFunction:
    """Lazy tower of cross interpolants over a shared pairing.

    Levels build strictly in order, on demand from evaluation.
    """

    def __init__(self, pairing: Pairing | None = None) -> None:
        self.pairing = pairing if pairing is not None else Pairing()
        self.crosses: list[CrossFunction] = []
        self.column_params: list[tuple[Rational, ...]] = []
        self.row_params: list[tuple[Rational, ...]] = []
        # the coordinates of the built levels, sorted, for the tent radius
        self._x_axis = Axis()
        self._y_axis = Axis()
        # the nonzero lines of the built levels: rows by x, columns by y
        self._x_screen = Screen(0)
        self._y_screen = Screen(1)

    @property
    def built_levels(self) -> int:
        return len(self.crosses)

    def cross(self, level: int) -> CrossFunction:
        if level >= len(self.crosses):
            raise RuntimeError(f"level {level} not built")
        return self.crosses[level]

    def lipschitz_of_level(self, level: int) -> Rational:
        """Recorded plane Lipschitz bound of the level's interpolant."""
        return self.cross(level).lipschitz_bound

    def build_level(self, level: int) -> CrossFunction:
        """Build exactly the next level; earlier levels must already exist."""
        if level != len(self.crosses):
            raise RuntimeError(
                f"levels build in order: expected {len(self.crosses)}, got {level}"
            )
        self.pairing.ensure_length(level + 1)
        pairs = self.pairing.pairs
        x_new, y_new = pairs[level]
        crosses = self.crosses
        column, column_levels = self._x_screen.prescribed(x_new, crosses, pairs)
        row, row_levels = self._y_screen.prescribed(y_new, crosses, pairs)
        xs, ys = zip(*pairs[: level + 1])
        cross = build_cross(level, xs, ys, column, row, self._x_axis, self._y_axis)
        self._x_axis.place(x_new)
        self._y_axis.place(y_new)
        # the new row is nonzero at x_n and at the x_i of its nonzero
        # parameters, the new column likewise along y
        self._x_screen.add(level, cross.radius, pairs, row_levels)
        self._y_screen.add(level, cross.radius, pairs, column_levels)
        self.crosses.append(cross)
        self.column_params.append(column)
        self.row_params.append(row)
        return cross

    def build_to(self, level: int) -> None:
        """Build all levels up to and including `level`."""
        while len(self.crosses) <= level:
            self.build_level(len(self.crosses))

    # -- evaluation -------------------------------------------------------

    def value(self, x: Rational, y: Rational, max_level: int | None = None) -> Rational:
        """Exact value at (x, y), through the level whose column holds x.

        This is the defining route.  The pairing and the level tower extend
        on demand; `max_level` turns runaway extension into a `Refusal`
        (the level of x is at most 3(i + 1) for its enumeration index i,
        but i can be astronomical for innocent-looking rationals).
        """
        level = self.pairing.x_level(x, max_level)
        self.build_to(level)
        return self.crosses[level].value_at((x, y))

    def value_via_row(
        self, x: Rational, y: Rational, max_level: int | None = None
    ) -> Rational:
        """Value at (x, y) through the level whose row holds y.

        Exists to let the verifier test that both routes agree; `value` is
        the canonical route.
        """
        level = self.pairing.y_level(y, max_level)
        self.build_to(level)
        return self.crosses[level].value_at((x, y))

    def __call__(self, x: Rational, y: Rational) -> Rational:
        return self.value(x, y)
