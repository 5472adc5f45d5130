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

The tent radius is a running minimum: r_0 = 1 is the reach of the level-0
hat, and r_n = min(r_{n-1}, g_n / 2), where g_n is the smaller of the
distances from x_n to the nearest earlier x and from y_n to the nearest
earlier y.  Two anchors of one line are a coordinate gap apart, and anchors
on different lines, other than the center, are max(|x_n - x_j|, |y_n - y_i|)
apart, no less than a gap; so r_n is min(1, half the minimum anchor
separation), small enough to keep the level's tents disjoint.

Almost all of the parameters are 0, and a screen per axis (`Screen`), the
axis's one index of its coordinates, finds the rest without evaluating them
and measures g_n in the same pass.  Level i's value at a point of one of its
lines is nonzero exactly when a nonzero anchor of that line lies within the
radius r_i of the point.  Since the radius never grows, at distance d from
an anchor a the levels that reach the point are a prefix of the increasing
levels with a nonzero anchor at a, those with r_i > d, and every one of them
is nonzero.  Building a level then evaluates each of its nonzero parameters
once, by one bisection over the few nonzero anchors of an earlier line, plus
three dict probes per radius scale and axis for the screen.  The new cross
stores those anchors, and nothing else records the parameters:
`column_params` and `row_params` fill in the zeros on demand, so memory
grows with the levels plus the nonzero parameters.  The prescribed values
always land in [0, 1): the point (x_k, y_i) is never an anchor of the
earlier F_i, and off its anchors a hat-tent product stays strictly below 1;
`verify`'s `range` suite certifies this from the stored lines.
"""

from __future__ import annotations

from fractions import Fraction

from .cross_extension import ONE, ZERO, CrossFunction, build_cross
from .pairing import Pairing
from .rationals import Rational


class Screen:
    """The coordinates a tower has placed on one axis, and the earlier levels
    whose line along that axis is nonzero at a coordinate.

    The screen of axis 0 covers the levels' rows, whose anchors sit at
    x-coordinates; that of axis 1 covers their columns.  Each anchor
    coordinate a maps to the increasing levels with a nonzero anchor at a on
    that line.  The first is the level whose center is a, and it has the
    largest radius of them, since radii never grow.  The coordinates are
    grouped by k = floor(log2(1/r)) of their first level's radius r, and
    bucketed within group k by floor(a / 2^(1-k)); these buckets are the
    axis's only index of its coordinates.
    """

    def __init__(self, axis: int) -> None:
        self.axis = axis
        # per level, the levels with a nonzero anchor at its center
        self._levels: list[list[int]] = []
        # k -> bucket -> its coordinates a = a_n/a_d as (a_n, a_d, the levels at a)
        self._groups: dict[int, dict[int, list[tuple[int, int, list[int]]]]] = {}

    def prescribed(
        self, t: Rational, crosses: list[CrossFunction]
    ) -> tuple[list[tuple[Rational, Rational]], list[int], Rational | None]:
        """The earlier levels' nonzero values on their lines at coordinate t,
        each with its level's other center coordinate, where it anchors the
        new level's crossing line; those levels, in order; and the nearest
        distance from t to a coordinate within its group's reach, or None.

        Group k, whose coordinates' first levels have radii r_a in
        (2^-(k+1), 2^-k], is scanned within the reach w = 2^(1-k) of t.
        That window holds every point a level of the group reaches, within
        r_a of a.  Since radii never grow, it also holds every coordinate
        closer to t than 2 r_{n-1} <= 2 r_a, the only ones that can lower
        the new radius min(r_{n-1}, g_n / 2); so the nearest distance
        returned is g_n whenever g_n / 2 < r_{n-1}.  Bucket b holds the
        group's coordinates in [b w, (b + 1) w), so if t is in bucket c, its
        window (t - w, t + w) lies in [(c - 1) w, (c + 2) w): buckets c - 1,
        c and c + 1.  The tests compare d = d_n/d_d, not reduced, by integer
        cross-multiplication, and refuse a coordinate at distance 0.
        """
        t_n, t_d = t.as_integer_ratio()
        anchors, found = [], []
        near_n = near_d = None
        for k, buckets in self._groups.items():
            cell = (t_n << k) // (t_d << 1)
            for b in (cell - 1, cell, cell + 1):
                for a_n, a_d, levels in buckets.get(b, ()):
                    d_n, d_d = abs(a_n * t_d - t_n * a_d), a_d * t_d
                    if d_n << k >= d_d << 1:  # d >= w
                        continue
                    if not d_n:
                        raise ValueError("coordinates must be pairwise distinct per axis")
                    if near_n is None or d_n * near_d < near_n * d_d:
                        near_n, near_d = d_n, d_d
                    for level in levels:
                        cross = crosses[level]
                        r_n, r_d = cross.radius.as_integer_ratio()
                        if d_n * r_d >= r_n * d_d:  # d >= r
                            break
                        s = cross.center[1 - self.axis]
                        point = (t, s) if self.axis == 0 else (s, t)
                        anchors.append((s, cross.value_at(point)))
                        found.append(level)
        return anchors, found, None if near_n is None else Fraction(near_n, near_d)

    def add(self, cross: CrossFunction, found: list[int]) -> None:
        """Record the new level's line on this axis: its center, first seen
        here, and `found`, the levels of its other nonzero anchors as the
        other axis's screen found them, each anchor the center of its level."""
        self._levels.append([cross.level])
        # floor(log2(1/r)) equals floor(log2(floor(1/r))), as 1/r >= 1
        k = (cross.radius.denominator // cross.radius.numerator).bit_length() - 1
        a_n, a_d = cross.center[self.axis].as_integer_ratio()
        buckets = self._groups.setdefault(k, {})
        b = (a_n << k) // (a_d << 1)
        buckets.setdefault(b, []).append((a_n, a_d, self._levels[-1]))
        for level in found:
            self._levels[level].append(cross.level)


class ParameterTable:
    """Read-only view of a parameter table, derived from the crosses.

    `table[n]` is level n's n prescribed values on its row (axis 0) or its
    column (axis 1), in level order; each nonzero anchor's coordinate on
    that axis names its level through the pairing, and the rest are 0.
    """

    def __init__(
        self, crosses: list[CrossFunction], pairing: Pairing, axis: int
    ) -> None:
        self._crosses = crosses
        self._level = (pairing.x_level, pairing.y_level)[axis]
        self._axis = axis

    def __getitem__(self, level: int) -> tuple[Rational, ...]:
        cross = self._crosses[level]
        params = [ZERO] * cross.level
        for a, value in zip(*cross.line(self._axis)):
            i = self._level(a)
            if i < cross.level:  # the center, at level n itself, is no parameter
                params[i] = value
        return tuple(params)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParameterTable) and tuple(self) == tuple(other)


class WovenFunction:
    """Lazy tower of cross interpolants over a shared pairing.

    Levels build strictly in order, on demand from evaluation.
    """

    def __init__(self, pairing: Pairing | None = None) -> None:
        self.pairing = pairing if pairing is not None else Pairing()
        self.crosses: list[CrossFunction] = []
        self.column_params = ParameterTable(self.crosses, self.pairing, 1)
        self.row_params = ParameterTable(self.crosses, self.pairing, 0)
        # per axis, 0 for x and 1 for y: the screen of the built levels'
        # rows (by x) or columns (by y)
        self._screens = (Screen(0), Screen(1))

    @property
    def built_levels(self) -> int:
        return len(self.crosses)

    def cross(self, level: int) -> CrossFunction:
        if level >= len(self.crosses):
            raise RuntimeError(f"level {level} not built")
        return self.crosses[level]

    def build_level(self, level: int) -> CrossFunction:
        """Build exactly the next level; earlier levels must already exist."""
        if level != len(self.crosses):
            raise RuntimeError(
                f"levels build in order: expected {len(self.crosses)}, got {level}"
            )
        if len(self.pairing) <= level:  # lookups often run the pairing ahead of the tower
            self.pairing.extend(level + 1 - len(self.pairing))
        center = self.pairing.pairs[level]
        # the new column meets the earlier rows, screened by x, and its row
        # the earlier columns, screened by y; the cross takes them row first
        (column, x_found, x_gap), (row, y_found, y_gap) = (
            screen.prescribed(t, self.crosses) for screen, t in zip(self._screens, center)
        )
        # the running minimum r_n = min(r_{n-1}, g_n / 2), from r_0 = 1
        radius = self.crosses[-1].radius if self.crosses else ONE
        for gap in (x_gap, y_gap):
            if gap is not None:
                radius = min(radius, gap / 2)
        cross = build_cross(level, center, (row, column), radius)
        # the row's anchors sit at x-coordinates, the column's at y-coordinates
        for screen, found in zip(self._screens, (y_found, x_found)):
            screen.add(cross, found)
        self.crosses.append(cross)
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

        `value` is the canonical route.  `verify.check_welldefined` compares
        the two routes through the pairing's lookups and the crosses
        directly, so this method stays only for the benchmark harness's
        `query-warm` workload, which sends half of its queries here.
        """
        level = self.pairing.y_level(y, max_level)
        self.build_to(level)
        return self.crosses[level].value_at((x, y))

    def __call__(self, x: Rational, y: Rational) -> Rational:
        return self.value(x, y)
