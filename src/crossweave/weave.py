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

The parameters are memoized level by level (the table is the construction),
so building m levels takes m(m - 1) evaluations, each one bisection over the
few nonzero anchors of one line of an earlier cross, and one bisection per
axis per level keeps the tent radius current.  The prescribed values always
land in [0, 1): the point (x_k, y_i) is never an anchor of the earlier F_i,
and off its anchors a hat-tent product stays strictly below 1.
"""

from __future__ import annotations

from .cross_extension import Axis, CrossFunction, build_cross
from .pairing import Pairing
from .rationals import Rational


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
        column = tuple(crosses[i].value_at((x_new, pairs[i][1])) for i in range(level))
        row = tuple(crosses[i].value_at((pairs[i][0], y_new)) for i in range(level))
        xs, ys = zip(*pairs[: level + 1])
        cross = build_cross(level, xs, ys, column, row, self._x_axis, self._y_axis)
        self._x_axis.place(x_new)
        self._y_axis.place(y_new)
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
        on demand; `max_level` turns runaway extension into a
        refusal (levels grow cubically with the enumeration index of x,
        which can be astronomical for innocent-looking rationals).
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
