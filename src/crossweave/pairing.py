"""Deterministic construction of a dense pair sequence with singleton sections.

The sequence (x_0, y_0), (x_1, y_1), ... is built greedily so that

* no x-coordinate and no y-coordinate is ever used twice (each vertical and
  horizontal line meets the set at most once),
* every rational eventually appears on each axis,
* every open rational box eventually receives a pair strictly inside it.

A fixed round-robin of three tasks delivers all three at once, with
least-enumeration-index tie-breaking everywhere, so the sequence is a pure
function of its length.  Task 2 walks a canonical enumeration of open boxes
with rational corners (a countable base of the plane's topology), which is
what makes the sequence dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .rationals import Rational, enumerate_rational, index_of

Point = tuple[Rational, Rational]


class Refusal(ValueError):
    """A request the package declines: a level above its cap, an oversized
    or empty grid, an unwritable output, an unknown suite, a depth out of range.

    Anything else raised is a fault, not a refusal.
    """


@dataclass(frozen=True)
class Box:
    """Open axis-aligned rectangle with rational corners."""

    x_lo: Rational
    x_hi: Rational
    y_lo: Rational
    y_hi: Rational

    def __post_init__(self) -> None:
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ValueError("box sides must be nonempty open intervals")

    def strictly_inside(self, x: Rational, y: Rational) -> bool:
        return self.x_lo < x < self.x_hi and self.y_lo < y < self.y_hi


def _index_tuples() -> Iterator[tuple[int, int, int, int]]:
    """All 4-tuples of enumeration indices, by increasing sum, ties lexicographic."""
    total = 0
    while True:
        for i in range(total + 1):
            for j in range(total + 1 - i):
                for k in range(total + 1 - i - j):
                    yield i, j, k, total - i - j - k
        total += 1


_box_cache: list[Box] = []
_box_source = _index_tuples()


def enumerate_box(ordinal: int) -> Box:
    """The ordinal-th open box in the fixed enumeration of the countable base.

    A 4-tuple (i, j, k, l) of enumeration indices denotes the candidate box
    (e(i), e(j)) x (e(k), e(l)); tuples whose intervals come out empty are
    skipped, and the survivors are numbered in order.

    >>> enumerate_box(0)
    Box(x_lo=Fraction(0, 1), x_hi=Fraction(1, 1), y_lo=Fraction(0, 1), y_hi=Fraction(1, 1))
    """
    if ordinal < 0:
        raise ValueError("box ordinal must be nonnegative")
    while len(_box_cache) <= ordinal:
        i, j, k, l = next(_box_source)
        x_lo, x_hi = enumerate_rational(i), enumerate_rational(j)
        y_lo, y_hi = enumerate_rational(k), enumerate_rational(l)
        if x_lo < x_hi and y_lo < y_hi:
            _box_cache.append(Box(x_lo, x_hi, y_lo, y_hi))
    return _box_cache[ordinal]


class Pairing:
    """The growing pair sequence, its coordinate indexes, and its box-coverage log.

    Step n runs task n mod 3:

    * tasks 0 and 1: take the least-index unused rational on each axis (the
      two picks are independent; two steps in three keep both axes covered
      at a known rate),
    * task 2: take the next unprocessed box and the least-index unused
      rationals strictly inside its two sides, and log the new pair as that
      box's density witness.

    Because tasks 0 and 1 consume the least unused index outright, every
    index below an axis's scan start is already used; scans may start there.
    """

    def __init__(self) -> None:
        self.pairs: list[Point] = []
        self.level_of_x: dict[Rational, int] = {}
        self.level_of_y: dict[Rational, int] = {}
        self.box_witness: list[int] = []  # box ordinal -> level of its witness pair
        # per axis, 0 for x and 1 for y: its level index and its scan start
        self._level_of = (self.level_of_x, self.level_of_y)
        self._next = [0, 0]

    def __len__(self) -> int:
        return len(self.pairs)

    def x_coordinate(self, level: int) -> Rational:
        return self.pairs[level][0]

    def y_coordinate(self, level: int) -> Rational:
        return self.pairs[level][1]

    # -- construction ---------------------------------------------------

    def _take_least_unused(
        self, axis: int, lo: Rational | None = None, hi: Rational | None = None
    ) -> Rational:
        """The least-index rational unused on `axis`, strictly inside (lo, hi) if given.

        Only an unbounded pick is consumed outright and moves the scan start.
        """
        used = self._level_of[axis]
        index = self._next[axis]
        if lo is None:
            while enumerate_rational(index) in used:
                index += 1
            self._next[axis] = index + 1
            return enumerate_rational(index)
        while True:
            value = enumerate_rational(index)
            if lo < value < hi and value not in used:
                return value
            index += 1

    def extend(self, steps: int) -> None:
        """Append `steps` pairs by the round-robin schedule."""
        for _ in range(steps):
            step = len(self.pairs)
            if step % 3 == 2:
                box = enumerate_box(len(self.box_witness))
                x = self._take_least_unused(0, box.x_lo, box.x_hi)
                y = self._take_least_unused(1, box.y_lo, box.y_hi)
                self.box_witness.append(step)
            else:
                x = self._take_least_unused(0)
                y = self._take_least_unused(1)
            self.level_of_x[x] = step
            self.level_of_y[y] = step
            self.pairs.append((x, y))

    def ensure_length(self, count: int) -> None:
        if len(self.pairs) < count:
            self.extend(count - len(self.pairs))

    # -- coordinate lookup ----------------------------------------------

    def x_level(self, value: Rational, max_level: int | None = None) -> int:
        """The level whose x-coordinate is `value`, extending as needed.

        A rational of enumeration index i is consumed as an x-coordinate no
        later than step 3*(i+1), because every third step takes the least
        unused index; so the lookup always terminates.  With `max_level`
        set, any answer above it raises `Refusal` instead, whether the
        level is already known or would require extension to find.
        """
        return self._level(0, value, max_level)

    def y_level(self, value: Rational, max_level: int | None = None) -> int:
        """Symmetric to `x_level`, for y-coordinates."""
        return self._level(1, value, max_level)

    def _level(self, axis: int, value: Rational, max_level: int | None) -> int:
        levels = self._level_of[axis]
        name = "xy"[axis]
        level = levels.get(value)
        if level is not None:
            if max_level is not None and level > max_level:
                raise Refusal(
                    f"level of {name}-coordinate is {level}, above the cap {max_level}"
                )
            return level
        bound = 3 * (index_of(value) + 1)
        if max_level is not None:
            bound = min(bound, max_level + 1)
        while value not in levels and len(self.pairs) < bound:
            self.extend(1)
        level = levels.get(value)
        if level is None:
            raise Refusal(
                f"level of {name}-coordinate would exceed max_level={max_level}"
            )
        return level
