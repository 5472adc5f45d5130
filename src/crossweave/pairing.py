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

Every scan walks enumeration indices and tests a candidate in integers: the
numerator and denominator of e(i) against a box side by cross-multiplying,
and "unused" against a set of indices.  That set stays small because each
axis keeps a scan start below which every index is already used (see
`Pairing`).  A `Fraction` is built only for the value a scan picks and for
the corners of the boxes it yields.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator

from .rationals import Rational, enumerate_rational, enumerate_terms, index_of

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


def _precedes(i: int, j: int) -> bool:
    """e(i) < e(j), by cross-multiplying their terms (denominators are positive)."""
    i_num, i_den = enumerate_terms(i)
    j_num, j_den = enumerate_terms(j)
    return i_num * j_den < j_num * i_den


def _open_boxes() -> Iterator[Box]:
    """The boxes (e(i), e(j)) x (e(k), e(l)) with both sides nonempty, in the
    order of their 4-tuples: by increasing i + j + k + l, ties lexicographic.

    The x side is tested once per (i, j); when it is empty, every (k, l)
    that would complete it is skipped untested.
    """
    total = 0
    while True:
        for i in range(total + 1):
            for j in range(total + 1 - i):
                if not _precedes(i, j):
                    continue
                for k in range(total + 1 - i - j):
                    l = total - i - j - k
                    if _precedes(k, l):
                        yield Box(
                            enumerate_rational(i),
                            enumerate_rational(j),
                            enumerate_rational(k),
                            enumerate_rational(l),
                        )
        total += 1


# the box stream is shared by the whole process; `_box_lock` serialises its growth
_box_cache: list[Box] = []
_box_source = _open_boxes()
_box_lock = threading.Lock()


def enumerate_box(ordinal: int) -> Box:
    """The ordinal-th open box in the fixed enumeration of the countable base.

    A 4-tuple (i, j, k, l) of enumeration indices denotes the candidate box
    (e(i), e(j)) x (e(k), e(l)); tuples whose intervals come out empty are
    skipped, and the survivors are numbered in order.  Safe to call from
    several threads: the cache grows under a lock, in enumeration order.

    >>> enumerate_box(0)
    Box(x_lo=Fraction(0, 1), x_hi=Fraction(1, 1), y_lo=Fraction(0, 1), y_hi=Fraction(1, 1))
    """
    if ordinal < 0:
        raise ValueError("box ordinal must be nonnegative")
    with _box_lock:
        while len(_box_cache) <= ordinal:
            _box_cache.append(next(_box_source))
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
    An index at or above the start is used only if a bounded pick (task 2)
    took it, so each axis keeps just those indices in a small set, and an
    index leaves the set once the scan start moves past it.  "Unused" is
    then "at or above the start and not in the set".  `level_of_x` and
    `level_of_y` remain the only map from a coordinate to its level.
    """

    def __init__(self) -> None:
        self.pairs: list[Point] = []
        self.level_of_x: dict[Rational, int] = {}
        self.level_of_y: dict[Rational, int] = {}
        self.box_witness: list[int] = []  # box ordinal -> level of its witness pair
        # per axis, 0 for x and 1 for y: its level index, its scan start,
        # and the indices at or above the start that bounded picks took
        self._level_of = (self.level_of_x, self.level_of_y)
        self._next = [0, 0]
        self._ahead: tuple[set[int], set[int]] = (set(), set())

    def __len__(self) -> int:
        return len(self.pairs)

    # -- construction ---------------------------------------------------

    def _take_least_unused(
        self, axis: int, lo: Rational | None = None, hi: Rational | None = None
    ) -> Rational:
        """The least-index rational unused on `axis`, strictly inside (lo, hi) if given.

        Only an unbounded pick is consumed outright and moves the scan start;
        a bounded pick is recorded in the axis's set of indices ahead of it.
        """
        ahead = self._ahead[axis]
        index = self._next[axis]
        if lo is None:
            while index in ahead:
                ahead.remove(index)
                index += 1
            self._next[axis] = index + 1
            return enumerate_rational(index)
        lo_num, lo_den = lo.numerator, lo.denominator
        hi_num, hi_den = hi.numerator, hi.denominator
        while True:
            if index not in ahead:
                num, den = enumerate_terms(index)
                if lo_num * den < num * lo_den and num * hi_den < hi_num * den:
                    ahead.add(index)
                    return enumerate_rational(index)
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
