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

Every pick is one scan of enumeration indices in integers: from the stored
terms of its start it steps from e(i) to e(i + 1) by Newman's successor,
tests each against a side by cross-multiplying, and tests "unused" against a
small set of indices (see `Pairing`).  A box side is tested by the ranks of
its two corners.  A `Fraction` is built only for the value a scan picks and
for the corners of the boxes it yields, and a level only when a lookup asks.
"""

from __future__ import annotations

import threading
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


def _open_boxes() -> Iterator[Box]:
    """The boxes (e(i), e(j)) x (e(k), e(l)) with both sides nonempty, in the
    order of their 4-tuples: by increasing i + j + k + l, ties lexicographic.

    No index of a tuple exceeds its sum, so each sum's tuples need only
    e(0) .. e(total), and a side (e(i), e(j)) is nonempty exactly when the
    rank of e(i) among those values is below that of e(j).  The x side is
    tested once per (i, j); when it is empty, every (k, l) that would
    complete it is skipped untested.
    """
    values: list[Rational] = []
    while True:
        total = len(values)
        values.append(enumerate_rational(total))
        rank = list(map(sorted(values).index, values))
        for i in range(total + 1):
            for j in range(total + 1 - i):
                if rank[i] >= rank[j]:
                    continue
                for k in range(total + 1 - i - j):
                    l = total - i - j - k
                    if rank[k] < rank[l]:
                        yield Box(values[i], values[j], values[k], values[l])


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
    """The growing pair sequence and its coordinate indexes.

    Step n runs task n mod 3:

    * tasks 0 and 1: take the least-index unused rational on each axis (the
      two picks are independent; two steps in three keep both axes covered
      at a known rate),
    * task 2: at step 3k + 2, take box k and the least-index unused
      rationals strictly inside its two sides; that pair is box k's density
      witness.

    Because tasks 0 and 1 consume the least unused index outright, every
    index below an axis's scan start is already used; scans may start there.
    An index at or above the start is used only if a bounded pick (task 2)
    took it, so each axis keeps just those indices in a small set, and an
    index leaves the set once the scan start moves past it.  "Unused" is
    then "at or above the start and not in the set".  The start m is kept
    as (m, numerator, denominator) of e(m), so no scan rebuilds its value.

    `pairs` is the only record of the sequence.  A lookup that misses fills
    its axis's map from coordinate to level from the pairs placed since the
    last fill; coordinates never repeat on an axis, so the map's length
    marks how far it reaches.
    """

    def __init__(self) -> None:
        self.pairs: list[Point] = []
        # per axis, 0 for x and 1 for y: its level index, its scan start,
        # and the indices at or above the start that bounded picks took
        self._level_of: tuple[dict[Rational, int], dict[Rational, int]] = ({}, {})
        self._next = [(0, 0, 1), (0, 0, 1)]
        self._ahead: tuple[set[int], set[int]] = (set(), set())

    def __len__(self) -> int:
        return len(self.pairs)

    # -- construction ---------------------------------------------------

    def _take_least_unused(
        self, axis: int, lo: Rational | None = None, hi: Rational | None = None
    ) -> Rational:
        """The least-index rational unused on `axis`, strictly inside (lo, hi) if given.

        One scan, from the scan start's terms, steps in integers: t(m) is
        followed by -t(m), and -t(m) by Newman's successor
        t(m + 1) = 1 / (2 floor(t(m)) - t(m) + 1), which from 0 gives 1.  An
        unbounded pick scans the open side (-1/0, 1/0), which the test admits
        for every value; it drops the indices it skipped from the set ahead
        and moves the start one step past its pick.  A bounded pick joins the set.
        """
        ahead = self._ahead[axis]
        start, num, den = self._next[axis]
        lo_num, lo_den = (-1, 0) if lo is None else lo.as_integer_ratio()
        hi_num, hi_den = (1, 0) if hi is None else hi.as_integer_ratio()
        index = start
        while index in ahead or not (
            lo_num * den < num * lo_den and num * hi_den < hi_num * den
        ):
            index += 1
            if num > 0:
                num = -num
            else:
                num, den = den, (2 * (-num // den) + 1) * den + num
        picked = Rational(num, den)
        if lo is None:
            ahead.difference_update(range(start, index))
            num, den = (-num, den) if num > 0 else (den, (2 * (-num // den) + 1) * den + num)
            self._next[axis] = (index + 1, num, den)
        else:
            ahead.add(index)
        return picked

    def extend(self, steps: int) -> None:
        """Append `steps` pairs by the round-robin schedule."""
        for _ in range(steps):
            step = len(self.pairs)
            if step % 3 == 2:
                box = enumerate_box(step // 3)
                x = self._take_least_unused(0, box.x_lo, box.x_hi)
                y = self._take_least_unused(1, box.y_lo, box.y_hi)
            else:
                x = self._take_least_unused(0)
                y = self._take_least_unused(1)
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
        levels, pairs, bound = self._level_of[axis], self.pairs, None
        while (level := levels.get(value)) is None:
            if len(levels) < len(pairs):  # index the pairs placed since the last miss
                for n in range(len(levels), len(pairs)):
                    levels[pairs[n][axis]] = n
                continue
            # a cap alone bounds the search: the index i has as many bits as the
            # sum of the value's continued-fraction quotients, so skip computing it
            if bound is None:
                bound = 3 * (index_of(value) + 1) if max_level is None else max_level + 1
            if len(pairs) >= bound:
                raise Refusal(
                    f"level of {'xy'[axis]}-coordinate would exceed max_level={max_level}"
                )
            self.extend(1)
        if max_level is not None and level > max_level:
            raise Refusal(
                f"level of {'xy'[axis]}-coordinate is {level}, above the cap {max_level}"
            )
        return level
