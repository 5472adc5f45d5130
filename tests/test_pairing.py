"""Pair sequence: singleton sections, coverage schedule, box density."""

from __future__ import annotations

import itertools
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossweave.cli as cli
from crossweave import pairing as pairing_module
from crossweave.pairing import Box, Pairing, Refusal, enumerate_box
from crossweave import rationals
from crossweave.rationals import enumerate_rational, index_of
from crossweave.weave import WovenFunction

EXPECTED_PREFIX = [
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(1)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(-1), Fraction(-1)),
    (Fraction(-1, 2), Fraction(-1, 2)),
    (Fraction(1, 3), Fraction(-1, 3)),
    (Fraction(2), Fraction(2)),
    (Fraction(-2), Fraction(-2)),
    (Fraction(-1, 3), Fraction(1, 3)),
]


def reference_boxes(count, max_sum=22):
    """The first `count` boxes by brute force over Fractions: every 4-tuple
    with entries summing to at most `max_sum`, sorted by sum, ties
    lexicographic, kept when both sides are nonempty."""
    e = enumerate_rational
    tuples = sorted(
        (t for t in itertools.product(range(max_sum + 1), repeat=4) if sum(t) <= max_sum),
        key=lambda t: (sum(t), t),
    )
    boxes = [
        Box(e(i), e(j), e(k), e(l))
        for i, j, k, l in tuples
        if e(i) < e(j) and e(k) < e(l)
    ]
    assert len(boxes) >= count, "raise max_sum"
    return boxes[:count]


def sides_in_terms(box):
    """A `Box` as the box stream stores it: its x and y sides, each as the
    terms of its two ends."""
    return (
        (box.x_lo.as_integer_ratio(), box.x_hi.as_integer_ratio()),
        (box.y_lo.as_integer_ratio(), box.y_hi.as_integer_ratio()),
    )


def terms(index):
    """The terms of e(index), by the tree walk of `enumerate_rational`."""
    return enumerate_rational(index).as_integer_ratio()


def scan_to(start, steps):
    """The value a bounded scan from index `start` picks at index
    start + steps: the indices before that are marked taken, and the side
    (-10^100, 10^100) admits every value the scan can reach, so the pick is
    whatever the scan's integer steps computed there."""
    pairing = Pairing()
    pairing._next[0] = (start, *terms(start))
    pairing._ahead[0].update(range(start, start + steps))
    picked = pairing._take_least_unused(0, ((-(10**100), 1), (10**100, 1)))
    assert pairing._ahead[0] == set(range(start, start + steps + 1))
    return picked


class TestBoxes:
    def test_rejects_empty_sides(self):
        with pytest.raises(ValueError):
            Box(Fraction(0), Fraction(0), Fraction(0), Fraction(1))

    def test_a_box_is_immutable_and_hashed_by_its_corners(self):
        box = enumerate_box(0)
        assert box == Box(Fraction(0), Fraction(1), Fraction(0), Fraction(1))
        assert len({box, enumerate_box(0), enumerate_box(1)}) == 2
        with pytest.raises(AttributeError):
            box.x_lo = Fraction(-1)
        with pytest.raises(AttributeError):
            box.corner = Fraction(-1)

    def test_a_negative_ordinal_is_refused(self):
        with pytest.raises(ValueError, match="^box ordinal must be nonnegative$"):
            enumerate_box(-1)

    def test_first_boxes(self):
        # worked by hand through the 4-tuple enumeration
        assert enumerate_box(0) == Box(Fraction(0), Fraction(1), Fraction(0), Fraction(1))
        assert enumerate_box(1) == Box(Fraction(0), Fraction(1), Fraction(-1), Fraction(0))
        assert enumerate_box(2) == Box(Fraction(-1), Fraction(0), Fraction(0), Fraction(1))

    def test_all_survivors_are_open(self):
        for k in range(200):
            box = enumerate_box(k)
            assert box.x_lo < box.x_hi and box.y_lo < box.y_hi

    def test_enumeration_is_stable(self):
        assert [enumerate_box(k) for k in range(50)] == [
            enumerate_box(k) for k in range(50)
        ]

    def test_boxes_match_brute_force(self):
        assert [enumerate_box(k) for k in range(3000)] == reference_boxes(3000)

    def test_concurrent_growth_keeps_the_order(self, monkeypatch):
        """Four threads growing a fresh box stream leave it as one thread would."""
        monkeypatch.setattr(pairing_module, "_box_cache", [])
        monkeypatch.setattr(pairing_module, "_box_source", pairing_module._open_boxes())
        errors = []

        def grow():
            try:
                for k in range(3000):
                    enumerate_box(k)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=grow) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert pairing_module._box_cache == list(map(sides_in_terms, reference_boxes(3000)))

    def test_strictly_inside(self):
        box = enumerate_box(0)
        assert box.strictly_inside(Fraction(1, 2), Fraction(1, 2))
        assert not box.strictly_inside(Fraction(0), Fraction(1, 2))  # boundary


class TestPairingConstruction:
    def test_worked_prefix(self):
        pairing = Pairing()
        pairing.extend(9)
        assert pairing.pairs == EXPECTED_PREFIX

    def test_coordinates_never_repeat(self):
        pairing = Pairing()
        pairing.extend(2000)
        xs = [x for x, _ in pairing.pairs]
        ys = [y for _, y in pairing.pairs]
        assert len(set(xs)) == len(xs)
        assert len(set(ys)) == len(ys)

    def test_axis_coverage_rate(self):
        # the least unused index is consumed every third step, so index i
        # lands on each axis within 3*(i+1) steps
        pairing = Pairing()
        pairing.extend(600)
        for i in range(200):
            value = enumerate_rational(i)
            # a lookup capped at level 599 refuses what the 600 pairs lack
            pairing.x_level(value, max_level=599)
            pairing.y_level(value, max_level=599)
        assert len(pairing) == 600

    def test_box_witnesses_are_strictly_inside(self):
        pairing = Pairing()
        pairing.extend(360)
        # the density task processes box k at step 3k + 2
        for ordinal in range(120):
            x, y = pairing.pairs[3 * ordinal + 2]
            assert enumerate_box(ordinal).strictly_inside(x, y)

    def test_picks_match_their_definition(self):
        """Each pick, recomputed with Fractions from the schedule's definition:
        the least-index value unused on its axis, strictly inside the step's
        box side on density steps."""
        pairing = Pairing()
        pairing.extend(1500)
        used = (set(), set())
        # used only grows, so the least unused index never decreases
        least_unused = [0, 0]
        for step, pair in enumerate(pairing.pairs):
            if step % 3 == 2:
                box = enumerate_box(step // 3)
                sides = ((box.x_lo, box.x_hi), (box.y_lo, box.y_hi))
            else:
                sides = (None, None)
            for axis, side in enumerate(sides):
                while enumerate_rational(least_unused[axis]) in used[axis]:
                    least_unused[axis] += 1
                index = least_unused[axis]
                while True:
                    value = enumerate_rational(index)
                    if value not in used[axis] and (side is None or side[0] < value < side[1]):
                        break
                    index += 1
                assert pair[axis] == value, (step, axis)
                used[axis].add(value)

    def test_each_rational_is_one_object_on_both_axes(self):
        """The first axis to pick an index builds its value and the other
        reuses it, so the handoff holds just the values on one axis so far,
        each under its own enumeration index."""
        pairing = Pairing()
        pairing.extend(3000)
        xs = {x: x for x, _ in pairing.pairs}
        ys = {y for _, y in pairing.pairs}
        both = [(xs[y], y) for _, y in pairing.pairs if y in xs]
        assert len(both) > 2900
        assert all(x is y for x, y in both)
        handoff = pairing._handoff
        assert sorted(handoff.values()) == sorted(xs.keys() ^ ys)
        assert all(index_of(value) == index for index, value in handoff.items())

    def test_rebuild_is_identical(self):
        one, two = Pairing(), Pairing()
        one.extend(500)
        two.extend(500)
        assert one.pairs == two.pairs
        for pairing in (one, two):
            for n, (x, y) in enumerate(pairing.pairs):
                assert pairing.x_level(x) == n
                assert pairing.y_level(y) == n

    @pytest.mark.parametrize("steps", [0, -3])
    def test_extending_by_no_steps_appends_nothing(self, steps):
        """A count of 0 or less appends nothing, to an empty pairing or to
        one with pairs."""
        pairing = Pairing()
        pairing.extend(steps)
        assert len(pairing) == 0
        pairing.extend(5)
        first = list(pairing.pairs)
        pairing.extend(steps)
        assert pairing.pairs == first

    @given(st.integers(min_value=0, max_value=120), st.integers(min_value=0, max_value=120))
    @settings(max_examples=25, deadline=None)
    def test_growth_is_chunking_invariant(self, first, second):
        """Extending in two chunks gives the same sequence as one chunk."""
        split, whole = Pairing(), Pairing()
        split.extend(first)
        split.extend(second)
        whole.extend(first + second)
        assert split.pairs == whole.pairs


STARTS = st.one_of(
    st.integers(min_value=0, max_value=2**70),
    st.just(index_of(Fraction(63, 64))),
    st.just(index_of(Fraction(63, 64)) + 1),
)


class TestNewmanScan:
    """Both picks scan from the start's stored terms and step to each next
    index in integers, by Newman's successor; they never walk the tree."""

    def test_every_step_to_index_50000(self):
        assert scan_to(0, 0).as_integer_ratio() == terms(0)
        for index in range(50_000):
            assert scan_to(index, 1).as_integer_ratio() == terms(index + 1), index

    @given(STARTS, st.integers(min_value=0, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_steps_from_odd_and_even_starts(self, start, steps):
        picked = scan_to(start, steps)
        assert picked.as_integer_ratio() == terms(start + steps)

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 3000])
    def test_each_start_keeps_its_own_terms(self, count):
        pairing = Pairing()
        pairing.extend(count)
        for index, num, den in pairing._next:
            assert (num, den) == terms(index)

    @given(STARTS, st.integers(min_value=0, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_unbounded_pick_consumes_what_it_skipped(self, start, skipped):
        """From start s with s .. s+k-1 taken ahead, the open side picks
        e(s+k), drops those indices and moves the start to s+k+1."""
        pairing = Pairing()
        pairing._next[0] = (start, *terms(start))
        pairing._ahead[0].update(range(start, start + skipped))
        picked = pairing._take_least_unused(0, pairing_module._OPEN)
        assert picked.as_integer_ratio() == terms(start + skipped)
        assert pairing._ahead[0] == set()
        after = start + skipped + 1
        assert pairing._next[0] == (after, *terms(after))

    def test_the_picks_build_no_box(self, monkeypatch):
        """From a fresh box stream, 3000 pairs come out the same with `Box`
        unusable: the stream yields sides in terms and the picks read those."""
        expected = Pairing()
        expected.extend(3000)

        def no_box(*corners):
            raise AssertionError(f"built a Box from {corners}")

        monkeypatch.setattr(pairing_module, "_box_cache", [])
        monkeypatch.setattr(pairing_module, "_box_source", pairing_module._open_boxes())
        monkeypatch.setattr(pairing_module, "Box", no_box)
        pairing = Pairing()
        pairing.extend(3000)
        assert pairing.pairs == expected.pairs
        assert len(pairing_module._box_cache) == 1000

    def test_the_pairing_fills_no_tree_cache(self):
        """Only the box stream reads the tree; once it has grown, 3000 pairs
        add no miss to `_tree_value`'s cache."""
        count = 3000
        rationals._tree_value.cache_clear()
        enumerate_box(count // 3)
        misses = rationals._tree_value.cache_info().misses
        Pairing().extend(count)
        assert rationals._tree_value.cache_info().misses == misses


class TestCoordinateIndex:
    """`pairs` is the only record; a lookup that misses indexes on its own
    axis the pairs placed since the last miss."""

    def test_extend_writes_no_index(self):
        pairing = Pairing()
        pairing.extend(300)
        assert pairing._level_of == ({}, {})

    def test_the_pairs_command_writes_no_index(self, capsys, monkeypatch):
        made = []

        class Recorded(Pairing):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(cli, "Pairing", Recorded)
        assert cli.main(["pairs", "--count", "300", "--json"]) == 0
        capsys.readouterr()
        assert [len(pairing) for pairing in made] == [300]
        assert made[0]._level_of == ({}, {})

    def test_one_miss_fills_its_own_axis(self):
        pairing = Pairing()
        pairing.extend(300)
        assert pairing.x_level(pairing.pairs[5][0]) == 5
        assert len(pairing._level_of[0]) == 300
        assert pairing._level_of[1] == {}
        # a hit fills nothing more
        assert pairing.x_level(pairing.pairs[299][0]) == 299
        assert len(pairing._level_of[0]) == 300

    def test_lookups_between_builds_agree_with_the_pairs(self):
        woven = WovenFunction()
        pairing = woven.pairing
        found = []
        for depth in (3, 40, 41, 200):
            woven.build_to(depth)
            for n in (0, depth // 2, depth):
                found.append((0, pairing.pairs[n][0], pairing.x_level(pairing.pairs[n][0])))
                found.append((1, pairing.pairs[n][1], pairing.y_level(pairing.pairs[n][1])))
            # coordinates not placed yet: the lookup extends the pairs
            for i in (3 * depth, 3 * depth + 1):
                value = enumerate_rational(i)
                found.append((0, value, pairing.x_level(value)))
                found.append((1, value, pairing.y_level(value)))
        reference = [{}, {}]
        for n, pair in enumerate(pairing.pairs):
            for axis in (0, 1):
                reference[axis][pair[axis]] = n
        assert [level for _, _, level in found] == [
            reference[axis][value] for axis, value, _ in found
        ]
        for axis in (0, 1):
            levels = pairing._level_of[axis]
            assert levels == {
                pair[axis].as_integer_ratio(): n
                for n, pair in enumerate(pairing.pairs[: len(levels)])
            }

    @pytest.mark.parametrize("axis", ["x_level", "y_level"])
    def test_unindexed_coordinate_above_the_cap_is_refused(self, axis):
        pairing = Pairing()
        pairing.extend(300)
        value = pairing.pairs[250][axis == "y_level"]
        with pytest.raises(Refusal, match=r"-coordinate is 250, above the cap 100$"):
            getattr(pairing, axis)(value, max_level=100)
        assert len(pairing) == 300


class TestLevelLookup:
    def test_worked_levels(self):
        pairing = Pairing()
        assert pairing.x_level(Fraction(0)) == 0
        assert pairing.x_level(Fraction(1)) == 1
        assert pairing.x_level(Fraction(1, 2)) == 2
        assert pairing.y_level(Fraction(0)) == 0
        assert pairing.y_level(Fraction(1)) == 1
        assert pairing.y_level(Fraction(1, 2)) == 2

    def test_termination_bound(self):
        pairing = Pairing()
        for i in range(150):
            value = enumerate_rational(i)
            assert pairing.x_level(value) <= 3 * (i + 1)
            assert pairing.y_level(value) <= 3 * (i + 1)

    def test_level_cap_refuses(self):
        pairing = Pairing()
        with pytest.raises(Refusal):
            pairing.x_level(Fraction(63, 64), max_level=100)
        # the cap bounded the wasted work
        assert len(pairing) <= 102

    @pytest.mark.parametrize("axis", ["x_level", "y_level"])
    def test_cap_refuses_without_the_index(self, axis, monkeypatch):
        """10^10 has an index of ten billion bits; a capped lookup must not
        build it, since the cap alone bounds the search."""

        def index_of(value):
            raise AssertionError(f"computed the index of {value}")

        monkeypatch.setattr(pairing_module, "index_of", index_of)
        pairing = Pairing()
        with pytest.raises(Refusal):
            getattr(pairing, axis)(Fraction(10**10), max_level=8)
        assert len(pairing) == 9

    def test_found_below_cap_is_fine(self):
        pairing = Pairing()
        assert pairing.x_level(Fraction(1, 2), max_level=100) == 2

    def test_an_int_coordinate_finds_the_level_of_its_fraction(self):
        """The indexes are keyed on terms, and an `int` has the terms of the
        equal `Fraction`."""
        # the index of n is about 2^(n + 1), so the integers stay small
        woven, pairing = WovenFunction(), Pairing()
        for x in range(-4, 5):
            for y in range(-4, 5):
                exact = woven.value(Fraction(x), Fraction(y))
                assert woven.value(x, y) == exact, (x, y)
        for value in range(-6, 7):
            assert pairing.x_level(value) == pairing.x_level(Fraction(value))
            assert pairing.y_level(value) == pairing.y_level(Fraction(value))

    @pytest.mark.parametrize("axis", ["x_level", "y_level"])
    def test_a_repeated_coordinate_fails_the_lookup(self, axis):
        """A pairing whose axis repeats a coordinate is broken: a lookup that
        misses raises instead of re-filling the index forever."""
        pairing = Pairing()
        repeated = (Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))
        pairing.pairs.extend(repeated if axis == "x_level" else [pair[::-1] for pair in repeated])
        with pytest.raises(ValueError, match="pairwise distinct"):
            getattr(pairing, axis)(Fraction(5))

    @pytest.mark.parametrize("axis", ["x_level", "y_level"])
    def test_a_coordinate_that_cannot_be_hashed_is_found(self, axis):
        """A lookup reads the coordinate's terms, never its hash: a placed
        value, one placed by the lookup's own extension, and a refusal."""

        class Unhashable(Fraction):
            def __hash__(self):
                raise TypeError("unhashable coordinate")

        pairing, reference = Pairing(), Pairing()
        pairing.extend(300)
        lookup = getattr(pairing, axis)
        for value in (Fraction(1, 2), Fraction(-5, 3), enumerate_rational(400)):
            assert lookup(Unhashable(value)) == getattr(reference, axis)(value)
        assert len(pairing) > 300
        with pytest.raises(Refusal):
            lookup(Unhashable(10**10), max_level=8)
