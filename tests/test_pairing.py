"""Pair sequence: singleton sections, coverage schedule, box density."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossweave.pairing import Box, Pairing, Refusal, enumerate_box
from crossweave.rationals import enumerate_rational, index_of

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


class TestBoxes:
    def test_rejects_empty_sides(self):
        with pytest.raises(ValueError):
            Box(Fraction(0), Fraction(0), Fraction(0), Fraction(1))

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
            assert value in pairing.level_of_x
            assert value in pairing.level_of_y

    def test_box_witnesses_are_strictly_inside(self):
        pairing = Pairing()
        pairing.extend(360)
        assert len(pairing.box_witness) == 120
        for ordinal, level in enumerate(pairing.box_witness):
            box = enumerate_box(ordinal)
            x, y = pairing.pairs[level]
            assert box.strictly_inside(x, y)
            assert level == 3 * ordinal + 2  # density task cadence

    def test_rebuild_is_identical(self):
        one, two = Pairing(), Pairing()
        one.extend(500)
        two.extend(500)
        assert one.pairs == two.pairs
        assert one.box_witness == two.box_witness

    @given(st.integers(min_value=0, max_value=120), st.integers(min_value=0, max_value=120))
    @settings(max_examples=25, deadline=None)
    def test_growth_is_chunking_invariant(self, first, second):
        """Extending in two chunks gives the same sequence as one chunk."""
        split, whole = Pairing(), Pairing()
        split.extend(first)
        split.extend(second)
        whole.extend(first + second)
        assert split.pairs == whole.pairs


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

    def test_found_below_cap_is_fine(self):
        pairing = Pairing()
        assert pairing.x_level(Fraction(1, 2), max_level=100) == 2
