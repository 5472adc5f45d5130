"""Exact scalar layer: parsing, formatting, and the enumeration of Q."""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossweave import rationals
from crossweave.rationals import (
    decimal_approx,
    enumerate_rational,
    format_rational,
    index_of,
    parse_rational,
)

small_rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=100
)


def positive_sequence(count: int) -> list[Fraction]:
    """First `count` positive values from the defining recurrence.

    The enumeration's positive half is pinned to the sequence
    v(1) = 1, v(k+1) = 1 / (2*floor(v(k)) + 1 - v(k)); iterating the
    recurrence directly is the independent oracle for the tree-walk
    implementation.
    """
    value = Fraction(1)
    out = [value]
    for _ in range(count - 1):
        value = 1 / (2 * math.floor(value) + 1 - value)
        out.append(value)
    return out


class TestNormalize:
    """Parsing reduces to lowest terms with a positive denominator."""

    def test_reduces(self):
        assert parse_rational("2/4") == Fraction(1, 2)

    def test_zero(self):
        value = parse_rational("0/7")
        assert (value.numerator, value.denominator) == (0, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1/2", Fraction(1, 2)),
            ("-3/6", Fraction(-1, 2)),
            ("+7", Fraction(7)),
            ("0", Fraction(0)),
            (" 22/7 ", Fraction(22, 7)),
        ],
    )
    def test_parses(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "text", ["", "1.5", "a/b", "1/-2", "1/2/3", "/3", "1/0", "３", "١/٢"]
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_canonical_format_keeps_denominator(self):
        assert format_rational(Fraction(0)) == "0/1"
        assert format_rational(Fraction(1)) == "1/1"
        assert format_rational(Fraction(-1, 2)) == "-1/2"

    @given(small_rationals)
    def test_round_trip(self, value):
        """parse(format(v)) = v for every rational."""
        assert parse_rational(format_rational(value)) == value


class TestDecimalApprox:
    def test_terminating(self):
        assert decimal_approx(Fraction(1, 2)) == "0.5"
        assert decimal_approx(Fraction(3, 8)) == "0.375"

    def test_repeating_rounds_to_twenty_digits(self):
        assert decimal_approx(Fraction(1, 3)) == "0.33333333333333333333"
        assert decimal_approx(Fraction(2, 3)) == "0.66666666666666666667"

    def test_negative(self):
        assert decimal_approx(Fraction(-3, 8)) == "-0.375"

    def test_matches_the_local_context_quotient(self):
        """The string equals the quotient under a local context of 20 digits'
        precision, on random rationals, on 0, on 1 and on rounding ties."""
        rng = random.Random(11)
        cases = []
        for _ in range(2000):
            kind = rng.randrange(4)
            if kind == 0:
                value = Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**12))
            elif kind == 1:
                value = rng.choice((Fraction(0), Fraction(1), Fraction(-1)))
            else:
                # a tie: exactly halfway between two 20-digit decimals
                m = rng.randrange(10**19, 10**20)
                value = Fraction(2 * m + 1, 2) * Fraction(10) ** rng.randint(-30, 30)
                value *= rng.choice((1, -1))
            cases.append(value)
        for value in cases:
            with localcontext() as ctx:
                ctx.prec = 20
                expected = str(Decimal(value.numerator) / Decimal(value.denominator))
            assert decimal_approx(value) == expected, value


class TestEnumeration:
    def test_base_case(self):
        assert enumerate_rational(0) == Fraction(0)
        assert index_of(Fraction(0)) == 0

    def test_first_values(self):
        expected = [
            Fraction(0),
            Fraction(1),
            Fraction(-1),
            Fraction(1, 2),
            Fraction(-1, 2),
            Fraction(2),
            Fraction(-2),
            Fraction(1, 3),
            Fraction(-1, 3),
            Fraction(3, 2),
        ]
        assert [enumerate_rational(i) for i in range(10)] == expected

    def test_inverse_examples(self):
        assert index_of(Fraction(1, 2)) == 3
        assert index_of(Fraction(-1)) == 2

    def test_matches_recurrence_oracle(self):
        """Odd indices walk the recurrence; even indices are their negatives."""
        for k, value in enumerate(positive_sequence(3000), start=1):
            assert enumerate_rational(2 * k - 1) == value
            assert enumerate_rational(2 * k) == -value

    def test_round_trip_first_100000(self):
        # bijectivity on the tested range: injectivity follows because the
        # inverse is a function
        for n in range(100_000):
            assert index_of(enumerate_rational(n)) == n

    def test_huge_index_round_trip(self):
        # continued-fraction runs keep the inverse cheap even when the index
        # does not fit a machine word
        value = Fraction(63, 64)
        index = index_of(value)
        assert index > 2**62
        assert enumerate_rational(index) == value

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            enumerate_rational(-1)

    @pytest.mark.parametrize("value", [Fraction(0), Fraction(-3, 2)])
    def test_tree_index_refuses_a_nonpositive_value(self, value):
        # index_of never asks, as it strips the sign and maps 0 itself
        with pytest.raises(ValueError, match="^tree positions exist for positive rationals only$"):
            rationals._tree_index(value)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_round_trip_property(self, n):
        """index_of(enumerate(n)) = n, including far beyond the dense prefix."""
        assert index_of(enumerate_rational(n)) == n

    @given(
        st.fractions(
            min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=1000
        )
    )
    def test_value_round_trip_property(self, value):
        """enumerate(index_of(q)) = q from the value side, where a single
        continued-fraction run of `_tree_index` can be about 1 000 long."""
        assert enumerate_rational(index_of(value)) == value


class TestExactArithmetic:
    @given(small_rationals, small_rationals)
    def test_addition_cancels(self, a, b):
        """(a + b) - b = a exactly."""
        assert (a + b) - b == a

    @given(small_rationals.filter(lambda v: v != 0))
    def test_reciprocal_cancels(self, a):
        """a * (1/a) = 1 exactly."""
        assert a * (1 / a) == 1
