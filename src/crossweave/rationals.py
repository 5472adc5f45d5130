"""Exact rational scalars and a bijective enumeration of the rationals.

Everything downstream works over plain `fractions.Fraction`, so every value
in the construction is an exact rational; no floats appear anywhere in the
arithmetic.  This module adds the pieces the standard library lacks:

* strict "p/q" parsing and formatting (the canonical wire format),
* decimal approximations, for display only,
* an explicit bijection between the nonnegative integers and Q, built from
  the Calkin-Wilf tree with signs interleaved, together with its inverse.

The enumeration is the fixed total order in which the rest of the package
consumes rationals, so both directions must be exact and deterministic.
`pairing`'s picks step through it in integers, by Newman's successor.
"""

from __future__ import annotations

import re
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache

Rational = Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or a bare integer 'p' in ASCII digits; the denominator part
    must be unsigned.

    >>> parse_rational("-3/6")
    Fraction(-1, 2)
    >>> parse_rational("7")
    Fraction(7, 1)
    """
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise ValueError(f"not a rational: {text!r}")
    numerator = int(match.group(1))
    denominator = int(match.group(2)) if match.group(2) is not None else 1
    if denominator == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(numerator, denominator)


def format_rational(value: Fraction) -> str:
    """Render as 'p/q' with the denominator always spelled out.

    >>> format_rational(Fraction(0))
    '0/1'
    >>> format_rational(Fraction(-1, 2))
    '-1/2'
    """
    return f"{value.numerator}/{value.denominator}"


def decimal_approx(value: Fraction, digits: int = 20) -> str:
    """Decimal expansion of `value` to `digits` significant digits.

    Round-to-nearest; for display only, never fed back into arithmetic.
    The context is made per call: a `Context` carries mutable flags, so one
    shared between threads would race.
    """
    context = Context(prec=digits)
    return str(context.divide(Decimal(value.numerator), Decimal(value.denominator)))


@lru_cache(maxsize=None)
def _tree_value(index: int) -> Fraction:
    """The index-th vertex (1-based, breadth-first) of the Calkin-Wilf tree.

    The vertex a/b has children a/(a+b) and (a+b)/b, so the binary digits of
    `index` below the leading 1 spell the path from the root 1/1.  Every
    positive rational appears exactly once, already in lowest terms.

    The `lru_cache` stays only because the benchmark harness reads its
    `cache_info()` (ROADMAP item 1b); after 40 000 pairs it holds 17 values.
    """
    numerator, denominator = 1, 1
    for bit in bin(index)[3:]:
        if bit == "0":
            denominator += numerator
        else:
            numerator += denominator
    return Fraction(numerator, denominator)


def _tree_index(value: Fraction) -> int:
    """Inverse of `_tree_value` for positive rationals.

    Ascends to the root one continued-fraction run at a time, so the walk
    takes a number of steps logarithmic in numerator + denominator.  The
    index it builds is not small: it has as many bits as the sum of the
    continued-fraction quotients (the index of 63/64 needs 64 bits, that of
    10^10 ten billion), and building it costs time and memory in proportion.
    """
    if value <= 0:
        raise ValueError("tree positions exist for positive rationals only")
    numerator, denominator = value.numerator, value.denominator
    runs: list[tuple[int, int]] = []  # (bit, run length), leaf end first
    while (numerator, denominator) != (1, 1):
        if numerator > denominator:
            length = numerator - 1 if denominator == 1 else numerator // denominator
            numerator -= length * denominator
            runs.append((1, length))
        else:
            length = denominator - 1 if numerator == 1 else denominator // numerator
            denominator -= length * numerator
            runs.append((0, length))
    index = 1
    for bit, length in reversed(runs):
        index <<= length
        if bit:
            index |= (1 << length) - 1
    return index


def enumerate_rational(index: int) -> Fraction:
    """The index-th rational: zero, then each tree value followed by its negative.

    Bijective over index >= 0.

    >>> [enumerate_rational(i) for i in range(6)]
    [Fraction(0, 1), Fraction(1, 1), Fraction(-1, 1), Fraction(1, 2), Fraction(-1, 2), Fraction(2, 1)]
    """
    if index < 0:
        raise ValueError("enumeration index must be nonnegative")
    if index == 0:
        return Fraction(0)
    half, odd = divmod(index, 2)
    if odd:
        return _tree_value(half + 1)
    return -_tree_value(half)


def index_of(value: Fraction) -> int:
    """Position of `value` in the enumeration; exact inverse of `enumerate_rational`.

    >>> index_of(Fraction(1, 2))
    3
    >>> index_of(Fraction(-1))
    2
    """
    if value == 0:
        return 0
    if value > 0:
        return 2 * _tree_index(value) - 1
    return 2 * _tree_index(-value)
