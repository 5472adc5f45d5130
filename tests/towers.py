"""Towers on hand-made pairings, for tests that must see more than the
canonical pairing.  A hand pairing holds only the pairs given, so a check
run on one of these towers must stay within its pair count."""

from __future__ import annotations

import random
from fractions import Fraction

from crossweave.pairing import Pairing
from crossweave.weave import WovenFunction


def tower_on(xs, ys):
    """A tower whose pairing is filled in place with the pairs (xs[n], ys[n]);
    its coordinate index is filled on lookup, as the canonical pairing's is."""
    pairing = Pairing()
    pairing.pairs.extend(zip(xs, ys))
    return WovenFunction(pairing)


def wide_gap_coordinates():
    """0, 4 and 8 on both axes: half of every gap is 2, so the tent radius
    is 1 only through its cap min(1, ·)."""
    coordinates = [Fraction(t) for t in (0, 4, 8)]
    return coordinates, coordinates


def dyadic_coordinates():
    """The multiples of 1, 1/2, ..., 1/16 in [-1, 1) and (-1, 1], coarse
    ones first and shuffled within a scale, 32 per axis: six radius groups
    fill up, and coordinates sit on the edges of their buckets, multiples of
    the reach, half of them negative."""
    rng = random.Random(18)
    xs, ys = [], []
    for scale in (1, 2, 4, 8, 16):
        for placed, lo in ((xs, -scale), (ys, 1 - scale)):
            new = [Fraction(i, scale) for i in range(lo, lo + 2 * scale)]
            new = [t for t in new if t not in placed]
            rng.shuffle(new)
            placed += new
    return xs, ys


def coprime_coordinates():
    """16 coordinates per axis in [0, 2), each over its own prime near 1000,
    so a line's common denominator is the product of many of them."""
    x_primes = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049)
    x_primes += (1051, 1061, 1063, 1069, 1087, 1091, 1093, 1097)
    y_primes = (1103, 1109, 1117, 1123, 1129, 1151, 1153, 1163)
    y_primes += (1171, 1181, 1187, 1193, 1201, 1213, 1217, 1223)
    xs = [Fraction(i * 7907 % (2 * p), p) for i, p in enumerate(x_primes)]
    ys = [Fraction(i * 7919 % (2 * p), p) for i, p in enumerate(y_primes)]
    return xs, ys


def random_axis(rng, count=40):
    """`count` distinct rationals for one axis, drawn with `rng` in a window
    of span 1 to 100: dyadic ones, which sit on bucket edges, ones over
    small and over large denominators, and about a quarter within 1/10^6 of
    an earlier one."""
    lo, span = rng.randint(-100, 100), rng.randint(1, 100)
    placed = []
    while len(placed) < count:
        kind = rng.randrange(4 if placed else 3)
        if kind == 3:
            offset = Fraction(rng.choice((-1, 1)) * rng.randint(1, 1000), 10**9)
            t = rng.choice(placed) + offset
        else:  # dyadic, over a small denominator, or over a large one
            d = (2 ** rng.randint(0, 10), rng.randint(1, 12), rng.randint(10**3, 10**9))[kind]
            t = lo + Fraction(rng.randint(0, span * d), d)
        if t not in placed:
            placed.append(t)
    return placed
