"""Global function: route agreement, diagonal values, parameter table hygiene."""

from __future__ import annotations

import bisect
import gc
import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossweave.cross_extension import CrossFunction, build_cross
from crossweave.pairing import Refusal
from crossweave.oracle import brute_force_radius, cross_anchors, linear_scan_value
from crossweave.weave import Screen, WovenFunction
from towers import dyadic_coordinates, tower_on

probe = st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=16)


@pytest.fixture(scope="module")
def woven():
    instance = WovenFunction()
    instance.build_to(47)
    return instance


class TestWorkedValues:
    def test_level_zero_column(self, woven):
        assert woven.value(Fraction(0), Fraction(0)) == 1
        assert woven.value(Fraction(0), Fraction(1, 2)) == Fraction(1, 2)

    def test_level_one_values(self, woven):
        assert woven.value(Fraction(1), Fraction(3, 4)) == Fraction(3, 8)
        assert woven.value(Fraction(1), Fraction(1, 2)) == 0
        assert woven.value(Fraction(1), Fraction(1)) == 1

    def test_readme_library_example(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1]
        exec(block.split("```", 1)[0], {})
        assert capsys.readouterr().out == "3/8\n1\n"

    def test_row_route_agrees_on_worked_points(self, woven):
        assert woven.value_via_row(Fraction(0), Fraction(0)) == 1
        assert woven.value_via_row(Fraction(1, 2), Fraction(0)) == Fraction(1, 2)
        assert woven.value_via_row(Fraction(1), Fraction(1, 2)) == 0

    def test_first_parameter_tables(self, woven):
        assert woven.column_params[1] == (Fraction(0),)
        assert woven.row_params[1] == (Fraction(0),)
        assert woven.column_params[2] == (Fraction(1, 2), Fraction(0))
        assert woven.row_params[2] == (Fraction(1, 2), Fraction(0))

    def test_lipschitz_records(self, woven):
        assert woven.cross(0).lipschitz_bound == 1
        assert woven.cross(1).lipschitz_bound == 3
        assert all(woven.cross(k).lipschitz_bound >= 1 for k in range(48))


class TestStructuralInvariants:
    def test_parameter_counts(self, woven):
        for k in range(20):
            assert len(woven.column_params[k]) == k
            assert len(woven.row_params[k]) == k

    def test_diagonal_is_always_one(self, woven):
        for n in range(48):
            x, y = woven.pairing.pairs[n]
            assert woven.value(x, y) == 1

    def test_parameters_stay_in_the_half_open_interval(self, woven):
        for k in range(48):
            for value in (*woven.column_params[k], *woven.row_params[k]):
                assert 0 <= value < 1

    def test_route_agreement_on_the_grid(self, woven):
        for m in range(24):
            x = woven.pairing.pairs[m][0]
            for n in range(24):
                y = woven.pairing.pairs[n][1]
                assert woven.value(x, y) == woven.value_via_row(x, y)

    @given(st.integers(min_value=0, max_value=47), probe)
    @settings(max_examples=80, deadline=None)
    def test_value_is_the_column_interpolant(self, woven, level, y):
        """The public route equals the level's own interpolant on its column."""
        x = woven.pairing.pairs[level][0]
        assert woven.value(x, y) == woven.cross(level).value_at((x, y))

    @given(st.integers(min_value=0, max_value=47), probe)
    @settings(max_examples=80, deadline=None)
    def test_purity(self, woven, level, y):
        """Evaluating twice gives the identical exact value."""
        x = woven.pairing.pairs[level][0]
        assert woven.value(x, y) == woven.value(x, y)


class TestIncrementalTower:
    def test_every_level_matches_the_reference(self):
        """The radius kept across levels and the sparse evaluation of every
        level of a 64-level tower agree with the brute-force separation and
        the linear-scan hat times tent."""
        tower = WovenFunction()
        tower.build_to(63)
        rng = random.Random(64)
        pairs = tower.pairing.pairs
        for cross in tower.crosses:
            n = cross.level
            anchors = cross_anchors(
                [x for x, _ in pairs[: n + 1]], [y for _, y in pairs[: n + 1]]
            )
            values = (*tower.column_params[n], Fraction(1), *tower.row_params[n])
            radius = brute_force_radius(anchors)
            assert cross.radius == radius
            points = list(anchors)
            x, y = cross.center
            for _ in range(4):
                t = Fraction(rng.randint(-128, 128), 64)
                points += [(x, y + t), (x + t, y)]
            for (ax, ay), value in zip(anchors, values):
                if value:
                    offset = cross.radius * Fraction(rng.randint(-63, 63), 64)
                    if ax == x:
                        points.append((ax, ay + offset))
                    if ay == y:
                        points.append((ax + offset, ay))
            for point in points:
                assert cross.value_at(point) == linear_scan_value(
                    point, anchors, values, radius
                )


class TestScreenedBuild:
    def test_tables_match_the_definition(self):
        """Every parameter of a 300-level tower, zero or not, equals the
        earlier level's value at its point, and the radius never grows."""
        tower = WovenFunction()
        tower.build_to(299)
        pairs, crosses = tower.pairing.pairs, tower.crosses
        for n, (x_n, y_n) in enumerate(pairs[:300]):
            assert tower.column_params[n] == tuple(
                crosses[i].value_at((x_n, pairs[i][1])) for i in range(n)
            )
            assert tower.row_params[n] == tuple(
                crosses[i].value_at((pairs[i][0], y_n)) for i in range(n)
            )
        radii = [cross.radius for cross in crosses]
        assert radii == sorted(radii, reverse=True)

    def test_radii_are_the_running_minimum_of_half_gaps(self):
        """Through 4096 levels, r_n = min(r_{n-1}, g_n / 2) from r_0 = 1, with
        each gap g_n read off one sorted list of coordinates per axis."""
        tower = WovenFunction()
        tower.build_to(4095)
        placed = ([], [])
        radius = Fraction(1)
        for cross, pair in zip(tower.crosses, tower.pairing.pairs):
            for coordinates, t in zip(placed, pair):
                pos = bisect.bisect_left(coordinates, t)
                for a in coordinates[max(pos - 1, 0) : pos + 1]:
                    radius = min(radius, abs(a - t) / 2)
                coordinates.insert(pos, t)
            assert cross.radius == radius, cross.level

    def test_bucket_edges_and_negative_coordinates(self):
        """On the dyadic tower, whose six radius groups fill up with
        coordinates on the edges of their buckets, every radius and
        parameter equals the reference's, whose values are built from its
        own earlier levels."""
        xs, ys = dyadic_coordinates()
        tower = tower_on(xs, ys)
        tower.build_to(len(xs) - 1)
        reference = []
        for n, cross in enumerate(tower.crosses):
            anchors = cross_anchors(xs[: n + 1], ys[: n + 1])
            assert cross.radius == brute_force_radius(anchors), n
            column = tuple(
                linear_scan_value((xs[n], ys[i]), *reference[i]) for i in range(n)
            )
            row = tuple(
                linear_scan_value((xs[i], ys[n]), *reference[i]) for i in range(n)
            )
            assert tower.column_params[n] == column, n
            assert tower.row_params[n] == row, n
            reference.append((anchors, (*column, Fraction(1), *row), cross.radius))
        radii = {cross.radius for cross in tower.crosses}
        assert radii == {Fraction(1, 2**k) for k in range(6)}

    def test_the_window_is_open(self):
        """Level 0, centered at x = 1 with radius 1, is in group 0, of reach
        2 and buckets [2b, 2b + 2): a coordinate 2 away is outside the
        window, the buckets either side of t's own are probed, and within
        the radius the level's value is found."""
        screen = Screen(0)
        cross = build_cross(0, (Fraction(1), Fraction(0)), ([], []), Fraction(1))
        screen.add(cross, [])
        for t in (Fraction(3), Fraction(-1)):
            assert screen.prescribed(t, [cross]) == ([], [], None)
        for t in (Fraction(5, 2), Fraction(-7, 8)):
            assert screen.prescribed(t, [cross]) == ([], [], abs(t - 1))
        half = Fraction(1, 2)
        assert screen.prescribed(Fraction(3, 2), [cross]) == ([(0, half)], [0], half)
        with pytest.raises(ValueError, match="pairwise distinct"):
            screen.prescribed(Fraction(1), [cross])

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_one_bucket_holds_several_coordinates(self, order):
        """Levels 0, 1 and 2, of radius 1, sit at x = 0, 1/2 and 3/2: all in
        group 0 and its bucket [0, 2).  Whatever order they enter it in, each
        level within its radius of t is found, with its value on its row
        (1 - d at level 0, (1 - d)^2 above it), and so is the nearest
        distance within the window."""
        xs = (Fraction(0), Fraction(1, 2), Fraction(3, 2))
        centers = [(x, Fraction(5 + level)) for level, x in enumerate(xs)]
        crosses = [
            build_cross(level, center, ([], []), Fraction(1))
            for level, center in enumerate(centers)
        ]
        screen = Screen(0)
        for level in order:
            screen.add(crosses[level], [])
        f = Fraction
        cases = {
            # t: (the levels found, each with its value), nearest distance
            f(3, 4): ([(0, f(1, 4)), (1, f(9, 16)), (2, f(1, 16))], f(1, 4)),
            f(1): ([(1, f(1, 4)), (2, f(1, 4))], f(1, 2)),
            f(1, 8): ([(0, f(7, 8)), (1, f(25, 64))], f(1, 8)),
            # the window (t - 2, t + 2) leaves out 3/2, and 1/2 is a radius away
            f(-1, 2): ([(0, f(1, 2))], f(1, 2)),
        }
        for t, (hits, nearest) in cases.items():
            anchors, found, gap = screen.prescribed(t, crosses)
            assert sorted(found) == [level for level, _ in hits]
            assert sorted(anchors) == [(centers[level][1], value) for level, value in hits]
            assert gap == nearest

    def test_evaluates_only_the_nonzero_parameters(self, monkeypatch):
        calls = 0
        value_at = CrossFunction.value_at

        def counted(self, point):
            nonlocal calls
            calls += 1
            return value_at(self, point)

        monkeypatch.setattr(CrossFunction, "value_at", counted)
        tower = WovenFunction()
        tower.build_to(255)
        nonzero = sum(
            bool(value)
            for table in (tower.column_params, tower.row_params)
            for params in table
            for value in params
        )
        assert calls == nonzero == 1035

    def test_memory_is_levels_plus_nonzeros(self):
        """A 1024-level tower keeps only its nonzero parameters, 5 086 of the
        1 047 552 table entries; storing the tables densely took 8 MiB more.
        Freed objects kept on the interpreter's free lists are collected
        first, so that they do not count as tower memory."""
        tracemalloc.start()
        try:
            tower = WovenFunction()
            tower.build_to(1023)
            gc.collect()
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 4 * 2**20


class TestLifecycle:
    def test_out_of_order_build_rejected(self):
        fresh = WovenFunction()
        with pytest.raises(RuntimeError):
            fresh.build_level(5)

    def test_a_long_enough_pairing_is_left_as_it_is(self):
        tower = tower_on([Fraction(t) for t in (0, 2, 4)], [Fraction(t) for t in (1, 3, 5)])
        tower.build_to(2)
        assert len(tower.pairing) == 3

    def test_the_pairing_grows_with_the_levels(self):
        fresh = WovenFunction()
        fresh.build_to(40)
        assert len(fresh.pairing) == fresh.built_levels == 41

    def test_unbuilt_level_queries_rejected(self):
        fresh = WovenFunction()
        with pytest.raises(RuntimeError):
            fresh.cross(0)

    def test_rebuild_reproduces_tables_exactly(self):
        one, two = WovenFunction(), WovenFunction()
        one.build_to(63)
        two.build_to(63)
        assert one.column_params == two.column_params
        assert one.row_params == two.row_params
        assert one.pairing.pairs == two.pairing.pairs

    def test_level_cap_refusal(self):
        fresh = WovenFunction()
        with pytest.raises(Refusal):
            fresh.value(Fraction(63, 64), Fraction(0), max_level=64)
