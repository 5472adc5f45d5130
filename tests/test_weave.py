"""Global function: route agreement, diagonal values, parameter table hygiene."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossweave.cross_extension import CrossFunction
from crossweave.pairing import Refusal
from crossweave.verify import brute_force_radius, cross_anchors, linear_scan_value
from crossweave.weave import WovenFunction

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
            for _ in range(4):
                t = Fraction(rng.randint(-128, 128), 64)
                points += [(cross.column_x, cross.row_y + t), (cross.column_x + t, cross.row_y)]
            for (ax, ay), value in zip(anchors, values):
                if value:
                    offset = cross.radius * Fraction(rng.randint(-63, 63), 64)
                    if ax == cross.column_x:
                        points.append((ax, ay + offset))
                    if ay == cross.row_y:
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
        1 047 552 table entries; storing the tables densely took 8 MiB more."""
        tracemalloc.start()
        try:
            tower = WovenFunction()
            tower.build_to(1023)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 4 * 2**20


class TestLifecycle:
    def test_out_of_order_build_rejected(self):
        fresh = WovenFunction()
        with pytest.raises(RuntimeError):
            fresh.build_level(5)

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
