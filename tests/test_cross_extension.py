"""Per-level interpolants: hat, tents, exact interpolation, Lipschitz bounds."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossweave.cross_extension import (
    AnchorSet,
    Axis,
    base_value,
    build_cross,
    hat_value,
    linf,
    min_pairwise_distance,
    reference_value,
    tent_sum,
)

coordinate = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)
unit_interval_open = st.fractions(
    min_value=Fraction(0), max_value=Fraction(15, 16), max_denominator=16
)


def build(level, xs, ys, column_params, row_params):
    """build_cross with axes holding the earlier coordinates, as a tower keeps them."""
    x_axis, y_axis = Axis(), Axis()
    for x in xs[:-1]:
        x_axis.place(x)
    for y in ys[:-1]:
        y_axis.place(y)
    return build_cross(level, xs, ys, column_params, row_params, x_axis, y_axis)


@st.composite
def cross_instances(draw):
    """A buildable level with arbitrary coordinates and prescribed values."""
    level = draw(st.integers(min_value=1, max_value=5))
    xs = tuple(
        draw(
            st.lists(coordinate, min_size=level + 1, max_size=level + 1, unique=True)
        )
    )
    ys = tuple(
        draw(
            st.lists(coordinate, min_size=level + 1, max_size=level + 1, unique=True)
        )
    )
    column = tuple(
        draw(st.lists(unit_interval_open, min_size=level, max_size=level))
    )
    row = tuple(draw(st.lists(unit_interval_open, min_size=level, max_size=level)))
    return level, xs, ys, column, row


class TestReferenceOps:
    def test_linf(self):
        assert linf((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(-2))) == 2

    def test_hat_at_anchor(self):
        assert hat_value((Fraction(1), Fraction(1)), ((Fraction(1), Fraction(1)),)) == 1

    def test_hat_halfway(self):
        anchors = ((Fraction(0), Fraction(0)),)
        assert hat_value((Fraction(1, 2), Fraction(0)), anchors) == Fraction(1, 2)

    def test_hat_clamps_far_away(self):
        anchors = ((Fraction(0), Fraction(0)), (Fraction(3), Fraction(3)))
        assert hat_value((Fraction(10), Fraction(0)), anchors) == 0

    def test_hat_needs_anchors(self):
        with pytest.raises(ValueError):
            hat_value((Fraction(0), Fraction(0)), ())

    def test_tent_peak_and_support(self):
        anchors = AnchorSet(
            ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(0))),
            (Fraction(1), Fraction(1, 3)),
        )
        radius = Fraction(1)
        assert tent_sum((Fraction(0), Fraction(0)), anchors, radius) == 1
        assert tent_sum((Fraction(2), Fraction(0)), anchors, radius) == Fraction(1, 3)
        assert tent_sum((Fraction(1), Fraction(0)), anchors, radius) == 0
        # halfway down a unit tent of value 1
        assert tent_sum((Fraction(1, 2), Fraction(0)), anchors, radius) == Fraction(1, 2)

    def test_tent_rejects_overlapping_supports(self):
        anchors = AnchorSet(
            ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
            (Fraction(1), Fraction(1)),
        )
        with pytest.raises(ValueError):
            tent_sum((Fraction(0), Fraction(0)), anchors, Fraction(2, 3))

    def test_tent_rejects_nonpositive_radius(self):
        anchors = AnchorSet(((Fraction(0), Fraction(0)),), (Fraction(1),))
        with pytest.raises(ValueError):
            tent_sum((Fraction(0), Fraction(0)), anchors, Fraction(0))

    def test_min_pairwise_distance(self):
        points = (
            (Fraction(0), Fraction(0)),
            (Fraction(5), Fraction(0)),
            (Fraction(0), Fraction(3)),
        )
        assert min_pairwise_distance(points) == 3
        assert min_pairwise_distance(points[:1]) is None


class TestAnchorSetValidation:
    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            AnchorSet(
                ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
                (Fraction(1), Fraction(1)),
            )

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            AnchorSet(((Fraction(0), Fraction(0)),), (Fraction(2),))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            AnchorSet(((Fraction(0), Fraction(0)),), (Fraction(1), Fraction(0)))


class TestBaseLevel:
    def test_center(self):
        assert base_value(Fraction(0), Fraction(0), (Fraction(0), Fraction(0))) == 1

    def test_linear_on_the_column(self):
        assert base_value(
            Fraction(0), Fraction(0), (Fraction(0), Fraction(1, 2))
        ) == Fraction(1, 2)

    def test_clamps_far_away(self):
        assert base_value(Fraction(0), Fraction(0), (Fraction(5), Fraction(0))) == 0

    def test_rejects_off_cross(self):
        with pytest.raises(ValueError):
            base_value(Fraction(0), Fraction(0), (Fraction(1), Fraction(1)))

    def test_build_cross_delegates_level_zero(self):
        cross = build(0, (Fraction(0),), (Fraction(0),), (), ())
        assert cross.radius == 1
        assert cross.lipschitz_bound == 1
        assert len(cross.anchor_set) == 1
        assert cross.value_at((Fraction(0), Fraction(1, 2))) == Fraction(1, 2)


class TestWorkedLevelOne:
    def build(self):
        return build(
            1,
            (Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(1)),
            (Fraction(0),),
            (Fraction(0),),
        )

    def test_anchor_data(self):
        cross = self.build()
        assert dict(cross.anchor_set.items()) == {
            (Fraction(1), Fraction(0)): Fraction(0),
            (Fraction(0), Fraction(1)): Fraction(0),
            (Fraction(1), Fraction(1)): Fraction(1),
        }
        assert cross.radius == Fraction(1, 2)
        assert cross.lipschitz_bound == 3

    def test_center_value_is_one(self):
        assert self.build().value_at((Fraction(1), Fraction(1))) == 1

    def test_dead_zone_between_tents(self):
        assert self.build().value_at((Fraction(1), Fraction(1, 2))) == 0

    def test_partial_tent(self):
        assert self.build().value_at((Fraction(1), Fraction(3, 4))) == Fraction(3, 8)

    def test_prescribed_anchor(self):
        assert self.build().value_at((Fraction(0), Fraction(1))) == 0

    def test_rejects_off_cross(self):
        with pytest.raises(ValueError):
            self.build().value_at((Fraction(0), Fraction(0)))


class TestBuildValidation:
    def test_rejects_repeated_coordinates(self):
        with pytest.raises(ValueError):
            build(
                1,
                (Fraction(0), Fraction(0)),
                (Fraction(0), Fraction(1)),
                (Fraction(0),),
                (Fraction(0),),
            )

    def test_rejects_parameter_at_one(self):
        with pytest.raises(ValueError):
            build(
                1,
                (Fraction(0), Fraction(1)),
                (Fraction(0), Fraction(1)),
                (Fraction(1),),
                (Fraction(0),),
            )

    def test_rejects_negative_parameter(self):
        with pytest.raises(ValueError):
            build(
                1,
                (Fraction(0), Fraction(1)),
                (Fraction(0), Fraction(1)),
                (Fraction(0),),
                (Fraction(-1, 2),),
            )

    def test_rejects_wrong_lengths(self):
        with pytest.raises(ValueError):
            build(1, (Fraction(0),), (Fraction(0), Fraction(1)), (), ())

    def test_rejects_axes_without_the_earlier_coordinates(self):
        coordinates = (Fraction(0), Fraction(1))
        zero = (Fraction(0),)
        with pytest.raises(ValueError):
            build_cross(1, coordinates, coordinates, zero, zero, Axis(), Axis())


class TestCrossProperties:
    @given(cross_instances())
    @settings(max_examples=60, deadline=None)
    def test_interpolates_exactly(self, instance):
        """The interpolant reproduces every prescribed anchor value exactly."""
        cross = build(*instance)
        assert len(cross.anchor_set) == 2 * cross.level + 1
        for point, value in cross.anchor_set.items():
            assert cross.value_at(point) == value
            assert reference_value(cross, point) == value

    @given(cross_instances())
    @settings(max_examples=60, deadline=None)
    def test_radius_matches_brute_force(self, instance):
        """The axis-gap radius equals half the brute-force separation, capped."""
        cross = build(*instance)
        separation = min_pairwise_distance(cross.anchor_set.points)
        assert cross.radius == min(Fraction(1), separation / 2)

    @given(cross_instances(), coordinate, coordinate)
    @settings(max_examples=80, deadline=None)
    def test_fast_path_matches_reference(self, instance, t, s):
        """Nearest-nonzero-anchor evaluation equals the linear-scan hat times tent."""
        cross = build(*instance)
        for point in ((cross.column_x, t), (s, cross.row_y)):
            fast = cross.value_at(point)
            assert fast == reference_value(cross, point)
            assert 0 <= fast <= 1
            if point not in cross.anchor_set.points:
                assert fast < 1

    @given(cross_instances(), coordinate, coordinate)
    @settings(max_examples=60, deadline=None)
    def test_lipschitz_bound_on_the_cross(self, instance, t, s):
        """|f(p) - f(q)| <= (1 + 1/r) * dist(p, q) for cross points p, q."""
        cross = build(*instance)
        p = (cross.column_x, t)
        q = (s, cross.row_y)
        bound = cross.lipschitz_bound
        assert abs(cross.value_at(p) - cross.value_at(q)) <= bound * linf(p, q)
