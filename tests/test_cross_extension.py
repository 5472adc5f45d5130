"""Per-level interpolants: hat, tents, exact interpolation, Lipschitz bounds.

The linear-scan reference that the sparse crosses are compared against is
`oracle`'s, the package's only one; its own unit tests live here with the
comparisons that rely on it.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossweave.cross_extension import ZERO, build_cross
from crossweave.rationals import format_rational
from crossweave.oracle import brute_force_radius, cross_anchors, linear_scan_value
from crossweave.weave import WovenFunction
from towers import tower_on

ONE = Fraction(1)
ORIGIN = (Fraction(0), Fraction(0))

coordinate = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)
unit_interval_open = st.fractions(
    min_value=Fraction(0), max_value=Fraction(15, 16), max_denominator=16
)


# A level-2 cross on negative coordinates with mixed denominators, whose
# zero-valued anchors, at x = -3/8 and y = 3/4, are dropped from its lines.
# Its row keeps x = -2 (value 1/2) and the center -1 over denominator 1;
# its column keeps y = -5/2 (value 1/3) and the center -7/3 over 6; the
# radius is 1/12, half of |-5/2 - (-7/3)|.
NEGATIVE = (
    2,
    (Fraction(-2), Fraction(-3, 8), Fraction(-1)),
    (Fraction(-5, 2), Fraction(3, 4), Fraction(-7, 3)),
    (Fraction(1, 3), Fraction(0)),
    (Fraction(1, 2), Fraction(0)),
)


def build(level, xs, ys, column_params, row_params):
    """build_cross with the brute-force radius of the cross's anchors."""
    row, column = list(zip(xs, row_params)), list(zip(ys, column_params))
    radius = brute_force_radius(cross_anchors(xs, ys))
    return build_cross(level, (xs[-1], ys[-1]), (row, column), radius)


def reference_data(level, xs, ys, column_params, row_params):
    """The reference's anchors for a cross instance, and their values."""
    return cross_anchors(xs, ys), (*column_params, ONE, *row_params)


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


@st.composite
def tower_coordinates(draw):
    """Pairwise distinct x- and y-coordinates for a tower of 1 to 10 levels."""
    levels = draw(st.integers(min_value=1, max_value=10))
    return tuple(
        draw(st.lists(coordinate, min_size=levels, max_size=levels, unique=True))
        for _ in range(2)
    )


class TestReferenceOps:
    def test_hat_at_anchor(self):
        anchor = (Fraction(1), Fraction(1))
        assert linear_scan_value(anchor, (anchor,), (ONE,), ONE) == 1

    def test_hat_halfway(self):
        point = (Fraction(1, 2), Fraction(0))
        assert linear_scan_value(point, (ORIGIN,), (ONE,), ONE) == Fraction(1, 2)

    def test_hat_clamps_far_away(self):
        anchors = (ORIGIN, (Fraction(3), Fraction(3)))
        point = (Fraction(10), Fraction(0))
        assert linear_scan_value(point, anchors, (ONE, ONE), ONE) == 0
        assert linear_scan_value(point, anchors[:1], (ONE,), ONE) == 0

    def test_hat_needs_anchors(self):
        with pytest.raises(ValueError):
            linear_scan_value(ORIGIN, (), (), ONE)

    def test_tent_peak_and_support(self):
        anchors = (ORIGIN, (Fraction(2), Fraction(0)))
        values = (ONE, Fraction(1, 3))
        radius = brute_force_radius(anchors)
        assert radius == 1
        assert linear_scan_value(ORIGIN, anchors, values, radius) == 1
        assert linear_scan_value(anchors[1], anchors, values, radius) == Fraction(1, 3)
        assert linear_scan_value((Fraction(1), Fraction(0)), anchors, values, radius) == 0
        # halfway down both the hat and a unit tent of value 1
        halfway = (Fraction(1, 2), Fraction(0))
        assert linear_scan_value(halfway, anchors, values, radius) == Fraction(1, 4)

    def test_tent_rejects_overlapping_supports(self):
        """The brute-force radius leaves the tents no overlap: the midpoint
        of two anchors one apart lies on the rim of both supports."""
        anchors = (ORIGIN, (Fraction(1), Fraction(0)))
        radius = brute_force_radius(anchors)
        assert radius == Fraction(1, 2)
        midpoint = (Fraction(1, 2), Fraction(0))
        assert linear_scan_value(midpoint, anchors, (ONE, ONE), radius) == 0

    def test_tent_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            linear_scan_value(ORIGIN, (ORIGIN,), (ONE,), Fraction(0))

    def test_min_pairwise_distance(self):
        points = (
            (Fraction(0), Fraction(0)),
            (Fraction(5), Fraction(0)),
            (Fraction(0), Fraction(3)),
        )
        assert brute_force_radius(points) == 1  # half of 3, capped at 1
        assert brute_force_radius([(x / 4, y / 4) for x, y in points]) == Fraction(3, 8)
        assert brute_force_radius(points[:1]) == 1


class TestAnchorSetValidation:
    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            brute_force_radius((ORIGIN, (Fraction(0), Fraction(0))))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            linear_scan_value(ORIGIN, (ORIGIN,), (ONE, Fraction(0)), ONE)


def hat(x0, y0):
    """The level-0 cross centered at (x0, y0): its line holds the center alone."""
    return build_cross(0, (x0, y0), ((), ()), ONE)


class TestBaseLevel:
    def test_center(self):
        assert hat(Fraction(0), Fraction(0)).value_at((Fraction(0), Fraction(0))) == 1

    def test_linear_on_the_column(self):
        assert hat(Fraction(0), Fraction(0)).value_at(
            (Fraction(0), Fraction(1, 2))
        ) == Fraction(1, 2)

    def test_clamps_far_away(self):
        assert hat(Fraction(0), Fraction(0)).value_at((Fraction(5), Fraction(0))) == 0

    def test_distance_along_each_line(self):
        """The hats of (0, 0) and (1/2, -2), L-infinity distance 2 apart, at
        the two points where their crosses meet."""
        near, far = hat(Fraction(0), Fraction(0)), hat(Fraction(1, 2), Fraction(-2))
        meet_near_row = (far.center[0], near.center[1])
        meet_near_column = (near.center[0], far.center[1])
        assert near.value_at(meet_near_row) == Fraction(1, 2)
        assert near.value_at(meet_near_column) == 0
        assert far.value_at(meet_near_row) == 0
        assert far.value_at(meet_near_column) == Fraction(1, 2)

    def test_rejects_off_cross(self):
        with pytest.raises(ValueError):
            hat(Fraction(0), Fraction(0)).value_at((Fraction(1), Fraction(1)))

    @given(center=st.tuples(coordinate, coordinate), offset=coordinate)
    @example(center=(Fraction(-3, 2), Fraction(1, 3)), offset=Fraction(1))
    @example(center=(Fraction(-3, 2), Fraction(1, 3)), offset=Fraction(-1))
    @example(center=(Fraction(2), Fraction(-7, 8)), offset=Fraction(-5, 4))
    def test_matches_the_linear_scan(self, center, offset):
        """On both lines of a level-0 cross, at every distance from its center
        up to and beyond 1, the stored line gives the reference's bare hat."""
        cross = hat(*center)
        x0, y0 = center
        for point in ((x0, y0 + offset), (x0 + offset, y0)):
            assert cross.value_at(point) == linear_scan_value(point, [center], [ONE], ONE)

    def test_build_cross_delegates_level_zero(self):
        cross = build(0, (Fraction(0),), (Fraction(0),), (), ())
        assert cross.radius == 1
        assert cross.lipschitz_bound == 1
        anchors = cross_anchors((Fraction(0),), (Fraction(0),))
        assert anchors == [ORIGIN]
        point = (Fraction(0), Fraction(1, 2))
        assert cross.value_at(point) == Fraction(1, 2)
        assert linear_scan_value(point, anchors, (ONE,), ONE) == Fraction(1, 2)


class TestWorkedLevelOne:
    INSTANCE = (
        1,
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1)),
        (Fraction(0),),
        (Fraction(0),),
    )

    def build(self):
        return build(*self.INSTANCE)

    def test_anchor_data(self):
        cross = self.build()
        anchors, values = reference_data(*self.INSTANCE)
        assert dict(zip(anchors, values)) == {
            (Fraction(1), Fraction(0)): Fraction(0),
            (Fraction(0), Fraction(1)): Fraction(0),
            (Fraction(1), Fraction(1)): Fraction(1),
        }
        assert all(cross.value_at(a) == v for a, v in zip(anchors, values))
        assert cross.radius == brute_force_radius(anchors) == Fraction(1, 2)
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
        """A repeated coordinate on either axis leaves the tents no room."""
        distinct = (Fraction(0), Fraction(1), Fraction(1, 3))
        repeated = (Fraction(0), Fraction(1), Fraction(1))
        for xs, ys in ((repeated, distinct), (distinct, repeated)):
            tower = tower_on(xs, ys)
            with pytest.raises(ValueError, match="pairwise distinct"):
                tower.build_to(2)
            assert tower.built_levels == 2

    @pytest.mark.parametrize(
        "radius",
        [Fraction(0), Fraction(-1, 2), Fraction(9, 8)],
        ids=["zero", "negative", "above-one"],
    )
    def test_rejects_radius_outside_the_unit_interval(self, radius):
        center = (Fraction(1), Fraction(1))
        zero = [(Fraction(0), Fraction(0))]
        with pytest.raises(ValueError):
            build_cross(1, center, (zero, zero), radius)

    def test_level_zero_needs_the_hat_reach(self):
        """Level 0's tent test is its hat's support, so its radius is 1."""
        with pytest.raises(ValueError, match="be 1 at level 0"):
            build_cross(0, ORIGIN, ((), ()), Fraction(1, 2))


class TestCrossProperties:
    @given(cross_instances())
    @settings(max_examples=60, deadline=None)
    def test_interpolates_exactly(self, instance):
        """The interpolant reproduces every prescribed anchor value exactly."""
        cross = build(*instance)
        anchors, values = reference_data(*instance)
        radius = brute_force_radius(anchors)
        assert len(set(anchors)) == 2 * cross.level + 1
        for point, value in zip(anchors, values):
            assert cross.value_at(point) == value
            assert linear_scan_value(point, anchors, values, radius) == value

    @given(tower_coordinates())
    @settings(max_examples=60, deadline=None)
    def test_radius_matches_brute_force(self, coordinates):
        """On arbitrary distinct coordinates, a tower's running-minimum radius
        equals the brute-force radius of every level's anchors, and its
        tables equal the earlier levels' values."""
        xs, ys = coordinates
        tower = tower_on(xs, ys)
        tower.build_to(len(xs) - 1)
        crosses = tower.crosses
        for n, cross in enumerate(crosses):
            anchors = cross_anchors(xs[: n + 1], ys[: n + 1])
            assert cross.radius == brute_force_radius(anchors)
            assert tower.column_params[n] == tuple(
                crosses[i].value_at((xs[n], ys[i])) for i in range(n)
            )
            assert tower.row_params[n] == tuple(
                crosses[i].value_at((xs[i], ys[n])) for i in range(n)
            )

    @given(cross_instances())
    @example(NEGATIVE)
    @settings(max_examples=60, deadline=None)
    def test_lines_are_the_sorted_nonzero_anchors(self, instance):
        """`line` gives back the anchors handed to `build_cross`: on each line
        the center with value 1 and the anchors of nonzero value, sorted."""
        _, xs, ys, column_params, row_params = instance
        cross = build(*instance)
        for axis, coordinates, params in ((0, xs, row_params), (1, ys, column_params)):
            kept = [(a, v) for a, v in zip(coordinates, params) if v]
            expected = sorted([(coordinates[-1], ONE), *kept])
            assert cross.line(axis) == ([a for a, _ in expected], tuple(v for _, v in expected))

    @given(cross_instances(), coordinate, coordinate, st.integers(min_value=0))
    # the row, over denominator 1, at s = -25/24: floor(s) = -2 is an anchor,
    # yet s lies in the center's tent, at ceil(s) = -1; the column at
    # t = -29/12, t L = -29/2, exactly r from both of its anchors
    @example(NEGATIVE, Fraction(-29, 12), Fraction(-25, 24), 0)
    # t L = -12, an integer, and s = -3/8, a dropped anchor, both above
    # their line's last nonzero anchor
    @example(NEGATIVE, Fraction(-2), Fraction(-3, 8), 1)
    @settings(max_examples=80, deadline=None)
    def test_fast_path_matches_reference(self, instance, t, s, pick):
        """Nearest-nonzero-anchor evaluation equals the linear-scan hat times tent.

        Besides two free points, each line is evaluated at a + r k/8 for
        k = -9..9 around one of its own nonzero anchors a, which crosses
        the tent's kinks: its peak, its edges d = r and the zero beyond;
        and at r/2 below its first nonzero anchor and above its last.
        """
        cross = build(*instance)
        anchors, values = reference_data(*instance)
        radius = brute_force_radius(anchors)
        row, column = (cross.line(axis)[0] for axis in (0, 1))
        x, y = cross.center
        points = [
            (x, t),
            (s, y),
            (row[0] - radius / 2, y),
            (row[-1] + radius / 2, y),
            (x, column[0] - radius / 2),
            (x, column[-1] + radius / 2),
        ]
        edges = []
        around_row = row[pick % len(row)]
        around_column = column[pick % len(column)]
        for k in range(-9, 10):
            offset = radius * Fraction(k, 8)
            on_lines = [
                (around_row + offset, y),
                (x, around_column + offset),
            ]
            points.extend(on_lines)
            if abs(k) == 8:
                edges.extend(on_lines)
        for point in points:
            fast = cross.value_at(point)
            assert fast == linear_scan_value(point, anchors, values, radius)
            assert 0 <= fast <= 1
            if point not in anchors:
                assert fast < 1
        # d = r from a is at least r from every other anchor, so the edge
        # is a miss, which builds no Fraction and returns the shared zero
        for point in edges:
            assert cross.value_at(point) is ZERO

    @given(cross_instances(), coordinate, coordinate)
    @settings(max_examples=60, deadline=None)
    def test_lipschitz_bound_on_the_cross(self, instance, t, s):
        """|f(p) - f(q)| <= (1 + 1/r) * dist(p, q) for cross points p, q."""
        cross = build(*instance)
        p = (cross.center[0], t)
        q = (s, cross.center[1])
        bound = cross.lipschitz_bound
        distance = max(abs(p[0] - q[0]), abs(p[1] - q[1]))
        assert abs(cross.value_at(p) - cross.value_at(q)) <= bound * distance


class TestTentValues:
    def test_values_around_every_nonzero_anchor(self):
        """The values at a, a +- r/3, a +- r/2 and a +- r, for every nonzero
        anchor a of both lines of a 256-level tower, hash to the digest
        recorded before evaluation moved to integer arithmetic."""
        tower = WovenFunction()
        tower.build_to(255)
        values = []
        for cross in tower.crosses:
            r = cross.radius
            offsets = (0, -r / 3, r / 3, -r / 2, r / 2, -r, r)
            row, column = (cross.line(axis)[0] for axis in (0, 1))
            x, y = cross.center
            for a in row:
                values += [cross.value_at((a + o, y)) for o in offsets]
            for a in column:
                values += [cross.value_at((x, a + o)) for o in offsets]
        assert len(values) == 10829
        text = "\n".join(format_rational(value) for value in values)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "c95e66cdee33ef704cc34b2c66d7991a7e8fefa9b847f4d7bf81079946cc1fcb"
