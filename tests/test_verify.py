"""Verification harness: oracle, checks, reports, suite driver."""

from __future__ import annotations

import ast
import gc
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from crossweave import oracle, verify
from crossweave.cross_extension import CrossFunction, build_cross
from crossweave.oracle import brute_force_radius, cross_anchors, linear_scan_value
from crossweave.pairing import Pairing
from crossweave.verify import (
    MAX_ORACLE_LEVEL,
    SUITES,
    U_HI,
    U_LO,
    Refusal,
    Report,
    check_image_density,
    check_oracle_equivalence,
    check_parameter_range,
    check_sections,
    check_singleton_image,
    check_welldefined,
    image_density_search,
    nonfeeble_witness,
    oracle_eval,
    run_suite,
)
from crossweave.weave import WovenFunction
from towers import (
    coprime_coordinates,
    dyadic_coordinates,
    random_axis,
    tower_on,
    wide_gap_coordinates,
)


def steeper_hat(x0, y0, point):
    """A level-0 hat of slope 1001/1000 centered at (x0, y0)."""
    distance = max(abs(point[0] - x0), abs(point[1] - y0))
    return max(Fraction(0), 1 - Fraction(1001, 1000) * distance)


def use_steeper_hat(monkeypatch):
    """Evaluate every level-0 cross by `steeper_hat`, and the rest as built."""
    value_at = CrossFunction.value_at

    def patched(self, point):
        value = value_at(self, point)  # refuses a point off the cross
        return steeper_hat(*self.center, point) if self.level == 0 else value

    monkeypatch.setattr(CrossFunction, "value_at", patched)


def halve_the_outer_halves(monkeypatch):
    """From level 40 on, halve every nonzero value farther than r/2 from its
    anchor, and evaluate the rest as built."""
    value_at = CrossFunction.value_at

    def patched(self, point):
        value = value_at(self, point)
        if self.level < 40 or not value:
            return value
        axis = 1 if point[0] == self.center[0] else 0
        distance = min(abs(point[axis] - a) for a in self.line(axis)[0])
        return value / 2 if distance > self.radius / 2 else value

    monkeypatch.setattr(CrossFunction, "value_at", patched)


# free coordinates on both sides of zero, integers and mixed denominators
SWEEP = sorted({Fraction(n, d) for d in (1, 3, 8) for n in range(-8 * d, 8 * d + 1, 3 * d - 1)})


@pytest.fixture(scope="module")
def woven():
    instance = WovenFunction()
    instance.build_to(39)
    return instance


class TestOracle:
    def test_worked_values(self, woven):
        pairing = woven.pairing
        assert oracle_eval(pairing, Fraction(0), Fraction(0)) == 1
        assert oracle_eval(pairing, Fraction(1), Fraction(3, 4)) == Fraction(3, 8)
        assert oracle_eval(pairing, Fraction(1, 2), Fraction(0)) == Fraction(1, 2)

    def test_matches_fast_path_on_a_sweep(self, woven):
        for level in range(8):
            x = woven.pairing.pairs[level][0]
            for y in SWEEP:
                assert woven.value(x, y) == oracle_eval(woven.pairing, x, y, 8)

    def test_refuses_deep_levels(self, woven):
        x = woven.pairing.pairs[5][0]
        with pytest.raises(Refusal):
            oracle_eval(woven.pairing, x, Fraction(0), max_level=3)

    def test_cap_cannot_be_raised(self, woven):
        with pytest.raises(Refusal):
            oracle_eval(woven.pairing, Fraction(0), Fraction(0), MAX_ORACLE_LEVEL + 1)

    def test_equivalence_check_passes(self, woven):
        report = check_oracle_equivalence(woven, max_level=4)
        assert report.passed
        assert report.bounds == {"max_level": 4}

    def test_equivalence_check_compares_every_derived_level(self):
        """After its tent points, the check compares each derived level's
        values and radius with the tower's, so a wrong table entry fails it
        although no point reads it."""
        tower = WovenFunction()
        report = check_oracle_equivalence(tower, max_level=6)
        # 242 tent points, then levels 0..6, 2n + 1 values and one radius each
        assert report.passed and report.checked == 242 + sum(2 * n + 2 for n in range(7)) == 298
        rows = [list(tower.row_params[n]) for n in range(7)]
        rows[6][2] = Fraction(1, 3)
        tower.row_params = rows
        report = check_oracle_equivalence(tower, max_level=6)
        assert report.failures == [
            {"level": 6, "entry": 9, "tower": Fraction(1, 3), "oracle": 0}
        ]

    @pytest.mark.parametrize("seed", [1729, 4])
    def test_every_level_up_to_the_cap_is_compared(self, seed):
        """Levels 0..64 are all derived and compared whatever the ignored
        `seed`: eleven points per nonzero tent of each stored line, plus
        2n + 2 entries per level."""
        tower = WovenFunction()
        report = check_oracle_equivalence(tower, max_level=64, seed=seed)
        assert report.passed
        tents = sum(len(tower.cross(n).line(axis)[0]) for n in range(65) for axis in (0, 1))
        assert report.checked - 11 * tents == sum(2 * n + 2 for n in range(65)) == 4_290

    def test_points_span_each_nonzero_tent(self, monkeypatch):
        """At level 5 the check evaluates the cross at a + k r/4, k in -5..5,
        around each nonzero anchor a of each line, the center on both."""
        tower = WovenFunction()
        tower.build_to(5)
        seen = []
        value_at = CrossFunction.value_at

        def recording(cross, point):
            if cross.level == 5:
                seen.append(point)
            return value_at(cross, point)

        monkeypatch.setattr(CrossFunction, "value_at", recording)
        assert check_oracle_equivalence(tower, max_level=5).passed
        cross = tower.cross(5)
        steps = [k * cross.radius / 4 for k in range(-5, 6)]
        rows, columns = (cross.line(axis)[0] for axis in (0, 1))
        x, y = cross.center
        expected = [(x, a + step) for a in columns for step in steps]
        expected += [(a + step, y) for a in rows for step in steps]
        assert sorted(seen) == sorted(expected)

    def test_the_check_calls_the_oracle_through_verify(self, monkeypatch):
        """`check_oracle_equivalence` looks `oracle_eval` up among `verify`'s
        globals, so a wrapper set there sees its one call."""
        calls = []

        def counting(*args):
            calls.append(args)
            return oracle_eval(*args)

        monkeypatch.setattr(verify, "oracle_eval", counting)
        assert check_oracle_equivalence(WovenFunction(), max_level=5).passed
        assert len(calls) == 1

    def test_equivalence_check_rejects_deep_cap(self, woven):
        with pytest.raises(Refusal):
            check_oracle_equivalence(woven, max_level=MAX_ORACLE_LEVEL + 1)

    def test_equivalence_check_refuses_a_negative_level(self, woven):
        """A negative `max_level` is a refusal, as in `oracle_eval`, not a
        fault from deriving no level."""
        with pytest.raises(Refusal, match=f"0..{MAX_ORACLE_LEVEL}"):
            check_oracle_equivalence(woven, max_level=-1)
        with pytest.raises(Refusal):
            oracle_eval(woven.pairing, Fraction(0), Fraction(0), max_level=-1)

    def test_rederives_parameter_tables_above_the_old_cap(self, woven):
        """The oracle re-derives both parameter tables of levels 13..20 exactly."""
        pairing = woven.pairing
        derived = []
        for n in range(13, 21):
            x_n, y_n = pairing.pairs[n]
            for i in range(n):
                x_i, y_i = pairing.pairs[i]
                column = oracle_eval(pairing, x_n, y_i, MAX_ORACLE_LEVEL, derived)
                row = oracle_eval(pairing, x_i, y_n, MAX_ORACLE_LEVEL, derived)
                assert column == woven.column_params[n][i], (n, i)
                assert row == woven.row_params[n][i], (n, i)
        # every derived level holds the tower's tables and radius, rows included
        assert len(derived) == 21
        for n, (_, _, denominator, values, radius) in enumerate(derived):
            values = [Fraction(v, denominator) for v in values]
            assert values == [*woven.column_params[n], 1, *woven.row_params[n]], n
            assert Fraction(*radius) == woven.cross(n).radius, n


def package_imports(module: str) -> set[str]:
    """The modules of the package that `module`'s source imports, the
    package itself as `__init__`."""
    source = Path(oracle.__file__).with_name(f"{module}.py")
    found = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = [f"crossweave.{node.module}" if node.module else "crossweave"]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        for name in names:
            if name == "crossweave" or name.startswith("crossweave."):
                found.add(name.removeprefix("crossweave").lstrip(".") or "__init__")
    return found


def test_the_oracle_imports_nothing_of_the_tower():
    """Every package module that `oracle` imports, directly or through
    another, is `pairing` or `rationals`: the reference shares no code
    with `cross_extension` or `weave`."""
    reached, pending = set(), ["oracle"]
    while pending:
        module = pending.pop()
        if module not in reached:
            reached.add(module)
            pending.extend(package_imports(module))
    assert reached == {"oracle", "pairing", "rationals"}
    assert package_imports("verify") >= {"oracle", "weave"}  # the walk reads imports


def points(*coordinates):
    """Points from coordinate strings: points("1/3 0", "-1/2 1/7")."""
    return [tuple(map(Fraction, text.split())) for text in coordinates]


class TestLattice:
    """Hand-computed values of the integer reference, through its `Fraction`
    wrappers, where the scaling to a common lattice could go wrong."""

    def test_a_point_whose_denominators_are_coprime_to_the_anchors(self):
        """Anchors at thirds (L = 3), points at sevenths (M = 21).  The
        nearest separation is 1/3, so the radius is 1/6."""
        anchors = points("0 0", "1/3 0", "0 2/3")
        values = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
        radius = brute_force_radius(anchors)
        assert radius == Fraction(1, 6)
        near_first, near_second = points("1/7 0", "1/3 1/7")
        # 1/7 < 1/6 from (0, 0): hat 6/7, tent 1 - 6/7
        assert linear_scan_value(near_first, anchors, values, radius) == Fraction(6, 49)
        # 1/7 from (1/3, 0): hat 6/7, tent (1/2)(1/7)
        assert linear_scan_value(near_second, anchors, values, radius) == Fraction(3, 49)

    def test_negative_coordinates(self):
        anchors = points("-1/2 -1/2", "-1/2 0", "-2 -5/4")
        values = (Fraction(1), Fraction(1, 2), Fraction(1, 3))
        radius = brute_force_radius(anchors)
        assert radius == Fraction(1, 4)
        expected = (
            Fraction(7, 16),  # 1/8 from (-1/2, -1/2): hat 7/8, tent 1 - 1/2
            Fraction(7, 32),  # 1/8 from (-1/2, 0): hat 7/8, tent (1/2)(1 - 1/2)
            Fraction(4, 75),  # 1/5 from (-2, -5/4): hat 4/5, tent (1/3)(1 - 4/5)
        )
        for point, value in zip(points("-5/8 -1/2", "-1/2 -1/8", "-9/5 -5/4"), expected):
            assert linear_scan_value(point, anchors, values, radius) == value, point

    def test_a_point_at_exactly_the_radius_is_outside_its_tent(self):
        anchors = points("0 0", "1 0")
        values = (Fraction(1), Fraction(1, 2))
        radius = Fraction(1, 4)
        for point in points("1/4 0", "1 -1/4", "3/4 1/8"):
            assert linear_scan_value(point, anchors, values, radius) == 0, point
        # just inside: hat 4/5, tent 1 - 4/5
        [inside] = points("1/5 0")
        assert linear_scan_value(inside, anchors, values, radius) == Fraction(4, 25)

    def test_a_point_at_distance_one_has_a_zero_hat(self):
        bare = points("1/3 -1/3"), (Fraction(1),), Fraction(1)
        for point in points("-2/3 0", "4/3 1/7", "0 2/3"):
            assert linear_scan_value(point, *bare) == 0, point
        [inside] = points("-1/2 0")
        assert linear_scan_value(inside, *bare) == Fraction(1, 6)
        anchors = points("0 0", "3 0")
        radius = brute_force_radius(anchors)
        assert radius == 1
        at_one, inside = points("1 0", "3/4 0")
        assert linear_scan_value(at_one, anchors, (1, 1), radius) == 0
        # hat 1/4, tent 1 - 3/4
        assert linear_scan_value(inside, anchors, (1, 1), radius) == Fraction(1, 16)

    def test_coincident_anchors_are_refused(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            brute_force_radius(points("1/3 0", "1/2 1/7", "2/6 0"))
        with pytest.raises(ValueError, match="pairwise distinct"):
            brute_force_radius([(1, 0), (Fraction(1), Fraction(0))])


class TestBasicChecks:
    def test_singleton_image_passes(self, woven):
        report = check_singleton_image(woven, 40)
        assert report.passed
        assert report.witnesses[0]["value"] == Fraction(1)

    def test_a_failing_singleton_report_shows_five_witnesses(self, monkeypatch):
        monkeypatch.setattr(WovenFunction, "value", lambda tower, x, y: Fraction(0))
        report = check_singleton_image(WovenFunction(), 12)
        assert not report.passed
        assert (report.checked, len(report.failures)) == (12, 12)
        assert [w["level"] for w in report.witnesses] == [0, 1, 2, 3, 4]

    def test_welldefined_passes(self, woven):
        report = check_welldefined(woven, 20, 20)
        assert report.passed and not report.witnesses

    def test_parameter_range_passes(self, woven):
        assert check_parameter_range(woven, 40).passed

    @staticmethod
    def with_level_one(column_value, row_value):
        """The canonical tower to level 3 with level 1 rebuilt: its column's
        value at y_0 and its row's at x_0 are the ones given."""
        broken = WovenFunction()
        broken.build_to(3)
        xs, ys = zip(*broken.pairing.pairs[:2])
        broken.crosses[1] = build_cross(
            1,
            (xs[-1], ys[-1]),
            ([(xs[0], row_value)], [(ys[0], column_value)]),
            brute_force_radius(cross_anchors(xs, ys)),
        )
        return broken

    def test_parameter_range_catches_a_parameter_at_one(self):
        broken = self.with_level_one(Fraction(1), Fraction(0))
        report = check_parameter_range(broken, 4)
        assert not report.passed
        anchor = broken.pairing.pairs[0][1]
        assert report.failures == [{"level": 1, "line": "column", "anchor": anchor, "value": 1}]

    def test_parameter_range_catches_a_negative_parameter(self):
        broken = self.with_level_one(Fraction(0), Fraction(-1, 2))
        report = check_parameter_range(broken, 4)
        assert not report.passed
        anchor, value = broken.pairing.pairs[0][0], Fraction(-1, 2)
        assert report.failures == [{"level": 1, "line": "row", "anchor": anchor, "value": value}]

    def test_welldefined_catches_a_corrupted_level(self):
        # rebuild level 3 with a perturbed prescribed value: the tower loses
        # the compatibility that makes the two routes agree, and the check
        # must report a concrete counter-witness
        broken = WovenFunction()
        broken.build_to(5)
        xs = tuple(broken.pairing.pairs[i][0] for i in range(4))
        ys = tuple(broken.pairing.pairs[i][1] for i in range(4))
        column = list(broken.column_params[3])
        column[0] += Fraction(1, 8)
        assert 0 <= column[0] < 1
        broken.crosses[3] = build_cross(
            3,
            (xs[-1], ys[-1]),
            (list(zip(xs, broken.row_params[3])), list(zip(ys, column))),
            brute_force_radius(cross_anchors(xs, ys)),
        )
        report = check_welldefined(broken, 5, 5)
        assert not report.passed
        witness = report.witnesses[0]
        assert witness["by_column"] != witness["by_row"]

    def test_welldefined_looks_up_each_level_once(self, monkeypatch):
        tower = WovenFunction()
        tower.build_to(11)
        calls = {"x_level": 0, "y_level": 0}
        for name in calls:
            lookup = getattr(Pairing, name)

            def counted(self, value, max_level=None, name=name, lookup=lookup):
                calls[name] += 1
                return lookup(self, value, max_level)

            monkeypatch.setattr(Pairing, name, counted)
        report = check_welldefined(tower, 12, 12)
        assert report.passed and report.checked == 144
        assert calls == {"x_level": 12, "y_level": 12}

    def test_welldefined_catches_a_shifted_row(self):
        broken = WovenFunction()
        broken.build_to(2)
        # shifting level 2 by a constant keeps its slopes, but its row no
        # longer matches the columns of levels 0 and 1 where it meets them
        value_at = broken.crosses[2].value_at
        broken.crosses[2].value_at = lambda point: value_at(point) + Fraction(1, 8)
        report = check_welldefined(broken, 3, 3)
        assert not report.passed
        witness = report.witnesses[0]
        assert (witness["column_level"], witness["row_level"]) == (0, 2)
        assert witness["by_row"] - witness["by_column"] == Fraction(1, 8)


class TestImageDensity:
    def test_extreme_targets_hit_exactly(self, woven):
        y0 = woven.pairing.pairs[0][1]
        assert image_density_search(woven, Fraction(1)) == y0
        assert image_density_search(woven, Fraction(0)) == y0 + 1

    def test_midpoint_target(self, woven):
        y = image_density_search(woven, Fraction(1, 2))
        x0 = woven.pairing.pairs[0][0]
        assert woven.value(x0, y) == Fraction(1, 2)

    def test_every_target_of_pitch_97_is_hit_exactly(self, woven):
        x0 = woven.pairing.pairs[0][0]
        for k in range(98):
            target = Fraction(k, 97)
            assert woven.value(x0, image_density_search(woven, target)) == target, k

    def test_rejects_bad_inputs(self, woven):
        with pytest.raises(ValueError):
            image_density_search(woven, Fraction(2))
        with pytest.raises(ValueError):
            image_density_search(woven, Fraction(-1, 97))

    def test_sweep_passes(self, woven):
        report = check_image_density(woven, pitch=10)
        assert report.passed and report.checked == 11
        assert report.bounds == {"pitch": 10}
        assert report.witnesses  # exemplar targets recorded

    def test_a_tolerance_forgives_no_miss(self, woven, monkeypatch):
        """One target's value off by a quarter of the pitch fails the sweep,
        even with `eps` set to half the pitch: only exact hits pass."""
        pitch, target = 10, Fraction(3, 10)
        x0, y = woven.pairing.pairs[0][0], image_density_search(woven, target)
        exact = WovenFunction.value

        def nudged(self, x, yy):
            value = exact(self, x, yy)
            return value + Fraction(1, 4 * pitch) if (x, yy) == (x0, y) else value

        monkeypatch.setattr(WovenFunction, "value", nudged)
        report = check_image_density(woven, pitch=pitch, eps=Fraction(1, 2 * pitch))
        assert not report.passed
        assert report.failures == [{"target": target, "y": y, "value": Fraction(13, 40)}]

    def test_memory_does_not_grow_with_the_pitch(self, woven):
        """The targets are made one at a time: a list of the 20 001 targets
        alone would take about 2.3 MiB."""
        gc.collect()
        tracemalloc.start()
        try:
            report = check_image_density(woven, pitch=20000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed and report.checked == 20001
        assert peak < 2**20

    def test_sweep_passes_with_no_tolerance(self, woven):
        report = check_image_density(woven, pitch=97, eps=Fraction(0))
        assert report.passed
        assert all(w["value"] == w["target"] for w in report.witnesses)


class TestNonfeebleWitness:
    def test_passes_at_small_scale(self, woven):
        report = nonfeeble_witness(woven, boxes=12)
        assert report.passed
        kinds = {w["kind"] for w in report.witnesses}
        assert kinds == {"member", "box"}

    def test_membership_value_is_strictly_inside(self, woven):
        report = nonfeeble_witness(woven, boxes=3)
        member = next(w for w in report.witnesses if w["kind"] == "member")
        assert Fraction(1, 4) < member["value"] < Fraction(3, 4)

    def test_member_value_is_the_exact_midpoint(self, woven):
        report = nonfeeble_witness(woven, boxes=3)
        member = next(w for w in report.witnesses if w["kind"] == "member")
        assert member["value"] == (U_LO + U_HI) / 2 == Fraction(1, 2)
        # the search it relies on hits an off-center midpoint exactly too
        x0 = woven.pairing.pairs[0][0]
        y = image_density_search(woven, Fraction(4, 15))
        assert woven.value(x0, y) == Fraction(4, 15)


class TestSectionContinuity:
    def test_worked_column_pair(self, woven):
        # level 1, column x = 1: values 0 at y=1/2 and 3/8 at y=3/4,
        # within the recorded bound 3 * (1/4)
        gap = abs(woven.value(Fraction(1), Fraction(1, 2)) - woven.value(Fraction(1), Fraction(3, 4)))
        assert gap == Fraction(3, 8)
        assert gap <= woven.cross(1).lipschitz_bound * Fraction(1, 4)

    def test_column_sections(self, woven):
        report = check_sections(woven, levels=6)
        assert report.passed, report.witnesses
        assert report.bounds["levels"] == 6
        # the column is the definition's route: on the columns of levels
        # 0, 1 and 5 the public evaluator is the level's cross
        for level in (0, 1, 5):
            x = woven.pairing.pairs[level][0]
            for y in SWEEP:
                assert woven.value(x, y) == woven.cross(level).value_at((x, y))

    def test_row_sections(self, woven):
        report = check_sections(woven, levels=8)
        assert report.passed, report.witnesses
        assert report.bounds["levels"] == 8
        # on the rows of levels 0, 2 and 7 the public evaluator agrees with
        # the level's cross at every built column
        for level in (0, 2, 7):
            y = woven.pairing.pairs[level][1]
            for m in range(woven.built_levels):
                x = woven.pairing.pairs[m][0]
                assert woven.value(x, y) == woven.cross(level).value_at((x, y))

    def test_aggregate(self, woven):
        report = check_sections(woven, levels=6)
        assert report.passed
        assert report.bounds["largest_lipschitz"] >= 3

    def test_a_lowered_bound_fails_on_both_lines(self, monkeypatch):
        broken = WovenFunction()
        broken.build_to(0)
        # the level-0 hat has slope 1 on both of its lines
        monkeypatch.setattr(CrossFunction, "lipschitz_bound", Fraction(0))
        report = check_sections(broken, levels=1)
        assert not report.passed
        found = {(w["level"], w["kind"]) for w in report.witnesses}
        assert found == {(0, "column"), (0, "row")}

    def test_the_integer_bound_keeps_both_denominators(self, monkeypatch):
        """Level 2 of this tower has radius 3/10, and its steepest half-tent
        slope, 13/3, has a denominator above 1 too, so a slope test that
        dropped either denominator would misjudge it.  With the bound at
        that slope the report passes; 1/10^6 below it, it fails with the
        exact slopes of the halves that reach it, all at level 2."""
        xs = [Fraction(0), Fraction(6, 5), Fraction(3, 5)]
        tower = tower_on(xs, [Fraction(0), Fraction(6, 5), Fraction(-3, 5)])
        tower.build_to(2)
        cross = tower.cross(2)
        r = cross.radius
        halves = []
        for axis, kind in enumerate(("row", "column")):
            for a in cross.line(axis)[0]:
                tent = [
                    cross.value_at((t, cross.center[1]) if axis == 0 else (cross.center[0], t))
                    for t in (a - r, a - r / 2, a, a + r / 2, a + r)
                ]
                for p0, p1, p2 in (tent[:3], tent[2:]):
                    slopes = ((4 * p1 - 3 * p0 - p2) / r, (p0 - 4 * p1 + 3 * p2) / r)
                    halves.append((kind, slopes))
        steepest = max(abs(s) for _, slopes in halves for s in slopes)
        assert (r, steepest) == (Fraction(3, 10), Fraction(13, 3))
        monkeypatch.setattr(CrossFunction, "lipschitz_bound", steepest)
        report = check_sections(tower, levels=3)
        assert report.passed, report.witnesses
        monkeypatch.setattr(CrossFunction, "lipschitz_bound", steepest - Fraction(1, 10**6))
        report = check_sections(tower, levels=3)
        assert not report.passed
        found = [(w["level"], w["kind"], w["slopes"]) for w in report.failures]
        assert found == [
            (2, kind, slopes) for kind, slopes in halves if max(map(abs, slopes)) == steepest
        ]
        assert len(found) == 4

    def test_overlapping_tents_fail(self):
        """Level 2's lines each hold the anchor 0, value 1/2, and the center
        1/2, value 1: a gap of 1/2, so a radius of 1/2 overlaps the tents."""
        broken = WovenFunction()
        broken.build_to(2)
        center = broken.pairing.pairs[2]
        assert center == (Fraction(1, 2), Fraction(1, 2))
        anchors = [(Fraction(0), Fraction(1, 2))]
        broken.crosses[2] = build_cross(2, center, (anchors, anchors), Fraction(1, 2))
        report = check_sections(broken, levels=3)
        assert not report.passed
        gaps = [w for w in report.failures if "next" in w]
        assert {(w["level"], w["kind"]) for w in gaps} == {(2, "column"), (2, "row")}
        assert all(w["next"] - w["anchor"] < 2 * w["radius"] for w in gaps)

    def test_points_depend_on_the_arguments_alone(self, monkeypatch):
        """A tower built deeper beforehand gets the same report from the same
        evaluations, in the same order, as a fresh one: five per nonzero
        anchor of each line, at a, a +- r/2 and a +- r."""
        calls = []
        building = []
        value_at, build_level = CrossFunction.value_at, WovenFunction.build_level

        def recording(cross, point):
            value = value_at(cross, point)
            if not building:
                calls.append((cross.level, point, value))
            return value

        def unrecorded(tower, level):
            building.append(level)
            try:
                return build_level(tower, level)
            finally:
                building.pop()

        monkeypatch.setattr(CrossFunction, "value_at", recording)
        monkeypatch.setattr(WovenFunction, "build_level", unrecorded)
        prebuilt = WovenFunction()
        prebuilt.build_to(149)
        sequences = []
        for tower in (WovenFunction(), prebuilt):
            calls.clear()
            report = check_sections(tower, levels=24)
            assert report.passed, report.witnesses
            sequences.append((report.to_dict(), list(calls)))
        assert sequences[0] == sequences[1]
        lines = [prebuilt.cross(n).line(axis)[0] for n in range(24) for axis in (0, 1)]
        anchors = sum(map(len, lines))
        assert len(sequences[0][1]) == 5 * anchors
        assert sequences[0][0]["checked"] == 2 * anchors


class TestNothingExaminedFails:
    """A check that examined nothing must fail, not pass vacuously."""

    @pytest.mark.parametrize(
        "check",
        [
            lambda tower: check_singleton_image(tower, 0),
            lambda tower: check_welldefined(tower, 0, 0),
            lambda tower: check_parameter_range(tower, 0),
            lambda tower: check_image_density(tower, pitch=0),
            lambda tower: nonfeeble_witness(tower, 0),
            lambda tower: check_sections(tower, levels=0),
        ],
        ids=["singleton", "welldef", "range", "density", "witness", "lipschitz"],
    )
    def test_zero_scale_examines_nothing(self, woven, check):
        report = check(woven)
        assert report.checked == 0
        assert not report.passed
        assert not report.failures

    def test_singleton_image_at_no_levels(self, woven):
        for tower in (woven, WovenFunction()):
            report = check_singleton_image(tower, 0)
            assert not report.passed
            assert report.witnesses == []
            assert report.bounds == {"levels": 0}

    @pytest.mark.parametrize("boxes", [0, -1])
    def test_nonfeeble_without_boxes(self, woven, boxes):
        report = nonfeeble_witness(woven, boxes)
        assert not report.passed
        assert report.bounds["boxes"] == boxes
        assert report.checked == 0


class TestHandTowers:
    """The checks that read no canonical schedule pass on towers of other
    pairings, each at the tower's pair count; `density` and `witness` read
    level 0's hat and the canonical boxes, and stay canonical."""

    @pytest.mark.parametrize(
        "check",
        [
            check_singleton_image,
            lambda tower, n: check_welldefined(tower, n, n),
            lambda tower, n: check_sections(tower, n),
            check_parameter_range,
            lambda tower, n: check_oracle_equivalence(tower, n - 1),
        ],
        ids=["singleton", "welldef", "lipschitz", "range", "oracle"],
    )
    @pytest.mark.parametrize(
        "coordinates",
        [wide_gap_coordinates, dyadic_coordinates, coprime_coordinates],
        ids=["wide-gap", "dyadic", "coprime"],
    )
    def test_passes(self, coordinates, check):
        xs, ys = coordinates()
        report = check(tower_on(xs, ys), len(xs))
        assert report.passed, report.text_line()

    # the same 25 towers on every run; a failing seed is reported unshrunk,
    # as a smaller seed is no simpler tower
    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        database=None,
        phases=(Phase.generate,),
    )
    @given(rng=st.randoms(use_true_random=True))
    def test_random_towers_pass(self, rng):
        """Towers of 40 levels whose two axes are drawn independently pass
        the same checks.  On the canonical pairing 26 of the first 64 pairs
        have x = y, where a cross's row and column read alike, so a mix-up
        of its two lines can hide there; on these towers it cannot."""
        tower = tower_on(random_axis(rng), random_axis(rng))
        for check in (
            lambda: check_singleton_image(tower, 40),
            lambda: check_parameter_range(tower, 40),
            lambda: check_welldefined(tower, 40, 40),
            lambda: check_sections(tower, 40),
            lambda: check_oracle_equivalence(tower, 39),
        ):
            report = check()
            assert report.passed, report.text_line()

    def test_the_oracle_catches_a_radius_without_its_cap(self, monkeypatch):
        """On the wide-gap tower only the cap makes the radius 1; an oracle
        without it derives 2, and must disagree with the tower."""

        def capless_radius(scale, lattice):
            separation = min(
                (
                    max(abs(ax - bx), abs(ay - by))
                    for i, (ax, ay) in enumerate(lattice)
                    for bx, by in lattice[i + 1 :]
                ),
                default=2 * scale,
            )
            return separation, 2 * scale

        monkeypatch.setattr(oracle, "_radius", capless_radius)
        report = check_oracle_equivalence(tower_on(*wide_gap_coordinates()), 2)
        assert not report.passed
        assert report.witnesses[0]["level"] == 1


class TestReportsAndDriver:
    def test_serialization_uses_canonical_rationals(self):
        report = Report(
            name="demo",
            bounds={"eps": Fraction(1, 40)},
            checked=1,
            failures=[],
            examples=[{"x": Fraction(-1, 2), "note": "ok"}],
        )
        payload = report.to_dict()
        assert payload["passed"] is True and payload["checked"] == 1
        assert payload["bounds"]["eps"] == "1/40"
        assert payload["witnesses"][0]["x"] == "-1/2"
        assert json.loads(json.dumps(payload)) == payload

    def test_each_report_has_its_own_examples(self):
        first, second = Report("a", {}, 1, []), Report(name="b", bounds={}, checked=1, failures=[])
        first.examples.append({"x": Fraction(1)})
        assert second.examples == [] and second.witnesses == []

    def test_text_line_shape(self):
        line = Report(name="demo", bounds={"n": 3}, checked=0, failures=[]).text_line()
        assert line == "FAIL demo  n=3  checked=0"

    def test_run_suite_rejects_unknown_names(self):
        with pytest.raises(Refusal):
            run_suite("everything")

    @pytest.mark.parametrize("depth", [0, -1])
    def test_run_suite_rejects_depth_below_one(self, depth):
        with pytest.raises(Refusal):
            run_suite("singleton", depth=depth)

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_run_suite_refuses_above_the_maximum_depth(self, suite, monkeypatch):
        """Each suite refuses one more than its maximum depth before it
        builds a level."""

        def build_level(self, level):
            raise AssertionError(f"built level {level}")

        monkeypatch.setattr(WovenFunction, "build_level", build_level)
        maximum = SUITES[suite][1]
        with pytest.raises(Refusal, match=f"{suite} depth must lie in 1..{maximum}"):
            run_suite(suite, depth=maximum + 1)

    def test_run_suite_small_oracle(self):
        reports = run_suite("oracle", depth=3)
        assert len(reports) == 1 and reports[0].passed

    def test_run_suite_density_defaults(self):
        reports = run_suite("density")
        assert reports[0].passed
        assert reports[0].bounds == {"pitch": 20}

    def test_density_suite_fails_a_steeper_hat(self, monkeypatch):
        """A level-0 hat of slope 1001/1000 misses every target but 0 and 1."""
        use_steeper_hat(monkeypatch)
        [report] = run_suite("density")
        assert not report.passed
        first = report.witnesses[0]
        assert (first["target"], first["value"]) == (Fraction(1, 20), Fraction(981, 20000))
        assert report.checked == 21 and len(report.failures) == 19

    def test_lipschitz_suite_fails_a_steeper_hat(self, monkeypatch):
        """The same hat reaches 0 before distance 1, so each half of its
        level-0 tent, read at 0, 1/2 and 1, has an end slope of 501/500."""
        use_steeper_hat(monkeypatch)
        [report] = run_suite("lipschitz")
        assert not report.passed
        slopes = {(w["level"], w["kind"], tuple(w["slopes"])) for w in report.failures}
        assert slopes == {
            (0, kind, half)
            for kind in ("column", "row")
            for half in (
                (Fraction(499, 500), Fraction(501, 500)),
                (Fraction(-501, 500), Fraction(-499, 500)),
            )
        }

    def test_witness_suite_fails_a_steeper_hat(self, monkeypatch):
        """The same hat maps the midpoint's point to 999/2000, inside (1/4, 3/4)
        but not the midpoint 1/2; the boxes still pass."""
        use_steeper_hat(monkeypatch)
        [report] = run_suite("witness")
        assert not report.passed
        [member] = report.failures
        assert (member["kind"], member["value"]) == ("member", Fraction(999, 2000))

    def test_oracle_suite_fails_halved_outer_halves(self, monkeypatch):
        """Halving each tent's outer half from level 40 on keeps every value
        at a, a +- r/2 and a +- r, so `check_sections` misses it; the
        oracle's points at a +- 3r/4 do not."""
        halve_the_outer_halves(monkeypatch)
        [report] = run_suite("oracle")
        assert not report.passed
        assert report.witnesses[0] == {
            "level": 40,
            "x": Fraction(-7, 3),
            "y": Fraction(-2249, 960),
            "tower": Fraction(317, 2560),
            "oracle": Fraction(317, 1280),
        }
