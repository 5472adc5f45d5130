"""Verification harness: oracle, checks, reports, suite driver."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from crossweave.cross_extension import CrossFunction, build_cross
from crossweave.verify import (
    DEFAULT_SEED,
    MAX_ORACLE_LEVEL,
    Refusal,
    Report,
    brute_force_radius,
    check_image_density,
    check_oracle_equivalence,
    check_parameter_range,
    check_sections,
    check_singleton_image,
    check_welldefined,
    cross_anchors,
    image_density_search,
    nonfeeble_witness,
    oracle_eval,
    random_rational,
    run_suite,
)
from crossweave.weave import WovenFunction


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
        rng = random.Random(7)
        for _ in range(25):
            level = rng.randint(0, 7)
            x = woven.pairing.pairs[level][0]
            y = random_rational(rng)
            assert woven.value(x, y) == oracle_eval(woven.pairing, x, y, 8)

    def test_refuses_deep_levels(self, woven):
        x = woven.pairing.pairs[5][0]
        with pytest.raises(Refusal):
            oracle_eval(woven.pairing, x, Fraction(0), max_level=3)

    def test_cap_cannot_be_raised(self, woven):
        with pytest.raises(Refusal):
            oracle_eval(woven.pairing, Fraction(0), Fraction(0), MAX_ORACLE_LEVEL + 1)

    def test_equivalence_check_passes(self, woven):
        report = check_oracle_equivalence(woven, max_level=4, samples=40)
        assert report.passed
        assert report.bounds["samples"] == 40

    def test_equivalence_check_rejects_deep_cap(self, woven):
        with pytest.raises(Refusal):
            check_oracle_equivalence(woven, max_level=MAX_ORACLE_LEVEL + 1, samples=1)

    def test_rederives_parameter_tables_above_the_old_cap(self, woven):
        """The oracle re-derives both parameter tables of levels 13..20 exactly."""
        pairing = woven.pairing
        memo = {}
        for n in range(13, 21):
            x_n, y_n = pairing.pairs[n]
            for i in range(n):
                x_i, y_i = pairing.pairs[i]
                column = oracle_eval(pairing, x_n, y_i, MAX_ORACLE_LEVEL, memo)
                row = oracle_eval(pairing, x_i, y_n, MAX_ORACLE_LEVEL, memo)
                assert column == woven.column_params[n][i], (n, i)
                assert row == woven.row_params[n][i], (n, i)


class TestBasicChecks:
    def test_singleton_image_passes(self, woven):
        report = check_singleton_image(woven, 40)
        assert report.passed
        assert report.witnesses[0]["value"] == Fraction(1)

    def test_welldefined_passes(self, woven):
        report = check_welldefined(woven, 20, 20)
        assert report.passed and not report.witnesses

    def test_parameter_range_passes(self, woven):
        assert check_parameter_range(woven, 40).passed

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
            list(zip(ys, column)),
            list(zip(xs, broken.row_params[3])),
            brute_force_radius(cross_anchors(xs, ys)),
        )
        report = check_welldefined(broken, 5, 5)
        assert not report.passed
        witness = report.witnesses[0]
        assert witness["by_column"] != witness["by_row"]


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
        report = check_image_density(woven, pitch=10, eps=Fraction(1, 20))
        assert report.passed
        assert report.witnesses  # exemplar targets recorded

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
        report = nonfeeble_witness(woven, 3, Fraction(1, 5), Fraction(1, 3))
        member = next(w for w in report.witnesses if w["kind"] == "member")
        assert member["value"] == Fraction(4, 15)

    def test_rejects_bad_intervals(self, woven):
        with pytest.raises(ValueError):
            nonfeeble_witness(woven, 3, Fraction(3, 4), Fraction(1, 4))
        with pytest.raises(ValueError):
            nonfeeble_witness(woven, 3, Fraction(1, 2), Fraction(5, 4))


class TestSectionContinuity:
    def test_worked_column_pair(self, woven):
        # level 1, column x = 1: values 0 at y=1/2 and 3/8 at y=3/4,
        # within the recorded bound 3 * (1/4)
        gap = abs(woven.value(Fraction(1), Fraction(1, 2)) - woven.value(Fraction(1), Fraction(3, 4)))
        assert gap == Fraction(3, 8)
        assert gap <= woven.cross(1).lipschitz_bound * Fraction(1, 4)

    def test_column_sections(self, woven):
        report = check_sections(woven, levels=6, samples_per_kind=60)
        assert report.passed, report.witnesses
        assert report.bounds["levels"] == 6
        # the column is the definition's route: on the columns of levels
        # 0, 1 and 5 the public evaluator is the level's cross
        rng = random.Random(DEFAULT_SEED)
        for level in (0, 1, 5):
            x = woven.pairing.pairs[level][0]
            for _ in range(20):
                y = random_rational(rng)
                assert woven.value(x, y) == woven.cross(level).value_at((x, y))

    def test_row_sections(self, woven):
        report = check_sections(woven, levels=8, samples_per_kind=60)
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
        report = check_sections(woven, levels=6, samples_per_kind=40)
        assert report.passed
        assert report.bounds["largest_lipschitz"] >= 3

    def test_a_lowered_bound_fails_on_both_lines(self):
        broken = WovenFunction()
        broken.build_to(0)
        # the level-0 hat has slope 1 on both of its lines
        broken.crosses[0].lipschitz_bound = Fraction(0)
        report = check_sections(broken, levels=1, samples_per_kind=10)
        assert not report.passed
        found = {(w["level"], w["kind"]) for w in report.witnesses}
        assert found == {(0, "column"), (0, "row")}

    def test_a_broken_row_spot_check_fails(self):
        broken = WovenFunction()
        broken.build_to(2)
        # shifting level 2 by a constant keeps its slopes, but its row no
        # longer matches the columns of levels 0 and 1 where it meets them
        value_at = broken.crosses[2].value_at
        broken.crosses[2].value_at = lambda point: value_at(point) + Fraction(1, 8)
        report = check_sections(broken, levels=3, samples_per_kind=10)
        assert not report.passed
        witness = report.witnesses[0]
        assert (witness["level"], witness["kind"]) == (2, "row")
        assert witness["spot_level"] in (0, 1)
        assert witness["cross"] - witness["public"] == Fraction(1, 8)

    def test_points_depend_on_the_arguments_alone(self, monkeypatch):
        """A tower built deeper beforehand gets the same report from the same
        evaluations, in the same order, as a fresh one."""
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
            report = check_sections(tower, levels=24, samples_per_kind=40)
            assert report.passed, report.witnesses
            sequences.append((report.to_dict(), list(calls)))
        assert sequences[0] == sequences[1]
        assert len(sequences[0][1]) > 24 * 2 * 2 * 40


class TestNothingExaminedFails:
    """A check that examined nothing must fail, not pass vacuously."""

    def test_singleton_image_at_no_levels(self, woven):
        for tower in (woven, WovenFunction()):
            report = check_singleton_image(tower, 0)
            assert not report.passed
            assert report.witnesses == []
            assert report.bounds == {"levels": 0}

    def test_welldefined_on_an_empty_grid(self, woven):
        assert not check_welldefined(woven, 0, 0).passed

    def test_sections_at_no_levels(self, woven):
        assert not check_sections(woven, levels=0).passed

    def test_sections_without_samples(self, woven):
        assert not check_sections(woven, levels=2, samples_per_kind=0).passed

    def test_oracle_without_samples(self, woven):
        assert not check_oracle_equivalence(woven, 3, samples=0).passed

    @pytest.mark.parametrize("boxes", [0, -1])
    def test_nonfeeble_without_boxes(self, woven, boxes):
        report = nonfeeble_witness(woven, boxes)
        assert not report.passed
        assert report.bounds["boxes"] == boxes

    def test_image_density_at_pitch_zero(self, woven):
        report = check_image_density(woven, pitch=0)
        assert not report.passed
        assert set(report.bounds) == {"pitch", "eps"}


class TestReportsAndDriver:
    def test_serialization_uses_canonical_rationals(self):
        report = Report(
            name="demo",
            passed=True,
            bounds={"eps": Fraction(1, 40)},
            witnesses=[{"x": Fraction(-1, 2), "note": "ok"}],
        )
        payload = report.to_dict()
        assert payload["bounds"]["eps"] == "1/40"
        assert payload["witnesses"][0]["x"] == "-1/2"
        assert json.loads(json.dumps(payload)) == payload

    def test_text_line_shape(self):
        line = Report(name="demo", passed=False, bounds={"n": 3}).text_line()
        assert line.startswith("FAIL demo")

    def test_random_rational_is_seeded_and_bounded(self):
        values_a = [random_rational(random.Random(11)) for _ in range(1)]
        values_b = [random_rational(random.Random(11)) for _ in range(1)]
        assert values_a == values_b
        for _ in range(200):
            value = random_rational(random.Random())
            assert abs(value) <= 8

    def test_run_suite_rejects_unknown_names(self):
        with pytest.raises(Refusal):
            run_suite("everything")

    @pytest.mark.parametrize("depth", [0, -1])
    def test_run_suite_rejects_depth_below_one(self, depth):
        with pytest.raises(Refusal):
            run_suite("singleton", depth=depth)

    def test_run_suite_small_oracle(self):
        reports = run_suite("oracle", depth=3)
        assert len(reports) == 1 and reports[0].passed

    def test_run_suite_density_defaults(self):
        reports = run_suite("density")
        assert reports[0].passed
        assert reports[0].bounds["pitch"] == 20
