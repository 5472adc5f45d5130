"""Acceptance gate: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
without -s they still appear for any failing criterion.  Scales follow the
canonical depths baked into the verification suites.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import crossweave.cli as cli
from crossweave import (
    Pairing,
    Refusal,
    WovenFunction,
    check_image_density,
    check_oracle_equivalence,
    check_parameter_range,
    check_sections,
    check_singleton_image,
    check_welldefined,
    enumerate_box,
    enumerate_rational,
    nonfeeble_witness,
)


@pytest.fixture(scope="module")
def woven512():
    woven = WovenFunction()
    woven.build_to(511)
    return woven


def announce(number: int, description: str, passed: bool) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {number}: {verdict} - {description}")


def test_criterion_1_value_one_on_every_pair(woven512):
    report = check_singleton_image(woven512, levels=512)
    announce(1, "f equals exactly 1/1 at each of the first 512 pairs", report.passed)
    assert report.passed, report.text_line()
    assert report.checked == 512


def test_criterion_2_column_and_row_routes_agree(woven512):
    report = check_welldefined(woven512, columns=128, rows=128)
    announce(2, "column and row evaluation agree on a 128 by 128 crossing grid", report.passed)
    assert report.passed, report.text_line()
    assert report.checked == 16_384


def test_criterion_3_parameters_stay_in_the_unit_interval(woven512):
    report = check_parameter_range(woven512, levels=512)
    announce(3, "every stored value lies in range, at each of 512 levels", report.passed)
    assert report.passed, report.text_line()
    assert report.checked == 3_347


def test_criterion_4_first_column_hits_a_twentieth_pitch_ladder(woven512):
    report = check_image_density(woven512, pitch=20)
    announce(4, "the first column section attains each k/20 exactly", report.passed)
    assert report.passed, report.text_line()
    assert report.checked == 21


def test_criterion_5_no_open_box_inside_the_middle_preimage(woven512):
    worked = woven512.value(Fraction(1), Fraction(3, 4))
    member_ok = worked == Fraction(3, 8) and Fraction(1, 4) < worked < Fraction(3, 4)
    report = nonfeeble_witness(woven512, boxes=50)
    passed = member_ok and report.passed
    announce(5, "preimage of (1/4, 3/4) is nonempty yet misses all 50 first boxes", passed)
    assert member_ok, f"membership value came out as {worked}"
    assert report.passed, report.text_line()
    assert report.checked == 50


def test_criterion_6_memoized_tower_matches_naive_recursion(woven512):
    report = check_oracle_equivalence(woven512, max_level=128)
    announce(
        6,
        "memoized evaluation equals the independent oracle on 7 700 tent points and 129 levels",
        report.passed,
    )
    assert report.passed, report.text_line()
    # 7 700 tent points, then levels 0..128 of the oracle, 2n + 1 values and a radius each
    assert report.checked == 7_700 + sum(2 * n + 2 for n in range(129)) == 24_470


def test_criterion_7_sections_obey_their_lipschitz_bounds(woven512):
    report = check_sections(woven512, levels=512)
    announce(7, "both lines of 512 levels respect the bound, tent by tent", report.passed)
    assert report.passed, report.text_line()
    assert report.checked == 6694


def test_criterion_8_pairing_saturates_the_plane():
    pairing = Pairing()
    pairing.extend(10_000)
    xs = [x for x, _ in pairing.pairs]
    ys = [y for _, y in pairing.pairs]
    distinct = len(set(xs)) == len(xs) and len(set(ys)) == len(ys)

    # a lookup capped at level 3002 refuses any index not used by then
    try:
        for i in range(1000):
            pairing.x_level(enumerate_rational(i), max_level=3002)
            pairing.y_level(enumerate_rational(i), max_level=3002)
        covered = True
    except Refusal:
        covered = False

    # the density task processes box k at step 3k + 2
    boxed = all(
        enumerate_box(k).strictly_inside(*pairing.pairs[3 * k + 2]) for k in range(200)
    )

    passed = distinct and covered and boxed
    announce(8, "10000 pairs: distinct coordinates, fast coverage, dense boxes", passed)
    assert distinct, "a coordinate repeated"
    assert covered, "some enumeration index below 1000 not used by level 3002"
    assert boxed, "one of the first 200 boxes lacks an interior pair"


def test_criterion_9_rebuilds_and_exports_are_reproducible(tmp_path):
    first = WovenFunction()
    first.build_to(255)
    second = WovenFunction()
    second.build_to(255)
    tables_equal = (
        first.column_params == second.column_params
        and first.row_params == second.row_params
        and first.pairing.pairs == second.pairing.pairs
    )

    args = [
        "grid",
        "--denominator", "4",
        "--x-min", "-1", "--x-max", "1",
        "--y-min", "-1", "--y-max", "1",
    ]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    code_a = cli.main([*args, "--out", str(path_a)])
    code_b = cli.main([*args, "--out", str(path_b)])
    csv_equal = code_a == code_b == 0 and path_a.read_bytes() == path_b.read_bytes()

    passed = tables_equal and csv_equal
    announce(9, "depth 256 rebuild and repeated CSV export are bit identical", passed)
    assert tables_equal, "two builds diverged"
    assert csv_equal, "CSV export is not reproducible"
