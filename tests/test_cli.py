"""Command-line interface: formats, exit codes, determinism, refusals."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossweave.cli as cli
import crossweave.verify as verify
from crossweave import pairing as pairing_module
from crossweave.cross_extension import CrossFunction
from crossweave.pairing import Pairing, Refusal
from crossweave.rationals import format_rational
from crossweave.verify import MAX_ORACLE_LEVEL, SUITE_NAMES, Report
from crossweave.weave import WovenFunction


def fault(*args, **kwargs):
    raise RuntimeError("level 1 not built")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_center_point(self, capsys):
        code, out, _ = run(capsys, "eval", "--x", "0", "--y", "0")
        assert code == 0
        assert out == "1/1\n"

    def test_worked_values(self, capsys):
        code, out, _ = run(capsys, "eval", "--x", "1", "--y", "3/4")
        assert (code, out) == (0, "3/8\n")
        code, out, _ = run(capsys, "eval", "--x", "1", "--y", "1/2")
        assert (code, out) == (0, "0/1\n")

    def test_decimal_is_labeled(self, capsys):
        code, out, _ = run(capsys, "eval", "--x", "1", "--y", "3/4", "--decimal")
        assert code == 0
        assert out == "3/8\ndecimal: 0.375\n"

    def test_unparseable_rational_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", "--x", "0.5", "--y", "0"])
        assert excinfo.value.code == 2

    def test_deep_coordinate_is_refused(self, capsys):
        """The last two have enumeration indices of ten billion and more bits;
        the cap refuses them without computing those indices."""
        for x in ("63/64", "10000000000", "99999999999999999999/3"):
            code, out, err = run(capsys, "eval", f"--x={x}", "--y=0")
            assert code == 2
            assert out == ""
            assert err.startswith("refused: ") and err.count("\n") == 1

    def test_fault_in_the_build_is_not_a_refusal(self, capsys, monkeypatch):
        monkeypatch.setattr(WovenFunction, "build_to", fault)
        with pytest.raises(RuntimeError):
            cli.main(["eval", "--x", "1", "--y", "0"])
        assert "refused" not in capsys.readouterr().err


class TestGrid:
    def test_corners_only(self, capsys):
        code, out, _ = run(capsys, "grid", "--denominator", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,value_exact,value_decimal"
        assert len(lines) == 1 + 4
        assert lines[1] == "0/1,0/1,1/1,1"

    def test_half_grid_contains_worked_value(self, capsys):
        code, out, _ = run(capsys, "grid", "--denominator", "2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 9
        assert "1/2,0/1,1/2,0.5" in lines

    def test_row_order_is_x_major(self, capsys):
        _, out, _ = run(capsys, "grid", "--denominator", "1")
        xs = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert xs == ["0/1", "0/1", "1/1", "1/1"]

    def test_writes_lf_file_deterministically(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        args = ["grid", "--denominator", "2", "--x-min", "-1", "--y-min", "-1"]
        assert cli.main([*args, "--out", str(first)]) == 0
        assert cli.main([*args, "--out", str(second)]) == 0
        data = first.read_bytes()
        assert data == second.read_bytes()
        assert b"\r" not in data
        assert data.startswith(b"x,y,value_exact,value_decimal\n")

    def test_oversized_grid_is_refused(self, capsys):
        code, _, err = run(capsys, "grid", "--denominator", "2", "--max-cells", "3")
        assert code == 2
        assert "refused" in err

    def test_huge_grid_is_refused_before_its_lists(self, monkeypatch):
        """A grid of about 10^12 cells is refused from its bounds alone: no
        grid coordinate is ever made."""
        args = cli.build_parser().parse_args(
            ["grid", "--denominator", "1", "--x-max", "999999", "--y-max", "999999"]
        )
        monkeypatch.setattr(cli, "Fraction", fault)
        with pytest.raises(Refusal, match="1000000000000 cells"):
            cli._grid_rows(args)

    @pytest.mark.parametrize(
        "target", ["missing/grid.csv", "."], ids=["missing-directory", "directory"]
    )
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, target):
        """A missing directory and a directory as --out end with exit 2 and
        one line, before any output."""
        out = tmp_path / target
        code, stdout, err = run(capsys, "grid", "--denominator", "1", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert str(out) in err

    @pytest.mark.parametrize(
        "bounds",
        [["--x-min=1/3", "--x-max=1/3"], ["--y-min=1", "--y-max=0"]],
        ids=["no-lattice-point", "inverted"],
    )
    def test_empty_grid_is_refused(self, capsys, bounds):
        """A range that holds no multiple of 1/d, an inverted one included,
        ends with exit 2 and one line, before any output."""
        code, out, err = run(capsys, "grid", "--denominator", "2", *bounds)
        assert code == 2
        assert out == ""
        assert err.startswith("refused: empty grid") and err.count("\n") == 1

    def test_bad_denominator_is_refused(self, capsys):
        code, _, err = run(capsys, "grid", "--denominator", "0")
        assert code == 2

    def test_deep_grid_point_is_refused_before_output(self, capsys):
        code, out, err = run(
            capsys, "grid", "--denominator", "64", "--max-cells", "100000"
        )
        assert code == 2
        assert out == ""  # refusal precedes any CSV
        assert "refused" in err

    @pytest.mark.parametrize(
        "owner, name", [(WovenFunction, "build_to"), (Pairing, "x_level")]
    )
    def test_fault_is_not_a_refusal(self, capsys, monkeypatch, owner, name):
        monkeypatch.setattr(owner, name, fault)
        with pytest.raises(RuntimeError):
            cli.main(["grid", "--denominator", "1"])
        assert "refused" not in capsys.readouterr().err


class TestPairs:
    def test_text_lines(self, capsys):
        code, out, _ = run(capsys, "pairs", "--count", "9")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0 0/1 0/1"
        assert lines[2] == "2 1/2 1/2"
        assert lines[5] == "5 1/3 -1/3"
        assert len(lines) == 9

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "pairs", "--count", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == [
            {"n": 0, "x": "0/1", "y": "0/1"},
            {"n": 1, "x": "1/1", "y": "1/1"},
            {"n": 2, "x": "1/2", "y": "1/2"},
        ]

    @pytest.mark.parametrize("count", [0, 1, 2, 300])
    def test_json_layout_is_the_indented_encoder(self, capsys, count):
        code, out, _ = run(capsys, "pairs", "--count", str(count), "--json")
        assert code == 0
        pairing = Pairing()
        pairing.extend(count)
        payload = [
            {"n": n, "x": format_rational(x), "y": format_rational(y)}
            for n, (x, y) in enumerate(pairing.pairs)
        ]
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_negative_count_is_refused(self, capsys):
        code, _, err = run(capsys, "pairs", "--count", "-1")
        assert code == 2

    def test_the_json_is_written_as_it_is_formatted(self, monkeypatch):
        """10 000 pairs from a fresh box stream, into a sink that keeps no
        text, peak below 3 MiB of traced memory (about 0.4 s).  Joined whole
        before it was written, the text peaked at 4.6 MiB; written piece by
        piece, at 2.3 MiB, and at 1.7 MiB with one object per rational."""

        class Count(io.TextIOBase):
            chars = 0

            def write(self, text):
                self.chars += len(text)
                return len(text)

        monkeypatch.setattr(pairing_module, "_box_cache", [])
        monkeypatch.setattr(pairing_module, "_box_source", pairing_module._open_boxes())
        sink = Count()
        tracemalloc.start()
        try:
            with redirect_stdout(sink):
                code = cli.main(["pairs", "--count", "10000", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.chars == 608_000  # the whole text went through
        assert peak < 3 * 2**20


class TestVerify:
    def test_single_suite_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "singleton", "--depth", "48")
        assert code == 0
        assert "PASS singleton_image" in out
        assert "1/1 checks passed" in out

    def test_small_oracle_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "oracle", "--depth", "3")
        assert code == 0
        assert "PASS oracle_equivalence" in out

    def test_range_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "range", "--depth", "64")
        assert code == 0
        assert "PASS parameter_range  levels=64" in out
        assert "1/1 checks passed" in out

    def test_range_suite_at_depth_one_reads_the_two_centers(self, capsys):
        """Level 0 has no parameters, but each of its lines stores its center."""
        code, out, _ = run(capsys, "verify", "--suite", "range", "--depth", "1")
        assert code == 0
        assert "PASS parameter_range  levels=1  checked=2" in out

    def test_a_doubled_tent_fails_every_suite_with_witnesses(self, capsys, monkeypatch):
        """Every cross returns twice its value, and the build stores the
        values it is given: each of the seven checks ends in a FAIL line
        with witnesses, not in an exception."""
        value_at = CrossFunction.value_at
        monkeypatch.setattr(
            CrossFunction, "value_at", lambda cross, point: 2 * value_at(cross, point)
        )
        code, out, err = run(capsys, "verify", "--suite", "all")
        assert (code, err) == (1, "")
        *reports, summary = out.splitlines()
        assert summary == "0/7 checks passed"
        assert len(reports) == 7
        assert all(line.startswith("FAIL ") and "  [" in line for line in reports)
        assert "[level=2 line=row anchor=0/1 value=1/1]" in reports[1]

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "density", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list) and payload[0]["passed"] is True
        assert payload[0]["name"] == "image_density"
        assert payload[0]["checked"] == 21

    @pytest.mark.parametrize(
        "suite, depth", [("density", "-3"), ("singleton", "-1"), ("witness", "0")]
    )
    def test_depth_below_one_is_refused(self, capsys, suite, depth):
        code, out, err = run(capsys, "verify", "--suite", suite, "--depth", depth)
        assert code == 2
        assert out == ""
        assert err.startswith("refused: ") and err.count("\n") == 1

    def test_depth_with_all_suites_is_refused(self, capsys):
        """All suites run at their canonical depths, so a depth cannot apply."""
        code, out, err = run(capsys, "verify", "--suite", "all", "--depth", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("refused: ") and err.count("\n") == 1
        assert "single suite" in err

    def test_depth_above_the_oracle_cap_is_refused(self, capsys):
        depth = str(MAX_ORACLE_LEVEL + 1)
        code, out, err = run(capsys, "verify", "--suite", "oracle", "--depth", depth)
        assert code == 2
        assert out == ""
        assert err.startswith("refused: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_an_unbounded_depth_is_refused(self, capsys):
        """A depth far above the suite's maximum ends at once, in one line."""
        code, out, err = run(capsys, "verify", "--suite", "witness", "--depth", "100000000")
        assert code == 2
        assert out == ""
        assert err == "refused: witness depth must lie in 1..4096, got 100000000\n"

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--suite", "everything"])
        assert excinfo.value.code == 2

    def test_failing_report_yields_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "run_suite", lambda *a, **k: [Report("demo", {}, 0, [])]
        )
        code, out, _ = run(capsys, "verify", "--suite", "density")
        assert code == 1
        assert "FAIL demo" in out

    def test_fault_inside_a_check_is_not_a_refusal(self, capsys, monkeypatch):
        def fault(*args, **kwargs):
            raise ValueError("point lies off the level-3 cross")

        monkeypatch.setattr(verify, "check_sections", fault)
        with pytest.raises(ValueError) as excinfo:
            cli.main(["verify", "--suite", "lipschitz", "--depth", "2"])
        assert type(excinfo.value) is ValueError
        assert "refused" not in capsys.readouterr().err


class TestOutputs:
    """The output contract: the CI's pinned outputs, and writes that fail."""

    def test_outputs_match_their_digests(self, capsys, tmp_path):
        """The CI's argv for every output that tests/outputs.sha256 pins,
        run in process.  grid12.csv reads levels 0..8200, and verify-all.json
        runs every suite at its canonical depth (about 1 s)."""
        lines = Path(__file__).with_name("outputs.sha256").read_text().splitlines()
        pinned = {name: digest for digest, name in (line.split() for line in lines)}
        outputs = {}
        negative = ["--x-min=-1", "--x-max=0", "--y-min=-1", "--y-max=0"]
        for name, args in (
            ("grid8.csv", ["--denominator", "8"]),
            ("grid8-negative.csv", ["--denominator", "8", *negative]),
            ("grid12.csv", ["--denominator", "12", "--max-level", "8200"]),
        ):
            out = tmp_path / name
            assert cli.main(["grid", *args, "--out", str(out)]) == 0
            outputs[name] = out.read_bytes()
        assert cli.main(["pairs", "--count", "40000", "--json"]) == 0
        outputs["pairs40000.json"] = capsys.readouterr().out.encode("ascii")
        assert cli.main(["pairs", "--count", "40000"]) == 0
        outputs["pairs40000.txt"] = capsys.readouterr().out.encode("ascii")
        tent = [("18/13", y) for y in ("1093/1092", "1637/1638", "547/546")]
        tent += [("-16/23", y) for y in ("-9991/14280", "-14999/21420", "-4993/7140")]
        for x, y in tent:
            assert cli.main(["eval", "--decimal", f"--x={x}", f"--y={y}"]) == 0
        outputs["eval-tent.txt"] = capsys.readouterr().out.encode("ascii")
        assert cli.main(["verify", "--suite", "all", "--format", "json"]) == 0
        outputs["verify-all.json"] = capsys.readouterr().out.encode("ascii")
        assert set(pinned) == set(outputs)
        for name, data in outputs.items():
            assert hashlib.sha256(data).hexdigest() == pinned[name], name

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    def test_a_full_device_is_refused(self, capsys):
        code, out, err = run(capsys, "grid", "--denominator", "8", "--out", "/dev/full")
        assert code == 2
        assert out == ""
        assert err == "refused: cannot write /dev/full: No space left on device\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["pairs", "--count", "3"],
            ["grid", "--denominator", "2"],
            ["eval", "--x", "1", "--y", "3/4"],
            ["verify", "--suite", "density"],
        ],
        ids=["pairs", "grid", "eval", "verify"],
    )
    def test_a_broken_pipe_is_refused(self, capsys, monkeypatch, tmp_path, argv):
        """For every command, a stdout whose reader has gone ends in exit 2
        and one line, and is then pointed at os.devnull, so the flush at exit
        has nothing to fail."""

        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return descriptor

        descriptor = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", BrokenPipe())
            assert cli.main(argv) == 2
            assert os.path.samestat(os.fstat(descriptor), os.stat(os.devnull))
        finally:
            os.close(descriptor)
        assert capsys.readouterr().err == "refused: cannot write stdout: Broken pipe\n"

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_a_pipe_that_breaks_midway_is_refused(self, capsys, monkeypatch, tmp_path, flags):
        """A stdout that takes 100 writes and then breaks ends in exit 2 and
        one line.  Both layouts are written piece by piece, so what it took is
        a proper prefix of the whole text."""

        class BreaksLater(io.StringIO):
            writes = 0

            def write(self, text):
                if self.writes == 100:
                    raise BrokenPipeError(32, "Broken pipe")
                self.writes += 1
                return super().write(text)

            def fileno(self):
                return descriptor

        descriptor = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", BreaksLater())
            assert cli.main(["pairs", "--count", "300", *flags]) == 2
            written = sys.stdout.getvalue()
        finally:
            os.close(descriptor)
        assert capsys.readouterr().err == "refused: cannot write stdout: Broken pipe\n"
        pairing = Pairing()
        pairing.extend(300)
        rows = [
            (n, format_rational(x), format_rational(y)) for n, (x, y) in enumerate(pairing.pairs)
        ]
        if flags:
            payload = [{"n": n, "x": x, "y": y} for n, x, y in rows]
            whole = json.dumps(payload, indent=2) + "\n"
        else:
            whole = "".join(f"{n} {x} {y}\n" for n, x, y in rows)
        assert written and whole.startswith(written) and len(written) < len(whole)

    @pytest.mark.parametrize(
        "flags, first_line",
        [([], b"0 0/1 0/1\n"), (["--json"], b"[\n")],
        ids=["text", "json"],
    )
    def test_a_closed_pipe_ends_in_one_line(self, flags, first_line):
        """In a real process: a reader that leaves after one line gets exit 2
        and one line on stderr, with no second message at exit."""
        source = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(source)}
        command = [sys.executable, "-m", "crossweave.cli", "pairs", "--count", "20000", *flags]
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as child:
            assert child.stdout.readline() == first_line
            child.stdout.close()
            err = child.stderr.read().decode()
        assert child.returncode == 2
        assert err == "refused: cannot write stdout: Broken pipe\n"


def test_the_cold_import_loads_no_dataclasses_or_inspect():
    """A fresh interpreter that imports the CLI loads neither `dataclasses`
    nor `inspect`, which `dataclasses` pulls in with `ast` and `dis`: every
    process that runs a command pays for what the import loads."""
    source = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {source!r})\n"
        "import crossweave.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, check=True
    )
    loaded = set(done.stdout.split())
    assert {"crossweave.cli", "crossweave.verify", "crossweave.pairing"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}


def optional(flag, values):
    """Either nothing or `flag` followed by one drawn value."""
    return st.one_of(st.just([]), values.map(lambda value: [flag, value]))


def required(flag, values):
    return values.map(lambda value: [flag, value])


def command(name, *parts):
    return st.tuples(*parts).map(lambda drawn: [name, *chain.from_iterable(drawn)])


def numbers(low, high):
    return st.integers(min_value=low, max_value=high).map(str)


rational_text = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=16).map(str),
    st.text(alphabet="0123456789-+/. x", max_size=6),
)
argv = st.one_of(
    command(
        "eval",
        required("--x", rational_text),
        required("--y", rational_text),
        required("--max-level", numbers(-2, 64)),
        st.sampled_from([[], ["--decimal"]]),
    ),
    command(
        "grid",
        optional("--denominator", numbers(-1, 8)),
        *(
            optional(flag, rational_text)
            for flag in ("--x-min", "--x-max", "--y-min", "--y-max")
        ),
        required("--max-cells", numbers(-1, 256)),
        required("--max-level", numbers(-2, 64)),
    ),
    command(
        "pairs",
        optional("--count", numbers(-3, 64)),
        st.sampled_from([[], ["--json"]]),
    ),
    command(
        "verify",
        required("--suite", st.sampled_from(SUITE_NAMES)),
        required("--depth", numbers(-2, 8)),
        optional("--format", st.sampled_from(["text", "json", "yaml"])),
    ),
)


@given(argv)
@settings(max_examples=60, deadline=None)
def test_any_argv_exits_cleanly(argv):
    """Every argument list ends in exit 0, 1 or 2, never in a traceback, and
    exit 2 always says why on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit:
            code = exit.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue()
