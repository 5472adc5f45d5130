"""Command-line frontend: evaluate, export grids, list pairs, run verification.

Exact values are always printed in the canonical "p/q" form; decimal output
is advisory (20 significant digits, round to nearest) and clearly labeled.
Exit codes: 0 all good, 1 a verification check failed, 2 usage error or
refusal (unparseable rational, unwritable output, oversized grid, level cap
exceeded).

Levels grow with the enumeration index of the x-coordinate, and that index
is exponential in the continued-fraction runs of the value, so evaluating at
an innocent-looking rational like 63/64 would require an astronomically deep
construction.  The `--max-level` cap turns such requests into refusals.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import IO, Iterator

from .pairing import Pairing, Refusal
from .rationals import Rational, decimal_approx, format_rational, parse_rational
from .verify import SUITE_NAMES, run_suite
from .weave import WovenFunction

DEFAULT_MAX_LEVEL = 512
DEFAULT_MAX_CELLS = 10_000


def _rational(text: str) -> Rational:
    try:
        return parse_rational(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossweave",
        description=(
            "Exact evaluation and verification of a separately continuous "
            "function on the rational plane whose diagonal set is dense while "
            "its image there is the single value 1."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd_eval = commands.add_parser(
        "eval", help="evaluate the function at one rational point"
    )
    cmd_eval.add_argument("--x", type=_rational, required=True, help="x as p/q or integer")
    cmd_eval.add_argument("--y", type=_rational, required=True, help="y as p/q or integer")
    cmd_eval.add_argument(
        "--decimal", action="store_true", help="also print a labeled decimal approximation"
    )
    cmd_eval.add_argument(
        "--max-level",
        type=int,
        default=DEFAULT_MAX_LEVEL,
        help=f"refuse evaluations needing a deeper construction (default {DEFAULT_MAX_LEVEL})",
    )

    cmd_grid = commands.add_parser(
        "grid", help="export a CSV of exact values over a rational grid"
    )
    cmd_grid.add_argument(
        "--denominator", type=int, default=4, help="grid pitch denominator d (default 4)"
    )
    cmd_grid.add_argument("--x-min", type=_rational, default=Fraction(0))
    cmd_grid.add_argument("--x-max", type=_rational, default=Fraction(1))
    cmd_grid.add_argument("--y-min", type=_rational, default=Fraction(0))
    cmd_grid.add_argument("--y-max", type=_rational, default=Fraction(1))
    cmd_grid.add_argument("--out", help="write CSV here instead of stdout")
    cmd_grid.add_argument(
        "--max-cells",
        type=int,
        default=DEFAULT_MAX_CELLS,
        help=f"refuse larger grids (default {DEFAULT_MAX_CELLS})",
    )
    cmd_grid.add_argument("--max-level", type=int, default=DEFAULT_MAX_LEVEL)

    cmd_pairs = commands.add_parser(
        "pairs", help="list the first pairs of the constructed sequence"
    )
    cmd_pairs.add_argument("--count", type=int, default=32, help="how many pairs")
    cmd_pairs.add_argument(
        "--json", action="store_true", help="emit a JSON array instead of text lines"
    )

    cmd_verify = commands.add_parser("verify", help="run verification suites")
    cmd_verify.add_argument(
        "--suite", choices=SUITE_NAMES, default="all", help="which suite to run"
    )
    cmd_verify.add_argument(
        "--depth",
        type=int,
        default=None,
        help="override the suite's canonical scale, up to the suite's maximum; "
        "refused with --suite all",
    )
    cmd_verify.add_argument("--format", choices=("text", "json"), default="text")

    return parser


@contextmanager
def _output(path: str | None = None) -> Iterator[IO[str]]:
    """Yield stdout, or a new file at `path` written as ASCII with LF line
    ends, and refuse a failed open or write of either, naming it.  A failed
    stdout is first pointed at os.devnull, as the Python docs' note on
    SIGPIPE does, so the flush at exit cannot fail."""
    try:
        if path is None:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="ascii", newline="\n") as stream:
                yield stream
    except OSError as error:
        if path is None:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        target = "stdout" if path is None else path
        raise Refusal(f"cannot write {target}: {error.strerror}") from None


def _cmd_eval(args: argparse.Namespace) -> int:
    value = WovenFunction().value(args.x, args.y, max_level=args.max_level)
    with _output() as out:
        print(format_rational(value), file=out)
        if args.decimal:
            print(f"decimal: {decimal_approx(value)}", file=out)
    return 0


def _grid_rows(args: argparse.Namespace) -> tuple[list[Rational], list[Rational]]:
    d = args.denominator
    if d < 1:
        raise Refusal("denominator must be at least 1")
    # count the cells before building any coordinate list; an inverted
    # range has ceil(lo d) > floor(hi d), so it counts no point either
    bounds = [
        (math.ceil(lo * d), math.floor(hi * d) + 1)
        for lo, hi in ((args.x_min, args.x_max), (args.y_min, args.y_max))
    ]
    counts = [max(0, stop - start) for start, stop in bounds]
    if 0 in counts:
        raise Refusal(f"empty grid: an axis range holds no multiple of 1/{d}")
    cells = math.prod(counts)
    if cells > args.max_cells:
        raise Refusal(f"grid has {cells} cells, above the cap {args.max_cells}")
    xs, ys = ([Fraction(i, d) for i in range(*bound)] for bound in bounds)
    return xs, ys


def _cmd_grid(args: argparse.Namespace) -> int:
    woven = WovenFunction()
    xs, ys = _grid_rows(args)
    # resolve every level first so a refusal happens before any output
    for x in xs:
        woven.pairing.x_level(x, max_level=args.max_level)

    with _output(args.out) as out:
        out.write("x,y,value_exact,value_decimal\n")
        for x in xs:
            for y in ys:
                value = woven.value(x, y, max_level=args.max_level)
                out.write(
                    f"{format_rational(x)},{format_rational(y)},"
                    f"{format_rational(value)},{decimal_approx(value)}\n"
                )
    return 0


def _cmd_pairs(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise Refusal("count must be nonnegative")
    pairing = Pairing()
    pairing.extend(args.count)
    # written as formatted, never held whole: json.dumps(..., indent=2)'s layout
    # without its pure-Python indented encoder, as "p/q" text needs no escaping
    with _output() as out:
        if args.json:
            out.writelines(
                (",\n" if n else "[\n")
                + f'  {{\n    "n": {n},\n    "x": "{format_rational(x)}",\n'
                f'    "y": "{format_rational(y)}"\n  }}'
                for n, (x, y) in enumerate(pairing.pairs)
            )
            print("\n]" if pairing.pairs else "[]", file=out)
        else:
            out.writelines(
                f"{n} {format_rational(x)} {format_rational(y)}\n"
                for n, (x, y) in enumerate(pairing.pairs)
            )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = run_suite(args.suite, depth=args.depth)
    with _output() as out:
        if args.format == "json":
            print(json.dumps([report.to_dict() for report in reports], indent=2), file=out)
        else:
            for report in reports:
                print(report.text_line(), file=out)
            passed = sum(report.passed for report in reports)
            print(f"{passed}/{len(reports)} checks passed", file=out)
    return 0 if all(report.passed for report in reports) else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "eval": _cmd_eval,
        "grid": _cmd_grid,
        "pairs": _cmd_pairs,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except Refusal as error:
        print(f"refused: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
