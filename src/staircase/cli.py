"""Command-line frontend.

One subcommand per computation: slopes, the largest wall, the full
decomposition tree, derived duals, free resolutions, the interpolation
invariants, and the exhaustive verification suite.  Ideals are given either
as monomial lists (``"x^7,x^6y,y^5"``) or as row lists (``"rows: 7,6,1"``).
All rationals print exactly as ``p/q`` unless ``--approx`` is passed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .diagram import IdealSyntaxError, degree, parse_ideal, render_ideal, row_texts
from .objects import (
    decompose,
    derived_dual,
    destabilizing_sequence,
    rank_minus_one,
    rank_one,
    render_tree,
    serialize_tree,
    text_name,
    tree_to_dot,
)
from .oracle import CHECK_NAMES, render_reports, run_check
from .resolution import (
    betti_table,
    minimal_free_resolution,
    render_betti,
    render_matrix,
    render_resolution,
)
from .slopes import scheme_slope, slope_table
from .walls import orthogonal_invariants

REPORT_PATH_VAR = "STAIRCASE_REPORT_PATH"


def _fmt(value, approx: bool) -> str:
    return f"{float(value):g}" if approx else str(value)


def _parse_nonempty(text: str):
    diagram = parse_ideal(text)
    if not diagram:
        raise ValueError("empty scheme: the ideal cuts out no points")
    return diagram


def _cmd_slope(args) -> int:
    diagram = _parse_nonempty(args.ideal)
    horizontal, vertical = slope_table(diagram)
    best = scheme_slope(diagram)
    print(f"Z: rows {','.join(row_texts(diagram))} (degree {degree(diagram)})")
    print(f"ideal: {render_ideal(diagram)}")
    for k, value in enumerate(horizontal, start=1):
        print(f"  mu_{k} = {_fmt(value, args.approx)}")
    for i, value in enumerate(vertical, start=1):
        print(f"  mu'_{i} = {_fmt(value, args.approx)}")
    print(f"mu(Z) = {_fmt(best.value, args.approx)} ({best.orientation}, k={best.index})")
    return 0


def _cmd_wall(args) -> int:
    obj = rank_one(_parse_nonempty(args.ideal))
    seq = destabilizing_sequence(obj)
    print(f"destabilizing sequence for {text_name(obj)}:")
    print(f"  sub = {text_name(seq.sub)}")
    print(f"  quotient = {text_name(seq.quotient)}")
    print(f"center = {_fmt(seq.wall.center, args.approx)}")
    print(f"radius^2 = {_fmt(seq.wall.radius_sq, args.approx)}")
    return 0


def _cmd_decompose(args) -> int:
    tree = decompose(rank_one(_parse_nonempty(args.ideal)))
    if args.format == "json":
        print(serialize_tree(tree, pretty=True))
    elif args.format == "dot":
        print(tree_to_dot(tree))
    else:
        print(render_tree(tree))
    return 0


def _cmd_dual(args) -> int:
    source = rank_minus_one(_parse_nonempty(args.ideal))
    print(f"F = {text_name(source)}")
    print(f"dual = {text_name(rank_one(*derived_dual(source)))}[-1]")
    return 0


def _cmd_resolution(args) -> int:
    diagram = parse_ideal(args.ideal)
    res = minimal_free_resolution(diagram)
    print(render_resolution(res))
    print("betti:")
    print(render_betti(betti_table(res)))
    if args.matrix and res.syzygy_twists:
        print("syzygy matrix:")
        print(render_matrix(res))
    return 0


def _cmd_interp(args) -> int:
    obj = rank_one(_parse_nonempty(args.ideal))
    mu, delta = orthogonal_invariants(destabilizing_sequence(obj).wall)
    print(f"interpolation invariants for {text_name(obj)}:")
    print(f"mu = {_fmt(mu, args.approx)}, Delta = {_fmt(delta, args.approx)}")
    return 0


def _cmd_verify(args) -> int:
    names = CHECK_NAMES if args.check == "all" else (args.check,)
    reports = [run_check(name, args.max_degree) for name in names]
    text = render_reports(reports)
    print(text)
    path = os.environ.get(REPORT_PATH_VAR)
    if path:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as error:
            print(f"error: cannot write report to {path}: {error.strerror}", file=sys.stderr)
            return 2
    failed = [r for r in reports if not r.passed]
    if failed:
        print(f"{len(failed)} check(s) FAILED", file=sys.stderr)
        return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Return the shared parser, built on the first call.

    argparse makes a fresh namespace on every ``parse_args`` and reads the
    terminal width when it formats help, so one parser serves every call.
    """
    parser = argparse.ArgumentParser(
        prog="staircase",
        description="Walls, slopes and decomposition trees of monomial schemes.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, ideal=True, approx=False):
        sub = commands.add_parser(name, help=help_text)
        if ideal:
            sub.add_argument("ideal", help="monomial list or rows: list")
        if approx:
            sub.add_argument(
                "--approx", action="store_true", help="print decimals, not fractions"
            )
        sub.set_defaults(func=func)
        return sub

    add("slope", _cmd_slope, "slope table and the scheme slope", approx=True)
    add("wall", _cmd_wall, "largest destabilizing wall", approx=True)
    sub = add("decompose", _cmd_decompose, "full decomposition tree")
    sub.add_argument(
        "--format", choices=("text", "json", "dot"), default="text",
        help="tree output format",
    )
    add("dual", _cmd_dual, "derived dual of a rank -1 object")
    sub = add("resolution", _cmd_resolution, "minimal free resolution")
    sub.add_argument("--matrix", action="store_true", help="also print the syzygy matrix")
    add("interp", _cmd_interp, "interpolation slope and discriminant", approx=True)
    sub = add("verify", _cmd_verify, "exhaustive lemma verification", ideal=False)
    sub.add_argument("--max-degree", type=int, default=None, help="degree bound")
    sub.add_argument(
        "--check", default="all", choices=("all",) + CHECK_NAMES, help="which check"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse exits on usage errors and --help
        code = exit_.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except IdealSyntaxError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except (OverflowError, MemoryError) as error:
        # a failed allocation carries no message of its own
        print(f"error: input too large ({str(error) or 'out of memory'})", file=sys.stderr)
        return 3


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left, as ``| head`` does
        # point stdout at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(2)
    sys.exit(code)
