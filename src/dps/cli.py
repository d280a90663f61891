"""Command-line front end.

Exit codes: 0 success, 1 I/O, parse or usage error, 2 smoothing refused as
infeasible, 3 no collision-free route, 4 optimality cross-check mismatch.
``main`` is the one place that turns ``OSError`` and ``ValueError`` into
``error: ...`` and exit 1; each command handles only its typed refusals.
"""

from __future__ import annotations

import argparse
import sys
import time

from .dubins import classify_j_type, multipoint_bruteforce
from .fileio import load_path, load_polyline, load_scenario, save_path
from .planner import NoPathError, plan, require_clearance
from .randgen import random_polyline
from .render import render_svg
from .smoother import FeasibilityError, extract_pieces, path_length, smooth_polyline

EXIT_OK = 0
EXIT_IO = 1
EXIT_INFEASIBLE = 2
EXIT_NO_PATH = 3
EXIT_MISMATCH = 4

ORACLE_REL_TOL = 1e-9


def _cmd_smooth(args) -> int:
    polyline = load_polyline(args.input)
    mode = "best-effort" if args.best_effort else "strict"
    try:
        path = smooth_polyline(polyline, args.radius, mode=mode)
    except FeasibilityError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        print(f"vertex violations: {err.report.local_violations}; "
              f"edge violations: {err.report.global_violations}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if args.best_effort:
        print("note: best-effort mode may violate the curvature bound", file=sys.stderr)
    save_path(path, args.output, total_length=path_length(path))
    return EXIT_OK


def _cmd_plan(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        result = require_clearance(scenario, plan(scenario))
    except NoPathError as err:
        print(f"no path: {err}", file=sys.stderr)
        return EXIT_NO_PATH
    except FeasibilityError as err:
        print(f"infeasible route: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    save_path(result.path, args.output, total_length=result.length, min_clearance=result.clearance)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    polyline = load_polyline(args.input)
    try:
        pieces = extract_pieces(polyline, args.radius)
    except FeasibilityError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    mismatches = 0
    for i, piece in enumerate(pieces):
        j_type, word = classify_j_type(piece.start, piece.end, args.radius)
        gap = abs(word.total - piece.length)
        match = gap <= ORACLE_REL_TOL * max(abs(word.total), abs(piece.length), 1e-300)
        status = "ok" if match else "MISMATCH"
        note = "" if piece.guaranteed else " (no guarantee: far condition violated)"
        print(
            f"piece {i}: dps={piece.length:.12f} oracle={word.total:.12f} "
            f"word={word.word} j_type={j_type} {status}{note}"
        )
        if not match and piece.guaranteed:
            mismatches += 1
    return EXIT_MISMATCH if mismatches else EXIT_OK


def _cmd_bench(args) -> int:
    """One CSV row for a random polyline of ``-n`` points (turning radius 1,
    edges 1-10 long): the mean wall time of strict smoothing over
    ``--repeats`` runs after one warm-up, the smoothed length, the
    sampled-heading multipoint length through the vertices and their ratio."""
    if args.n < 3:
        raise ValueError(f"benchmark needs at least 3 points, got {args.n}")
    if args.repeats < 1:
        raise ValueError("repeats must be >= 1")
    polyline = random_polyline(args.n, r=1.0, seed=args.seed)
    # The reference first: it refuses a bad sample count before any timing.
    mpdp_length = multipoint_bruteforce(polyline.points, 1.0, args.samples)
    dps_length = path_length(smooth_polyline(polyline, 1.0))
    smooth_polyline(polyline, 1.0)  # warm-up
    total = 0.0
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        smooth_polyline(polyline, 1.0)
        total += time.perf_counter() - t0
    print("n,seq_time_s,dps_length,mpdp_p_length,ratio")
    print(f"{args.n},{total / args.repeats!r},{dps_length!r},{mpdp_length!r},"
          f"{mpdp_length / dps_length!r}")
    return EXIT_OK


def _cmd_render(args) -> int:
    path, _meta = load_path(args.path)
    scenario = load_scenario(args.scenario) if args.scenario else None
    svg = render_svg(path, scenario=scenario)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as parse errors do; argparse's own 2 would read
    as "smoothing refused as infeasible"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dps",
        description="Shortest curvature-bounded smoothing of polylines, with "
        "an obstacle-aware planning pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smooth", help="smooth a polyline CSV into a path JSON")
    p.add_argument("input", help="polyline CSV file (x,y per line)")
    p.add_argument("-r", "--radius", type=float, required=True, help="turning radius")
    p.add_argument("-o", "--output", required=True, help="output path JSON")
    p.add_argument("--best-effort", action="store_true", help="clamp instead of refusing")
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("plan", help="plan through a scenario JSON")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("-o", "--output", required=True, help="output path JSON")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("oracle-check", help="cross-check each piece against the Dubins solver")
    p.add_argument("input", help="polyline CSV file")
    p.add_argument("-r", "--radius", type=float, required=True, help="turning radius")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("bench", help="time smoothing and compare lengths")
    p.add_argument("-n", type=int, required=True, help="number of polyline points")
    p.add_argument("--repeats", type=int, default=10, help="timing repeats")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--samples", type=int, default=360, help="headings per waypoint")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("render", help="render a path (and scenario) to SVG")
    p.add_argument("path", help="path JSON file")
    p.add_argument("--scenario", help="scenario JSON file", default=None)
    p.add_argument("-o", "--output", required=True, help="output SVG file")
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
