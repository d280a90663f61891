"""The three benchmark workloads: seeded input generation, one op, and the
correctness gate every op passes through.

Generation and file writing happen in ``setup`` (timed as set-up, never as
op time). Ops call the program only through module attributes such as
``smoother.smooth_polyline`` so that a traced run can wrap them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from dps import dubins, fileio, planner, randgen, render, smoother
from dps.geom import ArcSegment, Point2, normalize_angle

# Turning radius of the generated routes and cross-checked polylines.
R = 1.0
GATE_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    route_vertices: int = 10_000
    routes_per_pass: int = 2
    scenarios_per_pass: int = 2000
    polylines_per_pass: int = 190
    polyline_vertices: tuple[int, int] = (3, 40)


FULL = Sizes()
# Tiny inputs for the benchmark's own tests; numbers are not comparable.
SMOKE = Sizes(route_vertices=200, routes_per_pass=2, scenarios_per_pass=40, polylines_per_pass=8)


class CheckFailed(Exception):
    """An op returned a wrong answer."""


class Refusal(NamedTuple):
    """A typed refusal from the program: an answer, counted by kind."""

    kind: str
    error: Exception


def _fail(workload: str, index: int, message: str) -> None:
    raise CheckFailed(f"{workload} input {index}: {message}")


# -- long_route ----------------------------------------------------------


class RouteInput(NamedTuple):
    csv: str
    out: str
    vertices: int
    polyline_length: float


class RouteOutput(NamedTuple):
    report: object
    path: object
    validation: object
    length: float
    loaded: object
    meta: dict
    svg: str


class LongRoute:
    name = "long_route"
    why = (
        "file-to-file throughput on one long polyline per op: smoother, fileio "
        "and render do the work, planner and dubins do none"
    )
    work_unit = "route_vertices"

    def sizes(self, s: Sizes) -> dict:
        return {"route_vertices": s.route_vertices, "routes_per_pass": s.routes_per_pass, "r": R}

    def setup(self, seed: int, workdir: Path, s: Sizes) -> list[RouteInput]:
        rng = random.Random(f"long_route:{seed}")
        inputs = []
        for k in range(s.routes_per_pass):
            pts = randgen.random_polyline(s.route_vertices, R, rng=rng).points
            csv = workdir / f"route{k}.csv"
            with open(csv, "w", encoding="utf-8") as fh:
                fh.write("x,y\n")
                fh.writelines(f"{p.x!r},{p.y!r}\n" for p in pts)
            length = math.fsum(math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(pts, pts[1:]))
            inputs.append(RouteInput(str(csv), str(workdir / f"route{k}.json"), len(pts), length))
        return inputs

    def op(self, inp: RouteInput) -> RouteOutput:
        polyline = fileio.load_polyline(inp.csv)
        report = smoother.feasibility_report(polyline, R)
        path = smoother.smooth_polyline(polyline, R)
        validation = smoother.validate(path, R, GATE_TOL)
        length = smoother.path_length(path)
        fileio.save_path(path, inp.out, total_length=length)
        loaded, meta = fileio.load_path(inp.out)
        svg = render.render_svg(loaded)
        return RouteOutput(report, path, validation, length, loaded, meta, svg)

    def check(self, inp: RouteInput, out: RouteOutput, i: int) -> None:
        if not out.report.feasible:
            _fail(self.name, i, "feasibility_report calls a smoothable route infeasible")
        if not out.validation.ok:
            _fail(self.name, i, f"validate found {len(out.validation.issues)} issues, "
                  f"first {out.validation.issues[0]}")
        if not out.length <= inp.polyline_length:
            _fail(self.name, i, f"smoothed length {out.length!r} exceeds polyline "
                  f"length {inp.polyline_length!r}")
        if out.loaded.segments != out.path.segments or out.meta.get("total_length") != out.length:
            _fail(self.name, i, "save_path -> load_path did not round-trip bit-exactly")
        arcs = sum(1 for seg in out.loaded.segments if isinstance(seg, ArcSegment))
        if out.svg.count(" A ") != arcs:
            _fail(self.name, i, f"SVG has {out.svg.count(' A ')} arc commands for {arcs} arcs")

    def work(self, inp: RouteInput, out: RouteOutput) -> int:
        return inp.vertices

    def probe(self, inputs: list[RouteInput]):
        return fileio.load_polyline(inputs[0].csv), R


# -- plan_stream ---------------------------------------------------------


def _random_scenario(rng: random.Random):
    """Criterion-6-style scenario: 1-4 hulled random heptagons in a 20x20
    box, h in [0.1, 0.5], r in [h, 3h], start and goal at least 5 apart and
    outside every obstacle. None when no start/goal pair is found."""
    obstacles = []
    for _ in range(rng.randint(1, 4)):
        cx = rng.uniform(4, 16)
        cy = rng.uniform(4, 16)
        pts = [Point2(cx + rng.uniform(-2.0, 2.0), cy + rng.uniform(-2.0, 2.0)) for _ in range(7)]
        try:
            obstacles.append(planner.ConvexPolygon.from_points(pts))
        except ValueError:
            continue
    h = rng.uniform(0.1, 0.5)
    r = rng.uniform(h, 3 * h)
    bounds = planner.Bounds(0, 0, 20, 20)
    for _ in range(100):
        start = Point2(rng.uniform(0.5, 19.5), rng.uniform(0.5, 19.5))
        goal = Point2(rng.uniform(0.5, 19.5), rng.uniform(0.5, 19.5))
        if math.hypot(goal.x - start.x, goal.y - start.y) < 5.0:
            continue
        if any(o.contains(p) for o in obstacles for p in (start, goal)):
            continue
        return planner.Scenario(tuple(obstacles), bounds, h, r, start, goal)
    return None


def inside_inflated(p: Point2, vertices, h: float, r: float, tol: float = 1e-6) -> bool:
    """Whether p lies within the mitered inflation of a CCW convex polygon.

    Independent of the planner: the inflation is the intersection of the
    edge half-planes pushed out by the worst-vertex offset
    max(h*s + r*(1 - s), h), s = sin(alpha/2).
    """
    n = len(vertices)
    offset = h
    for i in range(n):
        a, v, b = vertices[i - 1], vertices[i], vertices[(i + 1) % n]
        ux, uy, wx, wy = a.x - v.x, a.y - v.y, b.x - v.x, b.y - v.y
        s = math.sin(0.5 * math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy))
        offset = max(offset, h * s + r * (1.0 - s))
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        ex, ey = b.x - a.x, b.y - a.y
        outward = (ey * (p.x - a.x) - ex * (p.y - a.y)) / math.hypot(ex, ey)
        if outward > offset + tol:
            return False
    return True


class PlanStream:
    name = "plan_stream"
    why = (
        "many small plan() requests in a closed loop with one client: planner "
        "dominates and smoother sees thousands of tiny calls"
    )
    work_unit = "plans"

    def sizes(self, s: Sizes) -> dict:
        return {"scenarios_per_pass": s.scenarios_per_pass, "obstacles": [1, 4],
                "box": 20, "h": [0.1, 0.5], "r_over_h": [1, 3], "clients": 1}

    def setup(self, seed: int, workdir: Path, s: Sizes) -> list:
        rng = random.Random(f"plan_stream:{seed}")
        scenarios = []
        while len(scenarios) < s.scenarios_per_pass:
            scenario = _random_scenario(rng)
            if scenario is not None:
                scenarios.append(scenario)
        return scenarios

    def op(self, scenario):
        try:
            return planner.plan(scenario)
        except planner.UnreachableConfigurationError as err:
            return Refusal("unreachable", err)
        except planner.NoPathError as err:
            return Refusal("no_path", err)
        except smoother.FeasibilityError as err:
            return Refusal("infeasible_route", err)

    def check(self, scenario, out, index: int) -> None:
        h, r = scenario.robot_radius, scenario.turning_radius
        if isinstance(out, Refusal):
            if out.kind == "unreachable" and not any(
                inside_inflated(p, o.vertices, h, r)
                for o in scenario.obstacles
                for p in (scenario.start, scenario.goal)
            ):
                _fail(self.name, index, "refused as unreachable, but start and goal "
                      "lie outside every inflated obstacle")
            return
        if not out.clearance >= h - GATE_TOL:
            _fail(self.name, index, f"clearance {out.clearance!r} below robot radius {h!r}")
        if out.path.start_point != scenario.start or out.path.end_point != scenario.goal:
            _fail(self.name, index, "path does not join start to goal")

    def work(self, scenario, out) -> int:
        return 1

    def probe(self, scenarios: list):
        for scenario in scenarios:
            out = self.op(scenario)
            if not isinstance(out, Refusal):
                return out.polyline, scenario.turning_radius
        raise RuntimeError("no scenario planned")


# -- verify --------------------------------------------------------------


class VerifyOutput(NamedTuple):
    pieces: list
    words: list
    pinned: float


def pinned_configurations(pieces, r: float):
    """Tangent configurations of the smoothed path, each with a singleton
    heading set: the start, then per vertex piece the entry tangent point
    (end of its straight reach, omitted when that reach is empty) and the
    exit tangent point."""
    first = pieces[0].start
    points = [first.position]
    headings = [[first.heading.theta]]
    for piece in pieces:
        if piece.vertex is not None:
            theta = piece.start.heading.theta
            sweep = normalize_angle(piece.end.heading.theta - theta)
            reach = piece.length - r * abs(sweep)
            if reach > GATE_TOL:
                p = piece.start.position
                points.append(Point2(p.x + reach * math.cos(theta), p.y + reach * math.sin(theta)))
                headings.append([theta])
        points.append(piece.end.position)
        headings.append([piece.end.heading.theta])
    return points, headings


class Verify:
    name = "verify"
    why = (
        "Dubins cross-check of short random polylines as oracle-check does: the "
        "only workload where dubins does the work"
    )
    work_unit = "pieces"

    def sizes(self, s: Sizes) -> dict:
        return {"polylines_per_pass": s.polylines_per_pass,
                "polyline_vertices": list(s.polyline_vertices), "r": R}

    def setup(self, seed: int, workdir: Path, s: Sizes) -> list:
        rng = random.Random(f"verify:{seed}")
        lo, hi = s.polyline_vertices
        # Sizes cycle through lo..hi so that every seed has the same size mix.
        return [randgen.random_polyline(lo + k % (hi - lo + 1), R, rng=rng)
                for k in range(s.polylines_per_pass)]

    def op(self, polyline) -> VerifyOutput:
        pieces = smoother.extract_pieces(polyline, R)
        words = []
        for piece in pieces:
            words.append(dubins.dubins_shortest(piece.start, piece.end, R))
            dubins.classify_j_type(piece.start, piece.end, R)
        pinned = math.nan
        if pieces:
            points, headings = pinned_configurations(pieces, R)
            pinned = dubins.multipoint_bruteforce(points, R, 4, headings=headings)
        return VerifyOutput(pieces, words, pinned)

    def check(self, polyline, out: VerifyOutput, index: int) -> None:
        for k, (piece, word) in enumerate(zip(out.pieces, out.words)):
            scale = max(abs(word.total), abs(piece.length), 1e-300)
            if piece.guaranteed and abs(word.total - piece.length) > GATE_TOL * scale:
                _fail(self.name, index, f"piece {k}: smoothed {piece.length!r} vs "
                      f"Dubins {word.total!r}")
        if out.pieces:
            total = math.fsum(piece.length for piece in out.pieces)
            if not abs(out.pinned - total) <= GATE_TOL * total:
                _fail(self.name, index, f"pinned multipoint {out.pinned!r} vs smoothed "
                      f"length {total!r}")

    def work(self, polyline, out: VerifyOutput) -> int:
        return len(out.pieces)

    def probe(self, polylines: list):
        return polylines[0], R


WORKLOADS = {w.name: w for w in (LongRoute(), PlanStream(), Verify())}
