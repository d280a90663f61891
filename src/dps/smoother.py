"""Polyline smoothing with line segments and minimum-radius circular arcs.

Each interior vertex of a polyline is replaced by the arc of the radius-r
circle tangent to its two incident segments; straight pieces connect
consecutive tangent points. The construction keeps G1 continuity, respects
the curvature bound 1/r, is never longer than the polyline, and runs in
time linear in the number of vertices because every vertex is solved
independently of the others.

The tangent length at a vertex is computed one way only,
``l = r|v1 x v2| / (v1.v2 + |v1||v2|)`` (r/tan(alpha/2) in exact
arithmetic), by one pass over the raw coordinates. Smoothing, the
per-vertex, per-edge and 4r far predicates, ``vertex_solutions``,
``extract_pieces`` and the report a ``FeasibilityError`` carries all read
their numbers from that pass, so they accept and refuse the same inputs,
also on the boundary |p_j p_k| = l_j + l_k; the three-point sub-problem is
``vertex_solutions`` on a three-point polyline. Neither mode smooths an
exact reversal: no G1 arc of any radius turns back on itself. A
``SmoothPath`` holds plain rows in arrays; segment objects are built only on
request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .geom import (
    COLLINEAR_EPSILON,
    LENGTH_EPSILON,
    TWO_PI,
    ArcSegment,
    DegeneratePointsError,
    Heading,
    LineSegment,
    Point2,
    Pose,
    dist,
    point_arc_distance,
    point_segment_distance,
)

Segment = Union[LineSegment, ArcSegment]


class FeasibilityError(ValueError):
    """Smoothing refused: the polyline cannot hold the required tangent points."""

    def __init__(self, message: str, report: "FeasibilityReport | None" = None):
        super().__init__(message)
        self.report = report


def check_turn_radius(r: float) -> float:
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"turning radius must be positive and finite, got {r}")
    return r


@dataclass(frozen=True, slots=True)
class Polyline:
    """Ordered sequence of at least two points with distinct neighbors."""

    points: tuple[Point2, ...]

    def __init__(self, points: Sequence[Point2]):
        pts = tuple(points)
        if len(pts) < 2:
            raise ValueError(f"polyline needs at least 2 points, got {len(pts)}")
        for i in range(len(pts) - 1):
            if dist(pts[i], pts[i + 1]) <= LENGTH_EPSILON:
                raise DegeneratePointsError(f"polyline points {i} and {i + 1} coincide")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def polyline_length(p: Polyline) -> float:
    """Sum of the edge lengths, in edge order."""
    pts = p.points
    return sum(dist(pts[i], pts[i + 1]) for i in range(len(pts) - 1))


@dataclass(frozen=True, slots=True)
class TripletSolution:
    """Tangent construction for one interior vertex.

    q1/q2 are the entry/exit tangent points, ``center`` the arc center,
    ``l`` the tangent length r/tan(alpha/2), ``d`` the vertex-to-center
    distance r/sin(alpha/2), ``alpha`` the interior angle, ``sweep`` the
    signed turn angle (|sweep| = pi - alpha, positive = left turn) and
    ``deviation`` the closest approach d - r of the arc to the vertex.
    """

    q1: Point2
    q2: Point2
    center: Point2
    l: float
    d: float
    alpha: float
    sweep: float
    deviation: float


# Row kinds of a SmoothPath.
LINE, ARC = 0, 1


def _segment(kind: int, row) -> Segment:
    x0, y0, x1, y1, sweep = row
    if kind == LINE:
        return LineSegment(Point2(x0, y0), Point2(x1, y1))
    return ArcSegment(Point2(x0, y0), x1, Heading(y1), sweep)


@dataclass(frozen=True, slots=True)
class SmoothPath:
    """Alternating line/arc sequence of at least one segment; consecutive
    lines may only occur across a collinear pass-through vertex.

    Stored as read-only columns, one row per segment: ``kind[i]`` is LINE or
    ARC, and ``data[i]`` (an m x 5 float64 array) is (ax, ay, bx, by, 0) for
    a line from a to b or (cx, cy, radius, start_angle, sweep) for an arc,
    its start angle in (-pi, pi]. ``segments`` builds the validated segment
    objects anew on every access.
    """

    kind: np.ndarray
    data: np.ndarray
    start_point: Point2
    end_point: Point2

    def __init__(self, segments: Sequence[Segment], start_point: Point2, end_point: Point2):
        segments = tuple(segments)
        if not segments:
            raise ValueError("a smooth path needs at least one segment")
        arcs = [isinstance(s, ArcSegment) for s in segments]
        rows = [(s.center.x, s.center.y, s.radius, s.start_angle.theta, s.sweep) if arc
                else (s.a.x, s.a.y, s.b.x, s.b.y, 0.0) for s, arc in zip(segments, arcs)]
        self._fill([ARC if arc else LINE for arc in arcs], rows, start_point, end_point)

    @classmethod
    def _from_columns(cls, kind, data, start_point: Point2, end_point: Point2) -> "SmoothPath":
        """A path over rows the caller has already checked."""
        return object.__new__(cls)._fill(kind, data, start_point, end_point)

    def _fill(self, kind, data, start_point: Point2, end_point: Point2) -> "SmoothPath":
        kind = np.array(kind, dtype=np.int8)
        data = np.array(data, dtype=np.float64).reshape(len(kind), 5)
        kind.flags.writeable = data.flags.writeable = False
        for name, value in zip(self.__slots__, (kind, data, start_point, end_point)):
            object.__setattr__(self, name, value)
        return self

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(map(_segment, self.kind.tolist(), self.data.tolist()))

    def __eq__(self, other):
        if not isinstance(other, SmoothPath):
            return NotImplemented
        return (self.start_point == other.start_point and self.end_point == other.end_point
                and np.array_equal(self.kind, other.kind) and np.array_equal(self.data, other.data))

    def __hash__(self):
        return hash((len(self.kind), self.start_point, self.end_point))


@dataclass(frozen=True, slots=True)
class FeasibilityReport:
    """Per-vertex and per-edge feasibility flags for a polyline.

    ``local_ok[j]``: the tangent length l_j fits on both edges at vertex j.
    ``global_ok[e]``: edge e is long enough to hold the tangent
    points of both its vertices without overlap. ``far_ok[e]``: the exit
    tangent point after the edge's second vertex is at least 4r from its
    first vertex (None until computable). All flags true means the smoothed
    path exists and is the shortest curvature-bounded G1 path.
    """

    local_ok: tuple[bool, ...]
    global_ok: tuple[bool, ...]
    far_ok: Optional[tuple[bool, ...]] = None

    @property
    def feasible(self) -> bool:
        return all(self.local_ok) and all(self.global_ok)

    @property
    def guaranteed_optimal(self) -> bool:
        return self.feasible and self.far_ok is not None and all(self.far_ok)

    @property
    def local_violations(self) -> list[int]:
        return [i for i, ok in enumerate(self.local_ok) if not ok]

    @property
    def global_violations(self) -> list[int]:
        return [i for i, ok in enumerate(self.global_ok) if not ok]

    @property
    def far_violations(self) -> list[int]:
        return [] if self.far_ok is None else [i for i, ok in enumerate(self.far_ok) if not ok]


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    index: int
    kind: str
    value: float


@dataclass(frozen=True, slots=True)
class ValidationReport:
    ok: bool
    issues: tuple[ValidationIssue, ...]


def tangent_length(alpha: float, r: float) -> float:
    """Tangent length r/tan(alpha/2) cut off each edge at a vertex of
    interior angle alpha."""
    check_turn_radius(r)
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"interior angle must lie in (0, pi), got {alpha}")
    return r / math.tan(0.5 * alpha)


def deviation_bound(alpha: float, r: float) -> float:
    """Closest approach r*(1/sin(alpha/2) - 1) of the smoothing arc to the
    bypassed vertex."""
    check_turn_radius(r)
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"interior angle must lie in (0, pi), got {alpha}")
    return r * (1.0 / math.sin(0.5 * alpha) - 1.0)


def _solve_raw(xi, yi, xm, ym, xf, yf, r):
    """Tangent solve on raw coordinates.

    Returns None for a collinear pass-through vertex, otherwise the tuple
    (q1x, q1y, q2x, q2y, cx, cy, l, d, alpha, sweep, r); an exact reversal
    is reported with l = inf so the edge check rejects it.
    """
    v1x = xm - xi
    v1y = ym - yi
    v2x = xf - xm
    v2y = yf - ym
    n1 = math.hypot(v1x, v1y)
    n2 = math.hypot(v2x, v2y)
    crs = v1x * v2y - v1y * v2x
    dt = v1x * v2x + v1y * v2y
    if abs(crs) <= COLLINEAR_EPSILON * n1 * n2 and dt > 0.0:
        return None
    denom = dt + n1 * n2
    if denom == 0.0:
        return xm, ym, xm, ym, xm, ym, math.inf, math.inf, 0.0, math.pi, r
    sweep = math.atan2(crs, dt)
    alpha = math.pi - abs(sweep)
    l = r * abs(crs) / denom
    u1x = v1x / n1
    u1y = v1y / n1
    u2x = v2x / n2
    u2y = v2y / n2
    q1x = xm - l * u1x
    q1y = ym - l * u1y
    q2x = xm + l * u2x
    q2y = ym + l * u2y
    if sweep > 0.0:
        cx = q1x - r * u1y
        cy = q1y + r * u1x
    else:
        cx = q1x + r * u1y
        cy = q1y - r * u1x
    d = math.hypot(xm - cx, ym - cy)
    return q1x, q1y, q2x, q2y, cx, cy, l, d, alpha, sweep, r


def _triplet(raw) -> TripletSolution:
    q1x, q1y, q2x, q2y, cx, cy, l, d, alpha, sweep, radius = raw
    return TripletSolution(
        q1=Point2(q1x, q1y),
        q2=Point2(q2x, q2y),
        center=Point2(cx, cy),
        l=l,
        d=d,
        alpha=alpha,
        sweep=sweep,
        deviation=d - radius,
    )


def _tangent_pass(pts: tuple[Point2, ...], r: float):
    """The numbers every predicate and every assembly reads, from one solve
    per interior vertex: edge lengths |p_e p_e+1|, the tangent length per
    vertex (0 at the endpoints and at pass-through vertices, inf at an exact
    reversal) and the raw solves (None = pass-through)."""
    raws = [_solve_raw(a.x, a.y, m.x, m.y, b.x, b.y, r) for a, m, b in zip(pts, pts[1:], pts[2:])]
    edges = list(map(dist, pts, pts[1:]))
    ls = [0.0, *[0.0 if raw is None else raw[6] for raw in raws], 0.0]
    return edges, ls, raws


def _edges_ok(edges: list, ls: list) -> list[bool]:
    """The paper's edge condition |p_j p_k| >= l_j + l_k, per edge. It implies
    the per-vertex fit l_j <= min(|p_i p_j|, |p_j p_k|), also in floating
    point, so all edges passing means the polyline is feasible."""
    return [edge >= l0 + l1 for edge, l0, l1 in zip(edges, ls, ls[1:])]


def _existence(tp) -> FeasibilityReport:
    edges, ls, _ = tp
    local_ok = (True, *(l <= min(e0, e1) for l, e0, e1 in zip(ls[1:-1], edges, edges[1:])), True)
    return FeasibilityReport(local_ok, tuple(_edges_ok(edges, ls)))


def _report(p: Polyline, r: float):
    """Tangent pass and report of a polyline; the far flags (edge (p_j, p_k)
    passes when the exit tangent point after p_k lies at least 4r from p_j)
    only when the existence flags all hold."""
    check_turn_radius(r)
    pts = p.points
    tp = _tangent_pass(pts, r)
    report = _existence(tp)
    if report.feasible:
        four_r = 4.0 * r
        far = (raw is None or math.hypot(raw[2] - a.x, raw[3] - a.y) >= four_r
               for a, raw in zip(pts, tp[2]))
        report = FeasibilityReport(report.local_ok, report.global_ok, (*far, True))
    return tp, report


def _infeasible(tp, report: FeasibilityReport, vertex: Optional[int] = None) -> FeasibilityError:
    """Refusal naming ``vertex``, else the first vertex whose tangent length
    overruns an incident edge, else the first edge too short for its two
    tangent lengths, with the numbers of the tangent pass."""
    edges, ls, _ = tp
    if vertex is None and report.local_violations:
        vertex = report.local_violations[0]
    if vertex is not None:
        edge, need = min(edges[vertex - 1], edges[vertex]), ls[vertex]
        reason = f"vertex {vertex}: l = {need:.6g} > min edge {edge:.6g}"
    else:
        e = report.global_violations[0]
        edge, need = edges[e], ls[e] + ls[e + 1]
        reason = f"edge {e}: |p{e} p{e + 1}| = {edge:.6g} < l{e} + l{e + 1} = {need:.6g}"
    short = "exact reversal" if need == math.inf else f"short by {need - edge:.3g}"
    return FeasibilityError(f"{reason} ({short})", report)


def _strict(tp) -> list:
    """Raw solves of a pass whose every edge holds its two tangent lengths;
    FeasibilityError otherwise."""
    edges, ls, raws = tp
    if not all(_edges_ok(edges, ls)):
        raise _infeasible(tp, _existence(tp))
    return raws


def check_global_existence(p: Polyline, r: float) -> FeasibilityReport:
    """Per-vertex fit l_j <= min(|p_i p_j|, |p_j p_k|) and per-edge check
    |p_j - p_k| >= l_j + l_k that consecutive tangent points exist in order;
    endpoint vertices contribute zero."""
    check_turn_radius(r)
    return _existence(_tangent_pass(p.points, r))


def check_far_condition(p: Polyline, r: float) -> tuple[bool, ...]:
    """Per consecutive pair (p_j, p_k): the exit tangent point after p_k is
    at least 4r from p_j. Pass-through and endpoint vertices carry no arc
    and pass trivially. Raises FeasibilityError when tangent points are not
    computable."""
    return _feasible_pass(p, r)[1]


def feasibility_report(p: Polyline, r: float) -> FeasibilityReport:
    """Full report: local and global existence plus the 4r far condition
    (far flags omitted when existence already fails)."""
    return _report(p, r)[1]


def _feasible_pass(p: Polyline, r: float) -> tuple[list, tuple[bool, ...]]:
    """Raw solves and far flags of a feasible polyline."""
    tp, report = _report(p, r)
    if not report.feasible:
        raise _infeasible(tp, report)
    return tp[2], report.far_ok


def _clamp(pts: tuple[Point2, ...], tp) -> list:
    """Best-effort solves: a tangent length that its edges cannot hold is cut
    to what they can (a contested edge is split in proportion to its two
    tangent lengths) and the arc radius shrinks with it to keep tangency."""
    edges, ls, raws = tp
    allowed = list(ls)
    for e, edge in enumerate(edges):
        want = ls[e] + ls[e + 1]
        if edge < want < math.inf:
            scale = edge / want
            allowed[e] = min(allowed[e], ls[e] * scale)
            allowed[e + 1] = min(allowed[e + 1], ls[e + 1] * scale)
    out = []
    for j, raw in enumerate(raws, start=1):
        l = min(allowed[j], edges[j - 1], edges[j])
        if raw is not None and l < ls[j]:
            r_eff = raw[10] * l / ls[j]
            a, m, b = pts[j - 1], pts[j], pts[j + 1]
            raw = None if r_eff <= LENGTH_EPSILON else _solve_raw(a.x, a.y, m.x, m.y, b.x, b.y, r_eff)
        out.append(raw)
    return out


def _solves(p: Polyline, r: float, mode: str) -> list:
    """Raw solve per interior vertex in the given smoothing mode."""
    check_turn_radius(r)
    if mode not in ("strict", "best-effort"):
        raise ValueError(f"unknown smoothing mode {mode!r}")
    pts = p.points
    tp = _tangent_pass(pts, r)
    if mode == "strict":
        return _strict(tp)
    if math.inf in tp[1]:  # no arc of any radius turns back on itself
        raise _infeasible(tp, _existence(tp), tp[1].index(math.inf))
    return _clamp(pts, tp)


def vertex_solutions(p: Polyline, r: float, mode: str = "strict") -> list[Optional[TripletSolution]]:
    """Triplet solution per interior vertex (None = pass-through).

    In "best-effort" mode over-long tangents are clamped to what the edges
    can hold (contested edges are split proportionally) and the arc radius
    shrinks to keep tangency, so the result stays G1 but may violate the
    curvature bound; an exact reversal is still refused.
    """
    return [None if raw is None else _triplet(raw) for raw in _solves(p, r, mode)]


def _assemble_raw(pts: tuple[Point2, ...], raws: list) -> SmoothPath:
    kinds: list[int] = []
    rows: list[tuple] = []
    x, y = pts[0].x, pts[0].y
    for raw in raws:
        if raw is None:
            continue
        q1x, q1y, q2x, q2y, cx, cy, l, d, alpha, sweep, radius = raw
        if math.hypot(q1x - x, q1y - y) > LENGTH_EPSILON:
            kinds.append(LINE)
            rows.append((x, y, q1x, q1y, 0.0))
        start = math.atan2(q1y - cy, q1x - cx)
        kinds.append(ARC)  # atan2 gives [-pi, pi]; a heading lies in (-pi, pi]
        rows.append((cx, cy, radius, math.pi if start == -math.pi else start, sweep))
        x, y = q2x, q2y
    end = pts[-1]
    if math.hypot(end.x - x, end.y - y) > LENGTH_EPSILON or not rows:
        kinds.append(LINE)
        rows.append((x, y, end.x, end.y, 0.0))
    return SmoothPath._from_columns(kinds, rows, pts[0], end)


def smooth_polyline(p: Polyline, r: float, mode: str = "strict") -> SmoothPath:
    """Smooth a polyline into the shortest G1 path of lines and radius-r arcs.

    The default "strict" mode refuses infeasible input with a
    FeasibilityError carrying the per-vertex/per-edge report; "best-effort"
    clamps tangent lengths instead and shrinks arc radii below r where
    needed, trading the curvature guarantee for totality.
    """
    return _assemble_raw(p.points, _solves(p, r, mode))


def smooth_polyline_batch(
    p: Polyline,
    r: float,
    parallelism_hint: Optional[int] = None,
    mode: str = "strict",
) -> SmoothPath:
    """The same call as ``smooth_polyline``; ``parallelism_hint`` is ignored.

    Kept for callers of the former thread-pool mode, which held the GIL for
    all but the per-vertex solves and so was no faster than one thread.
    """
    return smooth_polyline(p, r, mode)


def path_length(path: SmoothPath) -> float:
    """Total length of a smooth path, summed in segment order."""
    values = iter(memoryview(path.data.ravel()))  # row after row, as plain floats
    return sum(x1 * abs(sweep) if kind == ARC else math.hypot(x1 - x0, y1 - y0)
               for kind, x0, y0, x1, y1, sweep in zip(path.kind.tolist(), values, values, values,
                                                      values, values))


def validate(path: SmoothPath, r: float, tol: float = 1e-9) -> ValidationReport:
    """Check endpoint chaining, G1 heading continuity and the curvature bound.

    Records one issue per violation with the index of the offending segment
    or junction; arcs must have radius at least r*(1 - tol).
    """
    check_turn_radius(r)
    arc = path.kind == ARC
    x0, y0, x1, y1, sweep = path.data.T
    # Points and travel headings at the start (row 0) and end (row 1) of each segment.
    angle = np.stack((y1, y1 + sweep))
    x = np.where(arc, x0 + x1 * np.cos(angle), np.stack((x0, x1)))
    y = np.where(arc, y0 + x1 * np.sin(angle), np.stack((y0, y1)))
    heading = np.where(arc, angle + np.where(sweep >= 0.0, 0.5 * math.pi, -0.5 * math.pi),
                       np.arctan2(y1 - y0, x1 - x0))
    issues = [ValidationIssue(i, "curvature", x1[i].item())
              for i in np.flatnonzero(arc & (x1 < r * (1.0 - tol))).tolist()]
    gap = np.hypot(x[0, 1:] - x[1, :-1], y[0, 1:] - y[1, :-1])
    turn = heading[0, 1:] - heading[1, :-1]
    kink = np.abs(turn - TWO_PI * np.round(turn / TWO_PI))
    for i in np.flatnonzero((gap > tol) | (kink > tol)).tolist():
        if gap[i] > tol:
            issues.append(ValidationIssue(i, "chaining", gap[i].item()))
        if kink[i] > tol:
            issues.append(ValidationIssue(i, "g1", kink[i].item()))
    for i, end, p, kind in ((0, 0, path.start_point, "start_point"),
                            (len(arc) - 1, 1, path.end_point, "end_point")):
        miss = math.hypot(x[end, i] - p.x, y[end, i] - p.y)
        if miss > tol:
            issues.append(ValidationIssue(i, kind, miss))
    return ValidationReport(ok=not issues, issues=tuple(issues))


@dataclass(frozen=True, slots=True)
class PathPiece:
    """One vertex sub-path (straight reach plus turn arc) between the
    configurations the smoother produced, for optimality cross-checks."""

    start: Pose
    end: Pose
    length: float
    guaranteed: bool
    vertex: Optional[int]


def extract_pieces(p: Polyline, r: float) -> list[PathPiece]:
    """Split the smoothed result of ``p`` into per-vertex pieces whose
    lengths an independent Dubins solver can be asked to reproduce.

    Each piece runs from the previous exit configuration to a vertex's exit
    tangent configuration; the tail piece covers the final straight.
    ``guaranteed`` carries the piece's 4r far-condition flag.
    """
    raws, far = _feasible_pass(p, r)
    pts = p.points
    pieces: list[PathPiece] = []
    cur_point = pts[0]
    cur_heading: Optional[float] = None
    for j, (raw, guaranteed) in enumerate(zip(raws, far), start=1):
        if raw is None:
            continue
        q1x, q1y, q2x, q2y, cx, cy, l, d, alpha, sweep, radius = raw
        q2 = Point2(q2x, q2y)
        if cur_heading is None:
            cur_heading = math.atan2(pts[j].y - cur_point.y, pts[j].x - cur_point.x)
        exit_heading = math.atan2(pts[j + 1].y - pts[j].y, pts[j + 1].x - pts[j].x)
        pieces.append(
            PathPiece(
                start=Pose(cur_point, Heading(cur_heading)),
                end=Pose(q2, Heading(exit_heading)),
                length=dist(cur_point, Point2(q1x, q1y)) + r * abs(sweep),
                guaranteed=guaranteed,
                vertex=j,
            )
        )
        cur_point = q2
        cur_heading = exit_heading
    if cur_heading is None:
        cur_heading = math.atan2(pts[-1].y - cur_point.y, pts[-1].x - cur_point.x)
    if dist(cur_point, pts[-1]) > LENGTH_EPSILON:
        pieces.append(
            PathPiece(
                start=Pose(cur_point, Heading(cur_heading)),
                end=Pose(pts[-1], Heading(cur_heading)),
                length=dist(cur_point, pts[-1]),
                guaranteed=True,
                vertex=None,
            )
        )
    return pieces


def point_to_path_distance(p: Point2, path: SmoothPath) -> float:
    """Minimum distance from a point to any path segment."""
    return min((point_segment_distance(p.x, p.y, *row[:4]) if kind == LINE
                else point_arc_distance(p.x, p.y, *row)
                for kind, row in zip(path.kind.tolist(), path.data.tolist())), default=math.inf)
