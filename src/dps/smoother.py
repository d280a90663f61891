"""Polyline smoothing with line segments and minimum-radius circular arcs.

Each interior vertex of a polyline is replaced by the arc of the radius-r
circle tangent to its two incident segments; straight pieces connect
consecutive tangent points. The construction keeps G1 continuity, respects
the curvature bound 1/r, is never longer than the polyline, and runs in
time linear in the number of vertices because every vertex is solved
independently of the others.

The tangent length at a vertex, r/tan(alpha/2) in exact arithmetic, is
computed once, from the unit directions u1, u2 of its two edges, so no
product of two lengths can overflow: as ``l = r|u1 x u2| / (1 + u1.u2)``,
and where u1.u2 < 0, whose sum would cancel on a sharp turn, as
``l = r(1 - u1.u2) / |u1 x u2|``.
That pass is one record, ``_Pass``: per edge its length, unit direction and
verdict |p_j p_k| >= l_j + l_k, per vertex its tangent length and solve.
Smoothing, the per-vertex, per-edge and 4r far predicates, ``vertex_solutions``,
``extract_pieces`` and the report a ``FeasibilityError`` carries all read
it, so they accept and refuse the same inputs, also on the boundary
|p_j p_k| = l_j + l_k; the three-point sub-problem is ``vertex_solutions`` on
a three-point polyline. A feasible polyline smooths to the pass's own path
in both modes. Best-effort clamps only a polyline with a failing edge: that
edge caps the radius of both its ends at edge / (t0 + t1), t = tan(turn / 2).
Neither mode smooths an exact reversal, since no G1 arc turns back on
itself, nor a vertex whose tangent length overflows a float.

A ``Polyline`` holds one read-only n x 2 float64 array and a ``SmoothPath``
plain rows in arrays; ``Point2`` and segment objects are built only on
request. One edge pass checks a polyline; a non-finite point fails both its
edges, so only a failing polyline is searched for a non-finite row. The
pass is written once, as formulas for one vertex, over a backend of math
functions: ``_FLOATS`` runs them vertex by vertex on Python floats,
``_ARRAYS`` on numpy columns and places the path's rows by mask and cumsum
index arithmetic. Polylines of fewer than ``_ARRAY_MIN_VERTICES``
vertices take the float backend. Both backends use only correctly rounded
operations (+ - * / and sqrt; a length is ``sqrt(x*x + y*y)``, not
``hypot``) and take both angles from ``math.atan2``, so the switch changes
no answer.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain, repeat
from operator import sub
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence, Union

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
    check_turn_radius,
    point_arc_distance,
    point_segment_distance,
)

Segment = Union[LineSegment, ArcSegment]

# Vertex count from which the tangent pass runs on numpy columns instead of
# Python floats: smoothing plus a feasibility report takes equally long on
# both at 40-48 vertices on a 2-vCPU x86-64 VM (BENCH_pr9_long_route.json,
# "backend_crossover_us"; `tools/size_sweep.py --crossover` still reads
# floats/arrays 194.7/204.8 us at 40 vertices and 229.4/208.9 us at 48).
_ARRAY_MIN_VERTICES = 44


def _atan2_rows(y, x):
    """math.atan2 element by element: np.arctan2 differs from it in the last
    bits on some inputs, and the two backends must agree."""
    return np.fromiter(map(math.atan2, y.tolist(), x.tolist()), np.float64, len(y))


def _assemble_rows(x, y, xn, yn, q1x, q1y, q2x, q2y, cx, cy, l, crs, dt, radius, through):
    """Path rows in travel order from (x, y) to (xn, yn): a line into each
    arc vertex's arc unless it would be empty, the arc, and a last line."""
    kinds, values = [], []
    for ax, ay, bx, by, ox, oy, c, d, rad, skip in zip(q1x, q1y, q2x, q2y, cx, cy, crs, dt, radius,
                                                       through):
        if skip:
            continue
        if _line(x, y, ax, ay):
            kinds.append(LINE)
            values += (x, y, ax, ay, 0.0)
        kinds.append(ARC)
        values += (ox, oy, rad, _start_angle(ax, ay, ox, oy), _FLOATS.atan2(c, d))
        x, y = bx, by
    if _line(x, y, xn, yn) or not kinds:
        kinds.append(LINE)
        values += (x, y, xn, yn, 0.0)
    return kinds, values


def _assemble_columns(x0, y0, xn, yn, *raws):
    """``_assemble_rows`` on columns: arc k lands at row cumsum(1 + line)[k]
    - 1, where ``line`` flags a line into the arc, and that line just before."""
    q1x, q1y, q2x, q2y, cx, cy, _, crs, dt, radius = (c[~raws[10]] for c in raws[:10])
    x, y = np.concatenate(([x0], q2x)), np.concatenate(([y0], q2y))  # where lines start
    line = _line(x[:-1], y[:-1], q1x, q1y, _ARRAYS)
    arc_at = np.cumsum(1 + line) - 1
    tail = _line(x[-1], y[-1], xn, yn) or not len(arc_at)
    kind = np.full(len(arc_at) + line.sum() + tail, LINE, np.int8)
    data = np.zeros((len(kind), 5))
    kind[arc_at] = ARC
    data[arc_at] = np.column_stack((cx, cy, radius, _start_angle(q1x, q1y, cx, cy, _ARRAYS),
                                    _ARRAYS.atan2(crs, dt)))
    data[arc_at[line] - 1, :4] = np.column_stack((x[:-1], y[:-1], q1x, q1y))[line]
    if tail:
        data[-1] = (x[-1], y[-1], xn, yn, 0.0)
    return kind, data


# The two backends the pass runs on. ``map(f, *columns)`` applies a formula
# written for one vertex to every row, ``map_n`` one with n outputs,
# ``each(v)`` passes a scalar to every row, ``find(column, value)`` gives
# the rows that hold ``value`` and ``quiet()`` silences float overflow and
# invalid values (inf - inf), which Python floats never report. Formulas take
# the backend last and default to floats, so the float backend calls them
# row by row without passing it.
_FLOATS = SimpleNamespace(
    sqrt=math.sqrt, atan2=math.atan2, copysign=math.copysign, min=min,
    where=lambda cond, a, b: a if cond else b, each=repeat,
    map=lambda f, *args: list(map(f, *args)),
    map_n=lambda n, f, *args: list(zip(*map(f, *args))) or [()] * n,
    all=all, columns=lambda xy: xy.T.tolist(), tolist=lambda c: c, cat=lambda *c: list(chain(*c)),
    find=lambda c, value: [i for i, v in enumerate(c) if v == value], assemble=_assemble_rows,
    quiet=nullcontext,
)
_ARRAYS = SimpleNamespace(
    sqrt=np.sqrt, atan2=_atan2_rows, copysign=np.copysign, min=lambda *a: reduce(np.minimum, a),
    where=np.where, each=lambda v: v, map=lambda f, *args: f(*args, _ARRAYS),
    map_n=lambda n, f, *args: list(np.broadcast_arrays(*f(*args, _ARRAYS))),
    all=np.all, columns=lambda xy: tuple(xy.T), tolist=lambda c: c.tolist(),
    cat=lambda *c: np.concatenate(c), find=lambda c, value: np.flatnonzero(c == value),
    assemble=_assemble_columns, quiet=partial(np.errstate, over="ignore", invalid="ignore"),
)


def _backend(n: int):
    return _FLOATS if n < _ARRAY_MIN_VERTICES else _ARRAYS


class FeasibilityError(ValueError):
    """Smoothing refused: the polyline cannot hold the required tangent points."""

    def __init__(self, message: str, report: "FeasibilityReport"):
        super().__init__(message)
        self.report = report


def _distance(ax, ay, bx, by, m=_FLOATS):
    dx = bx - ax
    dy = by - ay
    return m.sqrt(dx * dx + dy * dy)


def _apart(ax, ay, bx, by, m=_FLOATS, noise=0.0):
    d = _distance(ax, ay, bx, by, m)
    return (d > LENGTH_EPSILON) & (d > noise) & (d < math.inf)  # an overflowed distance is no gap


def _line(ax, ay, bx, by, m=_FLOATS):
    """Whether a path line joins a to b: they lie further apart than 16 ulps
    of their coordinates too, below which its heading is rounding noise."""
    return _apart(ax, ay, bx, by, m, 16 * 2.0**-52 * (abs(ax) + abs(ay) + abs(bx) + abs(by)))


@dataclass(frozen=True, slots=True)
class Polyline:
    """Ordered sequence of at least two points with distinct neighbors.

    Held as ``xy``, one read-only n x 2 float64 array of coordinates.
    ``points`` builds n ``Point2`` objects anew on every access, about half
    a microsecond each; code that walks a long polyline reads ``xy``.
    """

    xy: np.ndarray

    def __init__(self, points: Sequence[Point2]):
        xy = np.array([c for p in points for c in (p.x, p.y)], dtype=np.float64)
        self._fill(xy.reshape(-1, 2))

    @classmethod
    def from_array(cls, xy) -> "Polyline":
        """A polyline over a copy of ``xy``, an n x 2 array of coordinates;
        it refuses what ``Polyline(points)`` refuses, with the same errors,
        and non-finite coordinates as ``Point2`` does."""
        return object.__new__(cls)._fill(np.array(xy, dtype=np.float64))

    def _fill(self, xy: np.ndarray) -> "Polyline":
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"polyline coordinates must be an n x 2 array, got shape {xy.shape}")
        if len(xy) < 2:
            raise ValueError(f"polyline needs at least 2 points, got {len(xy)}")
        m = _backend(len(xy))
        x, y = m.columns(xy)
        with m.quiet():  # a non-finite point fails both its edges, as an overflow does
            apart = m.map(_apart, x[:-1], y[:-1], x[1:], y[1:])
        if not m.all(apart):  # non-finite first, then overflow, then coincidence
            if bad := next((row for row in xy.tolist() if not all(map(math.isfinite, row))), None):
                raise ValueError("non-finite coordinates ({}, {})".format(*bad))
            i = int(m.find(apart, False)[0])
            if _distance(*xy[i].tolist(), *xy[i + 1].tolist()) > LENGTH_EPSILON:
                raise ValueError(f"polyline points {i} and {i + 1}: their distance overflows a float")
            raise DegeneratePointsError(f"polyline points {i} and {i + 1} coincide")
        xy.flags.writeable = False
        object.__setattr__(self, "xy", xy)
        return self

    @property
    def points(self) -> tuple[Point2, ...]:
        return tuple(map(Point2, *self.xy.T.tolist()))

    def __len__(self) -> int:
        return len(self.xy)

    def __eq__(self, other):
        if not isinstance(other, Polyline):
            return NotImplemented
        return np.array_equal(self.xy, other.xy)

    def __hash__(self):
        return hash((len(self.xy), *self.xy[0].tolist(), *self.xy[-1].tolist()))


def polyline_length(p: Polyline) -> float:
    """Sum of the edge lengths, in edge order. Each is ``math.hypot``, as in
    ``path_length``, so that a path through collinear vertices measures as
    long as its polyline, not an ulp longer."""
    x, y = p.xy.T.tolist()
    return sum(map(math.hypot, map(sub, x[1:], x), map(sub, y[1:], y)))


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


def first_bad_row(kind: np.ndarray, data: np.ndarray) -> Optional[tuple[int, str]]:
    """The first row of path columns that holds no segment and the rule it
    breaks, or None; checked without a numpy warning."""
    arc = kind == ARC
    x0, y0, x1, y1, sweep = data.T
    with np.errstate(invalid="ignore", over="ignore"):
        length, reach = np.hypot(x1 - x0, y1 - y0), np.maximum(abs(x0), abs(y0)) + x1
        checks = ((~np.isfinite(data).all(axis=1), "non-finite value"),
                  (arc & ~(x1 > 0.0), "arc radius must be positive"),
                  (arc & (np.abs(sweep) > TWO_PI), "arc sweep must lie in [-2pi, 2pi]"),
                  (arc & ~np.isfinite(reach), "arc box (center +- radius) overflows a float"),
                  (~arc & ~(length > LENGTH_EPSILON), "line endpoints coincide"),
                  (~arc & ~np.isfinite(length), "line length overflows a float"))
    failed = [(int(bad.argmax()), rule) for bad, rule in checks if bad.any()]
    return min(failed, key=lambda f: f[0], default=None)


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
        if (bad := first_bad_row(self.kind, self.data)) is not None:
            raise ValueError("segment {}: {}".format(*bad))

    @classmethod
    def _from_columns(cls, kind, data, start_point: Point2, end_point: Point2) -> "SmoothPath":
        """A path over rows the caller has already checked."""
        return object.__new__(cls)._fill(kind, data, start_point, end_point)

    def _fill(self, kind, data, start_point: Point2, end_point: Point2) -> "SmoothPath":
        kind = np.asarray(kind, dtype=np.int8)
        data = np.asarray(data, dtype=np.float64).reshape(len(kind), 5)
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


def _half_turn(crs, dt, m=_FLOATS):
    """tan(turn / 2) as (num, den), from the cross and dot products of the
    unit edge directions: |u1 x u2| / (1 + u1.u2), or (1 - u1.u2) / |u1 x u2|
    where u1.u2 < 0 and 1 + u1.u2 would cancel. den is 0 only at an exact
    reversal."""
    acrs = abs(crs)
    obtuse = dt < 0.0
    return m.where(obtuse, 1.0 - dt, acrs), m.where(obtuse, acrs, 1.0 + dt)


def _solve_raw(xm, ym, u1x, u1y, u2x, u2y, r, m=_FLOATS):
    """Tangent solve at vertex p_m = (xm, ym), entered along the unit
    direction u1 and left along u2, on floats or, with ``m = _ARRAYS``, on
    columns of such vertices.

    Returns (q1x, q1y, q2x, q2y, cx, cy, l, crs, dt, r, through): the entry
    and exit tangent points, the arc center, the tangent length, the cross
    and dot products of the edge directions, whose ``atan2`` is the signed
    turn angle (positive = left), the radius and whether the vertex carries
    no arc, which has l = 0: a collinear pass-through, or radius 0 (an arc
    that best-effort clamping drops). An exact reversal (crs == 0 and
    dt < 0, the one zero denominator) has l = inf so the edge check rejects
    it; so has a tangent length that overflows. Only l is meaningful on
    those kinds of vertex.
    """
    crs = u1x * u2y - u1y * u2x
    dt = u1x * u2x + u1y * u2y
    through = ((abs(crs) <= COLLINEAR_EPSILON) & (dt > 0.0)) | (r == 0.0)
    num, den = _half_turn(crs, dt, m)
    reversal = den == 0.0
    fit = r * (num / (den + reversal))  # tan(turn / 2) times r; divides by 1 at a reversal
    l = m.where(through, 0.0, m.where(reversal, math.inf, fit))
    q1x = xm - fit * u1x
    q1y = ym - fit * u1y
    side = m.copysign(r, crs)  # the center lies left of a left turn (atan2 keeps the sign)
    return (q1x, q1y, xm + fit * u2x, ym + fit * u2y, q1x - side * u1y, q1y + side * u1x, l, crs,
            dt, r, through)


_RAW_FIELDS = 11


class _Pass(NamedTuple):
    """The one record every predicate, every refusal and every assembly
    reads: the backend, the coordinate columns, per edge e its length
    |p_e p_e+1|, its unit direction (ux, uy) and its verdict ``holds`` (the
    edge condition), the tangent length per vertex (0 at the endpoints and
    at pass-through vertices, inf at an exact reversal or an overflow) and
    the ``_solve_raw`` columns of the interior vertices."""

    m: SimpleNamespace
    x: Sequence[float]
    y: Sequence[float]
    edges: Sequence[float]
    ux: Sequence[float]
    uy: Sequence[float]
    ls: Sequence[float]
    holds: Sequence[bool]
    raws: list


def _edge(ax, ay, bx, by, m=_FLOATS):
    """Length and unit direction of the edge from a to b."""
    dx = bx - ax
    dy = by - ay
    n = m.sqrt(dx * dx + dy * dy)
    return n, dx / n, dy / n


def _tangent_pass(p: Polyline, r: float) -> _Pass:
    check_turn_radius(r)
    m = _backend(len(p.xy))
    x, y = m.columns(p.xy)
    edges, ux, uy = m.map_n(3, _edge, x[:-1], y[:-1], x[1:], y[1:])  # each edge measured once
    with m.quiet():  # a tangent length that overflows is inf, which the edge check refuses
        raws = m.map_n(_RAW_FIELDS, _solve_raw, x[1:-1], y[1:-1], ux[:-1], uy[:-1], ux[1:], uy[1:],
                       m.each(r))
    ls = m.cat([0.0], raws[6], [0.0])
    return _Pass(m, x, y, edges, ux, uy, ls, m.map(_holds, edges, ls[:-1], ls[1:]), raws)


def _triplet(q1x, q1y, q2x, q2y, cx, cy, l, crs, dt, radius, xm, ym) -> TripletSolution:
    d = _distance(cx, cy, xm, ym)
    sweep = math.atan2(crs, dt)
    return TripletSolution(Point2(q1x, q1y), Point2(q2x, q2y), Point2(cx, cy), l, d,
                           math.pi - abs(sweep), sweep, d - radius)


def _holds(edge, l0, l1, m=_FLOATS):
    """The paper's edge condition |p_j p_k| >= l_j + l_k. It implies the
    per-vertex fit l_j <= min(|p_i p_j|, |p_j p_k|), also in floating point,
    so all edges passing means the polyline is feasible."""
    return edge >= l0 + l1


def _fits(l, e0, e1, m=_FLOATS):
    return (l <= e0) & (l <= e1)


def _far(ax, ay, qx, qy, through, r, m=_FLOATS):
    return through | (_distance(ax, ay, qx, qy, m) >= 4.0 * r)


def _existence(tp: _Pass) -> FeasibilityReport:
    m, edges, ls = tp.m, tp.edges, tp.ls
    return FeasibilityReport((True, *m.tolist(m.map(_fits, ls[1:-1], edges[:-1], edges[1:])), True),
                             tuple(m.tolist(tp.holds)))


def _far_flags(tp: _Pass) -> tuple[bool, ...]:
    """Far flags of a feasible pass: edge (p_j, p_k) passes when the exit
    tangent point after p_k lies at least 4r from p_j."""
    m, x, y, raws = tp.m, tp.x, tp.y, tp.raws
    with m.quiet():  # a far distance that overflows is inf, which passes
        far = m.map(_far, x[:-2], y[:-2], raws[2], raws[3], raws[10], raws[9])
    return (*m.tolist(far), True)


def _infeasible(tp: _Pass, vertex: Optional[int] = None):
    """Refusal naming ``vertex``, else the first vertex whose tangent length
    overruns an incident edge, else the first edge too short for its two
    tangent lengths, with the numbers and the report of the tangent pass. An
    infinite tangent length is named an exact reversal where the edge
    directions are opposite (crs == 0, dt < 0), else an overflow."""
    edges, ls, report = tp.edges, tp.ls, _existence(tp)
    if vertex is None and report.local_violations:
        vertex = report.local_violations[0]
    if vertex is not None:
        edge, need = float(min(edges[vertex - 1], edges[vertex])), float(ls[vertex])
        reason = f"vertex {vertex}: l = {need:.6g} > min edge {edge:.6g}"
    else:
        e = report.global_violations[0]
        edge, need = float(edges[e]), float(ls[e] + ls[e + 1])
        reason = f"edge {e}: |p{e} p{e + 1}| = {edge:.6g} < l{e} + l{e + 1} = {need:.6g}"
    if need < math.inf:
        short = f"short by {need - edge:.3g}"
    elif vertex is not None and _half_turn(tp.raws[7][vertex - 1], tp.raws[8][vertex - 1])[1] == 0.0:
        short = "exact reversal"
    else:
        short = "tangent length overflows a float"
    return FeasibilityError(f"{reason} ({short})", report)


def check_global_existence(p: Polyline, r: float) -> FeasibilityReport:
    """Per-vertex fit l_j <= min(|p_i p_j|, |p_j p_k|) and per-edge check
    |p_j - p_k| >= l_j + l_k that consecutive tangent points exist in order;
    endpoint vertices contribute zero."""
    return _existence(_tangent_pass(p, r))


def check_far_condition(p: Polyline, r: float) -> tuple[bool, ...]:
    """Per consecutive pair (p_j, p_k): the exit tangent point after p_k is
    at least 4r from p_j. Pass-through and endpoint vertices carry no arc
    and pass trivially. Raises FeasibilityError when tangent points are not
    computable."""
    return _far_flags(_solves(p, r, "strict")[0])


def feasibility_report(p: Polyline, r: float) -> FeasibilityReport:
    """Full report: local and global existence plus the 4r far condition
    (far flags omitted when existence already fails)."""
    tp = _tangent_pass(p, r)
    report = _existence(tp)
    if report.feasible:
        report = FeasibilityReport(report.local_ok, report.global_ok, _far_flags(tp))
    return report


def _cap(edge, l0, l1, n0, d0, n1, d1, holds, m=_FLOATS):
    """The radius a failing edge lets both its ends keep, edge / (t0 + t1) with
    t = tan(turn / 2) = n / d (0 at an end with l = 0): r cancels, so an
    overflowed end caps as a finite one does. inf where the edge holds."""
    t0 = m.where(l0 == 0.0, 0.0, n0 / d0)
    t1 = m.where(l1 == 0.0, 0.0, n1 / d1)
    return m.where(holds, math.inf, edge / (t0 + t1 + holds))  # + holds: t0 + t1 may be 0 there


def _clamped_radius(cap0, cap1, r, m=_FLOATS):
    """The smaller of a vertex's two caps where it is below r, else r; 0
    where that radius vanishes and the arc is dropped."""
    cap = m.min(cap0, cap1)
    return m.where(cap < r, m.where(cap <= LENGTH_EPSILON, 0.0, cap), r)


def _clamp(tp: _Pass, num, den) -> list:
    """Best-effort solves: each vertex is solved again at the smaller of its two
    edges' caps where that is below r, so each edge holds its tangent lengths."""
    m, x, y, edges, ux, uy, ls, holds, raws = tp
    ns, ds = m.cat([0.0], num, [0.0]), m.cat([1.0], den, [1.0])  # the endpoints have t = 0
    with m.quiet():  # near a reversal t and the re-solve may overflow; a t of inf caps at 0
        caps = m.map(_cap, edges, ls[:-1], ls[1:], ns[:-1], ds[:-1], ns[1:], ds[1:], holds)
        radius = m.map(_clamped_radius, caps[:-1], caps[1:], raws[9])
        return m.map_n(_RAW_FIELDS, _solve_raw, x[1:-1], y[1:-1], ux[:-1], uy[:-1], ux[1:],
                       uy[1:], radius)


def _solves(p: Polyline, r: float, mode: str) -> tuple[_Pass, list]:
    """Tangent pass and the mode's solve columns: the pass's own where every
    edge holds, in both modes. Strict refuses a polyline with a failing edge;
    best-effort clamps it, unless a vertex is an exact reversal."""
    if mode not in ("strict", "best-effort"):
        check_turn_radius(r)  # a bad radius is named before a bad mode
        raise ValueError(f"unknown smoothing mode {mode!r}")
    tp = _tangent_pass(p, r)
    if tp.m.all(tp.holds):
        return tp, tp.raws
    if mode == "strict":
        raise _infeasible(tp)
    num, den = tp.m.map_n(2, _half_turn, tp.raws[7], tp.raws[8])
    if len(reversals := tp.m.find(den, 0.0)):
        raise _infeasible(tp, int(reversals[0]) + 1)
    return tp, _clamp(tp, num, den)


def vertex_solutions(p: Polyline, r: float) -> list[Optional[TripletSolution]]:
    """Triplet solution per interior vertex (None = pass-through) of the
    strict smoothing; refuses what strict ``smooth_polyline`` refuses."""
    tp, raws = _solves(p, r, "strict")
    *cols, through = map(tp.m.tolist, raws)
    x, y = tp.m.tolist(tp.x[1:-1]), tp.m.tolist(tp.y[1:-1])
    return [None if t else _triplet(*row, xm, ym) for *row, t, xm, ym in zip(*cols, through, x, y)]


def _start_angle(q1x, q1y, cx, cy, m=_FLOATS):
    start = m.atan2(q1y - cy, q1x - cx)  # in [-pi, pi]; a heading lies in (-pi, pi]
    return m.where(start == -math.pi, math.pi, start)


def smooth_polyline(p: Polyline, r: float, mode: str = "strict") -> SmoothPath:
    """Smooth a polyline into the shortest G1 path of lines and radius-r arcs.

    The default "strict" mode refuses infeasible input with a
    FeasibilityError carrying the per-vertex/per-edge report; "best-effort"
    instead gives each vertex the smaller of its edges' radius caps, where an
    edge that cannot hold its two tangent lengths caps both its ends at
    edge / (t0 + t1), t = tan(turn / 2), and so trades the curvature
    guarantee for totality. Neither mode smooths an exact reversal.
    """
    tp, raws = _solves(p, r, mode)
    x0, y0, xn, yn = float(tp.x[0]), float(tp.y[0]), float(tp.x[-1]), float(tp.y[-1])
    kind, data = tp.m.assemble(x0, y0, xn, yn, *raws)  # a line into each arc unless it is empty
    return SmoothPath._from_columns(kind, data, Point2(x0, y0), Point2(xn, yn))


def smooth_polyline_batch(p: Polyline, r: float, parallelism_hint: Optional[int] = None) -> SmoothPath:
    """Strict ``smooth_polyline``; ``parallelism_hint`` is ignored.

    Kept for callers of the former thread-pool mode, which held the GIL for
    all but the per-vertex solves and so was no faster than one thread.
    """
    return smooth_polyline(p, r)


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

    Each piece runs from the previous piece's ``end`` (the same ``Pose``) to
    a vertex's exit tangent configuration; the tail piece covers the final
    straight. ``guaranteed`` carries the piece's 4r far-condition flag.
    """
    tp = _solves(p, r, "strict")[0]
    far = _far_flags(tp)
    q1x, q1y, q2x, q2y, _, _, _, crs, dt, _, through = map(tp.m.tolist, tp.raws)
    xs, ys = tp.m.tolist(tp.x), tp.m.tolist(tp.y)
    arcs = _FLOATS.find(through, False)  # vertex k + 1 carries an arc
    x, y = xs[0], ys[0]
    j = arcs[0] + 1 if arcs else -1  # the path leaves toward the first arc vertex or the end
    start = Pose(Point2(x, y), Heading(math.atan2(ys[j] - y, xs[j] - x)))
    pieces: list[PathPiece] = []
    for k in arcs:
        j = k + 1
        length = math.hypot(q1x[k] - x, q1y[k] - y) + r * abs(math.atan2(crs[k], dt[k]))
        exit_heading = Heading(math.atan2(ys[j + 1] - ys[j], xs[j + 1] - xs[j]))
        end = Pose(Point2(q2x[k], q2y[k]), exit_heading)
        pieces.append(PathPiece(start, end, length, far[k], j))
        x, y, start = q2x[k], q2y[k], end
    if _line(x, y, xs[-1], ys[-1]):  # as assembly emits a tail line
        end = Pose(Point2(xs[-1], ys[-1]), start.heading)
        pieces.append(PathPiece(start, end, math.hypot(xs[-1] - x, ys[-1] - y), True, None))
    return pieces


def point_to_path_distance(p: Point2, path: SmoothPath) -> float:
    """Minimum distance from a point to any path segment."""
    return min((point_segment_distance(p.x, p.y, *row[:4]) if kind == LINE
                else point_arc_distance(p.x, p.y, *row)
                for kind, row in zip(path.kind.tolist(), path.data.tolist())), default=math.inf)
