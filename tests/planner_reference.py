"""Planner stages as they were before the float kernels, kept as test references.

``all_pairs_visibility_graph`` tests every node pair against every inflated
obstacle, and ``all_pairs_clearance`` takes the exact distance of every
(segment, obstacle) pair. They are the builder and the clearance loop the
planner used before the tangent graph and the bounded clearance search, so
tests can require the same routes and bit-identical clearances.
``per_edge_arc_into`` rebuilds the arc's end points for every polygon edge,
as the arc-to-polygon distance did before it built them once per polygon.

The blocking test, the segment/arc distances and the inflation below work on
``Point2``, ``ArcSegment`` and ``ConvexPolygon`` objects, one validated
object per intermediate point, as the planner did before it ran on plain
floats; ``reference_plan`` chains them into the whole pipeline.
"""

from __future__ import annotations

import math
from typing import Sequence

from dps.geom import (
    LENGTH_EPSILON,
    ArcSegment,
    LineSegment,
    Point2,
    angle_in_sweep,
    arc_endpoint,
    dist,
    interior_angle,
)
from dps.planner import (
    ConvexPolygon,
    PlanResult,
    Scenario,
    UnreachableConfigurationError,
    VisibilityGraph,
    required_offset,
    shortest_polyline,
)
from dps.smoother import FeasibilityError, SmoothPath, smooth_polyline


# -- point, segment and arc distances on objects ----------------------------


def point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    """Euclidean distance from a point to a closed segment."""
    dx = b.x - a.x
    dy = b.y - a.y
    den = dx * dx + dy * dy
    if den <= 0.0:
        return dist(p, a)
    t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / den
    t = max(0.0, min(1.0, t))
    return math.hypot(p.x - (a.x + t * dx), p.y - (a.y + t * dy))


def point_arc_distance(p: Point2, arc: ArcSegment) -> float:
    """Euclidean distance from a point to a circular arc."""
    dx = p.x - arc.center.x
    dy = p.y - arc.center.y
    d0 = math.hypot(dx, dy)
    if d0 <= LENGTH_EPSILON:
        return arc.radius
    phi = math.atan2(dy, dx)
    if angle_in_sweep(phi, arc.start_angle.theta, arc.sweep):
        return abs(d0 - arc.radius)
    start_pt, _ = arc_endpoint(arc, at_end=False)
    end_pt, _ = arc_endpoint(arc, at_end=True)
    return min(dist(p, start_pt), dist(p, end_pt))


def point_to_path_distance(p: Point2, path: SmoothPath) -> float:
    """Minimum distance from a point to any segment object of the path."""
    best = math.inf
    for seg in path.segments:
        if isinstance(seg, LineSegment):
            best = min(best, point_segment_distance(p, seg.a, seg.b))
        else:
            best = min(best, point_arc_distance(p, seg))
    return best


def segment_sum_length(path: SmoothPath) -> float:
    """Path length as the sum of the segment objects' lengths, in order."""
    return sum(seg.length() for seg in path.segments)


# -- polygon predicates -----------------------------------------------------


def segment_blocked(a: Point2, b: Point2, poly: ConvexPolygon) -> bool:
    """Whether the open segment ab crosses the polygon's open interior."""
    verts = poly.vertices
    n = len(verts)
    t0, t1 = 0.0, 1.0
    dx = b.x - a.x
    dy = b.y - a.y
    for i in range(n):
        pa = verts[i]
        pb = verts[(i + 1) % n]
        ex = pb.x - pa.x
        ey = pb.y - pa.y
        sa = ex * (a.y - pa.y) - ey * (a.x - pa.x)
        sb = ex * (b.y - pa.y) - ey * (b.x - pa.x)
        if sa < 0.0 and sb < 0.0:
            return False
        ds = sb - sa
        if ds != 0.0:
            t_cross = -sa / ds
            if ds < 0.0:  # leaving the half-plane
                t1 = min(t1, t_cross)
            else:  # entering
                t0 = max(t0, t_cross)
            if t0 >= t1:
                return False
    tm = 0.5 * (t0 + t1)
    mx = a.x + tm * dx
    my = a.y + tm * dy
    for i in range(n):
        pa = verts[i]
        pb = verts[(i + 1) % n]
        ex = pb.x - pa.x
        ey = pb.y - pa.y
        s = ex * (my - pa.y) - ey * (mx - pa.x)
        if s <= LENGTH_EPSILON * math.hypot(ex, ey):
            return False
    return True


def contains(poly: ConvexPolygon, p: Point2, tol: float = 0.0) -> bool:
    """Point-in-polygon test over the vertex objects."""
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        s = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
        if s < tol * math.hypot(b.x - a.x, b.y - a.y):
            return False
    return True


def _orient(a: Point2, b: Point2, c: Point2) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def seg_seg_distance(p1: Point2, p2: Point2, p3: Point2, p4: Point2) -> float:
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if ((d1 > 0 > d2) or (d1 < 0 < d2)) and ((d3 > 0 > d4) or (d3 < 0 < d4)):
        return 0.0
    return min(
        point_segment_distance(p1, p3, p4),
        point_segment_distance(p2, p3, p4),
        point_segment_distance(p3, p1, p2),
        point_segment_distance(p4, p1, p2),
    )


def segment_into(a: Point2, b: Point2, poly: ConvexPolygon) -> float:
    """Distance from segment ab to the polygon (0 on contact or overlap)."""
    verts = poly.vertices
    n = len(verts)
    if contains(poly, a) or contains(poly, b):
        return 0.0
    best = math.inf
    for i in range(n):
        best = min(best, seg_seg_distance(a, b, verts[i], verts[(i + 1) % n]))
        if best == 0.0:
            return 0.0
    return best


def arc_segment_distance(arc: ArcSegment, a: Point2, b: Point2) -> float:
    """Closed-form distance between a circular arc and a segment."""
    cx, cy = arc.center.x, arc.center.y
    r = arc.radius
    dx = b.x - a.x
    dy = b.y - a.y
    seg_len_sq = dx * dx + dy * dy
    fx = a.x - cx
    fy = a.y - cy
    qa = seg_len_sq
    qb = 2.0 * (fx * dx + fy * dy)
    qc = fx * fx + fy * fy - r * r
    disc = qb * qb - 4.0 * qa * qc
    if disc >= 0.0 and qa > 0.0:
        root = math.sqrt(disc)
        for t in ((-qb - root) / (2.0 * qa), (-qb + root) / (2.0 * qa)):
            if 0.0 <= t <= 1.0:
                px = a.x + t * dx
                py = a.y + t * dy
                phi = math.atan2(py - cy, px - cx)
                if angle_in_sweep(phi, arc.start_angle.theta, arc.sweep):
                    return 0.0
    start_pt, _ = arc_endpoint(arc, at_end=False)
    end_pt, _ = arc_endpoint(arc, at_end=True)
    candidates = [
        point_arc_distance(a, arc),
        point_arc_distance(b, arc),
        point_segment_distance(start_pt, a, b),
        point_segment_distance(end_pt, a, b),
    ]
    if seg_len_sq > 0.0:
        t = ((cx - a.x) * dx + (cy - a.y) * dy) / seg_len_sq
        if 0.0 < t < 1.0:
            foot = Point2(a.x + t * dx, a.y + t * dy)
            candidates.append(point_arc_distance(foot, arc))
    return min(candidates)


def per_edge_arc_into(arc: ArcSegment, poly: ConvexPolygon) -> float:
    """Exact distance between an arc and a polygon (0 inside or touching)."""
    best = math.inf
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        gap = arc_segment_distance(arc, verts[i], verts[(i + 1) % n])
        best = min(best, gap)
        if best == 0.0:
            return 0.0
    if best > 0.0:
        probe, _ = arc_endpoint(arc, at_end=False)
        if contains(poly, probe):
            return 0.0
    return best


# -- pipeline stages --------------------------------------------------------


def mitered_inflate(poly: ConvexPolygon, offset: float) -> ConvexPolygon:
    """Miter inflation built from per-vertex edge vectors and ``Point2``s."""
    verts = poly.vertices
    n = len(verts)
    out = []
    for i in range(n):
        prev = verts[i - 1]
        v = verts[i]
        nxt = verts[(i + 1) % n]
        e1x = v.x - prev.x
        e1y = v.y - prev.y
        e2x = nxt.x - v.x
        e2y = nxt.y - v.y
        n1 = math.hypot(e1x, e1y)
        n2 = math.hypot(e2x, e2y)
        n1x, n1y = e1y / n1, -e1x / n1
        n2x, n2y = e2y / n2, -e2x / n2
        denom = 1.0 + (n1x * n2x + n1y * n2y)
        out.append(
            Point2(
                v.x + offset * (n1x + n2x) / denom,
                v.y + offset * (n1y + n2y) / denom,
            )
        )
    return ConvexPolygon(out)


def interior_angles(poly: ConvexPolygon) -> list[float]:
    verts = poly.vertices
    n = len(verts)
    return [interior_angle(verts[i - 1], verts[i], verts[(i + 1) % n]) for i in range(n)]


def worst_offset(scenario: Scenario, poly: ConvexPolygon) -> float:
    h, r = scenario.robot_radius, scenario.turning_radius
    return max(required_offset(h, r, a) for a in interior_angles(poly))


def inflate_obstacles(scenario: Scenario) -> list[ConvexPolygon]:
    """The inflation ``plan()`` applies: each obstacle by its worst-vertex offset."""
    return [mitered_inflate(poly, worst_offset(scenario, poly)) for poly in scenario.obstacles]


def all_pairs_visibility_graph(
    scenario: Scenario, inflated: Sequence[ConvexPolygon]
) -> VisibilityGraph:
    """Every node pair whose open segment misses all inflated interiors."""
    for poly in inflated:
        for label, p in (("start", scenario.start), ("goal", scenario.goal)):
            if contains(poly, p, tol=LENGTH_EPSILON):
                raise UnreachableConfigurationError(
                    f"{label} lies inside an inflated obstacle"
                )
    nodes: list[Point2] = []
    for poly in inflated:
        nodes.extend(v for v in poly.vertices if scenario.bounds.contains(v))
    start_index = len(nodes)
    nodes.append(scenario.start)
    goal_index = len(nodes)
    nodes.append(scenario.goal)
    edges: list[tuple[int, int, float]] = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            a, b = nodes[i], nodes[j]
            if dist(a, b) <= LENGTH_EPSILON:
                continue
            if any(segment_blocked(a, b, poly) for poly in inflated):
                continue
            edges.append((i, j, dist(a, b)))
    return VisibilityGraph(tuple(nodes), tuple(edges), start_index, goal_index)


def all_pairs_clearance(path: SmoothPath, obstacles: Sequence[ConvexPolygon]) -> float:
    """Minimum exact distance over every (segment, obstacle) pair."""
    best = math.inf
    for seg in path.segments:
        for poly in obstacles:
            if isinstance(seg, LineSegment):
                d = segment_into(seg.a, seg.b, poly)
            else:
                d = per_edge_arc_into(seg, poly)
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
    return best


def reference_plan(scenario: Scenario) -> PlanResult:
    """``plan()`` from the reference stages: object inflation, the all-pairs
    graph, A*, smoothing, the all-pairs clearance and the segment-sum length."""
    offsets, inflated = [], []
    for poly in scenario.obstacles:
        offsets.append(worst_offset(scenario, poly))
        inflated.append(mitered_inflate(poly, offsets[-1]))
    graph = all_pairs_visibility_graph(scenario, inflated)
    polyline = shortest_polyline(graph)
    try:
        path = smooth_polyline(polyline, scenario.turning_radius)
    except FeasibilityError as err:
        err.polyline = polyline
        raise
    c = all_pairs_clearance(path, scenario.obstacles)
    return PlanResult(
        path=path,
        polyline=polyline,
        inflated=tuple(inflated),
        offsets=tuple(offsets),
        clearance=c,
        clearance_ok=(not scenario.obstacles) or c >= scenario.robot_radius,
        length=segment_sum_length(path),
    )
