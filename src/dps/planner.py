"""Obstacle-aware planning: inflate convex obstacles by a mitered offset,
build a visibility graph over the inflated vertices, run A*, smooth the
resulting polyline, and certify clearance against the original obstacles.
Graph edges lie on supporting lines of the polygon at each polygon-vertex
end (the tangent graph); the exact clearance search stops once a
bounding-box lower bound reaches the best distance found.

The offset keeps a disk robot of radius h safe even where the smoothing
arc cuts inside an inflated corner, provided the arc's turning radius is r
and the corner has interior angle alpha: the required inflation is
max(h*sin(alpha/2) + r*(1 - sin(alpha/2)), h).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .geom import (
    LENGTH_EPSILON,
    ArcSegment,
    Point2,
    angle_in_sweep,
    arc_endpoint,
    dist,
    interior_angle,
    point_arc_distance,
    point_segment_distance,
)
from .smoother import (
    LINE,
    FeasibilityError,
    Polyline,
    SmoothPath,
    _segment,
    check_turn_radius,
    path_length,
    smooth_polyline,
)


class NoPathError(Exception):
    """No collision-free route exists in the visibility graph."""


class UnreachableConfigurationError(NoPathError):
    """Start or goal lies inside an inflated obstacle."""


@dataclass(frozen=True, slots=True)
class ConvexPolygon:
    """Strictly convex polygon with counter-clockwise vertices."""

    vertices: tuple[Point2, ...]

    def __init__(self, vertices: Sequence[Point2]):
        verts = tuple(vertices)
        if len(verts) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(verts)}")
        n = len(verts)
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            c = verts[(i + 2) % n]
            crs = (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x)
            if crs <= 0.0:
                raise ValueError(
                    "vertices must be counter-clockwise and strictly convex "
                    f"(violated at index {(i + 1) % n})"
                )
        object.__setattr__(self, "vertices", verts)

    @classmethod
    def from_points(cls, points: Iterable[Point2]) -> "ConvexPolygon":
        """Convex hull of arbitrary points (non-convex input is hulled)."""
        return cls(convex_hull(points))

    def interior_angles(self) -> list[float]:
        verts = self.vertices
        n = len(verts)
        return [interior_angle(verts[i - 1], verts[i], verts[(i + 1) % n]) for i in range(n)]

    def contains(self, p: Point2, tol: float = 0.0) -> bool:
        """Point-in-polygon test; positive tol shrinks toward the interior."""
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            s = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
            if s < tol * math.hypot(b.x - a.x, b.y - a.y):
                return False
        return True


def convex_hull(points: Iterable[Point2]) -> list[Point2]:
    """Counter-clockwise convex hull (monotone chain, collinear points dropped)."""
    pts = sorted(set((p.x, p.y) for p in points))
    if len(pts) < 3:
        raise ValueError("convex hull needs at least 3 distinct points")

    def half(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0.0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("points are collinear; no polygon hull exists")
    return [Point2(x, y) for x, y in hull]


@dataclass(frozen=True, slots=True)
class Bounds:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("bounds must satisfy xmin < xmax and ymin < ymax")

    def contains(self, p: Point2) -> bool:
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax


@dataclass(frozen=True, slots=True)
class Scenario:
    """Planning problem: convex obstacles, a disk robot of radius h, and a
    minimum turning radius r."""

    obstacles: tuple[ConvexPolygon, ...]
    bounds: Bounds
    robot_radius: float
    turning_radius: float
    start: Point2
    goal: Point2

    def __post_init__(self):
        if not (self.robot_radius > 0.0 and math.isfinite(self.robot_radius)):
            raise ValueError(f"robot radius must be positive, got {self.robot_radius}")
        check_turn_radius(self.turning_radius)
        if not self.bounds.contains(self.start):
            raise ValueError("start must lie inside the bounds")
        if not self.bounds.contains(self.goal):
            raise ValueError("goal must lie inside the bounds")
        if dist(self.start, self.goal) <= LENGTH_EPSILON:
            raise ValueError(f"start {self.start} and goal {self.goal} coincide")


@dataclass(frozen=True, slots=True)
class VisibilityGraph:
    """Nodes are inflated-obstacle vertices plus start and goal; an edge
    joins a pair whose open segment misses all inflated interiors and whose
    line supports the polygon at each polygon-vertex end."""

    nodes: tuple[Point2, ...]
    edges: tuple[tuple[int, int, float], ...]
    start_index: int
    goal_index: int

    def adjacency(self) -> list[list[tuple[int, float]]]:
        adj: list[list[tuple[int, float]]] = [[] for _ in self.nodes]
        for i, j, w in self.edges:
            adj[i].append((j, w))
            adj[j].append((i, w))
        return adj


def required_offset(h: float, r: float, alpha: float) -> float:
    """Minimum mitered inflation at a vertex of interior angle alpha so the
    smoothed path of turning radius r keeps a robot of radius h clear."""
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"robot radius must be positive, got {h}")
    check_turn_radius(r)
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"vertex angle must lie in (0, pi), got {alpha}")
    s = math.sin(0.5 * alpha)
    return max(h * s + r * (1.0 - s), h)


def mitered_inflate(poly: ConvexPolygon, offset: float) -> ConvexPolygon:
    """Translate each edge outward by ``offset`` and join at the sharp
    intersections of consecutive edge lines (miter corners).

    Each output vertex lies offset/sin(alpha/2) from its original vertex
    along the exterior bisector, so the original polygon keeps distance at
    least ``offset`` from the inflated boundary.
    """
    if not (offset > 0.0 and math.isfinite(offset)):
        raise ValueError(f"offset must be positive, got {offset}")
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
        # Outward normals of a CCW polygon point to the right of each edge.
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


def _segment_blocked(a: Point2, b: Point2, poly: ConvexPolygon) -> bool:
    """Whether the open segment ab crosses the polygon's open interior.

    Touching the boundary (grazing a vertex or running along an edge) does
    not block. Works by clipping the segment against the polygon's
    half-planes and testing whether the surviving midpoint is strictly
    inside.
    """
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


def _box(poly: ConvexPolygon) -> tuple[float, float, float, float]:
    xs, ys = [v.x for v in poly.vertices], [v.y for v in poly.vertices]
    return min(xs), min(ys), max(xs), max(ys)


def build_visibility_graph(
    scenario: Scenario, inflated: Sequence[ConvexPolygon]
) -> VisibilityGraph:
    """Tangent visibility graph over the inflated vertices plus start and goal.

    Travel is confined to the scenario bounds: inflated vertices pushed
    outside the box are unusable as waypoints, which is what lets a wall
    spanning the bounds actually block the route. Edges lie on supporting
    lines of the polygon at each vertex end, which leave it on one side, so
    only other polygons whose bounding box overlaps the segment's are tested.
    """
    for poly in inflated:
        for label, p in (("start", scenario.start), ("goal", scenario.goal)):
            if poly.contains(p, tol=LENGTH_EPSILON):
                raise UnreachableConfigurationError(f"{label} lies inside an inflated obstacle")
    nodes: list[Point2] = []
    hinges = []  # per node: offsets to its two polygon neighbours, its polygon's index
    for k, poly in enumerate(inflated):
        verts = poly.vertices
        for v, p, q in zip(verts, verts[-1:] + verts[:-1], verts[1:] + verts[:1]):
            if scenario.bounds.contains(v):
                nodes.append(v)
                hinges.append((p.x - v.x, p.y - v.y, q.x - v.x, q.y - v.y, k))
    start_index, goal_index = len(nodes), len(nodes) + 1
    nodes += (scenario.start, scenario.goal)
    hinges += [(0.0, 0.0, 0.0, 0.0, -1)] * 2
    boxes = [(_box(poly), k, poly) for k, poly in enumerate(inflated)]
    edges: list[tuple[int, int, float]] = []
    for i, a in enumerate(nodes):
        px, py, qx, qy, own_a = hinges[i]
        for j in range(i + 1, len(nodes)):
            b = nodes[j]
            dx = b.x - a.x
            dy = b.y - a.y
            # Not supporting: the two neighbours lie strictly on opposite sides.
            if (dx * py - dy * px) * (dx * qy - dy * qx) < 0.0:
                continue
            px2, py2, qx2, qy2, own_b = hinges[j]
            if (dx * py2 - dy * px2) * (dx * qy2 - dy * qx2) < 0.0:
                continue
            d = dist(a, b)
            if d <= LENGTH_EPSILON:
                continue
            x0, x1 = (a.x, b.x) if dx >= 0.0 else (b.x, a.x)
            y0, y1 = (a.y, b.y) if dy >= 0.0 else (b.y, a.y)
            for (bx0, by0, bx1, by1), k, poly in boxes:
                if (x0 < bx1 and bx0 < x1 and y0 < by1 and by0 < y1
                        and k != own_a and k != own_b and _segment_blocked(a, b, poly)):
                    break
            else:
                edges.append((i, j, d))
    return VisibilityGraph(tuple(nodes), tuple(edges), start_index, goal_index)


def _locate(graph: VisibilityGraph, p: Point2) -> int:
    # Start and goal come last: prefer them to a coincident vertex with pruned edges.
    for i in reversed(range(len(graph.nodes))):
        if dist(graph.nodes[i], p) <= LENGTH_EPSILON:
            return i
    raise ValueError(f"point ({p.x:g}, {p.y:g}) is not a graph node")


def shortest_polyline(graph: VisibilityGraph, start: Point2, goal: Point2) -> Polyline:
    """A* with the straight-line heuristic; optimal on the graph weights."""
    s = _locate(graph, start)
    g = _locate(graph, goal)
    adj = graph.adjacency()
    nodes = graph.nodes
    goal_node = nodes[g]
    dist_to = {s: 0.0}
    parent: dict[int, int] = {}
    heap = [(dist(nodes[s], goal_node), 0, s)]
    counter = 1
    closed: set[int] = set()
    while heap:
        f, _, u = heapq.heappop(heap)
        if u in closed:
            continue
        if u == g:
            break
        closed.add(u)
        du = dist_to[u]
        for v, w in adj[u]:
            nd = du + w
            if nd < dist_to.get(v, math.inf):
                dist_to[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd + dist(nodes[v], goal_node), counter, v))
                counter += 1
    if g not in dist_to:
        raise NoPathError("goal is unreachable in the visibility graph")
    order = [g]
    while order[-1] != s:
        order.append(parent[order[-1]])
    order.reverse()
    return Polyline([nodes[i] for i in order])


def _segment_into(a: Point2, b: Point2, poly: ConvexPolygon) -> float:
    """Distance from segment ab to the polygon (0 on contact or overlap)."""
    verts = poly.vertices
    n = len(verts)
    if poly.contains(a) or poly.contains(b):
        return 0.0
    best = math.inf
    for i in range(n):
        pa = verts[i]
        pb = verts[(i + 1) % n]
        best = min(best, _seg_seg_distance(a, b, pa, pb))
        if best == 0.0:
            return 0.0
    return best


def _seg_seg_distance(p1: Point2, p2: Point2, p3: Point2, p4: Point2) -> float:
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


def _orient(a: Point2, b: Point2, c: Point2) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _arc_segment_distance(
    arc: ArcSegment, a: Point2, b: Point2, start_pt: Point2, end_pt: Point2
) -> float:
    """Closed-form distance between a circular arc, whose end points are
    ``start_pt`` and ``end_pt``, and a segment."""
    cx, cy = arc.center.x, arc.center.y
    r = arc.radius
    dx = b.x - a.x
    dy = b.y - a.y
    seg_len_sq = dx * dx + dy * dy
    # Circle-line intersections restricted to the segment and arc interval.
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
    candidates = [
        point_arc_distance(a, arc),
        point_arc_distance(b, arc),
    ]
    candidates.append(point_segment_distance(start_pt, a, b))
    candidates.append(point_segment_distance(end_pt, a, b))
    if seg_len_sq > 0.0:
        t = ((cx - a.x) * dx + (cy - a.y) * dy) / seg_len_sq
        if 0.0 < t < 1.0:
            foot = Point2(a.x + t * dx, a.y + t * dy)
            candidates.append(point_arc_distance(foot, arc))
    return min(candidates)


def _arc_into(arc: ArcSegment, poly: ConvexPolygon) -> float:
    best = math.inf
    start_pt, _ = arc_endpoint(arc, at_end=False)
    end_pt, _ = arc_endpoint(arc, at_end=True)
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        gap = _arc_segment_distance(arc, verts[i], verts[(i + 1) % n], start_pt, end_pt)
        best = min(best, gap)
        if best == 0.0:
            return 0.0
    if best > 0.0 and poly.contains(start_pt):
        return 0.0
    return best


def clearance(path: SmoothPath, obstacles: Sequence[ConvexPolygon]) -> float:
    """Exact minimum distance between the path and any obstacle (edges and
    interior); 0 when they touch or intersect, inf with no obstacles. Visits
    (segment, obstacle) pairs by ascending bounding-box gap (an arc's box is
    its full circle's) until that lower bound reaches the best distance."""
    kinds, rows = path.kind.tolist(), path.data.tolist()
    boxes = [_box(poly) for poly in obstacles]
    pairs = []
    for si, (kind, (u0, v0, u1, v1, _)) in enumerate(zip(kinds, rows)):
        # A line row is (ax, ay, bx, by, 0), an arc row (cx, cy, radius, ...).
        x0, y0, x1, y1 = ((min(u0, u1), min(v0, v1), max(u0, u1), max(v0, v1)) if kind == LINE
                          else (u0 - u1, v0 - u1, u0 + u1, v0 + u1))
        for oi, (bx0, by0, bx1, by1) in enumerate(boxes):
            gap = math.hypot(max(bx0 - x1, x0 - bx1, 0.0), max(by0 - y1, y0 - by1, 0.0))
            pairs.append((gap, si, oi))
    pairs.sort()
    best = math.inf
    for gap, si, oi in pairs:
        if gap >= best:
            break
        seg, poly = _segment(kinds[si], rows[si]), obstacles[oi]
        best = min(best, _segment_into(seg.a, seg.b, poly) if kinds[si] == LINE else _arc_into(seg, poly))
    return best


@dataclass(frozen=True, slots=True)
class PlanResult:
    """Smoothed plan plus the clearance certificate against the original
    obstacles."""

    path: SmoothPath
    polyline: Polyline
    inflated: tuple[ConvexPolygon, ...]
    offsets: tuple[float, ...]
    clearance: float
    clearance_ok: bool
    length: float


def plan(scenario: Scenario) -> PlanResult:
    """Full pipeline: per-obstacle mitered inflation by the worst-vertex
    offset, visibility graph, A*, smoothing, and clearance certification
    against the original obstacles."""
    h = scenario.robot_radius
    r = scenario.turning_radius
    offsets = []
    inflated = []
    for poly in scenario.obstacles:
        offset = max(required_offset(h, r, alpha) for alpha in poly.interior_angles())
        offsets.append(offset)
        inflated.append(mitered_inflate(poly, offset))
    graph = build_visibility_graph(scenario, inflated)
    polyline = shortest_polyline(graph, scenario.start, scenario.goal)
    try:
        path = smooth_polyline(polyline, r)
    except FeasibilityError as err:
        err.polyline = polyline  # let callers inspect the offending route
        raise
    c = clearance(path, scenario.obstacles)
    return PlanResult(
        path=path,
        polyline=polyline,
        inflated=tuple(inflated),
        offsets=tuple(offsets),
        clearance=c,
        clearance_ok=(not scenario.obstacles) or c >= h,
        length=path_length(path),
    )
