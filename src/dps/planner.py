"""Obstacle-aware planning: inflate convex obstacles by a mitered offset,
build a visibility graph over the inflated vertices, run A* between the
graph's start and goal nodes, smooth the resulting polyline, and certify
clearance against the original obstacles. Graph edges lie on supporting
lines of the polygon at each polygon-vertex end (the tangent graph); the
exact clearance search stops once a bounding-box lower bound reaches the
best distance found. All stages run on plain floats: a polygon carries its
coordinates and bounding box, one pass over its edge vectors gives its
angles, offset and miter vertices, and the blocking and distance kernels
take coordinates and ``SmoothPath`` rows.

The offset keeps a disk robot of radius h safe even where the smoothing
arc cuts inside an inflated corner, provided the arc's turning radius is r
and the corner has interior angle alpha: the required inflation is
max(h*sin(alpha/2) + r*(1 - sin(alpha/2)), h).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .geom import (
    LENGTH_EPSILON,
    DegeneratePointsError,
    Point2,
    angle_in_sweep,
    arc_ends,
    dist,
    point_arc_distance,
    point_segment_distance,
)
from .smoother import (
    LINE,
    FeasibilityError,
    Polyline,
    SmoothPath,
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
    """Strictly convex polygon with counter-clockwise vertices.

    The convexity check also fills ``xs`` and ``ys``, the vertex coordinates,
    and ``box`` = (xmin, ymin, xmax, ymax). They are derived from ``vertices``
    and take no part in ``==``, ``hash`` or ``repr``.
    """

    vertices: tuple[Point2, ...]
    xs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    ys: tuple[float, ...] = field(init=False, repr=False, compare=False)
    box: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __init__(self, vertices: Sequence[Point2]):
        verts = tuple(vertices)
        self._fill(verts, tuple([v.x for v in verts]), tuple([v.y for v in verts]))

    @classmethod
    def _from_coordinates(cls, xs: Sequence[float], ys: Sequence[float]) -> "ConvexPolygon":
        return object.__new__(cls)._fill(tuple(map(Point2, xs, ys)), tuple(xs), tuple(ys))

    def _fill(self, verts, xs, ys) -> "ConvexPolygon":
        n = len(verts)
        if n < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {n}")
        for m in range(1 - n, 1):  # the turn at vertex m % n, from 1 round to 0
            ex, ey = xs[m] - xs[m - 1], ys[m] - ys[m - 1]
            if ex * (ys[m + 1] - ys[m]) - ey * (xs[m + 1] - xs[m]) <= 0.0:
                raise ValueError("vertices must be counter-clockwise and strictly convex "
                                 f"(violated at index {m % n})")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "box", (min(xs), min(ys), max(xs), max(ys)))
        return self

    @classmethod
    def from_points(cls, points: Iterable[Point2]) -> "ConvexPolygon":
        """Convex hull of arbitrary points (non-convex input is hulled)."""
        return cls(convex_hull(points))

    def interior_angles(self) -> list[float]:
        return [alpha for alpha, _, _, _ in _corners(self)]

    def contains(self, p: Point2, tol: float = 0.0) -> bool:
        """Point-in-polygon test; positive tol shrinks toward the interior."""
        return _inside(self.xs, self.ys, p.x, p.y, tol)


def _inside(xs, ys, px: float, py: float, tol: float = 0.0) -> bool:
    ax, ay = xs[-1], ys[-1]
    for bx, by in zip(xs, ys):
        ex, ey = bx - ax, by - ay
        if ex * (py - ay) - ey * (px - ax) < tol * math.hypot(ex, ey):
            return False
        ax, ay = bx, by
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
    return _worst_offset(h, r, (alpha,))


def _worst_offset(h: float, r: float, angles: Iterable[float]) -> float:
    """The largest ``required_offset`` over the angles for checked h and r; an
    angle that rounds to pi takes the limit value h, as sin(pi/2) is 1.0."""
    offset = h
    for alpha in angles:
        if not alpha > 0.0:
            raise ValueError(f"vertex angle must lie in (0, pi), got {alpha}")
        s = math.sin(0.5 * alpha)
        offset = max(offset, h * s + r * (1.0 - s))
    return offset


def _corners(poly: ConvexPolygon) -> list[tuple[float, float, float, float]]:
    """One pass over the polygon's edge vectors giving, per vertex, the
    interior angle as ``interior_angle`` computes it and the miter terms of
    ``mitered_inflate``: the sum (mx, my) of the two edges' outward unit
    normals and one plus their dot product."""
    xs, ys = poly.xs, poly.ys
    x1, y1 = xs[0], ys[0]
    e1x, e1y = x1 - xs[-1], y1 - ys[-1]  # the edge into vertex 0; its length is checked last
    d1 = math.hypot(e1x, e1y)
    n1x, n1y = e1y / d1, -e1x / d1  # outward normals of a CCW polygon point right of each edge
    out = []
    for x2, y2 in zip(xs[1:] + xs[:1], ys[1:] + ys[:1]):
        e2x, e2y = x2 - x1, y2 - y1  # the edge out of it
        d2 = math.hypot(e2x, e2y)
        if d2 <= LENGTH_EPSILON:
            raise DegeneratePointsError("interior angle needs three pairwise distinct points")
        n2x, n2y = e2y / d2, -e2x / d2
        alpha = math.pi - math.atan2(abs(e1x * e2y - e1y * e2x), e1x * e2x + e1y * e2y)
        out.append((alpha, n1x + n2x, n1y + n2y, 1.0 + (n1x * n2x + n1y * n2y)))
        x1, y1, e1x, e1y, n1x, n1y = x2, y2, e2x, e2y, n2x, n2y
    return out


def mitered_inflate(poly: ConvexPolygon, offset: float, corners: list | None = None) -> ConvexPolygon:
    """Translate each edge outward by ``offset`` and join at the sharp
    intersections of consecutive edge lines (miter corners).

    Each output vertex lies offset/sin(alpha/2) from its original vertex
    along the exterior bisector, so the original polygon keeps distance at
    least ``offset`` from the inflated boundary. ``corners`` is the
    polygon's corner pass when the caller has already run it.
    """
    if not (offset > 0.0 and math.isfinite(offset)):
        raise ValueError(f"offset must be positive, got {offset}")
    corners = _corners(poly) if corners is None else corners
    return ConvexPolygon._from_coordinates(
        [x + offset * mx / d for x, (_, mx, _, d) in zip(poly.xs, corners)],
        [y + offset * my / d for y, (_, _, my, d) in zip(poly.ys, corners)],
    )


def _segment_blocked(ax: float, ay: float, bx: float, by: float, xs, ys) -> bool:
    """Whether the open segment from (ax, ay) to (bx, by) crosses the open
    interior of the polygon with vertex coordinates ``xs``, ``ys``.

    Touching the boundary (grazing a vertex or running along an edge) does
    not block. Works by clipping the segment against the polygon's
    half-planes and testing whether the surviving midpoint is strictly inside.
    """
    t0, t1 = 0.0, 1.0
    dx, dy = bx - ax, by - ay
    px, py = xs[-1], ys[-1]
    for qx, qy in zip(xs, ys):
        ex, ey = qx - px, qy - py
        sa = ex * (ay - py) - ey * (ax - px)
        sb = ex * (by - py) - ey * (bx - px)
        if sa < 0.0 and sb < 0.0:
            return False
        ds = sb - sa
        if ds != 0.0:
            t_cross = -sa / ds
            if ds < 0.0:  # leaving the half-plane
                t1 = t_cross if t_cross < t1 else t1
            else:  # entering
                t0 = t_cross if t_cross > t0 else t0
            if t0 >= t1:
                return False
        px, py = qx, qy
    tm = 0.5 * (t0 + t1)
    mx, my = ax + tm * dx, ay + tm * dy
    for qx, qy in zip(xs, ys):
        ex, ey = qx - px, qy - py
        if ex * (my - py) - ey * (mx - px) <= LENGTH_EPSILON * math.hypot(ex, ey):
            return False
        px, py = qx, qy
    return True


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
    b = scenario.bounds
    nodes: list[Point2] = []
    hinges = []  # per node: x, y, offsets to its two polygon neighbours, its polygon's index
    for k, poly in enumerate(inflated):
        xs, ys = poly.xs, poly.ys
        for i, v in enumerate(poly.vertices):
            x, y = xs[i], ys[i]
            if b.xmin <= x <= b.xmax and b.ymin <= y <= b.ymax:
                nodes.append(v)
                j = i + 1 - len(xs)  # the next vertex, counted from the end
                hinges.append((x, y, xs[i - 1] - x, ys[i - 1] - y, xs[j] - x, ys[j] - y, k))
    start_index, goal_index = len(nodes), len(nodes) + 1
    nodes += (scenario.start, scenario.goal)
    hinges += [(p.x, p.y, 0.0, 0.0, 0.0, 0.0, -1) for p in (scenario.start, scenario.goal)]
    blockers = [(poly.box, k, poly.xs, poly.ys) for k, poly in enumerate(inflated)]
    edges: list[tuple[int, int, float]] = []
    for i, (ax, ay, px, py, qx, qy, own_a) in enumerate(hinges):
        for j, (bx, by, px2, py2, qx2, qy2, own_b) in enumerate(hinges[i + 1:], i + 1):
            dx, dy = bx - ax, by - ay
            # Not supporting: the two neighbours lie strictly on opposite sides.
            if ((dx * py - dy * px) * (dx * qy - dy * qx) < 0.0
                    or (dx * py2 - dy * px2) * (dx * qy2 - dy * qx2) < 0.0):
                continue
            d = math.hypot(dx, dy)
            if d <= LENGTH_EPSILON:
                continue
            x0, x1 = (ax, bx) if dx >= 0.0 else (bx, ax)
            y0, y1 = (ay, by) if dy >= 0.0 else (by, ay)
            for (bx0, by0, bx1, by1), k, xs, ys in blockers:
                if (x0 < bx1 and bx0 < x1 and y0 < by1 and by0 < y1
                        and k != own_a and k != own_b and _segment_blocked(ax, ay, bx, by, xs, ys)):
                    break
            else:
                edges.append((i, j, d))
    return VisibilityGraph(tuple(nodes), tuple(edges), start_index, goal_index)


def shortest_polyline(graph: VisibilityGraph) -> Polyline:
    """A* from the graph's start node to its goal node with the straight-line
    heuristic; optimal on the graph weights."""
    s, g = graph.start_index, graph.goal_index
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


def _segment_into(ax: float, ay: float, bx: float, by: float, xs, ys) -> float:
    """Distance from the segment (ax, ay)-(bx, by) to the polygon with vertex
    coordinates ``xs``, ``ys``: 0 on contact or overlap, else the least of the
    segment's end points to the edges and the vertices to the segment."""
    if _inside(xs, ys, ax, ay) or _inside(xs, ys, bx, by):
        return 0.0
    dx, dy = bx - ax, by - ay
    best = math.inf
    px, py = xs[-1], ys[-1]
    sp = dx * (py - ay) - dy * (px - ax)  # the side of the segment vertex p lies on
    for qx, qy in zip(xs, ys):  # the edge from p to q
        sq = dx * (qy - ay) - dy * (qx - ax)
        ex, ey = qx - px, qy - py
        sa = ex * (ay - py) - ey * (ax - px)
        sb = ex * (by - py) - ey * (bx - px)
        if ((sa > 0 > sb) or (sa < 0 < sb)) and ((sp > 0 > sq) or (sp < 0 < sq)):
            return 0.0
        # Vertex p's distance to the segment came with the edge before.
        best = min(best, point_segment_distance(ax, ay, px, py, qx, qy),
                   point_segment_distance(bx, by, px, py, qx, qy),
                   point_segment_distance(qx, qy, ax, ay, bx, by))
        if best == 0.0:
            return 0.0
        px, py, sp = qx, qy, sq
    return best


def _arc_segment_distance(arc, ends, ax: float, ay: float, bx: float, by: float) -> float:
    """Closed-form distance between the arc of row ``arc`` (cx, cy, radius,
    start_angle, sweep), whose end points are ``ends`` (sx, sy, ex, ey), and
    the segment (ax, ay)-(bx, by)."""
    cx, cy, r, start, sweep = arc
    dx, dy = bx - ax, by - ay
    qa = dx * dx + dy * dy  # the squared segment length
    # Circle-line intersections restricted to the segment and arc interval.
    fx, fy = ax - cx, ay - cy
    qb = 2.0 * (fx * dx + fy * dy)
    qc = fx * fx + fy * fy - r * r
    disc = qb * qb - 4.0 * qa * qc
    if disc >= 0.0 and qa > 0.0:
        root = math.sqrt(disc)
        for t in ((-qb - root) / (2.0 * qa), (-qb + root) / (2.0 * qa)):
            if 0.0 <= t <= 1.0:
                phi = math.atan2(ay + t * dy - cy, ax + t * dx - cx)
                if angle_in_sweep(phi, start, sweep):
                    return 0.0
    candidates = [point_arc_distance(ax, ay, *arc), point_arc_distance(bx, by, *arc),
                  point_segment_distance(ends[0], ends[1], ax, ay, bx, by),
                  point_segment_distance(ends[2], ends[3], ax, ay, bx, by)]
    if qa > 0.0:
        t = ((cx - ax) * dx + (cy - ay) * dy) / qa
        if 0.0 < t < 1.0:
            candidates.append(point_arc_distance(ax + t * dx, ay + t * dy, *arc))
    return min(candidates)


def _arc_into(arc, xs, ys) -> float:
    """Distance from the arc of row ``arc`` to the polygon with vertex
    coordinates ``xs``, ``ys`` (0 on contact or overlap)."""
    ends = arc_ends(*arc)
    best = math.inf
    px, py = xs[-1], ys[-1]
    for qx, qy in zip(xs, ys):
        best = min(best, _arc_segment_distance(arc, ends, px, py, qx, qy))
        if best == 0.0:
            return 0.0
        px, py = qx, qy
    if best > 0.0 and _inside(xs, ys, ends[0], ends[1]):
        return 0.0
    return best


def clearance(path: SmoothPath, obstacles: Sequence[ConvexPolygon]) -> float:
    """Exact minimum distance between the path and any obstacle (edges and
    interior); 0 when they touch or intersect, inf with no obstacles. Visits
    (segment, obstacle) pairs by ascending bounding-box gap (an arc's box is
    its full circle's) until that lower bound reaches the best distance."""
    kinds, rows = path.kind.tolist(), path.data.tolist()
    pairs = []
    for si, (kind, (u0, v0, u1, v1, _)) in enumerate(zip(kinds, rows)):
        # A line row is (ax, ay, bx, by, 0), an arc row (cx, cy, radius, ...).
        x0, y0, x1, y1 = ((min(u0, u1), min(v0, v1), max(u0, u1), max(v0, v1)) if kind == LINE
                          else (u0 - u1, v0 - u1, u0 + u1, v0 + u1))
        for oi, (bx0, by0, bx1, by1) in enumerate(poly.box for poly in obstacles):
            gap = math.hypot(max(bx0 - x1, x0 - bx1, 0.0), max(by0 - y1, y0 - by1, 0.0))
            pairs.append((gap, si, oi))
    pairs.sort()
    best = math.inf
    for gap, si, oi in pairs:
        if gap >= best:
            break
        row, poly = rows[si], obstacles[oi]
        best = min(best, _segment_into(*row[:4], poly.xs, poly.ys) if kinds[si] == LINE
                   else _arc_into(row, poly.xs, poly.ys))
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
    h, r = scenario.robot_radius, scenario.turning_radius
    offsets, inflated = [], []
    for poly in scenario.obstacles:
        corners = _corners(poly)
        offsets.append(_worst_offset(h, r, [alpha for alpha, _, _, _ in corners]))
        inflated.append(mitered_inflate(poly, offsets[-1], corners))
    graph = build_visibility_graph(scenario, inflated)
    polyline = shortest_polyline(graph)
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
