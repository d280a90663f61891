"""Obstacle-aware planning: inflate convex obstacles by a mitered offset,
build a visibility graph over the inflated vertices, run A* between the
graph's start and goal nodes, smooth the resulting polyline, and certify
clearance against the original obstacles. Graph edges lie on supporting
lines of the polygon at each polygon-vertex end (the tangent graph), and A*
tests a pair only when it pops a label over it (lazy A*); the exact
clearance search stops once a bounding-box lower bound reaches the
best distance found. All stages run on plain floats: polygons and the graph
hold coordinate tuples and build ``Point2`` only when ``vertices`` or
``nodes`` is read, one pass over a polygon's edge vectors gives its angles,
offset and miter vertices, and the blocking and distance kernels take
coordinates and ``SmoothPath`` rows.

The offset keeps a disk robot of radius h safe even where the smoothing
arc cuts inside an inflated corner, provided the arc's turning radius is r
and the corner has interior angle alpha: the required inflation is
max(h*sin(alpha/2) + r*(1 - sin(alpha/2)), h).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .geom import (
    LENGTH_EPSILON,
    DegeneratePointsError,
    Point2,
    angle_in_sweep,
    arc_ends,
    check_turn_radius,
    dist,
    point_arc_distance,
    point_segment_distance,
)
from .smoother import (
    LINE,
    Polyline,
    SmoothPath,
    path_length,
    smooth_polyline,
)


class NoPathError(Exception):
    """No collision-free route exists in the visibility graph."""


class UnreachableConfigurationError(NoPathError):
    """Start or goal lies inside an inflated obstacle."""


@dataclass(frozen=True, slots=True, repr=False)
class ConvexPolygon:
    """Strictly convex polygon with counter-clockwise vertices.

    Held as ``xs`` and ``ys``, the vertex coordinates, which ``==`` and
    ``hash`` compare, and ``box`` = (xmin, ymin, xmax, ymax). ``vertices``
    builds the ``Point2`` tuple anew on every access, as ``Polyline.points``
    does; the planner's kernels read the coordinates.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    box: tuple[float, float, float, float] = field(compare=False)

    def __init__(self, vertices: Sequence[Point2]):
        pts = [(v.x, v.y) for v in vertices]
        if (n := len(pts)) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {n}")
        for m in (*range(1, n), 0):
            if err := _fault(pts, m):
                raise err
        self._fill(pts)

    def _fill(self, pts: list[tuple[float, float]]) -> "ConvexPolygon":
        xs, ys = zip(*pts)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "box", (min(xs), min(ys), max(xs), max(ys)))
        return self

    @property
    def vertices(self) -> tuple[Point2, ...]:
        return tuple(map(Point2, self.xs, self.ys))

    def __repr__(self) -> str:
        return f"ConvexPolygon(vertices={self.vertices!r})"

    @classmethod
    def from_points(cls, points: Iterable[Point2]) -> "ConvexPolygon":
        """Convex hull of arbitrary points, without flat or coincident vertices."""
        return object.__new__(cls)._fill(_keep(_hull(points)))

    def interior_angles(self) -> list[float]:
        return [alpha for alpha, _, _, _ in _corners(self)]

    def contains(self, p: Point2, tol: float = 0.0) -> bool:
        """Point-in-polygon test; positive tol shrinks toward the interior."""
        return _inside(self.xs, self.ys, p.x, p.y, tol)


def _turn(o: tuple[float, float], a: tuple[float, float], b: tuple[float, float]) -> float:
    """The cross product (a - o) x (b - a) of three (x, y) points: positive
    where they turn left."""
    return (a[0] - o[0]) * (b[1] - a[1]) - (a[1] - o[1]) * (b[0] - a[0])


def _fault(pts: list[tuple[float, float]], m: int) -> Exception | None:
    """The vertex rule of every polygon: None where vertex m of the ring
    ``pts`` turns strictly left by ``_turn`` and lies more than
    LENGTH_EPSILON from the next, else the error for the first it breaks."""
    a, b = pts[m], pts[m + 1 - len(pts)]
    if _turn(pts[m - 1], a, b) <= 0.0:
        return ValueError("vertices must be counter-clockwise and strictly convex "
                          f"(violated at index {m})")
    if math.dist(a, b) <= LENGTH_EPSILON:
        return DegeneratePointsError(f"polygon vertices {m} and {(m + 1) % len(pts)} coincide")


def _keep(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The vertices every polygon the planner computes keeps: refuse a
    non-finite vertex of the ring ``pts``, then drop in place the first vertex
    that breaks the vertex rule (``_fault``), round after round, each from
    the dropped vertex's predecessor: the rule changes only at its neighbours."""
    for x, y in pts:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite coordinates ({x}, {y})")
    m, wrapped = 0, False  # wrapped: the last vertex went, so all but 0 and the last have passed
    while len(pts) >= 3:
        if _fault(pts, m):
            del pts[m]
            wrapped |= m == len(pts)
            m = 0 if wrapped else max(m - 1, 0)
        elif m == len(pts) - 1:
            return pts
        else:
            m = len(pts) - 1 if wrapped else m + 1
    raise ValueError("points are collinear; no polygon hull exists")


def _inside(xs, ys, px: float, py: float, tol: float = 0.0) -> bool:
    ax, ay = xs[-1], ys[-1]
    for bx, by in zip(xs, ys):
        ex, ey = bx - ax, by - ay
        if ex * (py - ay) - ey * (px - ax) < tol * math.hypot(ex, ey):
            return False
        ax, ay = bx, by
    return True


def _hull(points: Iterable[Point2]) -> list[tuple[float, float]]:
    """The monotone chains of the points as one counter-clockwise (x, y) ring."""
    pts = sorted(set((p.x, p.y) for p in points))
    if len(pts) < 3:
        raise ValueError("convex hull needs at least 3 distinct points")

    def half(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2 and _turn(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out

    return half(pts)[:-1] + half(reversed(pts))[:-1]


@dataclass(frozen=True, slots=True)
class Bounds:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not (-math.inf < self.xmin < self.xmax < math.inf
                and -math.inf < self.ymin < self.ymax < math.inf):
            raise ValueError("bounds must be finite with xmin < xmax and ymin < ymax")

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
    """Nodes are inflated-obstacle vertices plus start and goal, held as the
    coordinate tuples ``xs`` and ``ys``; ``nodes`` builds their ``Point2``
    tuple anew on every access. ``weight(i, j)`` runs ``test`` (i < j: the
    edge length, inf where there is no edge) on the pair's first request,
    made by A* popping a label over it, and keeps the answer in ``known``."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    start_index: int
    goal_index: int
    test: Callable[[int, int], float] = field(repr=False)
    known: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def weight(self, i: int, j: int) -> float:
        key = (i, j) if i < j else (j, i)
        w = self.known.get(key)
        if w is None:
            w = self.known[key] = self.test(*key)
        return w

    @property
    def nodes(self) -> tuple[Point2, ...]:
        return tuple(map(Point2, self.xs, self.ys))

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        n = len(self.xs)
        return tuple((i, j, w) for i in range(n) for j in range(i + 1, n)
                     if (w := self.weight(i, j)) < math.inf)


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
    e1x, e1y = x1 - xs[-1], y1 - ys[-1]  # the edge into vertex 0
    d1 = math.hypot(e1x, e1y)
    n1x, n1y = e1y / d1, -e1x / d1  # outward normals of a CCW polygon point right of each edge
    out = []
    for x2, y2 in zip(xs[1:] + xs[:1], ys[1:] + ys[:1]):
        e2x, e2y = x2 - x1, y2 - y1  # the edge out of it
        d2 = math.hypot(e2x, e2y)
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
    polygon's corner pass when the caller has already run it. A sliver tip,
    where 1 + n1.n2 rounds to 0, has no finite miter and is refused.
    """
    if not (offset > 0.0 and math.isfinite(offset)):
        raise ValueError(f"offset must be positive, got {offset}")
    pts = []
    for i, (x, y, (_, mx, my, d)) in enumerate(zip(poly.xs, poly.ys, corners or _corners(poly))):
        if d == 0.0:
            raise ValueError(f"polygon vertex {i} ({x}, {y}) is too sharp to inflate")
        pts.append((x + offset * mx / d, y + offset * my / d))
    return object.__new__(ConvexPolygon)._fill(_keep(pts))


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
    spanning the bounds actually block the route. A pair is tested when A*
    pops a label over it. Edges lie on supporting lines of the polygon at each
    vertex end, which leave it on one side, so only other polygons whose
    bounding box overlaps the segment's are tested.
    """
    for poly in inflated:
        for label, p in (("start", scenario.start), ("goal", scenario.goal)):
            if poly.contains(p, tol=LENGTH_EPSILON):
                raise UnreachableConfigurationError(f"{label} lies inside an inflated obstacle")
    b = scenario.bounds
    hinges = []  # per node: x, y, offsets to its two polygon neighbours, its polygon's index
    for k, poly in enumerate(inflated):
        xs, ys = poly.xs, poly.ys
        for i, (x, y) in enumerate(zip(xs, ys)):
            if b.xmin <= x <= b.xmax and b.ymin <= y <= b.ymax:
                j = i + 1 - len(xs)  # the next vertex, counted from the end
                hinges.append((x, y, xs[i - 1] - x, ys[i - 1] - y, xs[j] - x, ys[j] - y, k))
    start_index, goal_index = len(hinges), len(hinges) + 1
    hinges += [(p.x, p.y, 0.0, 0.0, 0.0, 0.0, -1) for p in (scenario.start, scenario.goal)]
    blockers = [(poly.box, k, poly.xs, poly.ys) for k, poly in enumerate(inflated)]

    def test(i: int, j: int) -> float:
        ax, ay, px, py, qx, qy, own_a = hinges[i]
        bx, by, px2, py2, qx2, qy2, own_b = hinges[j]
        dx, dy = bx - ax, by - ay
        # Not supporting: the two neighbours lie strictly on opposite sides.
        if ((dx * py - dy * px) * (dx * qy - dy * qx) < 0.0
                or (dx * py2 - dy * px2) * (dx * qy2 - dy * qx2) < 0.0):
            return math.inf
        d = math.hypot(dx, dy)
        if d <= LENGTH_EPSILON:
            return math.inf
        x0, x1 = (ax, bx) if dx >= 0.0 else (bx, ax)
        y0, y1 = (ay, by) if dy >= 0.0 else (by, ay)
        for (bx0, by0, bx1, by1), k, xs, ys in blockers:
            if (x0 < bx1 and bx0 < x1 and y0 < by1 and by0 < y1
                    and k != own_a and k != own_b and _segment_blocked(ax, ay, bx, by, xs, ys)):
                return math.inf
        return d

    xs, ys, *_ = zip(*hinges)
    return VisibilityGraph(xs, ys, start_index, goal_index, test)


def shortest_polyline(graph: VisibilityGraph) -> Polyline:
    """Lazy A* from the graph's start node to its goal node with the
    straight-line heuristic, optimal as each finite weight is its pair's
    length. Expanding v pushes a label (f, g, order, w, v) for each open node
    w at its exact cost g_v + |vw|; the pair is tested only when the label is
    popped. A blocked label is dropped, and the first label of a node that
    survives closes it. Equal f pops the smaller g, then the earlier push."""
    s, t = graph.start_index, graph.goal_index
    xs, ys, weight = graph.xs, graph.ys, graph.weight
    h = [math.hypot(xs[t] - x, ys[t] - y) for x, y in zip(xs, ys)]
    parent: dict[int, int] = {}  # closed node -> the node it was reached from
    heap = [(h[s], 0.0, 0, s, s)]
    pushed = 1
    while heap:
        _, g, _, v, u = heapq.heappop(heap)
        if v in parent or (u != v and weight(u, v) == math.inf):
            continue
        parent[v] = u
        if v == t:
            break
        vx, vy = xs[v], ys[v]
        for w in range(len(xs)):
            if w not in parent:
                gw = g + math.hypot(xs[w] - vx, ys[w] - vy)
                heapq.heappush(heap, (gw + h[w], gw, pushed, w, v))
                pushed += 1
    if t not in parent:
        raise NoPathError("goal is unreachable in the visibility graph")
    route = [t]
    while route[-1] != s:
        route.append(parent[route[-1]])
    route.reverse()
    return Polyline.from_array([(xs[i], ys[i]) for i in route])


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
    against the original obstacles (inf with none). A route the smoother
    refuses raises its ``FeasibilityError`` unchanged; a failing certificate
    is returned (``clearance_ok`` false), and ``require_clearance`` refuses
    it."""
    h, r = scenario.robot_radius, scenario.turning_radius
    offsets, inflated = [], []
    for poly in scenario.obstacles:
        corners = _corners(poly)
        offsets.append(_worst_offset(h, r, [alpha for alpha, _, _, _ in corners]))
        inflated.append(mitered_inflate(poly, offsets[-1], corners))
    graph = build_visibility_graph(scenario, inflated)
    polyline = shortest_polyline(graph)
    path = smooth_polyline(polyline, r)
    c = clearance(path, scenario.obstacles)
    return PlanResult(
        path=path,
        polyline=polyline,
        inflated=tuple(inflated),
        offsets=tuple(offsets),
        clearance=c,
        clearance_ok=c >= h,
        length=path_length(path),
    )


def require_clearance(scenario: Scenario, result: PlanResult) -> PlanResult:
    """``result`` if its certificate holds, else ``NoPathError`` naming the
    obstacle nearest the path (the first at that distance) and the
    shortfall; searched only for a failing certificate."""
    if result.clearance_ok:
        return result
    c, h, obstacles = result.clearance, scenario.robot_radius, scenario.obstacles
    k = min(range(len(obstacles)), key=lambda i: clearance(result.path, obstacles[i:i + 1]))
    raise NoPathError(f"path clearance {c:.6g} to obstacle {k} < robot radius {h:.6g} "
                      f"(short by {h - c:.3g})")
