import dataclasses
import heapq
import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from dps import planner
from dps.geom import (LENGTH_EPSILON, ArcSegment, DegeneratePointsError, Heading, LineSegment,
                      Point2, arc_ends, dist, interior_angle, point_segment_distance)
from dps.planner import (
    Bounds,
    ConvexPolygon,
    NoPathError,
    Scenario,
    UnreachableConfigurationError,
    VisibilityGraph,
    _arc_into,
    _arc_segment_distance,
    _corners,
    _segment_blocked,
    _segment_into,
    _worst_offset,
    build_visibility_graph,
    clearance,
    mitered_inflate,
    plan,
    require_clearance,
    required_offset,
    shortest_polyline,
)
from dps.smoother import (FeasibilityError, Polyline, SmoothPath, path_length, polyline_length,
                          smooth_polyline)
import planner_reference as reference
from planner_reference import (all_pairs_clearance, all_pairs_visibility_graph,
                               eager_shortest_polyline, inflate_obstacles, per_edge_arc_into,
                               reference_plan)

P = Point2
SQUARE = ConvexPolygon([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])


def arc_row(arc):
    """An arc's row of a SmoothPath: (cx, cy, radius, start_angle, sweep)."""
    return (arc.center.x, arc.center.y, arc.radius, arc.start_angle.theta, arc.sweep)


def make_scenario(obstacles, h=0.2, r=0.5, start=P(1, 1), goal=P(19, 19)):
    return Scenario(tuple(obstacles), Bounds(0, 0, 20, 20), h, r, start, goal)


def random_obstacle(rng, cx, cy, size, points=None):
    pts = [
        P(cx + rng.uniform(-size, size), cy + rng.uniform(-size, size))
        for _ in range(points or rng.randint(4, 10))
    ]
    try:
        return ConvexPolygon.from_points(pts)
    except ValueError:
        return None


def random_endpoints(rng, min_gap, grid=None):
    """Start and goal in the 20 x 20 box at least ``min_gap`` apart; on a
    ``grid`` of that spacing when given."""
    while True:
        if grid:
            pts = [P(rng.randint(0, int(20 / grid)) * grid, rng.randint(0, int(20 / grid)) * grid)
                   for _ in range(2)]
        else:
            pts = [P(rng.uniform(0.5, 19.5), rng.uniform(0.5, 19.5)) for _ in range(2)]
        if dist(*pts) >= min_gap:
            return pts


def criterion6_scenario(rng):
    """1-4 hulled obstacles inside the box, h in [0.1, 0.5], r in [h, 3h]."""
    obstacles = [random_obstacle(rng, rng.uniform(4, 16), rng.uniform(4, 16), 2.0)
                 for _ in range(rng.randint(1, 4))]
    h = rng.uniform(0.1, 0.5)
    return make_scenario([o for o in obstacles if o], h, rng.uniform(h, 3 * h),
                         *random_endpoints(rng, 5.0))


def integer_squares_scenario(rng):
    """Integer-aligned squares; with r <= h every offset is exactly h, so
    inflated vertices share coordinates, lines and path lengths (ties)."""
    obstacles = []
    for _ in range(rng.randint(2, 6)):
        x, y, side = rng.randint(1, 17), rng.randint(1, 17), rng.randint(1, 3)
        obstacles.append(ConvexPolygon([P(x, y), P(x + side, y), P(x + side, y + side),
                                        P(x, y + side)]))
    h = rng.choice([0.25, 0.5, 1.0])
    return make_scenario(obstacles, h, h * rng.choice([0.5, 1.0]),
                         *random_endpoints(rng, 2.0, grid=0.5))


def overlapping_scenario(rng):
    """2-4 obstacles around one centre, so their inflated hulls overlap."""
    cx, cy = rng.uniform(6, 14), rng.uniform(6, 14)
    obstacles = [random_obstacle(rng, cx + rng.uniform(-1.5, 1.5), cy + rng.uniform(-1.5, 1.5), 2.0)
                 for _ in range(rng.randint(2, 4))]
    h = rng.uniform(0.1, 0.6)
    return make_scenario([o for o in obstacles if o], h, rng.uniform(h, 3 * h),
                         *random_endpoints(rng, 3.0))


def small_radius_scenario(rng):
    """r < h: every offset collapses to h."""
    obstacles = [random_obstacle(rng, rng.uniform(4, 16), rng.uniform(4, 16), 2.0)
                 for _ in range(rng.randint(1, 4))]
    h = rng.uniform(0.2, 0.8)
    return make_scenario([o for o in obstacles if o], h, rng.uniform(0.2 * h, h),
                         *random_endpoints(rng, 3.0))


def boundary_scenario(rng):
    """Obstacles against one box edge and a route along it, so inflated
    vertices fall outside the bounds and drop out of the graph."""
    vertical = rng.random() < 0.5

    def place(near, along):
        return (near, along) if vertical else (along, near)

    obstacles = [random_obstacle(rng, *place(rng.uniform(-1, 2.5), rng.uniform(4, 16)), 3.0)
                 for _ in range(rng.randint(1, 4))]
    start = P(*place(rng.uniform(0.2, 3), rng.uniform(0.5, 3)))
    goal = P(*place(rng.uniform(0.2, 3), rng.uniform(17, 19.5)))
    h = rng.uniform(0.1, 0.5)
    return make_scenario([o for o in obstacles if o], h, rng.uniform(h, 3 * h), start, goal)


SCENARIO_FAMILIES = [criterion6_scenario, integer_squares_scenario, overlapping_scenario,
                     small_radius_scenario, boundary_scenario]


def plan_stream_scenario(rng):
    """As the benchmark's plan_stream draws them: 1-4 hulls of 7 random
    points, h in [0.1, 0.5], r in [h, 3h], start and goal at least 5 apart
    and outside every obstacle; None when no such pair is found."""
    obstacles = [random_obstacle(rng, rng.uniform(4, 16), rng.uniform(4, 16), 2.0, points=7)
                 for _ in range(rng.randint(1, 4))]
    obstacles = [o for o in obstacles if o]
    h = rng.uniform(0.1, 0.5)
    r = rng.uniform(h, 3 * h)
    for _ in range(100):
        start, goal = (P(rng.uniform(0.5, 19.5), rng.uniform(0.5, 19.5)) for _ in range(2))
        if dist(start, goal) >= 5.0 and not any(o.contains(p) for o in obstacles
                                                 for p in (start, goal)):
            return make_scenario(obstacles, h, r, start, goal)
    return None


def plan_outcome(planner_fn, scenario):
    """Everything a plan returns, compared with ==, or the error's type and message."""
    try:
        res = planner_fn(scenario)
    except (ValueError, NoPathError) as err:
        return type(err), str(err)
    return (res.offsets, [poly.vertices for poly in res.inflated], res.polyline.points,
            res.path.kind.tobytes(), res.path.data.tobytes(), res.path,
            res.clearance, res.length, res.clearance_ok)


def route_or_error(build, scenario, inflated, search=shortest_polyline):
    """The route ``search`` finds on ``build(scenario, inflated)``, or the
    type of the error either raises."""
    try:
        return search(build(scenario, inflated)).points
    except NoPathError as err:  # UnreachableConfigurationError included
        return type(err)


class LoggedGraph(VisibilityGraph):
    """``graph``'s nodes and edge test, logging each pair that ``weight`` is
    asked for in ``asked`` and each pair the edge test runs on in ``tested``."""

    def __init__(self, graph: VisibilityGraph):
        super().__init__(graph.xs, graph.ys, graph.start_index, graph.goal_index,
                         lambda i, j: self.tested.append((i, j)) or graph.test(i, j))
        object.__setattr__(self, "asked", [])
        object.__setattr__(self, "tested", [])

    def weight(self, i, j):
        self.asked.append((i, j) if i < j else (j, i))
        return super().weight(i, j)


def logging_build(graphs):
    """``build_visibility_graph``, appending each graph it builds to ``graphs``
    as a ``LoggedGraph``."""
    def build(scenario, inflated):
        graphs.append(LoggedGraph(build_visibility_graph(scenario, inflated)))
        return graphs[-1]
    return build


def dijkstra_reference(graph: VisibilityGraph, s: int, g: int):
    adj = reference.adjacency(graph)
    dist_to = {s: 0.0}
    heap = [(0.0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist_to.get(u, math.inf):
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist_to.get(v, math.inf):
                dist_to[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist_to.get(g)


class TestConvexPolygon:
    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            ConvexPolygon([P(0, 0), P(0, 1), P(1, 1), P(1, 0)])

    def test_rejects_collinear_vertex(self):
        with pytest.raises(ValueError):
            ConvexPolygon([P(0, 0), P(1, 0), P(2, 0), P(1, 1)])

    def test_names_the_vertex_that_breaks_convexity(self):
        with pytest.raises(ValueError, match=r"violated at index 1\)"):
            ConvexPolygon([P(0, 0), P(1, 0), P(2, 0), P(1, 1)][::-1])
        with pytest.raises(ValueError, match=r"violated at index 0\)"):  # checked last
            ConvexPolygon([P(0.5, 0.5), P(1, 0), P(1, 1), P(0, 1)])

    def test_rejects_too_few(self):
        with pytest.raises(ValueError):
            ConvexPolygon([P(0, 0), P(1, 0)])

    def test_names_the_vertices_of_a_short_edge(self):
        # Every vertex turns left; the edge from vertex 0 to 1 is 1e-12 long.
        verts = [P(5, 5), P(5 + 1e-12, 5 - 1e-13), P(7, 5), P(6, 6)]
        with pytest.raises(DegeneratePointsError, match=r"^polygon vertices 0 and 1 coincide$"):
            ConvexPolygon(verts)
        with pytest.raises(DegeneratePointsError, match=r"^polygon vertices 2 and 3 coincide$"):
            ConvexPolygon(verts[2:] + verts[:2])
        with pytest.raises(DegeneratePointsError, match=r"^polygon vertices 3 and 0 coincide$"):
            ConvexPolygon(verts[1:] + verts[:1])

    def test_from_points_refuses_two_distinct_points(self):
        with pytest.raises(ValueError, match="^convex hull needs at least 3 distinct points$"):
            ConvexPolygon.from_points([P(0, 0), P(1, 0), P(0, 0)])

    def test_from_points_hulls_nonconvex_input(self):
        poly = ConvexPolygon.from_points(
            [P(0, 0), P(2, 0), P(1, 0.2), P(2, 2), P(0, 2), P(1, 1)]
        )
        assert len(poly.vertices) == 4

    def test_carries_coordinates_and_box(self, rng):
        poly = ConvexPolygon([P(0, 0), P(2, 0), P(3, 1.5), P(-0.5, 2)])
        assert poly.xs == (0, 2, 3, -0.5) and poly.ys == (0, 0, 1.5, 2)
        assert poly.box == (-0.5, 0, 3, 2)
        assert repr(poly) == f"ConvexPolygon(vertices={poly.vertices!r})"
        for _ in range(50):
            poly = random_obstacle(rng, 0.0, 0.0, 3.0)
            if poly is None:
                continue
            for q in (poly, mitered_inflate(poly, rng.uniform(0.1, 1.0))):
                assert q.xs == tuple(v.x for v in q.vertices)
                assert q.ys == tuple(v.y for v in q.vertices)
                assert q.box == (min(q.xs), min(q.ys), max(q.xs), max(q.ys))
                twin = ConvexPolygon(q.vertices)
                assert twin == q and hash(twin) == hash(q) and repr(twin) == repr(q)
                assert twin != ConvexPolygon(q.vertices[1:] + q.vertices[:1])
        obs = ConvexPolygon([P(8, 8), P(12, 8), P(12, 12), P(8, 12)])
        sc = make_scenario([obs])
        graph = build_visibility_graph(sc, [mitered_inflate(obs, 0.5)])
        assert graph.nodes == tuple(map(P, graph.xs, graph.ys))
        assert graph.nodes[graph.start_index] == sc.start
        assert graph.nodes[graph.goal_index] == sc.goal
        assert obs.vertices == obs.vertices and graph.nodes == graph.nodes
        # Coordinates are the only stored representation.
        assert [f.name for f in dataclasses.fields(ConvexPolygon)] == ["xs", "ys", "box"]
        assert [f.name for f in dataclasses.fields(VisibilityGraph)] == [
            "xs", "ys", "start_index", "goal_index", "test", "known"]

    def test_contains(self):
        assert SQUARE.contains(P(0.5, 0.5))
        assert SQUARE.contains(P(0, 0))  # boundary is inside (closed)
        assert not SQUARE.contains(P(1.5, 0.5))


def test_convex_hull_collinear_error():
    with pytest.raises(ValueError, match="^points are collinear; no polygon hull exists$"):
        ConvexPolygon.from_points([P(0, 0), P(1, 1), P(2, 2)])


def test_every_hull_is_a_polygon():
    """Hulls of nearly collinear point sets (3-7 points along a random line,
    each offset across it by at most 1e-13 to 1e-8, or not at all) pass
    ``ConvexPolygon``'s convexity test, as ``from_points`` builds them, or
    are refused as collinear."""
    rng = random.Random(5)
    hulls = 0
    for _ in range(20000):
        ox, oy = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        ux, uy = math.cos(theta), math.sin(theta)
        eps = rng.choice((0.0, 1e-13, 1e-12, 1e-10, 1e-8))
        pts = []
        for _ in range(rng.randint(3, 7)):
            t, o = rng.uniform(-100.0, 100.0), rng.uniform(-eps, eps)
            pts.append(P(ox + t * ux - o * uy, oy + t * uy + o * ux))
        try:
            hull = ConvexPolygon.from_points(pts)
        except ValueError as err:
            assert str(err) == "points are collinear; no polygon hull exists"
            continue
        assert ConvexPolygon(hull.vertices) == hull
        hulls += 1
    assert hulls > 10000


def drop_one_per_round(ring):
    """The vertex rule written as rounds: each round drops the first vertex
    that does not turn left or lies within LENGTH_EPSILON of the next, until a
    round drops none; None when fewer than 3 vertices are left."""
    ring = list(ring)
    while len(ring) >= 3:
        for m in range(len(ring)):
            (ox, oy), (ax, ay), (bx, by) = ring[m - 1], ring[m], ring[(m + 1) % len(ring)]
            if ((ax - ox) * (by - ay) - (ay - oy) * (bx - ax) <= 0.0
                    or math.hypot(bx - ax, by - ay) <= LENGTH_EPSILON):
                del ring[m]
                break
        else:
            return ring
    return None


@st.composite
def random_or_nearly_collinear_points(draw):
    """3-12 points: uniform in a box, on a 5 x 5 integer grid (exact
    collinear and repeated points), or along a random line, each moved across
    it by at most 0, 1e-13, 1e-10 or 1e-8."""
    n = draw(st.integers(3, 12))
    coord = st.floats(-100.0, 100.0)
    kind = draw(st.sampled_from(("box", "grid", "line")))
    if kind != "line":
        coord = coord if kind == "box" else st.integers(0, 4).map(float)
        return [P(draw(coord), draw(coord)) for _ in range(n)]
    ox, oy, theta = draw(coord), draw(coord), draw(st.floats(0.0, 2.0 * math.pi))
    eps = draw(st.sampled_from((0.0, 1e-13, 1e-10, 1e-8)))
    ux, uy = math.cos(theta), math.sin(theta)
    pts = []
    for _ in range(n):
        t, o = draw(coord), draw(st.floats(-eps, eps))
        pts.append(P(ox + t * ux - o * uy, oy + t * uy + o * ux))
    return pts


@given(random_or_nearly_collinear_points(), st.data())
def test_vertex_rule_walk_matches_dropping_one_per_round(points, data):
    """The one walk that keeps a computed polygon's vertices gives what
    dropping the first failing vertex round after round gives, on the
    monotone chains of a hull and on the points in any cyclic order."""
    pts = [(p.x, p.y) for p in points]
    assume(len(set(pts)) >= 3)
    hull = planner._hull(points)
    for ring in (hull, data.draw(st.permutations(pts))):
        expected = drop_one_per_round(ring)
        if expected is None:
            with pytest.raises(ValueError, match="^points are collinear; no polygon hull exists$"):
                planner._keep(list(ring))
        else:
            assert planner._keep(list(ring)) == expected
    if (expected := drop_one_per_round(hull)) is not None:
        polygon = ConvexPolygon.from_points(points)
        assert list(polygon.vertices) == [P(x, y) for x, y in expected]
        assert ConvexPolygon(polygon.vertices) == polygon


def test_vertex_rule_tests_vertex_0_again_when_the_last_vertex_goes():
    # (4, 1) goes first; then (3, 1) lies on the line from (2, 2) to (4, 0).
    ring = [(3.0, 1.0), (4.0, 0.0), (4.0, 2.0), (2.0, 2.0), (4.0, 1.0)]
    assert planner._keep(list(ring)) == drop_one_per_round(ring) == [(4, 0), (4, 2), (2, 2)]


def test_vertex_rule_walk_tests_each_vertex_a_bounded_number_of_times(monkeypatch):
    """The walk resumes after a drop instead of starting again at vertex 0:
    at most 3 tests per vertex, on a 1,000-gon whose last 250 vertices each
    have a point 5e-10 further along the tangent, and on one whose ring ends
    in 250 points that each turn right into vertex 0 once the points after
    them have gone, so that the last vertex goes 250 times."""
    n, radius = 1000, 1000.0
    gon = [(radius * math.cos(2 * math.pi * k / n), radius * math.sin(2 * math.pi * k / n))
           for k in range(n)]
    tangents = []
    for k, (x, y) in enumerate(gon):
        tangents.append((x, y))
        if k >= n - 250:
            tangents.append((x - 5e-10 * y / radius, y + 5e-10 * x / radius))
    (ax, ay), (bx, by) = gon[-1], gon[0]
    length = math.hypot(bx - ax, by - ay)
    ex, ey = (bx - ax) / length, (by - ay) / length
    dent = []  # an arc of radius 1 from gon[-1] into the polygon, heading 30 to 120 degrees
    for j in range(1, 251):
        t = math.radians(30.0 + 90.0 * j / 250)
        s, h = math.sin(t) - 0.5, math.sqrt(3) / 2 - math.cos(t)  # along and left of the edge
        dent.append((ax + s * ex - h * ey, ay + s * ey + h * ex))
    calls = []

    def counted(pts, m, fault=planner._fault):
        calls.append(m)
        return fault(pts, m)

    monkeypatch.setattr(planner, "_fault", counted)
    for ring in (tangents, gon + dent):
        calls.clear()
        kept = planner._keep(list(ring))
        assert len(calls) <= 3 * len(ring)
        assert kept == drop_one_per_round(ring) and len(kept) == n
    assert kept == gon


@given(random_or_nearly_collinear_points(), st.data())
def test_given_polygon_is_refused_where_the_vertex_rule_would_drop_a_vertex(points, data):
    """``ConvexPolygon(vertices)`` accepts exactly the rings from which the
    vertex rule drops nothing, and otherwise names the first vertex, from 1
    round to 0, that does not turn left, or else whose next edge is short."""
    ring = data.draw(st.permutations([(p.x, p.y) for p in points]))
    n = len(ring)

    def fault(m):
        (ox, oy), (ax, ay), (bx, by) = ring[m - 1], ring[m], ring[(m + 1) % n]
        if (ax - ox) * (by - ay) - (ay - oy) * (bx - ax) <= 0.0:
            return ValueError, (r"^vertices must be counter-clockwise and strictly convex "
                                rf"\(violated at index {m}\)$")
        if math.hypot(bx - ax, by - ay) <= LENGTH_EPSILON:
            return DegeneratePointsError, rf"^polygon vertices {m} and {(m + 1) % n} coincide$"
        return None

    faults = [f for m in (*range(1, n), 0) if (f := fault(m))]
    assert (not faults) == (drop_one_per_round(ring) == ring)
    if faults:
        with pytest.raises(faults[0][0], match=faults[0][1]):
            ConvexPolygon([P(x, y) for x, y in ring])
    else:
        assert ConvexPolygon([P(x, y) for x, y in ring]).xs == tuple(x for x, _ in ring)


@st.composite
def map_obstacle_points(draw):
    """The corners of a map-like quadrilateral, each 1-3 from a centre in
    [6, 14]^2, 9 to 81 degrees into its own quadrant and on a 0.1 grid, plus
    up to 8 points that are the 0.01-rounded midpoint of two earlier ones
    (decimal-collinear) or an earlier one moved by at most 1e-9
    (near-duplicate)."""
    cx, cy = draw(st.floats(6.0, 14.0)), draw(st.floats(6.0, 14.0))
    pts = []
    for k in range(4):
        a, d = draw(st.floats(k + 0.1, k + 0.9)) * math.pi / 2, draw(st.floats(1.0, 3.0))
        pts.append((round(cx + d * math.cos(a), 1), round(cy + d * math.sin(a), 1)))
    for _ in range(draw(st.integers(0, 8))):
        (ax, ay), (bx, by) = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        if draw(st.booleans()):
            pts.append((round((ax + bx) / 2, 2), round((ay + by) / 2, 2)))
        else:
            step = st.floats(-LENGTH_EPSILON, LENGTH_EPSILON)
            pts.append((ax + draw(step), ay + draw(step)))
    return [P(x, y) for x, y in draw(st.permutations(pts))]


@given(map_obstacle_points(), st.floats(0.1, 0.5), st.floats(1.0, 3.0))
def test_every_map_obstacle_hull_inflates(points, h, k):
    """Each hull inflates, for h in [0.1, 0.5] and r in [h, 3h], into a polygon
    that ``ConvexPolygon`` accepts as given and that holds every hull vertex
    at least the offset inside."""
    poly = ConvexPolygon.from_points(points)
    corners = _corners(poly)
    offset = _worst_offset(h, k * h, [alpha for alpha, _, _, _ in corners])
    out = mitered_inflate(poly, offset, corners)
    assert ConvexPolygon(out.vertices) == out
    assert all(out.contains(v, tol=offset * (1.0 - 1e-9)) for v in poly.vertices)


def test_mitered_inflate_refuses_offset_0():
    square = ConvexPolygon([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
    with pytest.raises(ValueError, match=r"^offset must be positive, got 0\.0$"):
        mitered_inflate(square, 0.0)


def test_scenario_refuses_a_goal_outside_the_bounds():
    with pytest.raises(ValueError, match="^goal must lie inside the bounds$"):
        Scenario((), Bounds(0, 0, 20, 20), 0.2, 0.5, P(1, 1), P(20.5, 19))


@pytest.mark.xfail(strict=True, raises=(ValueError, ZeroDivisionError),
                   reason="a sliver whose tips close to within rounding of 0 rad has no finite "
                          "miter: _worst_offset refuses an angle of 0.0, and 1 + n1.n2 rounds to 0")
@pytest.mark.parametrize("corners", [
    [(2.4, 9.1), (4.2, 8.0), (6.0, 6.9)],  # tip angles 0.0
    [(4.7, 7.7), (5.35, 7.85), (6.0, 8.0)],  # tip angles 4.4e-16
])
def test_decimal_collinear_sliver_inflates(corners):
    """Three points on one line in decimal, whose rounding the hull keeps as a
    triangle, do not inflate yet."""
    poly = ConvexPolygon.from_points([P(x, y) for x, y in corners])
    assert len(poly.xs) == 3
    offset = _worst_offset(0.2, 0.5, poly.interior_angles())
    mitered_inflate(poly, offset)


class TestRequiredOffset:
    def test_example(self):
        expected = 0.5 * math.sin(math.pi / 4) + 1.0 * (1 - math.sin(math.pi / 4))
        assert required_offset(0.5, 1.0, math.pi / 2) == pytest.approx(expected, rel=1e-12)

    def test_collapses_to_h_when_r_small(self):
        assert required_offset(0.5, 0.5, 1.0) == 0.5
        assert required_offset(0.5, 0.3, 1.0) == 0.5

    def test_wide_angle_limit(self):
        assert required_offset(0.5, 2.0, math.pi - 1e-9) == pytest.approx(0.5, abs=1e-8)

    def test_monotone_nonincreasing_in_alpha_when_r_exceeds_h(self):
        h, r = 0.3, 1.2
        alphas = [0.1 + 0.05 * k for k in range(60)]
        values = [required_offset(h, r, a) for a in alphas]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            required_offset(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            required_offset(0.5, 1.0, math.pi)


class TestMiteredInflate:
    def test_unit_square(self):
        out = mitered_inflate(SQUARE, 0.5)
        expected = {(-0.5, -0.5), (1.5, -0.5), (1.5, 1.5), (-0.5, 1.5)}
        assert {(v.x, v.y) for v in out.vertices} == expected

    def test_equilateral_triangle_push(self):
        tri = ConvexPolygon([P(0, 0), P(2, 0), P(1, math.sqrt(3))])
        out = mitered_inflate(tri, 0.1)
        for v, w in zip(tri.vertices, out.vertices):
            # interior angle pi/3: miter distance O / sin(pi/6) = 2 O
            assert math.hypot(w.x - v.x, w.y - v.y) == pytest.approx(0.2, rel=1e-12)

    def test_refuses_an_overflowing_vertex(self):
        tri = ConvexPolygon([P(0, 0), P(2, 0), P(1, math.sqrt(3))])
        with pytest.raises(ValueError, match=r"^non-finite coordinates \(1\.0, inf\)$"):
            mitered_inflate(tri, 1e308)

    def test_tiny_offset_identity(self):
        tri = ConvexPolygon([P(0, 0), P(2, 0), P(1, math.sqrt(3))])
        out = mitered_inflate(tri, 1e-13)
        for v, w in zip(tri.vertices, out.vertices):
            assert math.hypot(w.x - v.x, w.y - v.y) <= 1e-12

    def test_miter_distance_along_exterior_bisector(self, rng):
        for _ in range(100):
            poly = random_obstacle(rng, 0.0, 0.0, 2.0)
            if poly is None:
                continue
            offset = rng.uniform(0.05, 0.8)
            out = mitered_inflate(poly, offset)
            n = len(poly.vertices)
            for i in range(n):
                v = poly.vertices[i]
                w = out.vertices[i]
                alpha = interior_angle(poly.vertices[i - 1], v, poly.vertices[(i + 1) % n])
                expected = offset / math.sin(0.5 * alpha)
                assert math.hypot(w.x - v.x, w.y - v.y) == pytest.approx(expected, rel=1e-9)

    def test_containment_and_edge_distance(self, rng):
        for _ in range(60):
            poly = random_obstacle(rng, 0.0, 0.0, 2.0)
            if poly is None:
                continue
            offset = rng.uniform(0.05, 0.8)
            out = mitered_inflate(poly, offset)
            n = len(out.vertices)
            for v in poly.vertices:
                assert out.contains(v)
                for i in range(n):
                    a = out.vertices[i]
                    b = out.vertices[(i + 1) % n]
                    ex, ey = b.x - a.x, b.y - a.y
                    s = (ex * (v.y - a.y) - ey * (v.x - a.x)) / math.hypot(ex, ey)
                    assert s >= offset - 1e-9  # original vertex depth behind every edge


    def test_matches_object_reference(self, rng):
        """Angles and inflated vertices bit-equal to the per-vertex
        ``interior_angle`` / ``Point2`` construction, with the corner pass
        given or not."""
        for _ in range(300):
            poly = random_obstacle(rng, rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 3))
            if poly is None:
                continue
            offset = rng.uniform(0.01, 1.5)
            assert poly.interior_angles() == reference.interior_angles(poly)
            expected = reference.mitered_inflate(poly, offset)
            assert mitered_inflate(poly, offset) == expected
            assert mitered_inflate(poly, offset, _corners(poly)) == expected


def test_angle_rounding_to_pi_takes_the_limit_offset():
    """A hull vertex whose interior angle rounds to pi: plan() used to stop
    with required_offset's ValueError; that vertex now needs the limit h."""
    poly = ConvexPolygon.from_points([P(4, 4), P(10, 4), P(16, math.nextafter(4, 5)), P(10, 9)])
    angles = poly.interior_angles()
    assert angles[1] == math.pi and poly.vertices[1] == P(10, 4)
    with pytest.raises(ValueError, match="vertex angle must lie in"):
        required_offset(0.2, 0.4, math.pi)
    result = plan(make_scenario([poly], h=0.2, r=0.4, start=P(1, 1), goal=P(18, 18)))
    others = [required_offset(0.2, 0.4, a) for k, a in enumerate(angles) if k != 1]
    assert result.offsets == (max(others),) and max(others) > 0.2
    assert result.inflated[0] == reference.mitered_inflate(poly, max(others))
    assert result.clearance_ok and result.clearance >= 0.2


@pytest.mark.parametrize("corners, kept", [
    # (9.95, 8.7) is the 0.01-rounded midpoint of the edge from (7.4, 9.2) to
    # (12.5, 8.2): the hull keeps it, and its miter vertex rounds flat.
    ([(7.4, 9.2), (9.95, 8.7), (12.5, 8.2), (11.8, 12.7), (7.8, 11.5)], (5, 4)),
    # The hull keeps the 1e-12 edge's end (5 + 1e-12, 5 - 1e-13) only.
    ([(5, 5), (5 + 1e-12, 5 - 1e-13), (7, 5), (6, 6)], (3, 3)),
])
def test_flat_or_coincident_vertices_do_not_stop_a_plan(corners, kept):
    """Obstacles that ``plan()`` refused with a ValueError or a
    DegeneratePointsError about a polygon the planner had computed."""
    poly = ConvexPolygon.from_points([P(x, y) for x, y in corners])
    result = plan(make_scenario([poly], h=0.2, r=0.5))
    assert (len(poly.xs), len(result.inflated[0].xs)) == kept
    assert ConvexPolygon(result.inflated[0].vertices) == result.inflated[0]
    assert result.clearance_ok and result.clearance >= 0.2


class TestSegmentBlocked:
    def test_crossing_blocked(self):
        assert _segment_blocked(-1, 0.5, 2, 0.5, SQUARE.xs, SQUARE.ys)

    def test_grazing_vertex_not_blocked(self):
        assert not _segment_blocked(-1, 0, 2, 0, SQUARE.xs, SQUARE.ys)

    def test_along_edge_not_blocked(self):
        assert not _segment_blocked(0, 0, 1, 0, SQUARE.xs, SQUARE.ys)

    def test_diagonal_of_polygon_blocked(self):
        assert _segment_blocked(0, 0, 1, 1, SQUARE.xs, SQUARE.ys)

    def test_within_epsilon_of_edge_not_blocked(self):
        # The clipped midpoint lies exactly LENGTH_EPSILON inside the bottom edge.
        assert not _segment_blocked(-1, 1e-9, 2, 1e-9, SQUARE.xs, SQUARE.ys)
        assert _segment_blocked(-1, 2e-9, 2, 2e-9, SQUARE.xs, SQUARE.ys)

    def test_outside_not_blocked(self):
        assert not _segment_blocked(-1, -1, -1, 2, SQUARE.xs, SQUARE.ys)


def test_float_kernels_match_object_references(rng):
    """Blocking, containment and segment distance on coordinates agree
    exactly with the ``Point2`` versions, also for segments that run along
    edges, end on vertices or pass through them."""
    for _ in range(400):
        poly = random_obstacle(rng, 0.0, 0.0, rng.uniform(0.5, 2.0))
        if poly is None:
            continue
        verts = poly.vertices
        points = [P(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4)] + list(verts)
        points.append(P(0.5 * (verts[0].x + verts[1].x), 0.5 * (verts[0].y + verts[1].y)))
        for _ in range(12):
            a, b = rng.sample(points, 2)
            if rng.random() < 0.2:  # the line through an edge, reaching beyond it
                a, b = P(2 * verts[0].x - verts[1].x, 2 * verts[0].y - verts[1].y), verts[1]
            assert (_segment_blocked(a.x, a.y, b.x, b.y, poly.xs, poly.ys)
                    == reference.segment_blocked(a, b, poly))
            assert _segment_into(a.x, a.y, b.x, b.y, poly.xs, poly.ys) == reference.segment_into(a, b, poly)
            for tol in (0.0, 1e-9, -1e-9):
                assert poly.contains(a, tol) == reference.contains(poly, a, tol)
            assert (point_segment_distance(a.x, a.y, verts[0].x, verts[0].y, b.x, b.y)
                    == reference.point_segment_distance(a, verts[0], b))


def test_scenario_rejects_coincident_start_and_goal():
    with pytest.raises(ValueError, match=r"start Point2\(x=1, y=1\) and goal .* coincide"):
        make_scenario([], start=P(1, 1), goal=P(1, 1))
    with pytest.raises(ValueError, match="coincide"):
        make_scenario([], start=P(1, 1), goal=P(1, 1 + 1e-13))


class TestVisibilityGraph:
    def test_empty_scenario_single_edge(self):
        sc = make_scenario([])
        graph = build_visibility_graph(sc, [])
        assert len(graph.nodes) == 2
        assert len(graph.edges) == 1
        assert graph.edges[0][2] == pytest.approx(dist(sc.start, sc.goal))

    def test_square_blocks_direct_edge(self):
        obs = ConvexPolygon([P(8, 8), P(12, 8), P(12, 12), P(8, 12)])
        sc = make_scenario([obs])
        inflated = [mitered_inflate(obs, 0.5)]
        graph = build_visibility_graph(sc, inflated)
        direct = [
            e for e in graph.edges if {e[0], e[1]} == {graph.start_index, graph.goal_index}
        ]
        assert not direct
        # sides of the inflated polygon are visible co-edges
        side_pairs = {(0, 1), (1, 2), (2, 3), (0, 3)}
        present = {(min(i, j), max(i, j)) for i, j, _ in graph.edges}
        assert side_pairs <= present

    def test_start_inside_inflated_raises(self):
        obs = ConvexPolygon([P(8, 8), P(12, 8), P(12, 12), P(8, 12)])
        sc = make_scenario([obs], start=P(8.1, 8.1))
        with pytest.raises(UnreachableConfigurationError):
            build_visibility_graph(sc, [mitered_inflate(obs, 0.5)])

    def test_edges_avoid_interiors(self, rng):
        for _ in range(30):
            obstacles = []
            for k in range(rng.randint(1, 3)):
                poly = random_obstacle(rng, rng.uniform(5, 15), rng.uniform(5, 15), 1.5)
                if poly is not None:
                    obstacles.append(poly)
            sc = make_scenario(obstacles)
            inflated = [mitered_inflate(o, 0.3) for o in obstacles]
            try:
                graph = build_visibility_graph(sc, inflated)
            except UnreachableConfigurationError:
                continue
            for i, j, _ in graph.edges:
                a, b = graph.nodes[i], graph.nodes[j]
                for k in range(1, 50):
                    t = k / 50
                    p = P(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
                    for poly in inflated:
                        assert not poly.contains(p, tol=1e-7)


class TestShortestPolyline:
    def test_two_point(self):
        sc = make_scenario([])
        graph = build_visibility_graph(sc, [])
        polyline = shortest_polyline(graph)
        assert len(polyline) == 2

    def test_matches_dijkstra(self, rng):
        for _ in range(40):
            obstacles = []
            for k in range(rng.randint(1, 4)):
                poly = random_obstacle(rng, rng.uniform(4, 16), rng.uniform(4, 16), 1.8)
                if poly is not None:
                    obstacles.append(poly)
            sc = make_scenario(obstacles)
            inflated = [mitered_inflate(o, 0.25) for o in obstacles]
            try:
                graph = build_visibility_graph(sc, inflated)
                polyline = shortest_polyline(graph)
            except (UnreachableConfigurationError, NoPathError):
                continue
            reference = all_pairs_visibility_graph(sc, inflated)
            expected = dijkstra_reference(reference, reference.start_index, reference.goal_index)
            assert polyline_length(polyline) == expected

    def test_no_path(self):
        wall = ConvexPolygon([P(-5, 9), P(25, 9), P(25, 11), P(-5, 11)])
        sc = make_scenario([wall])
        graph = build_visibility_graph(sc, [mitered_inflate(wall, 0.3)])
        with pytest.raises(NoPathError):
            shortest_polyline(graph)

    def test_start_at_inflated_vertex(self):
        # The goal lies behind the corner the start sits on: the straight
        # route is no tangent there, so A* must start from the start node.
        obs = ConvexPolygon([P(8, 8), P(12, 8), P(12, 12), P(8, 12)])
        sc = make_scenario([obs], h=0.5, r=0.25, start=P(7.5, 7.5), goal=P(1, 1))
        graph = build_visibility_graph(sc, [mitered_inflate(obs, 0.5)])
        assert graph.nodes[0] == sc.start
        assert shortest_polyline(graph).points == (sc.start, sc.goal)

    def test_goal_at_inflated_vertex(self):
        # The mirror case: the start lies behind the corner the goal sits
        # on, and the straight route is no tangent at the corner, so A*
        # must end at the goal node.
        obs = ConvexPolygon([P(8, 8), P(12, 8), P(12, 12), P(8, 12)])
        sc = make_scenario([obs], h=0.5, r=0.25, start=P(1, 1), goal=P(7.5, 7.5))
        graph = build_visibility_graph(sc, [mitered_inflate(obs, 0.5)])
        assert graph.nodes[0] == sc.goal
        assert shortest_polyline(graph).points == (sc.start, sc.goal)

    def test_tangent_graph_routes_match_all_pairs_graph(self):
        """The tangent graph keeps a subset of the all-pairs edges (same
        weights, same order) and A* returns the same route, or the same
        error type, on 2,000 seeded scenarios of five families. On the
        tangent graph the lazy A* asks for no pair twice, so tests none twice,
        and returns the eager A*'s route."""
        rng = random.Random(4)
        outcomes = {}
        for k in range(2000):
            family = SCENARIO_FAMILIES[k % len(SCENARIO_FAMILIES)]
            sc = family(rng)
            inflated = inflate_obstacles(sc)
            graphs = []
            got = route_or_error(logging_build(graphs), sc, inflated)
            assert got == route_or_error(all_pairs_visibility_graph, sc, inflated), (family, k)
            if graphs:  # the start and goal lie outside every inflated obstacle
                graph = graphs[0]
                assert len(set(graph.asked)) == len(graph.asked) == len(graph.tested), (family, k)
                try:
                    assert eager_shortest_polyline(graph).points == got, (family, k)
                except NoPathError:
                    assert got is NoPathError, (family, k)
            if isinstance(got, tuple):
                edges = graph.edges
                kept = set(edges)
                reference = all_pairs_visibility_graph(sc, inflated).edges
                assert [e for e in reference if e in kept] == list(edges)
            key = (family.__name__, got if isinstance(got, type) else len(got) > 2)
            outcomes[key] = outcomes.get(key, 0) + 1
        for family in SCENARIO_FAMILIES:  # every family plans routes that bend
            assert outcomes.get((family.__name__, True), 0) >= 100, outcomes

    def test_plan_tests_only_the_start_goal_pair_when_the_goal_is_in_sight(self, monkeypatch):
        """A* expands the start and pops the goal's label first, so plan()
        tests the one pair (start, goal), with at most one clip; the pairs it
        did not test are tested when ``edges`` asks for them, which gives a
        fresh graph's tuple."""
        squares = [ConvexPolygon([P(x, y), P(x + 2, y), P(x + 2, y + 2), P(x, y + 2)])
                   for x, y in ((3, 3), (8, 4), (13, 3), (5, 12), (12, 13))]
        sc = make_scenario(squares, h=0.3, r=0.4, start=P(1, 9.5), goal=P(19, 10.5))
        graphs, clips = [], []
        blocked = planner._segment_blocked
        monkeypatch.setattr(planner, "build_visibility_graph", logging_build(graphs))
        monkeypatch.setattr(planner, "_segment_blocked",
                            lambda *args: clips.append(args) or blocked(*args))
        result = plan(sc)
        graph = graphs[0]
        n = len(graph.nodes)
        assert result.polyline.points == (sc.start, sc.goal)
        assert graph.tested == [(graph.start_index, graph.goal_index)]
        assert len(clips) <= 1
        searched_clips = len(clips)
        edges = graph.edges
        assert len(graph.tested) == n * (n - 1) // 2 and len(clips) > 3 * searched_clips
        assert edges == build_visibility_graph(sc, result.inflated).edges
        assert list(edges) == sorted(edges) and all(i < j for i, j, _ in edges)
        kept = set(edges)
        assert [e for e in all_pairs_visibility_graph(sc, result.inflated).edges
                if e in kept] == list(edges)
        adjacency = [[] for _ in range(n)]  # as the lists were built from the edges
        for i, j, w in edges:
            adjacency[i].append((j, w))
            adjacency[j].append((i, w))
        assert reference.adjacency(graph) == adjacency

    def test_ties_break_as_the_eager_search(self):
        """Around one square, the routes left and right of it have equal
        length; the lazy search keeps the one the eager A* over
        ``adjacency(graph)`` returns. So it does where a route through a
        collinear corner ties in float with the straight one, and on
        integer-aligned squares, whose routes often tie."""
        obs = ConvexPolygon([P(8, 8), P(12, 8), P(12, 12), P(8, 12)])
        for start, goal in (((10, 2), (10, 18)), ((10, 18), (10, 2)), ((2, 10), (18, 10)),
                            ((18, 10), (2, 10))):
            sc = make_scenario([obs], h=0.5, r=0.25, start=P(*start), goal=P(*goal))
            inflated = inflate_obstacles(sc)
            route = shortest_polyline(build_visibility_graph(sc, inflated))
            assert route == eager_shortest_polyline(build_visibility_graph(sc, inflated))
            swap = (lambda p: P(20 - p.x, p.y)) if start[0] == 10 else (lambda p: P(p.x, 20 - p.y))
            mirrored = Polyline([swap(p) for p in route.points])
            assert len(route) == 4 and mirrored != route
            assert polyline_length(mirrored) == polyline_length(route)
        # Random(4)'s integer-squares scenario 436: the routes with and without
        # the collinear inflated corner (14.5, 14.5) have the same float length.
        # Equal f popped by push order alone would return the one without it.
        squares = [ConvexPolygon([P(x0, y0), P(x1, y0), P(x1, y1), P(x0, y1)])
                   for x0, y0, x1, y1 in ((1, 9, 4, 12), (15, 11, 18, 14), (9, 3, 12, 6),
                                          (12, 10, 13, 11), (2, 3, 3, 4))]
        sc = make_scenario(squares, h=0.5, r=0.25, start=P(15, 17.5), goal=P(11, 2))
        inflated = inflate_obstacles(sc)
        route = (P(15, 17.5), P(14.5, 14.5), P(12.5, 2.5), P(11, 2))
        for search in (shortest_polyline, eager_shortest_polyline):
            assert route_or_error(build_visibility_graph, sc, inflated, search) == route
        rng = random.Random(8)
        for k in range(300):
            sc = integer_squares_scenario(rng)
            inflated = inflate_obstacles(sc)
            assert (route_or_error(build_visibility_graph, sc, inflated)
                    == route_or_error(build_visibility_graph, sc, inflated,
                                      eager_shortest_polyline)), k


class TestClearance:
    def test_line_to_square(self):
        square = ConvexPolygon([P(1.5, 2.5), P(2.5, 2.5), P(2.5, 3.5), P(1.5, 3.5)])
        path = SmoothPath((LineSegment(P(0, 0), P(4, 0)),), P(0, 0), P(4, 0))
        assert clearance(path, [square]) == pytest.approx(2.5, abs=1e-12)

    def test_intersecting_path(self):
        path = SmoothPath((LineSegment(P(-1, 0.5), P(2, 0.5)),), P(-1, 0.5), P(2, 0.5))
        assert clearance(path, [SQUARE]) == 0.0

    def test_path_inside_obstacle(self):
        path = SmoothPath((LineSegment(P(0.2, 0.5), P(0.8, 0.5)),), P(0.2, 0.5), P(0.8, 0.5))
        assert clearance(path, [SQUARE]) == 0.0

    def test_no_obstacles_infinite(self):
        path = SmoothPath((LineSegment(P(0, 0), P(1, 0)),), P(0, 0), P(1, 0))
        assert clearance(path, []) == math.inf

    def test_arc_grazing_vertex_at_exact_distance(self):
        # arc around (0,0) with radius 2; square corner at (3, 0): gap = 1
        arc = ArcSegment(P(0, 0), 2.0, Heading(-math.pi / 4), math.pi / 2)
        square = ConvexPolygon([P(3, 0), P(4, -0.5), P(5, 0), P(4, 0.5)])
        path = SmoothPath((arc,), *(lambda s: (s, s))(P(0, 0)))
        assert clearance(path, [square]) == pytest.approx(1.0, abs=1e-9)

    def test_arc_inside_polygon(self):
        arc = ArcSegment(P(0.5, 0.5), 0.1, Heading(0), math.pi)
        big = SQUARE
        path = SmoothPath((arc,), P(0.6, 0.5), P(0.4, 0.5))
        assert clearance(path, [big]) == 0.0

    @pytest.mark.parametrize(
        "segments, obstacles, expected",
        [
            ([LineSegment(P(-1, 1), P(2, 1))], [SQUARE], 0.0),  # runs along the top edge
            ([LineSegment(P(-1, 0.5), P(2, 0.5))], [SQUARE], 0.0),  # crosses
            ([LineSegment(P(0.2, 0.5), P(0.8, 0.5))], [SQUARE], 0.0),  # inside
            # The circle's box holds the left square, yet the arc stays over 7
            # from it; the right square is 0.5 from the arc and the line is
            # sqrt(2) from the left square, so the bound must use the full circle.
            (
                [ArcSegment(P(0, 0), 5.0, Heading(-math.pi / 4), math.pi / 2),
                 LineSegment(P(-10, 1.5), P(-5.5, 1.5))],
                [ConvexPolygon([P(-4.5, -0.5), P(-3.5, -0.5), P(-3.5, 0.5), P(-4.5, 0.5)]),
                 ConvexPolygon([P(5.5, -0.5), P(6.5, -0.5), P(6.5, 0.5), P(5.5, 0.5)])],
                0.5,
            ),
            ([LineSegment(P(0, 0), P(1, 0))], [], math.inf),
        ],
    )
    def test_handmade_cases_match_all_pairs_loop(self, segments, obstacles, expected):
        path = SmoothPath(segments, P(0, 0), P(1, 0))
        assert clearance(path, obstacles) == all_pairs_clearance(path, obstacles)
        assert clearance(path, obstacles) == pytest.approx(expected, abs=1e-12)

    def test_planned_paths_match_all_pairs_loop(self):
        """Bit-identical to the exhaustive loop, against the original
        obstacles and against the inflated ones (whose corners the arcs cut)."""
        rng = random.Random(5)
        planned = 0
        for k in range(600):
            sc = SCENARIO_FAMILIES[k % len(SCENARIO_FAMILIES)](rng)
            try:
                result = plan(sc)
            except (NoPathError, FeasibilityError):
                continue
            planned += 1
            for obstacles in (sc.obstacles, result.inflated):
                expected = all_pairs_clearance(result.path, obstacles)
                assert clearance(result.path, obstacles) == expected
            assert result.clearance == all_pairs_clearance(result.path, sc.obstacles)
        assert planned >= 300

    def test_arc_into_matches_per_edge_reference(self, rng):
        # Arcs around the origin against polygons placed across their circle,
        # so that every candidate (an arc end included) sets some distances.
        checked = 0
        while checked < 2000:
            radius = rng.uniform(0.3, 2.5)
            arc = ArcSegment(P(0, 0), radius, Heading(rng.uniform(-math.pi, math.pi)),
                             rng.uniform(-2 * math.pi, 2 * math.pi))
            angle = rng.uniform(-math.pi, math.pi)
            reach = radius + rng.uniform(-1.0, 1.5)
            poly = random_obstacle(rng, reach * math.cos(angle), reach * math.sin(angle),
                                   rng.uniform(0.1, 1.0))
            if poly is None:
                continue
            assert _arc_into(arc_row(arc), poly.xs, poly.ys) == per_edge_arc_into(arc, poly)
            checked += 1

    def test_arc_segment_distance_matches_sampling(self, rng):
        for _ in range(400):
            arc = ArcSegment(
                P(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                rng.uniform(0.3, 2.5),
                Heading(rng.uniform(-math.pi, math.pi)),
                rng.uniform(-2 * math.pi, 2 * math.pi),
            )
            a = P(rng.uniform(-5, 5), rng.uniform(-5, 5))
            b = P(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if dist(a, b) < 1e-6:
                continue
            row = arc_row(arc)
            exact = _arc_segment_distance(row, arc_ends(*row), a.x, a.y, b.x, b.y)
            best = math.inf
            for i in range(1001):
                ang = arc.start_angle.theta + arc.sweep * i / 1000
                p = P(
                    arc.center.x + arc.radius * math.cos(ang),
                    arc.center.y + arc.radius * math.sin(ang),
                )
                best = min(best, point_segment_distance(p.x, p.y, a.x, a.y, b.x, b.y))
            resolution = arc.radius * abs(arc.sweep) / 1000 + 1e-12
            assert exact <= best + 1e-12
            assert best - exact <= resolution


class TestPlan:
    def test_plan_matches_reference_pipeline(self):
        """plan() on floats against the object pipeline (per-vertex
        inflation, all-pairs graph, all-pairs clearance, segment-sum length):
        == on offsets, inflated vertices, route, rows, clearance, length and
        clearance_ok, or the same error type and message, on 1,000 scenarios
        of the five families and 2,000 drawn like plan_stream's."""
        rng = random.Random(6)
        scenarios = [SCENARIO_FAMILIES[k % len(SCENARIO_FAMILIES)](rng) for k in range(1000)]
        while len(scenarios) < 3000:
            sc = plan_stream_scenario(rng)
            if sc is not None:
                scenarios.append(sc)
        kinds = {}
        for k, sc in enumerate(scenarios):
            got = plan_outcome(plan, sc)
            assert got == plan_outcome(reference_plan, sc), k
            kind = got[0].__name__ if isinstance(got[0], type) else "planned"
            kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds["planned"] >= 2500 and kinds["UnreachableConfigurationError"] >= 100, kinds
        assert kinds["FeasibilityError"] >= 5 and kinds["NoPathError"] >= 1, kinds

    def test_empty_scenario(self):
        result = plan(make_scenario([]))
        assert len(result.path.segments) == 1
        assert result.clearance == math.inf
        assert result.clearance_ok

    def test_single_square(self):
        obs = ConvexPolygon([P(8, 8), P(12, 8), P(12, 12), P(8, 12)])
        result = plan(make_scenario([obs], h=0.2, r=0.5))
        assert result.clearance >= 0.2 - 1e-9
        assert result.clearance_ok
        assert result.offsets[0] >= 0.2
        assert len(result.polyline) >= 3

    def test_touching_squares(self):
        # two squares share the edge x = 10; the route must go around the pair
        left = ConvexPolygon([P(8, 8), P(10, 8), P(10, 12), P(8, 12)])
        right = ConvexPolygon([P(10, 8), P(12, 8), P(12, 12), P(10, 12)])
        sc = make_scenario([left, right], h=0.2, r=0.5, start=P(10, 2), goal=P(10, 18))
        assert plan_outcome(plan, sc) == plan_outcome(reference_plan, sc)
        result = plan(sc)
        assert result.clearance >= 0.2 and result.clearance_ok

    def test_blocked(self):
        wall = ConvexPolygon([P(-5, 9), P(25, 9), P(25, 11), P(-5, 11)])
        with pytest.raises(NoPathError):
            plan(make_scenario([wall]))

    def test_failing_certificate_is_refused_by_name(self):
        """A sliver whose rounded miters do not contain it is planned straight
        past, 0.1414 from it: plan() returns the failing certificate, as the
        reference does, and require_clearance refuses it by obstacle."""
        sliver = ConvexPolygon.from_points([P(9.6, 4.4), P(9.7, 0.5), P(9.65, 2.45)])
        sc = Scenario((sliver,), Bounds(-10, -10, 30, 30), 0.2, 0.5, P(-5, 15), P(15, -5))
        result = plan(sc)
        assert result == reference_plan(sc) and not result.clearance_ok
        message = "path clearance 0.141421 to obstacle 0 < robot radius 0.2 (short by 0.0586)"
        with pytest.raises(NoPathError) as exc:
            require_clearance(sc, result)
        assert type(exc.value) is NoPathError and str(exc.value) == message
        far = ConvexPolygon([P(25, 25), P(26, 25), P(26, 26)])
        swapped = dataclasses.replace(sc, obstacles=(far, sliver))
        with pytest.raises(NoPathError, match=" to obstacle 1 < "):
            require_clearance(swapped, plan(swapped))
        passing = dataclasses.replace(sc, robot_radius=0.1)
        kept = plan(passing)
        assert kept.clearance_ok and require_clearance(passing, kept) is kept

    def test_narrow_corridor_blocked(self):
        left = ConvexPolygon([P(0.001, 9), P(9.8, 9), P(9.8, 11), P(0.001, 11)])
        right = ConvexPolygon([P(10.2, 9), P(19.999, 9), P(19.999, 11), P(10.2, 11)])
        sc = make_scenario([left, right], h=0.5, r=1.0, start=P(10, 1), goal=P(10, 19))
        with pytest.raises(NoPathError):
            plan(sc)

    def test_clearance_matches_dense_sampling(self):
        # exact clearance vs 1e3-point sampling along the planned path
        obs = ConvexPolygon([P(8, 8), P(12, 8), P(12, 12), P(8, 12)])
        result = plan(make_scenario([obs], h=0.2, r=0.5))
        samples = []
        for seg in result.path.segments:
            for k in range(334):
                t = k / 333
                if isinstance(seg, LineSegment):
                    samples.append(
                        P(seg.a.x + t * (seg.b.x - seg.a.x), seg.a.y + t * (seg.b.y - seg.a.y))
                    )
                else:
                    ang = seg.start_angle.theta + t * seg.sweep
                    samples.append(
                        P(
                            seg.center.x + seg.radius * math.cos(ang),
                            seg.center.y + seg.radius * math.sin(ang),
                        )
                    )
        verts = obs.vertices
        sampled = min(
            point_segment_distance(p.x, p.y, verts[i].x, verts[i].y,
                                   verts[(i + 1) % len(verts)].x, verts[(i + 1) % len(verts)].y)
            for p in samples
            for i in range(len(verts))
        )
        assert result.clearance <= sampled + 1e-12
        assert sampled - result.clearance <= 2e-2  # sampling resolution
        assert result.clearance >= 0.2 - 1e-9

    def test_square_grid_matches_all_pairs_pipeline(self):
        # 8 x 8 unit squares: the all-pairs graph has 258 nodes and 64
        # blockers per pair; the route threads the grid with 15 bends.
        pitch = 20.0 / 9
        squares = [
            ConvexPolygon([P(x - 0.5, y - 0.5), P(x + 0.5, y - 0.5), P(x + 0.5, y + 0.5),
                           P(x - 0.5, y + 0.5)])
            for x in (pitch * i for i in range(1, 9)) for y in (pitch * j for j in range(1, 9))
        ]
        sc = make_scenario(squares, h=0.2, r=0.4, start=P(0.5, 1.0), goal=P(19.5, 18.7))
        result = plan(sc)
        reference = all_pairs_visibility_graph(sc, inflate_obstacles(sc))
        polyline = shortest_polyline(reference)
        assert result.polyline == polyline and len(polyline) == 17
        assert result.path == smooth_polyline(polyline, 0.4)
        assert result.length == path_length(result.path)
        assert result.clearance == all_pairs_clearance(result.path, squares)
        assert result.clearance_ok

    def test_clearance_certified_random(self, rng):
        successes = 0
        for _ in range(60):
            obstacles = []
            for k in range(rng.randint(1, 3)):
                poly = random_obstacle(rng, rng.uniform(6, 14), rng.uniform(6, 14), 1.5)
                if poly is not None:
                    obstacles.append(poly)
            h = rng.uniform(0.1, 0.5)
            sc = make_scenario(obstacles, h=h, r=rng.uniform(h, 3 * h))
            try:
                result = plan(sc)
            except Exception:
                continue
            successes += 1
            assert result.clearance >= h - 1e-9
        assert successes >= 10
