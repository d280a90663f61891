import heapq
import math
import random

import pytest

from dps.geom import (ArcSegment, Heading, LineSegment, Point2, arc_ends, dist, interior_angle,
                      point_segment_distance)
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
    build_visibility_graph,
    clearance,
    convex_hull,
    mitered_inflate,
    plan,
    required_offset,
    shortest_polyline,
)
from dps.smoother import FeasibilityError, SmoothPath, path_length, polyline_length, smooth_polyline
import planner_reference as reference
from planner_reference import (all_pairs_clearance, all_pairs_visibility_graph,
                               inflate_obstacles, per_edge_arc_into, reference_plan)

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


def route_or_error(build, scenario, inflated):
    try:
        graph = build(scenario, inflated)
        return shortest_polyline(graph).points
    except NoPathError as err:  # UnreachableConfigurationError included
        return type(err)


def dijkstra_reference(graph: VisibilityGraph, s: int, g: int):
    adj = graph.adjacency()
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

    def test_contains(self):
        assert SQUARE.contains(P(0.5, 0.5))
        assert SQUARE.contains(P(0, 0))  # boundary is inside (closed)
        assert not SQUARE.contains(P(1.5, 0.5))


def test_convex_hull_collinear_error():
    with pytest.raises(ValueError):
        convex_hull([P(0, 0), P(1, 1), P(2, 2)])


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
        error type, on 2,000 seeded scenarios of five families."""
        rng = random.Random(4)
        outcomes = {}
        for k in range(2000):
            family = SCENARIO_FAMILIES[k % len(SCENARIO_FAMILIES)]
            sc = family(rng)
            inflated = inflate_obstacles(sc)
            got = route_or_error(build_visibility_graph, sc, inflated)
            assert got == route_or_error(all_pairs_visibility_graph, sc, inflated), (family, k)
            if isinstance(got, tuple):
                edges = build_visibility_graph(sc, inflated).edges
                kept = set(edges)
                reference = all_pairs_visibility_graph(sc, inflated).edges
                assert [e for e in reference if e in kept] == list(edges)
            key = (family.__name__, got if isinstance(got, type) else len(got) > 2)
            outcomes[key] = outcomes.get(key, 0) + 1
        for family in SCENARIO_FAMILIES:  # every family plans routes that bend
            assert outcomes.get((family.__name__, True), 0) >= 100, outcomes


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

    def test_blocked(self):
        wall = ConvexPolygon([P(-5, 9), P(25, 9), P(25, 11), P(-5, 11)])
        with pytest.raises(NoPathError):
            plan(make_scenario([wall]))

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
