import math
import random
import re
from functools import partial

import numpy as np
import pytest

from dps.geom import (
    ArcSegment,
    DegeneratePointsError,
    Heading,
    LineSegment,
    Point2,
    arc_endpoint,
    dist,
    interior_angle,
    normalize_angle,
)
from dps.smoother import (
    ARC,
    LINE,
    FeasibilityError,
    FeasibilityReport,
    Polyline,
    SmoothPath,
    check_far_condition,
    check_global_existence,
    deviation_bound,
    extract_pieces,
    feasibility_report,
    path_length,
    point_to_path_distance,
    polyline_length,
    smooth_polyline,
    smooth_polyline_batch,
    tangent_length,
    validate,
    vertex_solutions,
    _solve_raw,
)
from dps.randgen import random_polyline

from conftest import make_triplet, random_rigid_motion, solve_triplet
from planner_reference import point_to_path_distance as reference_point_to_path_distance
from planner_reference import segment_sum_length

P = Point2
RIGHT_ANGLE = [P(0, 0), P(4, 0), P(4, 4)]


def test_tangent_length_examples():
    assert tangent_length(math.pi / 2, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert tangent_length(math.pi / 3, 2.0) == pytest.approx(2 * math.sqrt(3), rel=1e-12)
    assert tangent_length(math.pi - 1e-6, 1.0) < 1e-5  # vanishes toward collinear
    for bad in (0.0, math.pi, -1.0, 4.0):
        with pytest.raises(ValueError):
            tangent_length(bad, 1.0)
    with pytest.raises(ValueError):
        tangent_length(math.pi / 2, -1.0)


def test_tangent_length_monotone_decreasing():
    alphas = [0.2 + 0.1 * k for k in range(28)]
    values = [tangent_length(a, 1.0) for a in alphas]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_deviation_bound_examples():
    assert deviation_bound(math.pi / 2, 1.0) == pytest.approx(math.sqrt(2) - 1, rel=1e-12)
    assert deviation_bound(math.pi / 3, 2.0) == pytest.approx(2.0, rel=1e-12)
    assert deviation_bound(math.pi - 1e-8, 1.0) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        deviation_bound(3.5, 1.0)


def test_cross_dot_formula_matches_half_angle_bulk():
    # Algorithm's l = r*|v1 x v2| / (v1.v2 + |v1||v2|) against r/tan(alpha/2)
    rng = random.Random(99)
    for _ in range(1_000_000):
        ax = rng.uniform(-10, 10)
        ay = rng.uniform(-10, 10)
        bx = rng.uniform(-10, 10)
        by = rng.uniform(-10, 10)
        n1 = math.hypot(ax, ay)
        n2 = math.hypot(bx, by)
        if n1 < 1e-3 or n2 < 1e-3:
            continue
        crs = ax * by - ay * bx
        dt = ax * bx + ay * by
        denom = dt + n1 * n2
        if denom < 1e-6 * n1 * n2 or abs(crs) < 1e-9 * n1 * n2:
            continue
        l_formula = abs(crs) / denom
        alpha = math.pi - math.atan2(abs(crs), dt)
        l_half_angle = 1.0 / math.tan(0.5 * alpha)
        assert abs(l_formula - l_half_angle) <= 1e-9 * max(l_formula, 1e-30)


def test_solve_three_points_right_angle():
    sol = solve_triplet(P(0, 0), P(4, 0), P(4, 4), 1.0)
    assert dist(sol.q1, P(3, 0)) < 1e-12
    assert dist(sol.q2, P(4, 1)) < 1e-12
    assert dist(sol.center, P(3, 1)) < 1e-12
    assert sol.l == pytest.approx(1.0, abs=1e-12)
    assert sol.d == pytest.approx(math.sqrt(2), abs=1e-12)
    assert sol.sweep == pytest.approx(math.pi / 2, abs=1e-12)
    assert sol.alpha == pytest.approx(math.pi / 2, abs=1e-12)


def test_solve_three_points_mirror():
    sol = solve_triplet(P(0, 0), P(4, 0), P(4, -4), 1.0)
    assert dist(sol.q1, P(3, 0)) < 1e-12
    assert dist(sol.q2, P(4, -1)) < 1e-12
    assert dist(sol.center, P(3, -1)) < 1e-12
    assert sol.sweep == pytest.approx(-math.pi / 2, abs=1e-12)


def test_solve_three_points_collinear_signal():
    assert solve_triplet(P(0, 0), P(4, 0), P(8, 1e-9), 1.0) is None
    assert solve_triplet(P(0, 0), P(1, 0), P(2, 0), 1.0) is None


def test_vertex_solutions_pass_through_exactly_on_collinear_triples():
    # |v1 x v2| <= 1e-9 |v1| |v2| with v1 . v2 > 0 makes a vertex a
    # pass-through (None); a near-reversal is not one.
    for *triple, pass_through in (
        ((0, 0), (1, 0), (2, 0), True),
        ((0, 0), (4, 0), (8, 1e-9), True),
        ((0, 0), (4, 0), (8, 1e-6), False),
        ((0, 0), (1, 0), (0, 1e-7), False),
    ):
        polyline = Polyline([P(*xy) for xy in triple])
        kinds = smooth_polyline(polyline, 1.0, mode="best-effort").kind.tolist()
        assert (ARC not in kinds) == pass_through, triple
        try:
            (sol,) = vertex_solutions(polyline, 1.0)
        except FeasibilityError:  # the near-reversal is too sharp for r = 1
            assert not pass_through, triple
        else:
            assert (sol is None) == pass_through, triple


def test_solve_three_points_existence_violation():
    with pytest.raises(FeasibilityError) as exc:
        solve_triplet(P(0, 0), P(0.5, 0), P(0.5, 0.5), 1.0)
    assert str(exc.value) == "vertex 1: l = 1 > min edge 0.5 (short by 0.5)"
    assert exc.value.report == FeasibilityReport((True, False, True), (False, False))
    with pytest.raises(DegeneratePointsError):
        solve_triplet(P(0, 0), P(0, 0), P(1, 1), 1.0)


def test_solve_three_points_reversal_rejected():
    with pytest.raises(FeasibilityError):
        solve_triplet(P(0, 0), P(10, 0), P(0, 0), 1.0)


def test_triplet_invariants_random(rng):
    for _ in range(3000):
        r = rng.uniform(0.2, 3.0)
        p_i, p_m, p_f, alpha = make_triplet(rng, r)
        sol = solve_triplet(p_i, p_m, p_f, r)
        scale = max(r, sol.d)
        assert abs(dist(sol.q1, sol.center) - r) <= 1e-9 * scale
        assert abs(dist(sol.q2, sol.center) - r) <= 1e-9 * scale
        assert abs(sol.l - r / math.tan(0.5 * sol.alpha)) <= 1e-9 * max(1.0, sol.l)
        assert abs(sol.d - r / math.sin(0.5 * sol.alpha)) <= 1e-9 * max(1.0, sol.d)
        assert abs(abs(sol.sweep) - (math.pi - sol.alpha)) <= 1e-12
        assert abs(sol.alpha - alpha) <= 1e-9
        assert abs(sol.deviation - (sol.d - r)) == 0.0
        # tangency: radius at q1 perpendicular to incoming edge direction
        v1 = (p_m.x - p_i.x, p_m.y - p_i.y)
        rad1 = (sol.q1.x - sol.center.x, sol.q1.y - sol.center.y)
        n1 = math.hypot(*v1)
        assert abs(v1[0] * rad1[0] + v1[1] * rad1[1]) <= 1e-9 * n1 * r
        v2 = (p_f.x - p_m.x, p_f.y - p_m.y)
        rad2 = (sol.q2.x - sol.center.x, sol.q2.y - sol.center.y)
        n2 = math.hypot(*v2)
        assert abs(v2[0] * rad2[0] + v2[1] * rad2[1]) <= 1e-9 * n2 * r
        # turn side matches the cross product sign
        crs = v1[0] * v2[1] - v1[1] * v2[0]
        assert (sol.sweep > 0) == (crs > 0)


def test_check_local_existence_examples():
    def local_ok(*triple):
        return check_global_existence(Polyline(triple), 1.0).local_ok[1]

    assert local_ok(P(0, 0), P(4, 0), P(4, 4))
    assert not local_ok(P(0, 0), P(0.5, 0), P(0.5, 0.5))
    assert local_ok(P(0, 0), P(1, 0), P(2, 0))  # pass-through


def test_check_global_existence_square_wave():
    square_wave = Polyline([P(0, 0), P(4, 0), P(4, 4), P(8, 4)])
    report = check_global_existence(square_wave, 1.0)
    assert report.feasible
    assert all(report.local_ok) and all(report.global_ok)
    report3 = check_global_existence(square_wave, 3.0)
    assert not report3.feasible
    assert report3.global_violations == [1]  # the middle edge


def test_check_global_existence_two_points():
    report = check_global_existence(Polyline([P(0, 0), P(5, 5)]), 2.0)
    assert report.feasible


def test_check_far_condition_examples():
    bend = Polyline([P(0, 0), P(10, 0), P(10, 10)])
    assert check_far_condition(bend, 1.0) == (True, True)
    flags3 = check_far_condition(bend, 3.0)
    assert flags3 == (False, True)
    with pytest.raises(FeasibilityError):
        check_far_condition(Polyline([P(0, 0), P(0.5, 0), P(0.5, 0.5)]), 1.0)


def test_feasibility_report_combines_all():
    bend = Polyline([P(0, 0), P(10, 0), P(10, 10)])
    rep = feasibility_report(bend, 3.0)
    assert rep.feasible and not rep.guaranteed_optimal
    assert rep.far_violations == [0]
    rep_bad = feasibility_report(Polyline([P(0, 0), P(0.5, 0), P(0.5, 0.5)]), 1.0)
    assert not rep_bad.feasible and rep_bad.far_ok is None


def test_feasibility_error_names_first_violation():
    short = Polyline([P(0, 0), P(0.5, 0), P(0.5, 0.5)])
    with pytest.raises(FeasibilityError, match=r"^vertex 1: l = 1 > min edge 0\.5 \(short by 0\.5\)$"):
        smooth_polyline(short, 1.0)
    square_wave = Polyline([P(0, 0), P(4, 0), P(4, 4), P(8, 4)])
    with pytest.raises(FeasibilityError) as exc:
        vertex_solutions(square_wave, 3.0)
    assert str(exc.value) == "edge 1: |p1 p2| = 4 < l1 + l2 = 6 (short by 2)"
    assert exc.value.report == check_global_existence(square_wave, 3.0)
    reversal = Polyline([P(0, 0), P(5, 0), P(1, 0), P(1, 5)])
    with pytest.raises(FeasibilityError, match=r"^vertex 1: l = inf > min edge 4 "):
        extract_pieces(reversal, 1.0)


def _boundary_polyline(rng, r, first_turn):
    """Four points whose middle edge is l1 + l2 long up to the rounding of
    the coordinates, so the edge condition |p1 p2| >= l1 + l2 is decided by
    the last bits of the tangent lengths."""

    def step(p, length, heading):
        return P(p.x + length * math.cos(heading), p.y + length * math.sin(heading))

    second_turn = rng.choice((-1, 1)) * rng.uniform(0.05, math.pi - 0.05)
    l1 = r * math.tan(0.5 * abs(first_turn))
    l2 = r * math.tan(0.5 * abs(second_turn))
    heading = rng.uniform(-math.pi, math.pi)
    p1 = P(rng.uniform(-50, 50), rng.uniform(-50, 50))
    p0 = step(p1, l1 + rng.uniform(1, 10) * r, heading + math.pi)
    p2 = step(p1, l1 + l2, heading + first_turn)
    p3 = step(p2, l2 + rng.uniform(1, 10) * r, heading + first_turn + second_turn)
    return Polyline([p0, p1, p2, p3])


def _verdicts(polyline, r):
    """Accept (True) or refuse (False) per entry point; a refusal must carry
    an infeasible report that names the failing vertex or edge."""
    verdicts = {
        "feasibility_report": feasibility_report(polyline, r).feasible,
        "check_global_existence": check_global_existence(polyline, r).feasible,
    }
    for fn in (smooth_polyline, vertex_solutions, extract_pieces, check_far_condition):
        try:
            fn(polyline, r)
            verdicts[fn.__name__] = True
        except FeasibilityError as err:
            assert err.report is not None and not err.report.feasible
            assert str(err).startswith(("vertex ", "edge "))
            verdicts[fn.__name__] = False
    return verdicts


def test_entry_points_agree_on_edge_condition_boundary():
    rng = random.Random(4411)
    outcomes = []
    for case in range(3000):
        r = rng.uniform(0.2, 3.0)
        turn = rng.choice((-1, 1)) * rng.uniform(0.05, math.pi - 0.05)
        if case % 10 == 0:  # near-collinear first vertex: pass-through or not
            turn = math.copysign(1e-9 * rng.uniform(0.999, 1.001), turn)
        verdicts = _verdicts(_boundary_polyline(rng, r, turn), r)
        assert len(set(verdicts.values())) == 1, (case, verdicts)
        outcomes.append(verdicts["smooth_polyline"])
    assert 300 < sum(outcomes) < 2700  # both sides of the boundary are exercised
    reversal = Polyline([P(0, 0), P(5, 0), P(1, 0), P(1, 5)])
    assert set(_verdicts(reversal, 1.0).values()) == {False}


def test_smooth_right_angle():
    path = smooth_polyline(Polyline(RIGHT_ANGLE), 1.0)
    kinds = [type(s).__name__ for s in path.segments]
    assert kinds == ["LineSegment", "ArcSegment", "LineSegment"]
    assert path_length(path) == pytest.approx(6 + math.pi / 2, abs=1e-12)
    assert path.segments[1].radius == 1.0
    assert path.start_point == P(0, 0) and path.end_point == P(4, 4)
    assert validate(path, 1.0, 1e-9).ok


def test_smooth_collinear_polyline_single_line():
    path = smooth_polyline(Polyline([P(0, 0), P(1, 0), P(2, 0)]), 1.0)
    assert len(path.segments) == 1
    assert isinstance(path.segments[0], LineSegment)
    assert path_length(path) == pytest.approx(2.0, abs=0)


def test_smooth_two_point_polyline():
    path = smooth_polyline(Polyline([P(0, 0), P(3, 4)]), 1.0)
    assert len(path.segments) == 1
    assert path_length(path) == pytest.approx(5.0)


def test_smooth_two_turns_structure_and_deviation():
    polyline = Polyline([P(0, 0), P(10, 0), P(10, 10), P(20, 10)])
    r = 1.0
    path = smooth_polyline(polyline, r)
    kinds = [type(s).__name__ for s in path.segments]
    assert kinds == ["LineSegment", "ArcSegment", "LineSegment", "ArcSegment", "LineSegment"]
    for j in (1, 2):
        pts = polyline.points
        alpha = interior_angle(pts[j - 1], pts[j], pts[j + 1])
        expected = deviation_bound(alpha, r)
        assert point_to_path_distance(pts[j], path) == pytest.approx(expected, abs=1e-9)


def test_smooth_refuses_infeasible_with_report():
    bad = Polyline([P(0, 0), P(0.5, 0), P(0.5, 0.5)])
    with pytest.raises(FeasibilityError) as exc:
        smooth_polyline(bad, 1.0)
    assert exc.value.report is not None
    assert not exc.value.report.feasible


def test_best_effort_mode_clamps():
    bad = Polyline([P(0, 0), P(0.5, 0), P(0.5, 0.5)])
    path = smooth_polyline(bad, 1.0, mode="best-effort")
    report = validate(path, 1.0, 1e-9)
    # still G1 and chained, but the shrunken arc violates the curvature bound
    kinds = {issue.kind for issue in report.issues}
    assert kinds == {"curvature"}
    assert path.start_point == P(0, 0) and path.end_point == P(0.5, 0.5)
    feasible = Polyline(RIGHT_ANGLE)
    assert smooth_polyline(feasible, 1.0, mode="best-effort") == smooth_polyline(feasible, 1.0)


def test_both_modes_refuse_exact_reversal():
    # no G1 arc of any radius turns back on itself, so clamping cannot help
    reversal = Polyline([P(0, 0), P(5, 0), P(1, 0), P(1, 5)])
    for fn in (smooth_polyline, partial(smooth_polyline, mode="best-effort"), vertex_solutions):
        with pytest.raises(FeasibilityError) as exc:
            fn(reversal, 1.0)
        assert str(exc.value) == "vertex 1: l = inf > min edge 4 (exact reversal)"
        assert exc.value.report == check_global_existence(reversal, 1.0)
        assert exc.value.report.local_violations == [1]
    # the reversal is named even behind an earlier vertex that clamping can fix
    tight = Polyline([P(0, 0), P(0.5, 0), P(0.5, 0.5), P(5, 0.5), P(1, 0.5), P(1, 5)])
    with pytest.raises(FeasibilityError, match=r"^vertex 3: l = inf .* \(exact reversal\)$"):
        smooth_polyline(tight, 1.0, mode="best-effort")
    with pytest.raises(FeasibilityError, match=r"^vertex 1: l = 1 > min edge 0\.5 "):
        smooth_polyline(tight, 1.0)


def test_reversal_with_rounded_denominator_is_refused():
    # v1 = (1, 1) and v2 = (-2, -2): v1 x v2 is exactly 0, but v1.v2 + |v1||v2|
    # rounds to 8.9e-16, not 0. Taken for an arc of tangent length 0, the
    # vertex used to smooth into a half-turn arc 2r from the next line.
    reversal = Polyline([P(0, 0), P(1, 1), P(-1, -1), P(-1, 5)])
    for fn in (smooth_polyline, partial(smooth_polyline, mode="best-effort"), vertex_solutions):
        with pytest.raises(FeasibilityError) as exc:
            fn(reversal, 0.1)
        assert str(exc.value) == "vertex 1: l = inf > min edge 1.41421 (exact reversal)"
        assert exc.value.report == check_global_existence(reversal, 0.1)
    assert feasibility_report(reversal, 0.1).local_violations == [1]
    with pytest.raises(FeasibilityError, match=r"\(exact reversal\)$"):
        extract_pieces(reversal, 0.1)
    # a sharp turn that is no reversal still smooths: only v1 x v2 = 0 refuses
    sharp = Polyline([P(0, 0), P(1, 1), P(-1, -1 + 1e-3), P(-1, 5)])
    assert validate(smooth_polyline(sharp, 1e-5), 1e-5).ok


def test_overflowed_tangent_length_is_no_reversal(monkeypatch):
    # The turn is about 179.94 degrees, so l = r(1 - u1.u2)/|u1 x u2| is about
    # 2000 r, which overflows at r = 1e306; only a zero denominator is a
    # reversal. Strict refuses; best-effort gives the overflowed vertex each
    # edge it shares with an endpoint, splits an edge between two turning
    # vertices as their tan(turn / 2) (about 2000 : 1000, or 2000 : 1 next to
    # a right angle), and gives a path that is G1 and chained at its smallest
    # radius, on both backends.
    from dps import smoother

    overflow = [(0, 0), (1, 0), (0, 0.001)]
    long_overflow = [(i, 0) for i in range(48)] + [(46, 0.001)]
    for points, vertex in ((overflow, 1), (long_overflow, 47)):
        for fn in (smooth_polyline, vertex_solutions):
            with pytest.raises(FeasibilityError) as exc:
                fn(Polyline.from_array(points), 1e306)
            assert str(exc.value) == (f"vertex {vertex}: l = inf > min edge 1 "
                                      "(tangent length overflows a float)")
    # finite tangent lengths clamp by the same rule: a unit edge between a
    # right angle and a 60 degree turn splits 1 : tan(30 degrees)
    t = math.tan(math.pi / 6)
    for points, radius, fits in ((overflow, 1e306, [1.0]), (long_overflow, 1e306, [1.0]),
                                 (overflow + [(1, 0.002)], 1e306, [0.6666671, 0.3333334]),
                                 (overflow + [(0, 5)], 1e306, [0.9995012, 0.0004992510]),
                                 ([(0, 0), (0.5, 0), (0.5, 0.5)], 1.0, [0.5]),
                                 ([(0, 0), (1, 0), (1, 1), (0, 1)], 1.0, [0.5, 0.5]),
                                 ([(-20, 0), (0, 0), (0, 1), (-10 * math.sqrt(3), 11)], 10.0,
                                  [1 / (1 + t), t / (1 + t)])):
        paths = []
        for backend in (smoother._FLOATS, smoother._ARRAYS):
            monkeypatch.setattr(smoother, "_backend", lambda n, backend=backend: backend)
            paths.append(smooth_polyline(Polyline.from_array(points), radius, mode="best-effort"))
        assert paths[0] == paths[1]
        arcs = paths[0].data[paths[0].kind == ARC].tolist()
        assert validate(paths[0], min(arc[2] for arc in arcs)).ok
        # each arc's tangent length r tan(turn / 2) is its share of the edges
        assert [r * math.tan(0.5 * abs(sweep)) for _, _, r, _, sweep in arcs] == pytest.approx(fits, rel=1e-6)
    monkeypatch.undo()
    modes = (smooth_polyline, partial(smooth_polyline, mode="best-effort"), vertex_solutions)
    reversal = Polyline.from_array([(0, 0), (1, 0), (0.5, 0)])
    for fn in modes:
        with pytest.raises(FeasibilityError) as exc:
            fn(reversal, 1.0)
        assert str(exc.value) == "vertex 1: l = inf > min edge 0.5 (exact reversal)"
    # best-effort names a reversal behind two overflowed vertices
    with pytest.raises(FeasibilityError, match=r"^vertex 3: l = inf > min edge 4 \(exact reversal\)$"):
        smooth_polyline(Polyline.from_array(overflow + [(5, 0.001), (1, 0.001)]), 1e306, mode="best-effort")


def _best_effort_radii(points, r):
    """Arc radii of the best-effort path, in travel order."""
    path = smooth_polyline(Polyline.from_array(points), r, mode="best-effort")
    return path.data[path.kind == ARC, 2].tolist()


def _caps(points, r):
    """edge / (t0 + t1) per edge, t = tan(turn / 2) from the tangent pass (0
    at an endpoint), whether or not the edge holds."""
    from dps import smoother

    tp = smoother._tangent_pass(Polyline.from_array(points), r)
    t = [0.0] + [num / den for num, den in map(smoother._half_turn, tp.raws[7], tp.raws[8])] + [0.0]
    return [edge / (t0 + t1) for edge, t0, t1 in zip(tp.edges, t, t[1:])]


def test_failing_edge_caps_both_its_ends_alike(monkeypatch):
    # A right angle and a 30 degree turn share a unit edge that cannot hold
    # their tangent lengths at r = 10; the outer edges hold. Both ends take
    # the one radius edge / (t0 + t1), bit for bit, on both backends.
    from dps import smoother

    points = [(-20, 0), (0, 0), (0, 1), (-10, 1 + 10 * math.sqrt(3))]
    assert check_global_existence(Polyline.from_array(points), 10.0).global_violations == [1]
    cap = _caps(points, 10.0)[1]
    for backend in (smoother._FLOATS, smoother._ARRAYS):
        monkeypatch.setattr(smoother, "_backend", lambda n, backend=backend: backend)
        assert _best_effort_radii(points, 10.0) == [cap, cap]


def test_vertex_between_two_failing_edges_takes_the_smaller_cap(monkeypatch):
    # Edges 1 and 2 both fail at r = 10; vertex 2 lies between them, and
    # vertices 1 and 3 each have one failing edge.
    from dps import smoother

    points = [(-20, 0), (0, 0), (0, 1), (1.5, 1), (1.5, 21)]
    assert check_global_existence(Polyline.from_array(points), 10.0).global_violations == [1, 2]
    caps = _caps(points, 10.0)
    assert caps[1] != caps[2]
    for backend in (smoother._FLOATS, smoother._ARRAYS):
        monkeypatch.setattr(smoother, "_backend", lambda n, backend=backend: backend)
        assert _best_effort_radii(points, 10.0) == [caps[1], min(caps[1], caps[2]), caps[2]]


def test_best_effort_near_a_reversal_is_quiet_on_both_backends(monkeypatch):
    # Vertex 1 turns back within a subnormal of a reversal, so its
    # tan(turn / 2) overflows to inf and caps both its edges at 0. Warnings
    # are errors here, and the array backend warned of the overflow.
    from dps import smoother

    paths = []
    for backend in (smoother._FLOATS, smoother._ARRAYS):
        monkeypatch.setattr(smoother, "_backend", lambda n, backend=backend: backend)
        paths.append(smooth_polyline(Polyline.from_array([(0, 0), (1, 0), (0, 1e-320), (3, 3)]), 1.0,
                                     mode="best-effort"))
    assert paths[0] == paths[1]


def test_best_effort_radii_are_kept_under_reversal(monkeypatch):
    # Random walks that fail an edge: reversing one gives each vertex the
    # same radius, bit for bit, so the arcs come out in reverse order.
    from dps import smoother

    rng = random.Random(11)
    for backend in (smoother._FLOATS, smoother._ARRAYS):
        monkeypatch.setattr(smoother, "_backend", lambda n, backend=backend: backend)
        failing = 0
        while failing < 40:
            xy = [(0.0, 0.0)]
            for _ in range(rng.randint(2, 60)):
                step, heading = rng.uniform(0.3, 4.0), rng.uniform(-math.pi, math.pi)
                xy.append((xy[-1][0] + step * math.cos(heading), xy[-1][1] + step * math.sin(heading)))
            r = rng.uniform(0.2, 2.0)
            if check_global_existence(Polyline.from_array(xy), r).feasible:
                continue
            failing += 1
            assert _best_effort_radii(xy[::-1], r) == _best_effort_radii(xy, r)[::-1]


def _sharp_turn(rng, deficit, r):
    """Four points at coordinates up to 1e7 whose vertex 1 turns by
    pi - deficit, on edges long enough for strict smoothing."""
    l = r / math.tan(0.5 * deficit)  # the tangent length of that turn
    heading = rng.uniform(-math.pi, math.pi)
    points = [(rng.uniform(-1e7, 1e7), rng.uniform(-1e7, 1e7))]
    for length, turn in ((rng.uniform(1.01, 3.0) * l, 0.0),
                         (rng.uniform(2.02, 4.0) * l, rng.choice((-1, 1)) * (math.pi - deficit)),
                         (rng.uniform(2.02, 4.0) * l, rng.uniform(-1.0, 1.0))):
        heading += turn
        x, y = points[-1]
        points.append((x + length * math.cos(heading), y + length * math.sin(heading)))
    return Polyline.from_array(points)


def _near_reversal(rng):
    """(b, a, c, d) with c on the line back from a through b and beyond, one
    coordinate of c nudged by an ulp: v1 x v2 at a is a rounding residue."""
    import numpy as np

    a = [rng.uniform(-10, 10), rng.uniform(-10, 10)]
    b = [rng.uniform(-10, 10), rng.uniform(-10, 10)]
    k = rng.uniform(1.5, 4.0)
    c = [a[0] - k * (a[0] - b[0]), a[1] - k * (a[1] - b[1])]
    i = rng.randrange(2)
    c[i] = float(np.nextafter(c[i], rng.choice((-math.inf, math.inf))))
    return Polyline.from_array([b, a, c, [c[0] + rng.uniform(-5, 5), c[1] + rng.uniform(-5, 5)]])


def _far_tight_polyline(rng):
    """``_tight_polyline`` turned by a random angle and moved to coordinates
    up to 1e7, where its middle edge holds l1 + l2 or fails by rounding."""
    tight, s = _tight_polyline(rng, 1.0)
    turn = rng.uniform(-math.pi, math.pi)
    c, t = math.cos(turn), math.sin(turn)
    dx, dy = rng.uniform(-1e7, 1e7), rng.uniform(-1e7, 1e7)
    return Polyline.from_array([(c * x - t * y + dx, t * x + c * y + dy) for x, y in tight.xy.tolist()]), s


@pytest.mark.parametrize("backend", ["_FLOATS", "_ARRAYS"])
def test_strict_paths_validate_on_sharp_turns(monkeypatch, backend):
    """Every path strict smoothing returns passes validate at a tolerance of
    a few ulps of its largest coordinate: turns down to pi - 1e-6, where
    v1.v2 + |v1||v2| cancels, tight edges far from the origin, where the
    tangent points of two arcs may lie a few ulps apart, and near-reversals,
    which must be refused."""
    import numpy as np

    from dps import smoother

    monkeypatch.setattr(smoother, "_backend", lambda n: getattr(smoother, backend))
    rng = random.Random(2718)
    cases = [(_sharp_turn(rng, deficit, 1.0), 1.0) for deficit in (1e-3, 1e-4, 1e-5, 1e-6)
             for _ in range(250)]
    # about half of these are feasible, and some leave the two arcs' tangent
    # points a few ulps apart: a line there would head by rounding noise
    cases += filter(lambda case: feasibility_report(*case).feasible,
                    (_far_tight_polyline(rng) for _ in range(3000)))
    for polyline, r in cases:
        tol = max(1e-9, 8 * np.spacing(np.abs(polyline.xy).max()))
        report = validate(smooth_polyline(polyline, r), r, tol)
        assert report.ok, (r, polyline.xy.tolist(), report.issues)
    for _ in range(500):
        polyline = _near_reversal(rng)
        with pytest.raises(FeasibilityError, match=r"^vertex 1: l = "):
            smooth_polyline(polyline, 0.1)
    # u1 x u2 = -1.1e-16 is a rounding residue, so l = r(1 - u1.u2)/|u1 x u2|
    # is huge and the vertex is refused; the ratio of two residues, as in
    # r|v1 x v2|/(v1.v2 + |v1||v2|), gave l = 0.05 and a path with a 0.2 gap
    residue = Polyline([P(0, 0), P(1, 1), P(-2, -2.0000000000000004), P(-1, 5)])
    with pytest.raises(FeasibilityError, match=r"^vertex 1: l = 1\.80144e\+15 > min edge 1\.41421 "):
        smooth_polyline(residue, 0.1)


@pytest.mark.parametrize("backend", ["_FLOATS", "_ARRAYS"])
@pytest.mark.parametrize("n", [5, 20, 60])
@pytest.mark.parametrize("k", [-20, 1, 100, 300, 400, 505])
def test_power_of_two_scaling_is_exact(monkeypatch, backend, n, k):
    """Scaling a polyline and r by 2^k scales every length of the answer by
    exactly 2^k and keeps every angle and flag, up to coordinates near 1e154:
    the tangent solve reads unit edge directions and multiplies no two
    lengths, so nothing overflows and no warning is raised."""
    import numpy as np

    from dps import smoother

    monkeypatch.setattr(smoother, "_backend", lambda size: getattr(smoother, backend))
    polyline, s = random_polyline(n, 1.0, seed=n), 2.0 ** k
    scaled = Polyline.from_array(polyline.xy * s)
    assert feasibility_report(scaled, s) == feasibility_report(polyline, 1.0)
    path, moved = smooth_polyline(polyline, 1.0), smooth_polyline(scaled, s)
    expected = path.data.copy()
    expected[:, :3] *= s  # a line's ax, ay, bx and an arc's cx, cy, radius
    expected[path.kind == LINE, 3] *= s  # a line's by; an arc's start angle and sweep keep
    assert np.array_equal(moved.kind, path.kind) and np.array_equal(moved.data, expected)

    def scaled_pieces(pieces, factor):
        return [(q.length * factor, q.start.heading, q.end.heading, q.guaranteed, q.vertex)
                for q in pieces]

    pieces = scaled_pieces(extract_pieces(polyline, 1.0), s)
    assert scaled_pieces(extract_pieces(scaled, s), 1.0) == pieces


@pytest.mark.parametrize("backend", ["_FLOATS", "_ARRAYS"])
def test_tangent_lengths_hold_near_the_float_limit(monkeypatch, backend):
    """Finite polylines whose products of lengths overflow a float: feasible
    ones smooth into paths that validate within 8 ulps of their largest
    coordinate, and a far distance that overflows passes as inf >= 4r."""
    import numpy as np

    from dps import smoother

    monkeypatch.setattr(smoother, "_backend", lambda n: getattr(smoother, backend))
    wide = Polyline([P(0, 0), P(1e150, 0), P(1.5e150, 0.8e150), P(3e150, 0.8e150)])
    assert feasibility_report(wide, 1e140).feasible
    assert [f"{v.l:.6g}" for v in vertex_solutions(wide, 1e140)] == ["5.54248e+139"] * 2
    tall = Polyline([P(0, 0), P(1.3e154, 0), P(2.21e154, 9.1e153)])  # a 45-degree turn
    assert [f"{v.l:.6g}" for v in vertex_solutions(tall, 1.0)] == ["0.414214"]
    for polyline, r in ((wide, 1e140), (tall, 1.0)):
        tol = 8 * np.spacing(np.abs(polyline.xy).max())
        report = validate(smooth_polyline(polyline, r), r, tol)
        assert report.ok, report.issues
    far = Polyline([P(0, 0), P(1.339e154, 0), P(1.839e154, 5e153), P(2.339e154, 5e153)])
    assert feasibility_report(far, 2.4e153).far_ok == (True, False, True)


def test_columns_match_segments(rng):
    for n in (2, 3, 40):
        polyline = random_polyline(n, 1.0, rng=rng)
        path = smooth_polyline(polyline, 1.0)
        segments = path.segments
        assert segments == path.segments  # rebuilt on each access, equal
        rebuilt = SmoothPath(segments, path.start_point, path.end_point)
        assert rebuilt == path and hash(rebuilt) == hash(path)
        assert rebuilt.segments == segments
        assert path.data.shape == (len(segments), 5) and path.kind.dtype.itemsize == 1
        for kind, row, seg in zip(path.kind.tolist(), path.data.tolist(), segments):
            if kind == LINE:
                assert row == [seg.a.x, seg.a.y, seg.b.x, seg.b.y, 0.0]
            else:
                assert kind == ARC
                assert row == [seg.center.x, seg.center.y, seg.radius, seg.start_angle.theta, seg.sweep]
    with pytest.raises(ValueError):
        path.data[0, 0] = 1.0  # read-only columns
    other = SmoothPath(segments[:-1], path.start_point, path.end_point)
    assert other != path and path != segments
    moved = SmoothPath(segments, path.start_point, P(path.end_point.x + 1, path.end_point.y))
    assert moved != path


def _reference_issues(path, r, tol):
    """validate's issues, computed segment by segment from the objects."""

    def ends(seg):
        if isinstance(seg, LineSegment):
            h = math.atan2(seg.b.y - seg.a.y, seg.b.x - seg.a.x)
            return (seg.a, h), (seg.b, h)
        return (arc_endpoint(seg, False), arc_endpoint(seg, True))

    segs = path.segments
    out = [(i, "curvature", s.radius) for i, s in enumerate(segs)
           if isinstance(s, ArcSegment) and s.radius < r * (1.0 - tol)]
    for i in range(len(segs) - 1):
        (end, end_h), (start, start_h) = ends(segs[i])[1], ends(segs[i + 1])[0]
        gap, kink = dist(end, start), abs(normalize_angle(float(start_h) - float(end_h)))
        out += [(i, "chaining", gap)] * (gap > tol) + [(i, "g1", kink)] * (kink > tol)
    first, last = ends(segs[0])[0][0], ends(segs[-1])[1][0]
    out += [(0, "start_point", dist(first, path.start_point))] * (dist(first, path.start_point) > tol)
    out += [(len(segs) - 1, "end_point", dist(last, path.end_point))] * (dist(last, path.end_point) > tol)
    return out


def test_validate_and_length_match_segment_reference(rng):
    for case in range(300):
        polyline = random_polyline(rng.randint(2, 12), 1.0, rng=rng)
        segs = list(smooth_polyline(polyline, 1.0).segments)
        start, end = polyline.points[0], polyline.points[-1]
        tol = rng.choice((1e-9, 1e-4))
        if case % 3:  # inject faults: shrunken radii, moved points, turned lines
            for i, seg in enumerate(segs):
                if isinstance(seg, ArcSegment) and rng.random() < 0.4:
                    turned = Heading(seg.start_angle.theta + rng.choice((1.5 * tol, 1e-3, -3.0)))
                    segs[i] = rng.choice((
                        ArcSegment(seg.center, rng.choice((rng.uniform(0.5, 1.0), 0.9 * (1 - 0.5 * tol))),
                                   seg.start_angle, seg.sweep),
                        ArcSegment(seg.center, seg.radius, turned, seg.sweep),
                        ArcSegment(seg.center, seg.radius, seg.start_angle, rng.choice((-seg.sweep, 2 * math.pi))),
                    ))
                elif isinstance(seg, LineSegment) and rng.random() < 0.4:
                    segs[i] = LineSegment(seg.a, P(seg.b.x + rng.uniform(-1, 1), seg.b.y))
            start = P(start.x + rng.choice((0.0, 1e-6)), start.y)
        path = SmoothPath(segs, start, end)
        issues = [(i.index, i.kind, i.value) for i in validate(path, 0.9, tol).issues]
        expected = _reference_issues(path, 0.9, tol)
        assert [i[:2] for i in issues] == [e[:2] for e in expected]
        assert all(abs(i[2] - e[2]) <= 1e-12 * max(1.0, e[2]) for i, e in zip(issues, expected))
        assert path_length(path) == sum(seg.length() for seg in path.segments)


def test_path_length_matches_segment_sum_on_single_segments_and_a_long_route():
    """Bit-equal to the segment sum on one-segment paths (a line, arcs both
    ways, a full circle) and on a 10,000-vertex long_route path."""
    for seg in (LineSegment(P(0.1, -3), P(7.3, 2.9)),
                ArcSegment(P(1, 2), 0.7, Heading(2.5), 1.3),
                ArcSegment(P(-1, 0), 3.1, Heading(-math.pi / 3), -2.2),
                ArcSegment(P(0, 0), 1.0, Heading(math.pi), 2 * math.pi)):
        assert path_length(SmoothPath([seg], P(0, 0), P(0, 0))) == seg.length()
    path = smooth_polyline(random_polyline(10_000, 1.0, seed=3), 1.0)
    assert len(path.kind) == 19_997
    assert path_length(path) == segment_sum_length(path)


def test_point_to_path_distance_matches_segment_reference(rng):
    """Bit-equal to the distance over the ``.segments`` objects on random
    paths with full-circle arcs: at random points, the polyline's vertices,
    every arc's center and points on the arcs."""
    for _ in range(150):
        polyline = random_polyline(rng.randint(2, 8), 1.0, rng=rng)
        segs = list(smooth_polyline(polyline, 1.0).segments)
        for _ in range(rng.randint(1, 3)):
            sweep = rng.choice((2 * math.pi, -2 * math.pi, rng.uniform(-6.0, 6.0)))
            segs.insert(rng.randint(0, len(segs)),
                        ArcSegment(P(rng.uniform(-20, 20), rng.uniform(-20, 20)),
                                   rng.uniform(0.2, 5.0), Heading(rng.uniform(-4, 4)), sweep))
        path = SmoothPath(segs, P(0, 0), P(0, 0))
        probes = list(polyline.points)
        for seg in segs:
            if isinstance(seg, ArcSegment):
                ang = seg.start_angle.theta + rng.random() * seg.sweep
                probes += [seg.center, P(seg.center.x + seg.radius * math.cos(ang),
                                         seg.center.y + seg.radius * math.sin(ang))]
        probes += [P(rng.uniform(-30, 30), rng.uniform(-30, 30)) for _ in range(5)]
        for p in probes:
            assert point_to_path_distance(p, path) == reference_point_to_path_distance(p, path)


def test_empty_path_rejected():
    # validate() would index a first and a last segment
    with pytest.raises(ValueError, match="at least one segment"):
        SmoothPath((), P(0, 0), P(1, 1))


def test_columns_keep_heading_convention():
    # an arc starting at angle -pi is stored, like Heading, at +pi
    arc = ArcSegment(P(0, 0), 1.0, Heading(-math.pi), 1.0)
    path = SmoothPath([arc], P(-1, 0), P(-1, 0))
    assert path.data[0, 3] == math.pi == path.segments[0].start_angle.theta


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        smooth_polyline(Polyline(RIGHT_ANGLE), 1.0, mode="fast")


def test_unknown_mode_is_refused_before_the_tangent_pass(monkeypatch):
    from dps import smoother

    def no_pass(p, r):
        raise AssertionError("the tangent pass ran")

    monkeypatch.setattr(smoother, "_tangent_pass", no_pass)
    with pytest.raises(ValueError, match="^unknown smoothing mode 'fast'$"):
        smooth_polyline(random_polyline(200, 1.0, seed=3), 1.0, mode="fast")


def test_bad_radius_is_named_before_a_bad_mode():
    for r in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^turning radius must be positive and finite"):
            smooth_polyline(Polyline(RIGHT_ANGLE), r, mode="fast")


def test_length_never_exceeds_polyline(rng):
    for _ in range(200):
        polyline = random_polyline(rng.randint(3, 20), 1.0, rng=rng)
        path = smooth_polyline(polyline, 1.0)
        assert path_length(path) <= polyline_length(polyline)


def test_arc_shortcut_inequality():
    # r*(pi - alpha) <= 2*l for the whole angle range; equality only at pi
    for alpha in [k * math.pi / 200 for k in range(1, 200)]:
        l = tangent_length(alpha, 1.0)
        assert math.pi - alpha <= 2 * l + 1e-12


def test_batch_bit_identical(rng):
    for hint in (1, 2, 3, 7):
        polyline = random_polyline(300, 1.0, rng=rng)
        seq = smooth_polyline(polyline, 1.0)
        batch = smooth_polyline_batch(polyline, 1.0, parallelism_hint=hint)
        assert seq == batch


def test_batch_env_threads(monkeypatch):
    # batch is the sequential call; the old thread-count variable does nothing
    polyline = random_polyline(200, 1.0, seed=5)
    monkeypatch.setenv("DPS_THREADS", "3")
    assert smooth_polyline_batch(polyline, 1.0) == smooth_polyline(polyline, 1.0)


def test_batch_refuses_infeasible_like_sequential():
    bad = Polyline([P(0, 0), P(0.5, 0), P(0.5, 0.5), P(0, 0.5), P(0, 1.0), P(1, 1.0), P(1, 0.0)])
    with pytest.raises(FeasibilityError):
        smooth_polyline_batch(bad, 1.0, parallelism_hint=2)


def test_smoothing_commutes_with_rigid_transforms(rng):
    for _ in range(40):
        polyline = random_polyline(rng.randint(3, 12), 1.0, rng=rng)
        move, mirrored = random_rigid_motion(rng)
        moved = Polyline([move(p) for p in polyline.points])
        direct = smooth_polyline(moved, 1.0)
        original = smooth_polyline(polyline, 1.0)
        assert len(direct.segments) == len(original.segments)
        for s_orig, s_moved in zip(original.segments, direct.segments):
            assert type(s_orig) is type(s_moved)
            if isinstance(s_orig, LineSegment):
                assert dist(move(s_orig.a), s_moved.a) <= 1e-9
                assert dist(move(s_orig.b), s_moved.b) <= 1e-9
            else:
                assert dist(move(s_orig.center), s_moved.center) <= 1e-9
                assert abs(s_orig.radius - s_moved.radius) <= 1e-9
                expected_sweep = -s_orig.sweep if mirrored else s_orig.sweep
                assert abs(s_moved.sweep - expected_sweep) <= 1e-9


def test_smoothing_scaling_covariance(rng):
    for _ in range(40):
        polyline = random_polyline(rng.randint(3, 12), 1.0, rng=rng)
        s = rng.uniform(0.1, 10.0)
        scaled = Polyline([P(s * p.x, s * p.y) for p in polyline.points])
        path = smooth_polyline(polyline, 1.0)
        path_s = smooth_polyline(scaled, s * 1.0)
        assert path_length(path_s) == pytest.approx(s * path_length(path), rel=1e-9)
        assert len(path.segments) == len(path_s.segments)


def _smooth_or_report(polyline, r, mode):
    try:
        return smooth_polyline(polyline, r, mode)
    except FeasibilityError as err:
        return err.report


def test_scaling_by_a_power_of_two_and_reversal():
    """Scaling the coordinates and r by 2^k scales every line row and each
    arc's centre and radius by exactly 2^k and keeps its angles, in both
    modes and on both backends (the walks straddle _ARRAY_MIN_VERTICES), and
    a strict refusal carries the same report; reversing a polyline mirrors
    its report, and its path, strict where it is feasible and best-effort,
    keeps its arc radii and its length."""
    rng = random.Random(7)
    for _ in range(300):
        xy = [(0.0, 0.0)]
        for _ in range(rng.randint(2, 119)):
            step, heading = rng.uniform(0.3, 4.0), rng.uniform(-math.pi, math.pi)
            xy.append((xy[-1][0] + step * math.cos(heading), xy[-1][1] + step * math.sin(heading)))
        xy, r = np.array(xy), rng.uniform(0.2, 2.0)
        polyline = Polyline.from_array(xy)
        for mode in ("strict", "best-effort"):
            base = _smooth_or_report(polyline, r, mode)
            for k in (-10, -3, 3, 10):
                s = 2.0**k
                scaled = _smooth_or_report(Polyline.from_array(xy * s), r * s, mode)
                if isinstance(base, FeasibilityReport):
                    assert scaled == base
                    continue
                assert np.array_equal(scaled.kind, base.kind)
                factor = np.where(base.kind[:, None] == ARC, [s, s, s, 1.0, 1.0], s)
                assert np.array_equal(scaled.data, base.data * factor)
                assert scaled.start_point == P(s * base.start_point.x, s * base.start_point.y)
                assert scaled.end_point == P(s * base.end_point.x, s * base.end_point.y)
        report = feasibility_report(polyline, r)
        backward = Polyline.from_array(xy[::-1])
        mirrored = feasibility_report(backward, r)
        assert mirrored.local_ok == report.local_ok[::-1]
        assert mirrored.global_ok == report.global_ok[::-1]
        for mode in ("strict", "best-effort") if report.feasible else ("best-effort",):
            forward, reverse = smooth_polyline(polyline, r, mode), smooth_polyline(backward, r, mode)
            assert sorted(forward.data[forward.kind == ARC, 2]) == sorted(reverse.data[reverse.kind == ARC, 2])
            assert path_length(reverse) == pytest.approx(path_length(forward), rel=1e-14, abs=0.0)


def test_validate_fault_injection():
    path = smooth_polyline(Polyline(RIGHT_ANGLE), 1.0)
    segs = list(path.segments)
    # arc with half the radius: curvature violation
    arc = segs[1]
    bad_arc = ArcSegment(arc.center, arc.radius / 2, arc.start_angle, arc.sweep)
    report = validate(type(path)((segs[0], bad_arc, segs[2]), path.start_point, path.end_point), 1.0)
    assert not report.ok
    assert any(issue.kind == "curvature" and issue.index == 1 for issue in report.issues)
    # junction heading perturbed by 1e-3: G1 violation
    last = segs[2]
    d = dist(last.a, last.b)
    rot = 1e-3
    new_b = P(
        last.a.x + d * math.cos(math.pi / 2 + rot),
        last.a.y + d * math.sin(math.pi / 2 + rot),
    )
    report = validate(
        type(path)((segs[0], segs[1], LineSegment(last.a, new_b)), path.start_point, new_b), 1.0
    )
    assert not report.ok
    assert any(issue.kind == "g1" and abs(issue.value - rot) < 1e-6 for issue in report.issues)


def test_validate_detects_chaining_gap():
    path = smooth_polyline(Polyline(RIGHT_ANGLE), 1.0)
    segs = list(path.segments)
    shifted = LineSegment(P(segs[2].a.x + 1e-3, segs[2].a.y), segs[2].b)
    report = validate(type(path)((segs[0], segs[1], shifted), path.start_point, path.end_point), 1.0)
    assert any(issue.kind == "chaining" for issue in report.issues)


def test_extract_pieces_lengths_sum_to_path_length(rng):
    for _ in range(50):
        polyline = random_polyline(rng.randint(3, 10), 1.0, rng=rng)
        pieces = extract_pieces(polyline, 1.0)
        total = sum(p.length for p in pieces)
        assert total == pytest.approx(path_length(smooth_polyline(polyline, 1.0)), rel=1e-12)
        assert all(p.guaranteed for p in pieces)


def test_extract_pieces_start_each_piece_at_the_previous_end(rng):
    """Each tangent configuration is built once: a piece starts at the very
    ``Pose`` the piece before it ends at, and the tail keeps its heading."""
    for n in (2, 3, 12, 60):
        pieces = extract_pieces(random_polyline(n, 1.0, rng=rng), 1.0)
        assert all(b.start is a.end for a, b in zip(pieces, pieces[1:]))
        tail = pieces[-1]
        assert tail.vertex is None and tail.end.heading is tail.start.heading
    for xy in ([(0, 0), (1, 0), (2, 0)], [(0, 0), (0, 1)]):  # no arc: the tail alone
        (tail,) = extract_pieces(Polyline([P(x, y) for x, y in xy]), 1.0)
        assert tail.start.position == P(*xy[0]) and tail.end.position == P(*xy[-1])
        assert tail.start.heading.theta == math.atan2(xy[-1][1], xy[-1][0])


def test_extract_pieces_flags_far_violation():
    bend = Polyline([P(0, 0), P(3.0, 0), P(3.0, 3.0)])
    pieces = extract_pieces(bend, 1.0)
    assert any(not p.guaranteed for p in pieces)


def test_polyline_validation():
    with pytest.raises(ValueError):
        Polyline([P(0, 0)])
    with pytest.raises(DegeneratePointsError):
        Polyline([P(0, 0), P(0, 0), P(1, 1)])


def test_zero_length_residuals_dropped():
    # tangent length exactly consumes the first edge: no leading line
    r = 1.0
    alpha = math.pi / 2
    l = tangent_length(alpha, r)
    polyline = Polyline([P(-l, 0), P(0, 0), P(0, 5)])
    path = smooth_polyline(polyline, r)
    assert isinstance(path.segments[0], ArcSegment)  # no leading zero-length line
    assert validate(path, r, 1e-9).ok


def test_solve_raw_reversal_sentinel():
    raw = _solve_raw(5.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0)
    assert raw is not None and math.isinf(raw[6])


def _outcomes(polyline, r, mode):
    """Everything the tangent pass answers for one polyline, with bit-exact
    path columns; a refusal as its message and report."""

    def attempt(fn):
        try:
            return fn()
        except FeasibilityError as err:
            return ("refused", str(err), err.report)

    def columns():
        path = smooth_polyline(polyline, r, mode)
        return path.kind.tobytes(), path.data.tobytes(), path.start_point, path.end_point

    return (attempt(columns), attempt(lambda: vertex_solutions(polyline, r)),
            feasibility_report(polyline, r), check_global_existence(polyline, r),
            attempt(lambda: check_far_condition(polyline, r)),
            attempt(lambda: extract_pieces(polyline, r)))


def _tight_polyline(rng, r):
    """Right-angle turns r apart whose middle edge holds exactly l1 + l2 = 2r."""
    s = rng.choice((0.5, 1.0, 2.0, 4.0))
    return Polyline([P(0, 0), P(4 * s, 0), P(4 * s, 2 * s), P(0, 2 * s)]), s


def test_backends_give_the_same_bits(monkeypatch):
    """Each polyline runs on the float and on the array backend, whatever its
    size: the path columns, reports, vertex solutions, pieces and refusal
    messages must be equal, the floats bit for bit."""
    rng = random.Random(909)
    reversals = [Polyline([P(0, 0), P(5, 0), P(1, 0), P(1, 5)]),
                 Polyline([P(0, 0), P(1, 1), P(-1, -1), P(-1, 5)])]
    cases = []
    for _ in range(150):  # seeded random routes, feasible and not
        r = rng.uniform(0.2, 3.0)
        cases.append((random_polyline(rng.randint(2, 30), r, rng=rng), r))
        walk = [P(rng.uniform(-20, 20), rng.uniform(-20, 20)) for _ in range(rng.randint(2, 30))]
        cases.append((Polyline(walk), r))
    for _ in range(100):  # |p_j p_k| = l_j + l_k decided in the last bits
        r = rng.uniform(0.2, 3.0)
        cases.append((_boundary_polyline(rng, r, rng.choice((-1, 1)) * rng.uniform(0.05, 3.0)), r))
        tight, s = _tight_polyline(rng, r)
        cases.append((tight, s))
    for sign in (-1, 1):  # turns just inside and just outside pass-through
        for factor in (0.999, 0.999999, 1.0, 1.000001, 1.001):
            cases.append((_boundary_polyline(rng, 1.0, sign * 1e-9 * factor), 1.0))
    cases += [
        (reversals[0], 1.0),  # exact reversals
        (reversals[1], 0.1),  # v1.v2 + |v1||v2| rounds to 8.9e-16, not 0
        (Polyline([P(0, 0), P(0.5, 0), P(0.5, 0.5), P(5, 0.5), P(1, 0.5), P(1, 5)]), 1.0),
        (Polyline([P(0, 0), P(1, 0), P(2.5, 0), P(7, 0)]), 1.0),  # all collinear
        (Polyline([P(-3, 1), P(-1, 2), P(3, 4), P(7, 6)]), 2.0),
        (Polyline([P(0, 0), P(3, 4)]), 1.0),  # two points
        (Polyline([P(0, 0), P(0.5, 0), P(0.5, 0.5), P(0, 0.5), P(0, 1.0), P(1, 1.0)]), 1.0),  # clamps
        (Polyline([P(0, 0), P(3e-9, 0), P(3e-9, 1)]), 1.0),
    ]
    from dps import smoother

    for polyline, r in cases:
        answers = []
        for backend in (smoother._FLOATS, smoother._ARRAYS):
            monkeypatch.setattr(smoother, "_backend", lambda n, backend=backend: backend)
            answers.append([_outcomes(polyline, r, mode) for mode in ("strict", "best-effort")])
        assert answers[0] == answers[1], polyline
        for strict, best_effort in answers:
            if not isinstance(strict[0][0], str):  # strict smooths it: best-effort gives its rows
                assert best_effort[0][:2] == strict[0][:2], polyline
            for outcome in (*strict, *best_effort):
                if isinstance(outcome, tuple) and outcome and isinstance(outcome[0], str):
                    assert outcome[2] == strict[3], polyline  # check_global_existence
        if polyline in reversals:  # refused in both modes, on both backends
            for modes in answers:
                for smoothed, *_ in modes:
                    assert smoothed[0] == "refused" and smoothed[1].endswith("(exact reversal)")


def test_exactly_tight_edge_is_feasible():
    # l1 = l2 = s at right-angle turns of radius s, and the middle edge is 2s
    rng = random.Random(1)
    for _ in range(8):
        polyline, s = _tight_polyline(rng, 1.0)
        assert feasibility_report(polyline, s).feasible
        assert smooth_polyline(polyline, s).kind.tolist() == [LINE, ARC, ARC, LINE]
        assert not feasibility_report(polyline, s * (1 + 1e-12)).feasible


def test_polyline_from_array_matches_points(rng):
    import numpy as np

    for n in (2, 3, 43, 44, 200):
        points = random_polyline(n, 1.0, rng=rng).points
        xy = np.array([(p.x, p.y) for p in points])
        a, b = Polyline(points), Polyline.from_array(xy)
        assert a == b and hash(a) == hash(b) and a.points == b.points == points
        assert len(b) == n and b.xy.dtype == np.float64 and b.xy.shape == (n, 2)
        xy[0, 0] += 1.0  # from_array copies
        assert b.points == points
        with pytest.raises(ValueError):
            b.xy[0, 0] = 1.0  # read-only
    assert Polyline([P(0, 0), P(1, 0)]) != Polyline([P(0, 0), P(2, 0)])


@pytest.mark.parametrize("n", [3, 60])
def test_polyline_from_array_refuses_like_points(n):
    import numpy as np

    xy = np.column_stack((np.arange(n, dtype=float), np.zeros(n)))
    coincide = xy.copy()
    coincide[n - 1] = coincide[n - 2]
    with pytest.raises(DegeneratePointsError, match=rf"^polyline points {n - 2} and {n - 1} coincide$"):
        Polyline.from_array(coincide)
    with pytest.raises(DegeneratePointsError, match=rf"^polyline points {n - 2} and {n - 1} coincide$"):
        Polyline([P(x, y) for x, y in coincide.tolist()])
    for bad in (math.nan, math.inf, -math.inf):
        broken = xy.copy()
        broken[1, 1] = bad
        with pytest.raises(ValueError) as exc:
            P(1.0, bad)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(exc.value))}$"):
            Polyline.from_array(broken)
    k = np.arange(n, dtype=float)
    bent = np.column_stack((k, k // 2)) * 1e200  # 45-degree turns
    zigzag = np.column_stack((k, k % 2)) * 1e200  # right-angle turns
    far = xy.copy()
    far[n - 1] = (1e200, 1e200)
    for huge, i in ((bent, 0), (zigzag, 0), (far, n - 2)):  # an edge length overflows
        message = rf"^polyline points {i} and {i + 1}: their distance overflows a float$"
        with pytest.raises(ValueError, match=message):
            Polyline.from_array(huge)
        with pytest.raises(ValueError, match=message):
            Polyline([P(x, y) for x, y in huge.tolist()])
    for few in (xy[:1], xy[:0]):
        with pytest.raises(ValueError, match=rf"^polyline needs at least 2 points, got {len(few)}$"):
            Polyline.from_array(few)
        with pytest.raises(ValueError, match=rf"^polyline needs at least 2 points, got {len(few)}$"):
            Polyline([P(x, y) for x, y in few.tolist()])
    with pytest.raises(ValueError, match="n x 2"):
        Polyline.from_array(np.zeros((n, 3)))


@pytest.mark.parametrize("n", [4, 44, 60])
@pytest.mark.parametrize("bad", [(math.inf, math.inf), (math.nan, 0.0), (-math.inf, math.inf)])
def test_polyline_names_a_non_finite_row_before_an_earlier_coincident_pair(n, bad):
    """Points 0 and 1 coincide and the last two are both non-finite, so inf - inf
    meets the array backend; the error still names the non-finite row, on both
    backends, and numpy warns about nothing."""
    import warnings

    import numpy as np

    xy = np.column_stack((np.arange(n, dtype=float), np.zeros(n)))
    xy[1] = xy[0]
    xy[n - 2:] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = re.escape("non-finite coordinates ({}, {})".format(*bad))
        with pytest.raises(ValueError, match=f"^{message}$"):
            Polyline.from_array(xy)


def test_random_polyline_refuses_fewer_than_2_points():
    with pytest.raises(ValueError, match="^need at least 2 points, got 1$"):
        random_polyline(1)
