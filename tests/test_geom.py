import math
import random

import pytest
from hypothesis import given, strategies as st

from dps.geom import (
    ArcSegment,
    DegeneratePointsError,
    Heading,
    LineSegment,
    Point2,
    Pose,
    arc_endpoint,
    dist,
    interior_angle,
    normalize_angle,
    point_arc_distance,
    point_segment_distance,
)

from conftest import random_rigid_motion

P = Point2


@given(st.floats(min_value=-1e6, max_value=1e6))
def test_normalize_angle_range(theta):
    out = normalize_angle(theta)
    assert -math.pi < out <= math.pi
    assert math.isclose(math.sin(out), math.sin(theta), abs_tol=1e-9)
    assert math.isclose(math.cos(out), math.cos(theta), abs_tol=1e-9)


def test_normalize_angle_idempotent_bulk():
    # stability over a large random sweep, including huge magnitudes
    rng = random.Random(7)
    for _ in range(1_000_000):
        theta = (rng.random() - 0.5) * 1e3
        out = normalize_angle(theta)
        assert -math.pi < out <= math.pi
        assert normalize_angle(out) == out


def test_normalize_angle_branch_points():
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == math.pi
    assert normalize_angle(3 * math.pi) == math.pi
    assert normalize_angle(0.0) == 0.0


def test_point_validation():
    with pytest.raises(ValueError):
        P(math.nan, 0.0)
    with pytest.raises(ValueError):
        P(0.0, math.inf)


def test_heading_normalized_on_construction():
    assert Heading(3 * math.pi).theta == math.pi
    assert Heading(-0.5).theta == -0.5
    with pytest.raises(ValueError):
        Heading(math.nan)


def test_interior_angle_examples():
    assert interior_angle(P(0, 0), P(1, 0), P(2, 0)) == pytest.approx(math.pi, abs=1e-15)
    assert interior_angle(P(0, 0), P(4, 0), P(4, 4)) == pytest.approx(math.pi / 2, abs=1e-15)
    expected = math.pi - math.atan2(0.5, 1.0)
    assert interior_angle(P(0, 0), P(1, 0), P(2, 0.5)) == pytest.approx(expected, abs=1e-12)
    # cross-check by dot product on the same triple
    v1 = (1.0, 0.0)
    v2 = (1.0, 0.5)
    cosang = (v1[0] * v2[0] + v1[1] * v2[1]) / math.hypot(*v2)
    assert interior_angle(P(0, 0), P(1, 0), P(2, 0.5)) == pytest.approx(
        math.pi - math.acos(cosang), abs=1e-12
    )
    with pytest.raises(DegeneratePointsError):
        interior_angle(P(0, 0), P(0, 0), P(1, 1))


def test_interior_angle_symmetry_and_rigid_invariance(rng):
    for _ in range(2000):
        pts = [P(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
        if min(dist(pts[0], pts[1]), dist(pts[1], pts[2])) < 1e-3:
            continue
        alpha = interior_angle(*pts)
        assert interior_angle(pts[2], pts[1], pts[0]) == pytest.approx(alpha, abs=1e-12)
        move, _ = random_rigid_motion(rng)
        moved = [move(p) for p in pts]
        assert interior_angle(*moved) == pytest.approx(alpha, abs=1e-12)


def test_arc_endpoint_examples():
    arc = ArcSegment(P(0, 0), 1.0, Heading(-math.pi / 2), math.pi / 2)
    pt, tang = arc_endpoint(arc, at_end=False)
    assert dist(pt, P(0, -1)) < 1e-15
    assert tang.theta == pytest.approx(0.0, abs=1e-15)
    pt, tang = arc_endpoint(arc, at_end=True)
    assert dist(pt, P(1, 0)) < 1e-15
    assert tang.theta == pytest.approx(math.pi / 2, abs=1e-15)
    # negating the sweep flips the travel tangent by pi at the shared start
    neg = ArcSegment(P(0, 0), 1.0, Heading(-math.pi / 2), -math.pi / 2)
    _, tang_neg = arc_endpoint(neg, at_end=False)
    assert abs(normalize_angle(tang_neg.theta - math.pi)) < 1e-15


def test_arc_endpoint_tangent_perpendicular(rng):
    for _ in range(2000):
        arc = ArcSegment(
            P(rng.uniform(-10, 10), rng.uniform(-10, 10)),
            rng.uniform(0.1, 5.0),
            Heading(rng.uniform(-math.pi, math.pi)),
            rng.uniform(-2 * math.pi, 2 * math.pi),
        )
        for at_end in (False, True):
            pt, tang = arc_endpoint(arc, at_end)
            radial = ((pt.x - arc.center.x) / arc.radius, (pt.y - arc.center.y) / arc.radius)
            tvec = (math.cos(tang.theta), math.sin(tang.theta))
            assert abs(radial[0] * tvec[0] + radial[1] * tvec[1]) <= 1e-12
            assert math.hypot(*tvec) == pytest.approx(1.0, abs=1e-15)


def test_arc_length_examples():
    assert ArcSegment(P(0, 0), 1.0, Heading(0), math.pi / 2).length() == pytest.approx(math.pi / 2)
    assert ArcSegment(P(0, 0), 2.0, Heading(0), -math.pi / 3).length() == pytest.approx(
        2 * math.pi / 3
    )
    alpha = math.pi / 2
    assert ArcSegment(P(0, 0), 0.75, Heading(0), math.pi - alpha).length() == pytest.approx(
        0.75 * math.pi / 2
    )


def test_segment_validation():
    with pytest.raises(DegeneratePointsError):
        LineSegment(P(1, 1), P(1, 1))
    with pytest.raises(ValueError):
        ArcSegment(P(0, 0), -1.0, Heading(0), 1.0)
    with pytest.raises(ValueError):
        ArcSegment(P(0, 0), 1.0, Heading(0), 7.0)


def test_point_segment_distance():
    assert point_segment_distance(0, 1, -1, 0, 1, 0) == pytest.approx(1.0)
    assert point_segment_distance(5, 0, -1, 0, 1, 0) == pytest.approx(4.0)
    assert point_segment_distance(0, 0, 0, 0, 0, 0) == 0.0


def test_point_arc_distance_against_sampling(rng):
    for _ in range(300):
        arc = ArcSegment(
            P(rng.uniform(-5, 5), rng.uniform(-5, 5)),
            rng.uniform(0.2, 3.0),
            Heading(rng.uniform(-math.pi, math.pi)),
            rng.uniform(-2 * math.pi, 2 * math.pi),
        )
        p = P(rng.uniform(-8, 8), rng.uniform(-8, 8))
        exact = point_arc_distance(p.x, p.y, arc.center.x, arc.center.y, arc.radius,
                                   arc.start_angle.theta, arc.sweep)
        best = math.inf
        for k in range(1001):
            a = arc.start_angle.theta + arc.sweep * k / 1000
            q = P(arc.center.x + arc.radius * math.cos(a), arc.center.y + arc.radius * math.sin(a))
            best = min(best, dist(p, q))
        assert exact <= best + 1e-12
        assert best - exact <= arc.radius * abs(arc.sweep) / 1000  # sampling resolution


def test_pose_holds_position_and_heading():
    pose = Pose(P(1, 2), Heading(3 * math.pi))
    assert pose.position == P(1, 2)
    assert pose.heading.theta == math.pi
