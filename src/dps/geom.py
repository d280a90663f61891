"""Planar geometry kernel: points, headings, poses, lines and arcs.

All values are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across threads.
The point-to-segment and point-to-arc distances take plain coordinates (an
arc as its ``SmoothPath`` row); planner and smoother share this one copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Point-coincidence threshold in meters: well below map resolution, well
# above double-precision noise at meter scale.
LENGTH_EPSILON = 1e-9

# Collinearity threshold on the unit edge directions: |u1 x u2| <= eps.
COLLINEAR_EPSILON = 1e-9

TWO_PI = math.tau


class DegeneratePointsError(ValueError):
    """Raised when points that must be distinct (or non-degenerate) coincide."""


def check_turn_radius(r: float) -> float:
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"turning radius must be positive and finite, got {r}")
    return r


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]. Idempotent."""
    r = math.remainder(theta, TWO_PI)
    return r if r > -math.pi else r + TWO_PI


@dataclass(frozen=True, slots=True)
class Point2:
    """A point (or free vector) in the plane, in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")


def dist(p: Point2, q: Point2) -> float:
    return math.hypot(q.x - p.x, q.y - p.y)


@dataclass(frozen=True, slots=True)
class Heading:
    """A travel direction in radians, kept normalized to (-pi, pi]."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"non-finite heading {self.theta}")
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    def __float__(self) -> float:
        return self.theta


@dataclass(frozen=True, slots=True)
class Pose:
    """An oriented configuration: a position plus a travel heading."""

    position: Point2
    heading: Heading


@dataclass(frozen=True, slots=True)
class LineSegment:
    """Straight path piece from ``a`` to ``b``."""

    a: Point2
    b: Point2

    def __post_init__(self):
        if dist(self.a, self.b) <= LENGTH_EPSILON:
            raise DegeneratePointsError(
                f"line segment endpoints coincide: {self.a} ~ {self.b}"
            )

    def length(self) -> float:
        return dist(self.a, self.b)


@dataclass(frozen=True, slots=True)
class ArcSegment:
    """Circular arc traversed from ``start_angle`` through a signed ``sweep``.

    ``sweep`` is positive for counter-clockwise (left) turns and is stored
    unnormalized so arcs up to a full circle stay representable.
    """

    center: Point2
    radius: float
    start_angle: Heading
    sweep: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"arc radius must be positive, got {self.radius}")
        if not math.isfinite(self.sweep) or abs(self.sweep) > TWO_PI:
            raise ValueError(f"arc sweep must lie in [-2pi, 2pi], got {self.sweep}")

    def length(self) -> float:
        return self.radius * abs(self.sweep)


def arc_ends(cx: float, cy: float, radius: float, start: float, sweep: float) -> tuple:
    """Start and end point (sx, sy, ex, ey) of an arc row (cx, cy, radius,
    start_angle, sweep); the one formula for an arc's end points, which
    ``arc_endpoint`` reads too and ``arc_end_columns`` maps over columns."""
    a, b = start + 0.0, start + sweep  # -0.0 becomes 0.0, as start + sweep does
    return (cx + radius * math.cos(a), cy + radius * math.sin(a),
            cx + radius * math.cos(b), cy + radius * math.sin(b))


def arc_end_columns(cx, cy, radius, start, sweep) -> tuple:
    """``arc_ends``' end points (ex, ey) of arc rows given as numpy columns,
    with the same bits: cos and sin are ``math``'s, not numpy's SIMD ones."""
    b = (start + sweep).tolist()
    return cx + radius * list(map(math.cos, b)), cy + radius * list(map(math.sin, b))


def arc_endpoint(arc: ArcSegment, at_end: bool) -> tuple[Point2, Heading]:
    """Point (from ``arc_ends``) and travel-direction tangent at the arc's
    start or end; the tangent is perpendicular to the radius vector, rotated
    toward the direction of travel given by the sweep sign."""
    ends = arc_ends(arc.center.x, arc.center.y, arc.radius, arc.start_angle.theta, arc.sweep)
    angle = arc.start_angle.theta + (arc.sweep if at_end else 0.0)
    tangent = angle + (0.5 * math.pi if arc.sweep >= 0.0 else -0.5 * math.pi)
    return Point2(*ends[2:] if at_end else ends[:2]), Heading(tangent)


def interior_angle(p_prev: Point2, p: Point2, p_next: Point2) -> float:
    """Interior angle at ``p`` between the incoming and outgoing directions.

    Returns pi for collinear pass-through points and shrinks toward 0 as the
    turn sharpens (0 itself meaning an exact reversal). Symmetric under
    swapping the neighbors and invariant under rigid transforms.
    """
    v1x, v1y = p.x - p_prev.x, p.y - p_prev.y
    v2x, v2y = p_next.x - p.x, p_next.y - p.y
    if math.hypot(v1x, v1y) <= LENGTH_EPSILON or math.hypot(v2x, v2y) <= LENGTH_EPSILON:
        raise DegeneratePointsError("interior angle needs three pairwise distinct points")
    return math.pi - math.atan2(abs(v1x * v2y - v1y * v2x), v1x * v2x + v1y * v2y)


def point_segment_distance(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> float:
    """Euclidean distance from the point (px, py) to the closed segment from
    (ax, ay) to (bx, by)."""
    dx = bx - ax
    dy = by - ay
    den = dx * dx + dy * dy
    if den <= 0.0:
        return math.hypot(ax - px, ay - py)
    t = ((px - ax) * dx + (py - ay) * dy) / den
    t = 1.0 if not t < 1.0 else t if t > 0.0 else 0.0  # max(0.0, min(1.0, t)), without calls
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def angle_in_sweep(phi: float, start: float, sweep: float) -> bool:
    """Whether the direction ``phi`` falls inside the arc's angular interval."""
    if sweep >= 0.0:
        return (phi - start) % TWO_PI <= sweep
    return (start - phi) % TWO_PI <= -sweep


def point_arc_distance(
    px: float, py: float, cx: float, cy: float, radius: float, start: float, sweep: float
) -> float:
    """Euclidean distance from the point (px, py) to the arc around (cx, cy)
    that starts at angle ``start`` (in (-pi, pi]) and turns through ``sweep``:
    the arguments after the point are an arc row of a ``SmoothPath``."""
    dx = px - cx
    dy = py - cy
    d0 = math.hypot(dx, dy)
    if d0 <= LENGTH_EPSILON:
        return radius
    if angle_in_sweep(math.atan2(dy, dx), start, sweep):
        return abs(d0 - radius)
    sx, sy, ex, ey = arc_ends(cx, cy, radius, start, sweep)
    return min(math.hypot(sx - px, sy - py), math.hypot(ex - px, ey - py))
