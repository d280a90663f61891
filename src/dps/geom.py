"""Planar geometry kernel: points, headings, rigid transforms, lines and arcs.

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

# Scale-invariant collinearity threshold: |cross| <= eps * |v1| * |v2|.
COLLINEAR_EPSILON = 1e-9

TWO_PI = math.tau


class DegeneratePointsError(ValueError):
    """Raised when points that must be distinct (or non-degenerate) coincide."""


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

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "Point2":
        return Point2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def dist(p: Point2, q: Point2) -> float:
    return math.hypot(q.x - p.x, q.y - p.y)


def dot(u: Point2, v: Point2) -> float:
    return u.x * v.x + u.y * v.y


def cross(u: Point2, v: Point2) -> float:
    return u.x * v.y - u.y * v.x


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


def arc_length(arc: ArcSegment) -> float:
    """Arc length: radius times absolute sweep."""
    return arc.radius * abs(arc.sweep)


def arc_endpoint(arc: ArcSegment, at_end: bool) -> tuple[Point2, Heading]:
    """Point and travel-direction tangent at the arc's start or end.

    The tangent is perpendicular to the radius vector, rotated toward the
    direction of travel given by the sweep sign.
    """
    angle = arc.start_angle.theta + (arc.sweep if at_end else 0.0)
    point = Point2(arc.center.x + arc.radius * math.cos(angle),
                   arc.center.y + arc.radius * math.sin(angle))
    tangent = angle + (0.5 * math.pi if arc.sweep >= 0.0 else -0.5 * math.pi)
    return point, Heading(tangent)


def arc_ends(cx: float, cy: float, radius: float, start: float, sweep: float) -> tuple:
    """Start and end point (sx, sy, ex, ey) of an arc row (cx, cy, radius,
    start_angle, sweep), bit-equal to the points of ``arc_endpoint``."""
    a, b = start + 0.0, start + sweep  # + 0.0 as there: -0.0 becomes 0.0
    return (cx + radius * math.cos(a), cy + radius * math.sin(a),
            cx + radius * math.cos(b), cy + radius * math.sin(b))


def heading_between(p: Point2, q: Point2) -> Heading:
    """Direction of travel from p to q."""
    if dist(p, q) <= LENGTH_EPSILON:
        raise DegeneratePointsError(f"cannot take heading between coincident points {p}, {q}")
    return Heading(math.atan2(q.y - p.y, q.x - p.x))


def interior_angle(p_prev: Point2, p: Point2, p_next: Point2) -> float:
    """Interior angle at ``p`` between the incoming and outgoing directions.

    Returns pi for collinear pass-through points and shrinks toward 0 as the
    turn sharpens (0 itself meaning an exact reversal). Symmetric under
    swapping the neighbors and invariant under rigid transforms.
    """
    v1 = p - p_prev
    v2 = p_next - p
    if v1.norm() <= LENGTH_EPSILON or v2.norm() <= LENGTH_EPSILON:
        raise DegeneratePointsError("interior angle needs three pairwise distinct points")
    turn = math.atan2(abs(cross(v1, v2)), dot(v1, v2))
    return math.pi - turn


@dataclass(frozen=True, slots=True)
class RigidTransform:
    """Translation followed by rotation, optionally followed by a reflection
    across the x-axis. Applying the transform then its inverse reproduces the
    input to within round-off."""

    rotation: float
    translation: Point2
    reflect_x: bool = False

    def apply(self, p: Point2) -> Point2:
        x = p.x + self.translation.x
        y = p.y + self.translation.y
        c = math.cos(self.rotation)
        s = math.sin(self.rotation)
        rx = c * x - s * y
        ry = s * x + c * y
        return Point2(rx, -ry) if self.reflect_x else Point2(rx, ry)

    def apply_inverse(self, p: Point2) -> Point2:
        x, y = (p.x, -p.y) if self.reflect_x else (p.x, p.y)
        c = math.cos(self.rotation)
        s = math.sin(self.rotation)
        rx = c * x + s * y
        ry = -s * x + c * y
        return Point2(rx - self.translation.x, ry - self.translation.y)

    def apply_heading(self, h: Heading) -> Heading:
        theta = h.theta + self.rotation
        return Heading(-theta) if self.reflect_x else Heading(theta)


def to_standard_setting(
    p_i: Point2, p_m: Point2, p_f: Point2
) -> tuple[RigidTransform, tuple[Point2, Point2, Point2]]:
    """Rigidly move a point triple into standard placement.

    The first point lands on the origin, the second on the positive x-axis,
    and the third is reflected into the upper half plane if needed (the
    reflection is recorded in the returned transform).
    """
    if dist(p_i, p_m) <= LENGTH_EPSILON:
        raise DegeneratePointsError("standard setting needs p_i != p_m")
    rotation = -math.atan2(p_m.y - p_i.y, p_m.x - p_i.x)
    t = RigidTransform(rotation, Point2(-p_i.x, -p_i.y))
    if t.apply(p_f).y < 0.0:
        t = RigidTransform(rotation, Point2(-p_i.x, -p_i.y), reflect_x=True)
    return t, (t.apply(p_i), t.apply(p_m), t.apply(p_f))


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
