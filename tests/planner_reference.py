"""Exhaustive planner stages kept as test references.

``all_pairs_visibility_graph`` tests every node pair against every inflated
obstacle, and ``all_pairs_clearance`` takes the exact distance of every
(segment, obstacle) pair. They are the builder and the clearance loop the
planner used before the tangent graph and the bounded clearance search, so
tests can require the same routes and bit-identical clearances.
``per_edge_arc_into`` rebuilds the arc's end points for every polygon edge,
as the arc-to-polygon distance did before it built them once per polygon.
"""

from __future__ import annotations

import math
from typing import Sequence

from dps.geom import LENGTH_EPSILON, ArcSegment, LineSegment, Point2, arc_endpoint, dist
from dps.planner import (
    ConvexPolygon,
    Scenario,
    UnreachableConfigurationError,
    VisibilityGraph,
    _arc_segment_distance,
    _segment_blocked,
    _segment_into,
    mitered_inflate,
    required_offset,
)
from dps.smoother import SmoothPath


def inflate_obstacles(scenario: Scenario) -> list[ConvexPolygon]:
    """The inflation ``plan()`` applies: each obstacle by its worst-vertex offset."""
    h, r = scenario.robot_radius, scenario.turning_radius
    return [
        mitered_inflate(poly, max(required_offset(h, r, a) for a in poly.interior_angles()))
        for poly in scenario.obstacles
    ]


def all_pairs_visibility_graph(
    scenario: Scenario, inflated: Sequence[ConvexPolygon]
) -> VisibilityGraph:
    """Every node pair whose open segment misses all inflated interiors."""
    for poly in inflated:
        for label, p in (("start", scenario.start), ("goal", scenario.goal)):
            if poly.contains(p, tol=LENGTH_EPSILON):
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
            if any(_segment_blocked(a, b, poly) for poly in inflated):
                continue
            edges.append((i, j, dist(a, b)))
    return VisibilityGraph(tuple(nodes), tuple(edges), start_index, goal_index)


def per_edge_arc_into(arc: ArcSegment, poly: ConvexPolygon) -> float:
    """Exact distance between an arc and a polygon (0 inside or touching)."""
    best = math.inf
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        start_pt, _ = arc_endpoint(arc, at_end=False)
        end_pt, _ = arc_endpoint(arc, at_end=True)
        gap = _arc_segment_distance(arc, verts[i], verts[(i + 1) % n], start_pt, end_pt)
        best = min(best, gap)
        if best == 0.0:
            return 0.0
    if best > 0.0:
        probe, _ = arc_endpoint(arc, at_end=False)
        if poly.contains(probe):
            return 0.0
    return best


def all_pairs_clearance(path: SmoothPath, obstacles: Sequence[ConvexPolygon]) -> float:
    """Minimum exact distance over every (segment, obstacle) pair."""
    best = math.inf
    for seg in path.segments:
        for poly in obstacles:
            if isinstance(seg, LineSegment):
                d = _segment_into(seg.a, seg.b, poly)
            else:
                d = per_edge_arc_into(seg, poly)
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
    return best
