"""Random feasible polylines for benchmarks and statistical tests.

Each new point is sampled uniformly on a circle around the previous point
whose radius is drawn uniformly from [1, 10] turning radii (the paper's
protocol), and resampled, up to ``_TRIES_PER_POINT`` times, until the
placement keeps the polyline feasible:

* the edge behind the new turn holds both of its tangent lengths exactly;
* the new edge reserves twice the new tangent length, leaving symmetric
  room for the still-unknown tangent of the next vertex;
* consecutive exit-tangent configurations are at least 4r apart (the far
  case for each turn's sub-problem; this implies the vertex-to-tangent
  form of the condition as well).

A short edge can make every continuation violate the far condition, so a
point that exhausts its proposal budget backtracks one step and redraws.
Tangent lengths take the smoother's two forms inline, on the unit edge
directions: the edge behind once per placed point, (cos, sin) per proposal.
Only ``Random.random()`` draws are used (MT19937), so sequences reproduce
across platforms for a fixed seed.
"""

from __future__ import annotations

import math
import random
from typing import Optional

import numpy as np

from .geom import TWO_PI, check_turn_radius
from .smoother import Polyline

# Edge lengths in turning radii, and proposals per point before backtracking.
_RADIUS_LOW, _RADIUS_HIGH = 1.0, 10.0
_TRIES_PER_POINT = 60

# An edge whose span past the fixed tangent point is below ~3.678r cannot
# satisfy the next 4r far check for any continuation (maximizing the
# reachable distance over the coupled turn angle and tangent length tops
# out below 4r). Filtering at 3.67r rejects only provably trapped edges.
_DOOMED_SPAN = 3.67


def random_polyline(
    n: int,
    r: float = 1.0,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> Polyline:
    """Random polyline of ``n`` points that is feasible for turning radius r
    and satisfies the 4r far condition at every vertex."""
    check_turn_radius(r)
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    if rng is None:
        rng = random.Random(seed)
    lo = _RADIUS_LOW * r
    span = (_RADIUS_HIGH - _RADIUS_LOW) * r
    four_r = 4.0 * r
    xs, ys = [0.0], [0.0]
    claims = [0.0]  # tangent length already fixed at each placed point
    proposals_left = 1000 * n * _TRIES_PER_POINT
    rnd, cos, sin, hypot = rng.random, math.cos, math.sin, math.hypot
    while len(xs) < n:
        px, py = xs[-1], ys[-1]
        final_point = len(xs) + 1 == n
        if len(xs) > 1:
            bx, by = xs[-2], ys[-2]
            n1 = hypot(px - bx, py - by)
            u1x, u1y = (px - bx) / n1, (py - by) / n1  # the edge behind, once per placed point
        accepted = False
        for _ in range(_TRIES_PER_POINT):
            proposals_left -= 1
            if proposals_left <= 0:
                raise RuntimeError("polyline sampling did not converge")
            ang = TWO_PI * rnd()
            rad = lo + span * rnd()
            u2x, u2y = cos(ang), sin(ang)
            cx = px + rad * u2x
            cy = py + rad * u2y
            if len(xs) == 1:
                if not final_point and rad < _DOOMED_SPAN * r:
                    continue
                l_new = 0.0
                accepted = True
                break
            # The candidate fixes the turn at the current last point; its
            # tangent length is the smoother's, from the unit edge directions.
            crs = abs(u1x * u2y - u1y * u2x)
            dt = u1x * u2x + u1y * u2y
            if dt < 0.0 and crs == 0.0:  # an exact reversal
                continue
            l_new = r * ((1.0 - dt) / crs if dt < 0.0 else crs / (1.0 + dt))
            l_prev = claims[-2]
            if n1 < l_prev + l_new:  # edge behind holds both tangents
                continue
            if rad < 2.0 * l_new:  # reserve room for the next vertex's tangent
                continue
            # An edge this short can never satisfy the next far check, so
            # placing it only sets a trap for the following point.
            if not final_point and rad < l_new + _DOOMED_SPAN * r:
                continue
            # Far case between this turn's start and end configurations.
            qx = px + l_new * u2x
            qy = py + l_new * u2y
            ex = bx + l_prev * u1x
            ey = by + l_prev * u1y
            if hypot(qx - ex, qy - ey) < four_r:
                continue
            accepted = True
            break
        if accepted:
            if len(xs) > 1:
                claims[-1] = l_new
            xs.append(cx)
            ys.append(cy)
            claims.append(0.0)
        elif len(xs) > 1:
            # Trapped behind a short edge: drop it and redraw.
            xs.pop()
            ys.pop()
            claims.pop()
            claims[-1] = 0.0
    return Polyline.from_array(np.column_stack((xs, ys)))
