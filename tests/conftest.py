import math
import random

import pytest

from dps.geom import Point2
from dps.smoother import Polyline, vertex_solutions


def make_triplet(rng: random.Random, r: float, alpha_min: float = 0.2,
                 alpha_max: float = math.pi - 0.05, margin: float = 1.05):
    """Random feasible triplet with controlled interior angle.

    Edges are long enough (by ``margin``) to hold the tangent length, so
    the three-point solve always succeeds.
    """
    alpha = rng.uniform(alpha_min, alpha_max)
    l = r / math.tan(0.5 * alpha)
    length1 = l * margin + rng.uniform(0.0, 10.0 * r)
    length2 = l * margin + rng.uniform(0.0, 10.0 * r)
    psi = rng.uniform(-math.pi, math.pi)
    turn = (math.pi - alpha) * (1 if rng.random() < 0.5 else -1)
    mx = rng.uniform(-50.0, 50.0)
    my = rng.uniform(-50.0, 50.0)
    p_m = Point2(mx, my)
    p_i = Point2(mx - length1 * math.cos(psi), my - length1 * math.sin(psi))
    psi_out = psi + turn
    p_f = Point2(mx + length2 * math.cos(psi_out), my + length2 * math.sin(psi_out))
    return p_i, p_m, p_f, alpha


def solve_triplet(p_i: Point2, p_m: Point2, p_f: Point2, r: float):
    """The three-point sub-problem at ``p_m``: the vertex's solution from
    ``vertex_solutions`` (None for a pass-through), or its refusal."""
    return vertex_solutions(Polyline((p_i, p_m, p_f)), r)[0]


def random_rigid_motion(rng: random.Random):
    """A random rotation about the origin after a translation, optionally
    followed by a mirror across the x-axis. Returns the map on points and
    whether it mirrors (a mirror flips the sign of every turn)."""
    theta = rng.uniform(-math.pi, math.pi)
    tx, ty = rng.uniform(-20, 20), rng.uniform(-20, 20)
    mirrored = rng.random() < 0.5
    c, s = math.cos(theta), math.sin(theta)

    def move(p: Point2) -> Point2:
        x, y = p.x + tx, p.y + ty
        return Point2(c * x - s * y, -(s * x + c * y) if mirrored else s * x + c * y)

    return move, mirrored


@pytest.fixture
def rng():
    return random.Random(20240131)
