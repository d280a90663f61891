"""Per-pair Dubins costs kept as test references.

``multipoint_per_pair`` is the multipoint DP as it was before pair costs were
evaluated in blocks: one ``pair_cost`` matrix per consecutive pair, each from
the numpy backend of the word formulas. ``word_totals`` and
``reference_shortest`` read the 1x1 cost of one pose pair through the same
backend, so tests can hold the math backend of ``solve_word`` and
``dubins_shortest`` against it.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from dps.dubins import _ARRAY, _TIE_EPSILON, _TWO_PI, _WORD_FUNCS, WORD_ORDER
from dps.geom import Point2, Pose
from dps.smoother import check_turn_radius


def _word_matrices(p: Point2, q: Point2, h1: np.ndarray, h2: np.ndarray, r: float):
    """Per word, the matrix of lengths from (p, h1[i]) to (q, h2[j]) in
    scaled units, inf where the word has no solution."""
    dx = q.x - p.x
    dy = q.y - p.y
    theta = math.atan2(dy, dx)
    d = math.hypot(dx, dy) / r
    alpha = np.mod(h1 - theta, _TWO_PI)[:, None]
    beta = np.mod(h2 - theta, _TWO_PI)[None, :]
    sa, ca = np.sin(alpha), np.cos(alpha)
    sb, cb = np.sin(beta), np.cos(beta)
    cab = ca * cb + sa * sb
    totals = {}
    for word in WORD_ORDER:
        t, pl, ql, ok = _WORD_FUNCS[word](_ARRAY, alpha, beta, d, sa, ca, sb, cb, cab)
        totals[word] = np.where(ok, t + pl + ql, np.inf)
    return totals


def pair_cost(p: Point2, q: Point2, h1: np.ndarray, h2: np.ndarray, r: float) -> np.ndarray:
    """Matrix of shortest Dubins lengths from (p, h1[i]) to (q, h2[j])."""
    best = None
    for total in _word_matrices(p, q, h1, h2, r).values():
        best = total if best is None else np.minimum(best, total)
    return best * r


def multipoint_per_pair(
    points: Sequence[Point2],
    r: float,
    samples_per_angle: int,
    headings: Optional[Sequence[Sequence[float]]] = None,
) -> float:
    """The multipoint DP with one ``pair_cost`` call per consecutive pair."""
    check_turn_radius(r)
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("multipoint solve needs at least 2 points")
    if headings is None:
        if samples_per_angle < 4:
            raise ValueError("need at least 4 heading samples per point")
        grid = np.arange(samples_per_angle) * (_TWO_PI / samples_per_angle)
        sets = [grid] * len(pts)
    else:
        if len(headings) != len(pts):
            raise ValueError("need one heading set per point")
        sets = [np.asarray(h, dtype=float) for h in headings]
        if any(s.size == 0 for s in sets):
            raise ValueError("heading sets must be non-empty")
    cost_to = np.zeros(sets[0].size)
    for i in range(len(pts) - 1):
        cost = pair_cost(pts[i], pts[i + 1], sets[i], sets[i + 1], r)
        cost_to = np.min(cost_to[:, None] + cost, axis=0)
    return float(np.min(cost_to))


def word_totals(start: Pose, goal: Pose, r: float) -> dict[str, Optional[float]]:
    """Each word's length for one pose pair from 1x1 arrays; None where the
    word has no solution."""
    h1 = np.array([start.heading.theta])
    h2 = np.array([goal.heading.theta])
    totals = _word_matrices(start.position, goal.position, h1, h2, r)
    out = {}
    for word, total in totals.items():
        value = float(total[0, 0])
        out[word] = None if value == math.inf else value * r
    return out


def reference_shortest(start: Pose, goal: Pose, r: float) -> tuple[str, float]:
    """Shortest word and its length, ties within 1e-12 broken by word order."""
    best: Optional[tuple[str, float]] = None
    for word, total in word_totals(start, goal, r).items():
        if total is not None and (best is None or total < best[1] - _TIE_EPSILON):
            best = (word, total)
    assert best is not None
    return best
