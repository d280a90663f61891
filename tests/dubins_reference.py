"""Per-pair Dubins costs and the six written-out word formulas, kept as
test references.

``multipoint_per_pair`` is the multipoint DP as it was before pair costs were
evaluated in blocks: one ``pair_cost`` matrix per consecutive pair, each from
the numpy backend of the word formulas. ``word_totals`` and
``reference_shortest`` read the 1x1 cost of one pose pair through the same
backend, so tests can hold the scalar solver of ``solve_word`` and
``dubins_shortest`` against it.

``SIX_WORDS`` holds one written-out formula per word, RSR, RSL and LRL
included, as the solver had them before those three became mirror images of
LSL, LSR and RLR; ``MIRRORED_WORDS`` reads those three as the solver does,
from the same formulas. ``SOLVER_WORDS`` is ``dubins._WORDS``, the solver's
array formulas, in the same shape, so the per-pair DP runs on any table. The
formulas take one of two backends of math functions, ``SCALAR`` on Python
floats and ``ARRAY`` on numpy arrays, each with its own ``where``, ``clip``
and ``mod2pi``; ``scalar_fold``, ``scalar_shortest`` and
``scalar_running_sum`` run a table on ``SCALAR``. No reference skips the CCC
words beyond d = 4.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from dps.dubins import (_FULL_CIRCLE_SNAP, _TIE_EPSILON, _WORDS, WORD_ORDER, DubinsWord, _mirrored,
                        _scaled_problem)
from dps.geom import TWO_PI, Point2, Pose, check_turn_radius


def _mod2pi_scalar(x: float) -> float:
    y = x % TWO_PI
    return 0.0 if y >= TWO_PI - _FULL_CIRCLE_SNAP else y


def _mod2pi_array(x):
    y = np.mod(x, TWO_PI)
    return np.where(y >= TWO_PI - _FULL_CIRCLE_SNAP, 0.0, y)


SCALAR = SimpleNamespace(
    sin=math.sin, cos=math.cos, atan2=math.atan2, sqrt=math.sqrt, acos=math.acos, abs=abs,
    where=lambda cond, a, b: a if cond else b, clip=lambda x, lo, hi: min(max(x, lo), hi),
    mod2pi=_mod2pi_scalar,
)
ARRAY = SimpleNamespace(
    sin=np.sin, cos=np.cos, atan2=np.arctan2, sqrt=np.sqrt, acos=np.arccos, abs=np.abs,
    where=np.where, clip=np.clip, mod2pi=_mod2pi_array,
)


def word_args(m, alpha, beta, d):
    """Arguments of the word formulas for the scaled problem (alpha, beta, d)."""
    sa, ca, sb, cb = m.sin(alpha), m.cos(alpha), m.sin(beta), m.cos(beta)
    return alpha, beta, d, sa, ca, sb, cb, ca * cb + sa * sb


def _lsl(m, alpha, beta, d, sa, ca, sb, cb, cab):
    tmp0 = d + sa - sb
    psq = 2.0 + d * d - 2.0 * cab + 2.0 * d * (sa - sb)
    # psq == 0 means coincident turn circles: the maneuver is a single left
    # arc, and the tmp1 split degenerates to atan2(0, 0). Handle it exactly
    # (these are precisely the tangent-to-tangent arc pieces).
    boundary = 1e-12 * (4.0 + d * d)
    degenerate = psq <= boundary
    ok = psq >= -boundary
    tmp1 = m.atan2(cb - ca, tmp0)
    t = m.where(degenerate, 0.0, m.mod2pi(tmp1 - alpha))
    p = m.where(degenerate, 0.0, m.sqrt(m.where(psq > 0.0, psq, 0.0)))
    q = m.where(degenerate, m.mod2pi(beta - alpha), m.mod2pi(beta - tmp1))
    return t, p, q, ok


def _rsr(m, alpha, beta, d, sa, ca, sb, cb, cab):
    tmp0 = d - sa + sb
    psq = 2.0 + d * d - 2.0 * cab + 2.0 * d * (sb - sa)
    boundary = 1e-12 * (4.0 + d * d)
    degenerate = psq <= boundary
    ok = psq >= -boundary
    tmp1 = m.atan2(ca - cb, tmp0)
    t = m.where(degenerate, 0.0, m.mod2pi(alpha - tmp1))
    p = m.where(degenerate, 0.0, m.sqrt(m.where(psq > 0.0, psq, 0.0)))
    q = m.where(degenerate, m.mod2pi(alpha - beta), m.mod2pi(tmp1 - beta))
    return t, p, q, ok


def _lsr(m, alpha, beta, d, sa, ca, sb, cb, cab):
    psq = -2.0 + d * d + 2.0 * cab + 2.0 * d * (sa + sb)
    ok = psq >= 0.0
    p = m.sqrt(m.where(ok, psq, 0.0))
    tmp = m.atan2(-ca - cb, d + sa + sb) - m.atan2(-2.0, p)
    t = m.mod2pi(tmp - alpha)
    q = m.mod2pi(tmp - beta)
    return t, p, q, ok


def _rsl(m, alpha, beta, d, sa, ca, sb, cb, cab):
    psq = -2.0 + d * d + 2.0 * cab - 2.0 * d * (sa + sb)
    ok = psq >= 0.0
    p = m.sqrt(m.where(ok, psq, 0.0))
    tmp = m.atan2(ca + cb, d - sa - sb) - m.atan2(2.0, p)
    t = m.mod2pi(alpha - tmp)
    q = m.mod2pi(beta - tmp)
    return t, p, q, ok


def _rlr(m, alpha, beta, d, sa, ca, sb, cb, cab):
    tmp = (6.0 - d * d + 2.0 * cab + 2.0 * d * (sa - sb)) / 8.0
    ok = m.abs(tmp) <= 1.0
    p = m.mod2pi(TWO_PI - m.acos(m.clip(tmp, -1.0, 1.0)))
    t = m.mod2pi(alpha - m.atan2(ca - cb, d - sa + sb) + 0.5 * p)
    q = m.mod2pi(alpha - beta - t + p)
    return t, p, q, ok


def _lrl(m, alpha, beta, d, sa, ca, sb, cb, cab):
    tmp = (6.0 - d * d + 2.0 * cab + 2.0 * d * (sb - sa)) / 8.0
    ok = m.abs(tmp) <= 1.0
    p = m.mod2pi(TWO_PI - m.acos(m.clip(tmp, -1.0, 1.0)))
    t = m.mod2pi(-alpha - m.atan2(ca - cb, d + sa - sb) + 0.5 * p)
    q = m.mod2pi(beta - alpha - t + p)
    return t, p, q, ok


SIX_WORDS = {
    "LSL": (_lsl, False),
    "RSR": (_rsr, False),
    "LSR": (_lsr, False),
    "RSL": (_rsl, False),
    "RLR": (_rlr, False),
    "LRL": (_lrl, False),
}
# The solver's reading of the six words: RSR, RSL and LRL as the formulas of
# LSL, LSR and RLR on the reflected problem.
MIRRORED_WORDS = {
    "LSL": (_lsl, False),
    "RSR": (_lsl, True),
    "LSR": (_lsr, False),
    "RSL": (_lsr, True),
    "RLR": (_rlr, False),
    "LRL": (_rlr, True),
}


# The solver's array formulas take no backend argument; the per-pair DP
# passes ARRAY to every formula.
SOLVER_WORDS = {word: (lambda m, *args, formula=formula: formula(*args), mirror)
                for word, (formula, mirror) in _WORDS.items()}


def _word_matrices(p: Point2, q: Point2, h1: np.ndarray, h2: np.ndarray, r: float,
                   words=SOLVER_WORDS):
    """Per word, the matrix of lengths from (p, h1[i]) to (q, h2[j]) in
    scaled units, inf where the word has no solution."""
    dx = q.x - p.x
    dy = q.y - p.y
    theta = math.atan2(dy, dx)
    d = math.hypot(dx, dy) / r
    alpha = np.mod(h1 - theta, TWO_PI)[:, None]
    beta = np.mod(h2 - theta, TWO_PI)[None, :]
    args = word_args(ARRAY, alpha, beta, d)
    totals = {}
    for word in WORD_ORDER:
        formula, mirror = words[word]
        t, pl, ql, ok = formula(ARRAY, *(_mirrored(*args) if mirror else args))
        totals[word] = np.where(ok, t + pl + ql, np.inf)
    return totals


def pair_cost(p: Point2, q: Point2, h1: np.ndarray, h2: np.ndarray, r: float,
              words=SOLVER_WORDS) -> np.ndarray:
    """Matrix of shortest Dubins lengths from (p, h1[i]) to (q, h2[j])."""
    best = None
    for total in _word_matrices(p, q, h1, h2, r, words).values():
        best = total if best is None else np.minimum(best, total)
    return best * r


def multipoint_per_pair(
    points: Sequence[Point2],
    r: float,
    samples_per_angle: int,
    headings: Optional[Sequence[Sequence[float]]] = None,
    words=SOLVER_WORDS,
) -> float:
    """The multipoint DP with one ``pair_cost`` call per consecutive pair,
    on the word table ``words``."""
    check_turn_radius(r)
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("multipoint solve needs at least 2 points")
    if headings is None:
        if samples_per_angle < 4:
            raise ValueError("need at least 4 heading samples per point")
        grid = np.arange(samples_per_angle) * (TWO_PI / samples_per_angle)
        sets = [grid] * len(pts)
    else:
        if len(headings) != len(pts):
            raise ValueError("need one heading set per point")
        sets = [np.asarray(h, dtype=float) for h in headings]
        if any(s.size == 0 for s in sets):
            raise ValueError("heading sets must be non-empty")
    cost_to = np.zeros(sets[0].size)
    for i in range(len(pts) - 1):
        cost = pair_cost(pts[i], pts[i + 1], sets[i], sets[i + 1], r, words)
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


def _scalar_words(problem, words):
    """(word, t, p, q) of every word of ``words`` with a solution, in
    WORD_ORDER, on the scalar backend."""
    args = word_args(SCALAR, *problem)
    for word in WORD_ORDER:
        formula, mirror = words[word]
        t, p, q, ok = formula(SCALAR, *(_mirrored(*args) if mirror else args))
        if ok:
            yield word, t, p, q


def scalar_fold(problem, r: float, words=SIX_WORDS) -> tuple:
    """(word, t, p, q, total, least) over all six words of the table ``words``
    on the scalar backend for the scaled problem (alpha, beta, d): the winner
    by the solver's tie rule, its scaled lengths and its total, then the
    least total."""
    best = None
    least = math.inf
    for word, t, p, q in _scalar_words(problem, words):
        total = (t + p + q) * r
        least = min(least, total)
        if best is None or total < best[4] - _TIE_EPSILON:
            best = (word, t, p, q, total)
    assert best is not None
    return (*best, least)


def scalar_shortest(start: Pose, goal: Pose, r: float, words=SIX_WORDS) -> DubinsWord:
    """Shortest of all six words of the table ``words`` on the scalar backend,
    from the solver's scaled problem and with its tie rule."""
    problem = _scaled_problem(start.position, start.heading.theta,
                              goal.position, goal.heading.theta, r)
    word, t, p, q, total, _ = scalar_fold(problem, r, words)
    return DubinsWord(word, (t * r, p * r, q * r), total)


def scalar_running_sum(points: Sequence[Point2], headings: Sequence[float], r: float,
                       words=SIX_WORDS) -> float:
    """The multipoint DP pinned at one heading per point: the sum, in pair
    order, of each pair's least total over all six words of ``words`` on the
    scalar backend."""
    cost = 0.0
    for p, q, a, b in zip(points, points[1:], headings, headings[1:]):
        cost += scalar_fold(_scaled_problem(p, a, q, b, r), r, words)[-1]
    return cost
