"""Shortest Dubins paths from the closed-form words, plus a sampled-heading
multipoint solver used as an independent length reference: the module
imports only ``geom``, none of the smoothing code it checks.

The word formulas follow the Dubins-set formulation in scaled coordinates
(unit turning radius; Shkel & Lumelsky, "Classification of the Dubins set",
RAS 2001). LSL, LSR and RLR are written out; RSR, RSL and LRL are the same
formulas on the problem reflected across the line of travel (``_mirrored``),
bit-equal to their own formulas except where an ``atan2`` argument is an
exact zero, whose sign the reflection cannot flip. The formulas run on a
backend of math functions: ``_SCALAR`` on Python floats for one pose pair
(``solve_word``, ``dubins_shortest``, ``classify_j_type``), ``_ARRAY`` on
numpy arrays for the multipoint DP, which evaluates the pair costs of many
consecutive pairs as one (pairs, S, S) block of at most ``_BLOCK_ELEMENTS``
elements; heading sets of unequal size are padded to S by repeating their
last heading, which changes no minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .geom import TWO_PI, Heading, Point2, Pose, check_turn_radius

WORD_ORDER = ("LSL", "RSR", "LSR", "RSL", "RLR", "LRL")
CSC_WORDS = frozenset(("LSL", "RSR", "LSR", "RSL"))

# Sweeps within rounding distance of a full circle are a numerical zero;
# folding them keeps degenerate first/last arcs at exactly 0.
_FULL_CIRCLE_SNAP = 1e-12
_FOLD_LIMIT = TWO_PI - _FULL_CIRCLE_SNAP
_TIE_EPSILON = 1e-12
# Element cap of one (pairs, S, S) block of pair costs in the multipoint DP.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True, slots=True)
class DubinsWord:
    """One maneuver class with its three segment lengths (unscaled)."""

    word: str
    lengths: tuple[float, float, float]
    total: float


# The two backends the word formulas run on: Python floats for one pose
# pair, numpy arrays for blocks of heading pairs.
_SCALAR = SimpleNamespace(
    sin=math.sin, cos=math.cos, atan2=math.atan2, sqrt=math.sqrt, acos=math.acos, abs=abs,
    where=lambda cond, a, b: a if cond else b, clip=lambda x, lo, hi: min(max(x, lo), hi),
)
_ARRAY = SimpleNamespace(
    sin=np.sin, cos=np.cos, atan2=np.arctan2, sqrt=np.sqrt, acos=np.arccos, abs=np.abs,
    where=np.where, clip=np.clip,
)


def _mod2pi(x):
    """``x`` folded into [0, 2pi) on floats or arrays; a full circle folds to 0."""
    y = x % TWO_PI
    return y * (y < _FOLD_LIMIT)


def _word_args(m, alpha, beta, d):
    """Arguments of the word formulas for the scaled parameters (alpha, beta, d)."""
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
    t = m.where(degenerate, 0.0, _mod2pi(tmp1 - alpha))
    p = m.where(degenerate, 0.0, m.sqrt(m.where(psq > 0.0, psq, 0.0)))
    q = _mod2pi(m.where(degenerate, beta - alpha, beta - tmp1))
    return t, p, q, ok


def _lsr(m, alpha, beta, d, sa, ca, sb, cb, cab):
    psq = -2.0 + d * d + 2.0 * cab + 2.0 * d * (sa + sb)
    ok = psq >= 0.0
    p = m.sqrt(m.where(ok, psq, 0.0))
    tmp = m.atan2(-ca - cb, d + sa + sb) - m.atan2(-2.0, p)
    t = _mod2pi(tmp - alpha)
    q = _mod2pi(tmp - beta)
    return t, p, q, ok


def _rlr(m, alpha, beta, d, sa, ca, sb, cb, cab):
    tmp = (6.0 - d * d + 2.0 * cab + 2.0 * d * (sa - sb)) / 8.0
    ok = m.abs(tmp) <= 1.0
    p = _mod2pi(TWO_PI - m.acos(m.clip(tmp, -1.0, 1.0)))
    t = _mod2pi(alpha - m.atan2(ca - cb, d - sa + sb) + 0.5 * p)
    q = _mod2pi(alpha - beta - t + p)
    return t, p, q, ok


def _mirrored(alpha, beta, d, sa, ca, sb, cb, cab):
    """Word arguments of the problem reflected across the line of travel."""
    return -alpha, -beta, d, -sa, ca, -sb, cb, cab


# Each word of WORD_ORDER, in that order, as (formula, whether it reads the
# mirrored arguments): the reflection turns LSL, LSR and RLR into RSR, RSL
# and LRL.
_WORDS = {
    "LSL": (_lsl, False),
    "RSR": (_lsl, True),
    "LSR": (_lsr, False),
    "RSL": (_lsr, True),
    "RLR": (_rlr, False),
    "LRL": (_rlr, True),
}


def _bearing(p: Point2, q: Point2, r: float) -> tuple[float, float]:
    """Direction of q seen from p and their distance in units of r."""
    dx = q.x - p.x
    dy = q.y - p.y
    return math.atan2(dy, dx), math.hypot(dx, dy) / r


def _scaled_problem(start: Pose, goal: Pose, r: float) -> tuple:
    """Reduce a pose pair to the arguments of the word formulas."""
    theta, d = _bearing(start.position, goal.position, r)
    alpha = (start.heading.theta - theta) % TWO_PI
    beta = (goal.heading.theta - theta) % TWO_PI
    return _word_args(_SCALAR, alpha, beta, d)


def solve_word(word: str, start: Pose, goal: Pose, r: float) -> Optional[DubinsWord]:
    """Evaluate one maneuver class; None when it has no real solution."""
    check_turn_radius(r)
    formula, mirror = _WORDS[word]
    problem = _scaled_problem(start, goal, r)
    t, p, q, ok = formula(_SCALAR, *(_mirrored(*problem) if mirror else problem))
    if not ok:
        return None
    lengths = (t * r, p * r, q * r)
    return DubinsWord(word, lengths, sum(lengths))


def dubins_shortest(start: Pose, goal: Pose, r: float) -> DubinsWord:
    """Shortest of the six Dubins words, lengths unscaled by r.

    Ties within 1e-12 are broken by the fixed word order so differential
    tests stay deterministic.
    """
    check_turn_radius(r)
    problem = _scaled_problem(start, goal, r)
    problems = (problem, _mirrored(*problem))  # indexed by the mirror flag
    best: Optional[DubinsWord] = None
    for word, (formula, mirror) in _WORDS.items():  # in WORD_ORDER
        t, p, q, ok = formula(_SCALAR, *problems[mirror])
        if not ok:
            continue
        total = (t + p + q) * r
        if best is None or total < best.total - _TIE_EPSILON:
            best = DubinsWord(word, (t * r, p * r, q * r), total)
    assert best is not None  # LSL/RSR always admit a solution
    return best


def classify_j_type(start: Pose, goal: Pose, r: float) -> tuple[bool, DubinsWord]:
    """Whether the optimal word starts straight (no initial arc).

    True when the shortest word is a CSC word whose first arc is zero
    within 1e-9, i.e. the straight segment leaves at the initial heading.
    """
    word = dubins_shortest(start, goal, r)
    return word.word in CSC_WORDS and word.lengths[0] <= 1e-9, word


def _pair_costs(points: Sequence[Point2], sets: np.ndarray, r: float) -> np.ndarray:
    """(pairs, S, S) shortest Dubins lengths from (points[k], sets[k, i]) to
    (points[k + 1], sets[k + 1, j]) for every consecutive pair."""
    theta, d = zip(*(_bearing(p, q, r) for p, q in zip(points, points[1:])))
    theta = np.array(theta)[:, None]
    alpha = np.mod(sets[:-1] - theta, TWO_PI)[:, :, None]
    beta = np.mod(sets[1:] - theta, TWO_PI)[:, None, :]
    args = _word_args(_ARRAY, alpha, beta, np.array(d)[:, None, None])
    problems = (args, _mirrored(*args))  # indexed by the mirror flag
    best = None
    for formula, mirror in _WORDS.values():
        t, pl, ql, ok = formula(_ARRAY, *problems[mirror])
        total = np.where(ok, t + pl + ql, np.inf)
        best = total if best is None else np.minimum(best, total)
    return best * r


def multipoint_bruteforce(
    points: Sequence[Point2],
    r: float,
    samples_per_angle: int,
    headings: Optional[Sequence[Sequence[float]]] = None,
) -> float:
    """Shortest concatenation of Dubins paths through all points over a
    sampled heading grid, by dynamic programming over per-point headings.

    With ``headings`` given, the per-point candidate sets replace the
    uniform grid (e.g. singleton sets pin the headings). Refining the grid
    by doubling ``samples_per_angle`` never increases the result.
    """
    check_turn_radius(r)
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("multipoint solve needs at least 2 points")
    if headings is None:
        if samples_per_angle < 4:
            raise ValueError("need at least 4 heading samples per point")
        grid = np.arange(samples_per_angle) * (TWO_PI / samples_per_angle)
        sets = np.tile(grid, (len(pts), 1))
    else:
        if len(headings) != len(pts):
            raise ValueError("need one heading set per point")
        sizes = list(map(len, headings))
        if not min(sizes):
            raise ValueError("heading sets must be non-empty")
        # Repeating a set's last heading adds duplicate rows and columns,
        # which cannot change any minimum of the DP.
        width = max(sizes)
        sets = np.array([[*h, *[h[-1]] * (width - k)] for h, k in zip(headings, sizes)], dtype=float)
    size = sets.shape[1]
    per_block = max(1, _BLOCK_ELEMENTS // (size * size))
    cost_to = np.zeros(size)
    for lo in range(0, len(pts) - 1, per_block):
        hi = min(lo + per_block, len(pts) - 1)
        for cost in _pair_costs(pts[lo:hi + 1], sets[lo:hi + 1], r):
            cost_to = (cost_to[:, None] + cost).min(axis=0)
    return float(np.min(cost_to))


def rollout(start: Pose, word: DubinsWord, r: float) -> Pose:
    """Forward-integrate a word from a start pose (for cross-checks)."""
    x, y, th = start.position.x, start.position.y, start.heading.theta
    for kind, length in zip(word.word, word.lengths):
        if kind == "S":
            x += length * math.cos(th)
            y += length * math.sin(th)
        else:
            sign = 1.0 if kind == "L" else -1.0
            sweep = sign * length / r
            x += sign * r * (math.sin(th + sweep) - math.sin(th))
            y -= sign * r * (math.cos(th + sweep) - math.cos(th))
            th += sweep
    return Pose(Point2(x, y), Heading(th))
