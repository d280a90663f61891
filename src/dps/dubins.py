"""Shortest Dubins paths from the closed-form words, plus a sampled-heading
multipoint solver used as an independent length reference: the module
imports only ``geom``, none of the smoothing code it checks.

The word formulas follow the Dubins-set formulation in scaled coordinates
(unit turning radius; Shkel & Lumelsky, "Classification of the Dubins set",
RAS 2001). LSL, LSR and RLR are written out; RSR, RSL and LRL are the same
formulas on the problem reflected across the line of travel (``_mirrored``),
bit-equal to their own formulas except where an ``atan2`` argument is an
exact zero, whose sign the reflection cannot flip. A pose pair is solved by
``_solve``, one routine on Python floats that computes the sines and cosines
once, evaluates the words inline in ``WORD_ORDER`` and folds them as it goes:
4.7 µs per ``dubins_shortest`` against 8.6 µs for the per-word dispatch it
replaced (medians of 16 interleaved rounds in one process over the verify
benchmark's seed-0 pieces, on a shared 2-vCPU Linux VM). ``solve_word``,
``dubins_shortest`` and ``classify_j_type`` read it, and so does the
multipoint DP with one heading per point, which is then a running sum of the
pairs' least totals, added in pair order. With heading grids the
DP runs the formulas on numpy arrays (``_WORDS``), evaluating the pair costs
of many consecutive pairs as one (pairs, S, S) block of at most
``_BLOCK_ELEMENTS`` elements; heading sets of unequal size are padded to S by
repeating their last heading, which changes no minimum. Beyond a scaled
distance d = |pq|/r of 4 (the long-path case of Shkel & Lumelsky) no CCC word
is optimal, so a solve skips RLR and LRL there, and so does each
``_pair_costs`` block whose pairs all have d > 4; ``solve_word`` evaluates
any word it is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import acos, atan2, cos, sin, sqrt
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


def _mod2pi(x):
    """``x`` folded into [0, 2pi) elementwise; a full circle folds to 0."""
    y = x % TWO_PI
    return y * (y < _FOLD_LIMIT)


def _word_args(alpha, beta, d):
    """Arguments of the array word formulas for the scaled parameters."""
    sa, ca, sb, cb = np.sin(alpha), np.cos(alpha), np.sin(beta), np.cos(beta)
    return alpha, beta, d, sa, ca, sb, cb, ca * cb + sa * sb


def _lsl(alpha, beta, d, sa, ca, sb, cb, cab):
    tmp0 = d + sa - sb
    psq = 2.0 + d * d - 2.0 * cab + 2.0 * d * (sa - sb)
    # psq == 0 means coincident turn circles: the maneuver is a single left
    # arc, and the tmp1 split degenerates to atan2(0, 0). Handle it exactly
    # (these are precisely the tangent-to-tangent arc pieces).
    boundary = 1e-12 * (4.0 + d * d)
    degenerate = psq <= boundary
    ok = psq >= -boundary
    tmp1 = np.arctan2(cb - ca, tmp0)
    t = np.where(degenerate, 0.0, _mod2pi(tmp1 - alpha))
    p = np.where(degenerate, 0.0, np.sqrt(np.where(psq > 0.0, psq, 0.0)))
    q = _mod2pi(np.where(degenerate, beta - alpha, beta - tmp1))
    return t, p, q, ok


def _lsr(alpha, beta, d, sa, ca, sb, cb, cab):
    psq = -2.0 + d * d + 2.0 * cab + 2.0 * d * (sa + sb)
    ok = psq >= 0.0
    p = np.sqrt(np.where(ok, psq, 0.0))
    tmp = np.arctan2(-ca - cb, d + sa + sb) - np.arctan2(-2.0, p)
    t = _mod2pi(tmp - alpha)
    q = _mod2pi(tmp - beta)
    return t, p, q, ok


def _rlr(alpha, beta, d, sa, ca, sb, cb, cab):
    tmp = (6.0 - d * d + 2.0 * cab + 2.0 * d * (sa - sb)) / 8.0
    ok = np.abs(tmp) <= 1.0
    p = _mod2pi(TWO_PI - np.arccos(np.clip(tmp, -1.0, 1.0)))
    t = _mod2pi(alpha - np.arctan2(ca - cb, d - sa + sb) + 0.5 * p)
    q = _mod2pi(alpha - beta - t + p)
    return t, p, q, ok


def _mirrored(alpha, beta, d, sa, ca, sb, cb, cab):
    """Word arguments of the problem reflected across the line of travel."""
    return -alpha, -beta, d, -sa, ca, -sb, cb, cab


# The array formula of each word of WORD_ORDER, in that order, with whether
# it reads the mirrored arguments: the reflection turns LSL, LSR and RLR into
# RSR, RSL and LRL.
_WORDS = {
    "LSL": (_lsl, False),
    "RSR": (_lsl, True),
    "LSR": (_lsr, False),
    "RSL": (_lsr, True),
    "RLR": (_rlr, False),
    "LRL": (_rlr, True),
}
# The CSC words of _WORDS, in WORD_ORDER: the only candidates when d > 4.
_LONG_PATH_WORDS = {word: _WORDS[word] for word in WORD_ORDER if word in CSC_WORDS}


def _bearing(p: Point2, q: Point2, r: float) -> tuple[float, float]:
    """Direction of q seen from p and their distance in units of r."""
    dx = q.x - p.x
    dy = q.y - p.y
    return math.atan2(dy, dx), math.hypot(dx, dy) / r


def _scaled_problem(p: Point2, heading_p: float, q: Point2, heading_q: float, r: float) -> tuple:
    """Reduce a pose pair to the scaled problem (alpha, beta, d): both
    headings measured from the bearing of q seen from p, and |pq| / r, with
    ``_bearing``'s operations written inline."""
    dx = q.x - p.x
    dy = q.y - p.y
    theta = math.atan2(dy, dx)
    return (heading_p - theta) % TWO_PI, (heading_q - theta) % TWO_PI, math.hypot(dx, dy) / r


def _solve(alpha: float, beta: float, d: float, r: float, only: Optional[str] = None) -> tuple:
    """Shortest word of the scaled problem as (word, t, p, q, total, least).

    ``word`` is the winner by the tie rule (a later word must be shorter by
    1e-12 after scaling by r), t, p and q its scaled segment lengths and
    ``total`` its length; ``least`` is the exact least length of all words
    evaluated. RLR and LRL are evaluated only where d <= 4, unless ``only``
    names the one word to fold; ``word`` is None when no word folded. RSR,
    RSL and LRL are LSL, LSR and RLR on the reflected problem, written with
    the same floating-point operations.
    """
    sa, ca, sb, cb = sin(alpha), cos(alpha), sin(beta), cos(beta)
    cab2 = 2.0 * (ca * cb + sa * sb)
    dd = d * d
    u = 2.0 * d * (sa - sb)
    word = None
    t = p = q = total = least = math.inf
    # LSL, then RSR. psq is the squared distance of the two turn circles; at
    # 0 within rounding they coincide and the word is a single arc.
    base = 2.0 + dd - cab2
    boundary = 1e-12 * (4.0 + dd)
    psq = base + u
    if psq >= -boundary and (only is None or only == "LSL"):
        if psq <= boundary:
            wt, wp, wq = 0.0, 0.0, (beta - alpha) % TWO_PI
        else:
            tmp1 = atan2(cb - ca, d + sa - sb)
            wt, wp, wq = (tmp1 - alpha) % TWO_PI, sqrt(psq), (beta - tmp1) % TWO_PI
            wt *= wt < _FOLD_LIMIT
        wq *= wq < _FOLD_LIMIT
        total = least = (wt + wp + wq) * r
        word, t, p, q = "LSL", wt, wp, wq
    psq = base - u
    if psq >= -boundary and (only is None or only == "RSR"):
        if psq <= boundary:
            wt, wp, wq = 0.0, 0.0, (alpha - beta) % TWO_PI
        else:
            tmp1 = atan2(cb - ca, d - sa + sb)
            wt, wp, wq = (tmp1 + alpha) % TWO_PI, sqrt(psq), (-beta - tmp1) % TWO_PI
            wt *= wt < _FOLD_LIMIT
        wq *= wq < _FOLD_LIMIT
        wtotal = (wt + wp + wq) * r
        if wtotal < least:
            least = wtotal
        if word is None or wtotal < total - _TIE_EPSILON:
            word, t, p, q, total = "RSR", wt, wp, wq, wtotal
    # LSR, then RSL.
    base = -2.0 + dd + cab2
    s = 2.0 * d * (sa + sb)
    psq = base + s
    if psq >= 0.0 and (only is None or only == "LSR"):
        wp = sqrt(psq)
        tmp = atan2(-ca - cb, d + sa + sb) - atan2(-2.0, wp)
        wt, wq = (tmp - alpha) % TWO_PI, (tmp - beta) % TWO_PI
        wt *= wt < _FOLD_LIMIT
        wq *= wq < _FOLD_LIMIT
        wtotal = (wt + wp + wq) * r
        if wtotal < least:
            least = wtotal
        if word is None or wtotal < total - _TIE_EPSILON:
            word, t, p, q, total = "LSR", wt, wp, wq, wtotal
    psq = base - s
    if psq >= 0.0 and (only is None or only == "RSL"):
        wp = sqrt(psq)
        tmp = atan2(-ca - cb, d - sa - sb) - atan2(-2.0, wp)
        wt, wq = (tmp + alpha) % TWO_PI, (tmp + beta) % TWO_PI
        wt *= wt < _FOLD_LIMIT
        wq *= wq < _FOLD_LIMIT
        wtotal = (wt + wp + wq) * r
        if wtotal < least:
            least = wtotal
        if word is None or wtotal < total - _TIE_EPSILON:
            word, t, p, q, total = "RSL", wt, wp, wq, wtotal
    if d > 4.0 and only is None:
        return word, t, p, q, total, least
    # RLR, then LRL: tmp is the cosine of the middle arc p = 2pi - acos(tmp).
    # On doubles acos is 0 or at least 1.49e-8, so p needs no full-circle fold.
    base = 6.0 - dd + cab2
    tmp = (base + u) / 8.0
    if abs(tmp) <= 1.0 and (only is None or only == "RLR"):
        wp = (TWO_PI - acos(tmp)) % TWO_PI
        wt = (alpha - atan2(ca - cb, d - sa + sb) + 0.5 * wp) % TWO_PI
        wt *= wt < _FOLD_LIMIT
        wq = (alpha - beta - wt + wp) % TWO_PI
        wq *= wq < _FOLD_LIMIT
        wtotal = (wt + wp + wq) * r
        if wtotal < least:
            least = wtotal
        if word is None or wtotal < total - _TIE_EPSILON:
            word, t, p, q, total = "RLR", wt, wp, wq, wtotal
    tmp = (base - u) / 8.0
    if abs(tmp) <= 1.0 and (only is None or only == "LRL"):
        wp = (TWO_PI - acos(tmp)) % TWO_PI
        wt = (-alpha - atan2(ca - cb, d + sa - sb) + 0.5 * wp) % TWO_PI
        wt *= wt < _FOLD_LIMIT
        wq = (beta - alpha - wt + wp) % TWO_PI
        wq *= wq < _FOLD_LIMIT
        wtotal = (wt + wp + wq) * r
        if wtotal < least:
            least = wtotal
        if word is None or wtotal < total - _TIE_EPSILON:
            word, t, p, q, total = "LRL", wt, wp, wq, wtotal
    return word, t, p, q, total, least


def solve_word(word: str, start: Pose, goal: Pose, r: float) -> Optional[DubinsWord]:
    """Evaluate one maneuver class; None when it has no real solution."""
    check_turn_radius(r)
    if word not in WORD_ORDER:
        raise ValueError(f"unknown Dubins word {word!r}; expected one of {', '.join(WORD_ORDER)}")
    problem = _scaled_problem(start.position, start.heading.theta,
                              goal.position, goal.heading.theta, r)
    found, t, p, q, _, _ = _solve(*problem, r, only=word)
    if found is None:
        return None
    lengths = (t * r, p * r, q * r)
    return DubinsWord(word, lengths, sum(lengths))


def dubins_shortest(start: Pose, goal: Pose, r: float) -> DubinsWord:
    """Shortest of the six Dubins words, lengths unscaled by r; only the
    four CSC words are evaluated when the scaled distance exceeds 4.

    Ties within 1e-12 are broken by the fixed word order so differential
    tests stay deterministic.
    """
    check_turn_radius(r)
    problem = _scaled_problem(start.position, start.heading.theta,
                              goal.position, goal.heading.theta, r)
    word, t, p, q, total, _ = _solve(*problem, r)
    assert word is not None  # LSL/RSR always admit a solution
    return DubinsWord(word, (t * r, p * r, q * r), total)


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
    theta, d = map(np.array, zip(*(_bearing(p, q, r) for p, q in zip(points, points[1:]))))
    alpha = np.mod(sets[:-1] - theta[:, None], TWO_PI)[:, :, None]
    beta = np.mod(sets[1:] - theta[:, None], TWO_PI)[:, None, :]
    args = _word_args(alpha, beta, d[:, None, None])
    problems = (args, _mirrored(*args))  # indexed by the mirror flag
    words = _LONG_PATH_WORDS if (d > 4.0).all() else _WORDS
    best = None
    for formula, mirror in words.values():
        t, pl, ql, ok = formula(*problems[mirror])
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
    uniform grid (e.g. singleton sets pin the headings); a non-finite
    heading is refused with the point it belongs to. Refining the grid by
    doubling ``samples_per_angle`` never increases the result.
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
        for k, h in enumerate(headings):
            if not all(map(math.isfinite, h)):
                raise ValueError(f"point {k} has a non-finite heading in {list(map(float, h))}")
        width = max(sizes)
        if width == 1:  # one heading per point: a running sum, in pair order
            cost = 0.0
            pinned = [float(h) for h, in headings]
            for p, q, a, b in zip(pts, pts[1:], pinned, pinned[1:]):
                cost += _solve(*_scaled_problem(p, a, q, b, r), r)[-1]
            return cost
        # Repeating a set's last heading adds duplicate rows and columns,
        # which cannot change any minimum of the DP.
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
