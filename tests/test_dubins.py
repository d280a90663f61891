import math
import random
import struct

import numpy as np
import pytest

from dps import dubins
from dps.geom import Heading, Point2, Pose, dist
from dps.dubins import (
    CSC_WORDS,
    WORD_ORDER,
    DubinsWord,
    classify_j_type,
    dubins_shortest,
    multipoint_bruteforce,
    rollout,
    solve_word,
)
from dps.randgen import random_polyline
from dps.smoother import extract_pieces, path_length, polyline_length, smooth_polyline, vertex_solutions

from conftest import make_triplet, solve_triplet
from dubins_reference import (ARRAY, MIRRORED_WORDS, SCALAR, SIX_WORDS, multipoint_per_pair,
                              pair_cost, reference_shortest, scalar_fold, scalar_running_sum,
                              scalar_shortest, word_args, word_totals)
from dubins_search import dubins_search

P = Point2


def pose(x, y, th):
    return Pose(P(x, y), Heading(th))


def test_all_words_reach_goal_by_rollout(rng):
    for _ in range(2000):
        r = math.exp(rng.uniform(-1.0, 1.5))
        start = pose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))
        goal = pose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))
        for word_name in WORD_ORDER:
            word = solve_word(word_name, start, goal, r)
            if word is None:
                continue
            end = rollout(start, word, r)
            assert dist(end.position, goal.position) <= 1e-8 * max(1.0, r)
            assert abs(math.remainder(end.heading.theta - goal.heading.theta, math.tau)) <= 1e-8
            assert all(l >= 0.0 for l in word.lengths)
            for kind, length in zip(word_name, word.lengths):
                if kind != "S":
                    assert length / r < 2 * math.pi


def test_shortest_straight_line_degenerate():
    word = dubins_shortest(pose(0, 0, 0), pose(4, 0, 0), 1.0)
    assert word.word == "LSL"  # tie with RSR broken by fixed order
    assert word.lengths == (0.0, 4.0, 0.0)
    assert word.total == 4.0


def test_shortest_u_turn_in_place():
    word = dubins_shortest(pose(0, 0, 0), pose(0, 0, math.pi), 1.0)
    assert word.total == pytest.approx(7 * math.pi / 3, rel=1e-12)
    searched = dubins_search((0, 0, 0), (0, 0, math.pi), 1.0)
    assert abs(word.total - searched) <= 1e-6


def test_shortest_matches_search_on_spec_pair():
    word = dubins_shortest(pose(0, 0, 0), pose(2, 2, math.pi / 2), 1.0)
    searched = dubins_search((0, 0, 0), (2, 2, math.pi / 2), 1.0)
    assert abs(word.total - searched) <= 1e-6
    assert word.total <= min(
        w.total for w in
        (solve_word(name, pose(0, 0, 0), pose(2, 2, math.pi / 2), 1.0) for name in WORD_ORDER)
        if w is not None
    )


def test_shortest_never_beaten_by_search(rng):
    for _ in range(150):
        r = math.exp(rng.uniform(-0.7, 1.0))
        s = (rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))
        g = (rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))
        closed = dubins_shortest(pose(*s), pose(*g), r).total
        searched = dubins_search(s, g, r, grid_points=600)
        assert closed <= searched + 1e-6
        assert abs(closed - searched) <= 1e-5  # the refined search also finds the optimum


def test_scaling_invariance(rng):
    for _ in range(500):
        r = math.exp(rng.uniform(-1.0, 1.0))
        s = rng.uniform(0.01, 100.0)
        a = pose(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
        b = pose(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
        base = dubins_shortest(a, b, r)
        scaled = dubins_shortest(
            Pose(P(s * a.position.x, s * a.position.y), a.heading),
            Pose(P(s * b.position.x, s * b.position.y), b.heading),
            s * r,
        )
        assert scaled.total == pytest.approx(s * base.total, rel=1e-9)


def test_classify_j_type_right_angle_piece():
    is_j, word = classify_j_type(pose(0, 0, 0), pose(4, 1, math.pi / 2), 1.0)
    assert is_j
    assert word.lengths[0] <= 1e-9
    assert word.lengths[1] == pytest.approx(3.0, rel=1e-12)
    assert word.lengths[2] == pytest.approx(math.pi / 2, rel=1e-12)


def test_classify_j_type_straight():
    is_j, word = classify_j_type(pose(0, 0, 0), pose(5, 0, 0), 1.0)
    assert is_j
    assert word.lengths[2] == 0.0


def test_classify_j_type_goal_behind():
    is_j, word = classify_j_type(pose(0, 0, 0), pose(-6, 0.5, 0), 1.0)
    assert not is_j
    assert word.lengths[0] > 1e-9


def test_piece_lengths_match_oracle_small(rng):
    for _ in range(30):
        polyline = random_polyline(rng.randint(3, 10), 1.0, rng=rng)
        for piece in extract_pieces(polyline, 1.0):
            word = dubins_shortest(piece.start, piece.end, 1.0)
            assert word.total == pytest.approx(piece.length, rel=1e-9)
            is_j, _ = classify_j_type(piece.start, piece.end, 1.0)
            assert is_j


def test_straight_segment_length_identity_standard_setting(rng):
    # In the scaled standard frame (start at the origin, exit tangent point
    # on the positive x-axis, left turn, unit radius), the straight piece
    # of a turn sub-path has length D*cos(theta_i) - sin(theta_m - theta_i)
    # where D is the start-to-exit distance. Right turns are mirrored into
    # the left-turn frame first.
    for _ in range(2000):
        r = rng.uniform(0.2, 3.0)
        p_i, p_m, p_f, _alpha = make_triplet(rng, r)
        sol = solve_triplet(p_i, p_m, p_f, r)
        if sol is None:
            continue
        if sol.sweep < 0.0:
            p_i, p_m, p_f = (P(p.x, -p.y) for p in (p_i, p_m, p_f))
            sol = solve_triplet(p_i, p_m, p_f, r)
        scale = 1.0 / r
        pi_s = P(p_i.x * scale, p_i.y * scale)
        q1_s = P(sol.q1.x * scale, sol.q1.y * scale)
        q2_s = P(sol.q2.x * scale, sol.q2.y * scale)
        theta_i = math.atan2(p_m.y - p_i.y, p_m.x - p_i.x)
        theta_m = math.atan2(p_f.y - p_m.y, p_f.x - p_m.x)
        frame = math.atan2(q2_s.y - pi_s.y, q2_s.x - pi_s.x)
        big_d = dist(pi_s, q2_s)
        ell2 = big_d * math.cos(theta_i - frame) - math.sin(theta_m - theta_i)
        assert ell2 == pytest.approx(dist(pi_s, q1_s), abs=1e-9)


def test_multipoint_two_points_free_headings():
    # collinear placement with free endpoint headings: the straight line wins
    total = multipoint_bruteforce([P(0, 0), P(5, 0)], 1.0, 8)
    assert total == pytest.approx(5.0, abs=1e-12)


def test_multipoint_monotone_under_doubling():
    polyline = random_polyline(6, 1.0, seed=3)
    prev = math.inf
    for samples in (8, 16, 32, 64):
        value = multipoint_bruteforce(polyline.points, 1.0, samples)
        assert value <= prev + 1e-12
        prev = value


def test_multipoint_at_least_euclidean():
    polyline = random_polyline(8, 1.0, seed=10)
    total = multipoint_bruteforce(polyline.points, 1.0, 24)
    assert total >= polyline_length(polyline) - 1e-9


def test_multipoint_singleton_headings_reproduce_path(rng):
    polyline = random_polyline(40, 1.0, rng=rng)
    length = path_length(smooth_polyline(polyline, 1.0))
    points, headings = dps_tangent_configurations(polyline, 1.0)
    total = multipoint_bruteforce(points, 1.0, 4, headings=headings)
    assert total == pytest.approx(length, rel=1e-9)


def dps_tangent_configurations(polyline, r):
    """Tangent-point sequence and the (singleton) heading set each one has
    on the smoothed path."""
    pts = polyline.points
    sols = vertex_solutions(polyline, r)
    config_points = [pts[0]]
    config_headings = []
    heading = None
    for j in range(1, len(pts) - 1):
        sol = sols[j - 1]
        if sol is None:
            continue
        if heading is None:
            heading = math.atan2(pts[j].y - pts[0].y, pts[j].x - pts[0].x)
            config_headings.append([heading])
        outgoing = math.atan2(pts[j + 1].y - pts[j].y, pts[j + 1].x - pts[j].x)
        config_points.append(sol.q1)
        config_headings.append([heading])
        config_points.append(sol.q2)
        config_headings.append([outgoing])
        heading = outgoing
    if heading is None:
        heading = math.atan2(pts[-1].y - pts[0].y, pts[-1].x - pts[0].x)
        config_headings.append([heading])
    config_points.append(pts[-1])
    config_headings.append([heading])
    return config_points, config_headings


def test_multipoint_validation_errors():
    for args in (
        ([P(0, 0)], 1.0, 8),
        ([P(0, 0), P(1, 0)], 1.0, 3),
        ([P(0, 0), P(1, 0)], 1.0, 8, [[0.0]]),
        ([P(0, 0), P(1, 0)], 1.0, 8, [[0.0], []]),
        ([P(0, 0), P(1, 0)], 0.0, 8),
        ([P(0, 0), P(1, 0)], math.inf, 8),
    ):
        with pytest.raises(ValueError) as blocked:
            multipoint_bruteforce(*args)
        with pytest.raises(ValueError) as per_pair:
            multipoint_per_pair(*args)
        assert str(blocked.value) == str(per_pair.value)


@pytest.mark.parametrize("samples, r", [(4, 1.0), (8, 0.5), (36, 2.0)])
def test_multipoint_grid_matches_per_pair_reference(samples, r):
    # Long enough for the pair costs to span three blocks.
    n = 2 * (dubins._BLOCK_ELEMENTS // (samples * samples)) + 3
    points = random_polyline(n, r, seed=samples).points
    assert multipoint_bruteforce(points, r, samples) == multipoint_per_pair(points, r, samples)


def test_multipoint_pinned_matches_per_pair_reference(rng):
    for _ in range(5):
        polyline = random_polyline(rng.randint(3, 60), 1.0, rng=rng)
        points, headings = dps_tangent_configurations(polyline, 1.0)
        expected = multipoint_per_pair(points, 1.0, 4, headings=headings)
        assert multipoint_bruteforce(points, 1.0, 4, headings=headings) == expected


def test_multipoint_mixed_heading_sets_match_per_pair_reference(rng):
    # Sets of 1..12 headings; the padded width is 12, so 1200 points span
    # three blocks. Sets may repeat a heading, as padding does.
    for n, r in ((2, 1.0), (7, 0.6), (1200, 1.0)):
        points = random_polyline(n, r, rng=rng).points
        headings = [[rng.uniform(-math.pi, math.pi) for _ in range(rng.randint(1, 12))]
                    for _ in range(n)]
        headings[rng.randrange(n)] = [0.5] * 3 + [rng.uniform(-3, 3) for _ in range(9)]
        expected = multipoint_per_pair(points, r, 4, headings=headings)
        assert multipoint_bruteforce(points, r, 4, headings=headings) == expected
        # the same sets as numpy arrays and as tuples read the same values
        for kind in (np.array, tuple):
            same = [kind(h) for h in headings]
            assert multipoint_bruteforce(points, r, 4, headings=same) == expected


def _degenerate_pairs(rng):
    """Pose pairs on the boundaries of the word formulas, by family."""
    for _ in range(60):
        r = math.exp(rng.uniform(-1.0, 1.5))
        x, y = rng.uniform(-10, 10), rng.uniform(-10, 10)
        h = rng.uniform(-math.pi, math.pi)
        start = pose(x, y, h)
        yield "coincident", start, pose(x, y, rng.uniform(-math.pi, math.pi)), r
        length = rng.uniform(0.01, 20.0)
        yield "straight", start, pose(x + length * math.cos(h), y + length * math.sin(h), h), r
        yield "u-turn", start, pose(x, y, h + math.pi), r
        for first in "LR":
            # A single arc has coincident turn circles (psq = 0); moving the
            # goal off the circle by delta*r gives psq ~ delta^2 around the
            # 1e-12*(4 + d^2) boundary.
            sweep = rng.uniform(0.01, 2 * math.pi - 0.01)
            arc = rollout(start, DubinsWord(first + "SL", (sweep * r, 0.0, 0.0), 0.0), r)
            boundary = 1e-12 * (4.0 + (dist(start.position, arc.position) / r) ** 2)
            for k in (0.0, 0.25, 0.81, 0.99, 1.01, 1.21, 4.0):
                offset = math.sqrt(k * boundary) * r
                normal = arc.heading.theta + math.pi / 2
                yield "circles", start, pose(arc.position.x + offset * math.cos(normal),
                                             arc.position.y + offset * math.sin(normal),
                                             arc.heading.theta), r
        for word in ("RLR", "LRL"):
            # Middle arcs of pi and 2*pi put the word's tmp at -1 and 1.
            for middle in (math.pi, math.pi + 1e-7, math.pi + 1e-4,
                           2 * math.pi - 1e-4, 2 * math.pi - 1e-7):
                lengths = (rng.uniform(0, 2 * math.pi) * r, middle * r,
                           rng.uniform(0, 2 * math.pi) * r)
                yield "tmp near 1", start, rollout(start, DubinsWord(word, lengths, 0.0), r), r


def test_math_backend_matches_per_pair_reference(rng):
    cases = []
    for _ in range(5000):
        r = math.exp(rng.uniform(-1.0, 1.5))
        start = pose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))
        goal = pose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))
        cases.append(("random", start, goal, r))
    cases.extend(_degenerate_pairs(rng))
    assert {case[0] for case in cases} == {
        "random", "coincident", "straight", "u-turn", "circles", "tmp near 1"}
    for family, start, goal, r in cases:
        word = dubins_shortest(start, goal, r)
        name, total = reference_shortest(start, goal, r)
        assert word.word == name, family
        assert word.total == pytest.approx(total, rel=1e-12, abs=0.0), family
        for name, expected in word_totals(start, goal, r).items():
            solved = solve_word(name, start, goal, r)
            # Only on a boundary may a word exist in one backend alone.
            if family == "random":
                assert (solved is None) == (expected is None)
            if solved is not None and expected is not None:
                assert solved.total == pytest.approx(expected, rel=1e-12, abs=0.0), family


def _scaled_problems(rng, n):
    """n seeded random scaled problems (alpha, beta, d), with d = 0 and
    U-turns among them; n // 50 nearly straight ones, headings within 1e-12
    of the line of travel, where LSL and RSR tie within 1e-12; then the
    boundary families of ``_degenerate_pairs`` reduced by the solver."""
    problems = []
    for i in range(n):
        alpha = rng.uniform(0.0, 2 * math.pi)
        beta = (alpha + math.pi) % (2 * math.pi) if i % 10 == 0 else rng.uniform(0.0, 2 * math.pi)
        d = (0.0, rng.uniform(0.0, 4.5), rng.expovariate(0.2))[i % 3]
        problems.append((alpha, beta, d))
    for _ in range(n // 50):
        alpha, beta = (rng.uniform(-1e-12, 1e-12) % (2 * math.pi) for _ in range(2))
        problems.append((alpha, beta, rng.uniform(0.1, 10.0)))
    for _, start, goal, r in _degenerate_pairs(rng):
        problems.append(dubins._scaled_problem(start.position, start.heading.theta,
                                               goal.position, goal.heading.theta, r))
    return problems


def _at_zero(word, ca, cb):
    """Whether RSR's atan2 argument ca - cb (RSL's ca + cb) is an exact zero."""
    return {"RSR": ca == cb, "RSL": ca == -cb}.get(word, False)


def test_mirrored_words_bit_equal_to_six_formulas(rng):
    # RSR, RSL and LRL run as LSL, LSR and RLR on the reflected problem, in
    # the scalar routine _solve and in the array formulas of _WORDS. The
    # reflection negates alpha, beta and the sines exactly, and it negates
    # RSR's atan2 argument ca - cb (RSL's ca + cb) everywhere but at zero:
    # x - x is +0.0 in either order, so there atan2 may give pi for -pi and t
    # or q come out of the fold an ulp apart. Those points need the same ok
    # and values within 1e-12; every other value must be bit-equal.
    problems = _scaled_problems(rng, 100_000)
    scalar_args = [word_args(SCALAR, *problem) for problem in problems]
    for word in WORD_ORDER:
        reference = SIX_WORDS[word][0]
        zero = [_at_zero(word, args[4], args[6]) for args in scalar_args]
        assert sum(zero) <= 0.05 * len(problems)
        for problem, args, at_zero in zip(problems, scalar_args, zero):
            found, *got = dubins._solve(*problem, 1.0, only=word)[:4]
            expected = reference(SCALAR, *args)
            assert (found == word) == expected[3], word
            if found is None:
                continue
            if at_zero:
                assert all(abs(x - y) <= 1e-12 for x, y in zip(got, expected[:3])), word
            else:
                assert struct.pack("<3d", *got) == struct.pack("<3d", *expected[:3]), word
    # The fold itself, on the solver's reading of the six words, where the
    # zeros are the same: the tie-rule winner with its lengths and total, and
    # the least total, at a few radii, since the tie rule reads scaled totals.
    for i, problem in enumerate(problems):
        r = (1.0, 0.3, 7.0)[i % 3]
        got, expected = dubins._solve(*problem, r), scalar_fold(problem, r, MIRRORED_WORDS)
        assert got[0] == expected[0]
        assert struct.pack("<5d", *got[1:]) == struct.pack("<5d", *expected[1:])
    # The array formulas, on the same problems as columns.
    columns = dubins._word_args(*map(np.array, zip(*problems)))
    ca, cb = columns[4], columns[6]
    for word in WORD_ORDER:
        formula, mirror = dubins._WORDS[word]
        zero = _at_zero(word, ca, cb) if word in ("RSR", "RSL") else np.zeros(len(problems), bool)
        got = formula(*(dubins._mirrored(*columns) if mirror else columns))
        expected = SIX_WORDS[word][0](ARRAY, *columns)
        assert got[3].tobytes() == expected[3].tobytes(), word
        for x, y in zip(got[:3], expected[:3]):
            assert x[~zero].tobytes() == y[~zero].tobytes(), word
            assert np.all(np.abs(x[zero] - y[zero]) <= 1e-12), word


@pytest.mark.parametrize("samples", [4, 36, 360])
def test_multipoint_grid_bit_equal_to_six_formulas(samples):
    n = 2 * (dubins._BLOCK_ELEMENTS // (samples * samples)) + 3 if samples < 360 else 6
    points = random_polyline(n, 1.0, seed=samples).points
    expected = multipoint_per_pair(points, 1.0, samples, words=SIX_WORDS)
    assert multipoint_bruteforce(points, 1.0, samples) == expected


def test_multipoint_pinned_bit_equal_to_six_formulas(rng):
    polyline = random_polyline(41, 1.0, rng=rng)
    points, headings = dps_tangent_configurations(polyline, 1.0)
    expected = multipoint_per_pair(points, 1.0, 4, headings=headings, words=SIX_WORDS)
    assert multipoint_bruteforce(points, 1.0, 4, headings=headings) == expected


def test_word_value_contract():
    word = DubinsWord("LSL", (1.0, 2.0, 3.0), 6.0)
    assert word.total == sum(word.lengths)
    assert set(WORD_ORDER) == CSC_WORDS | {"RLR", "LRL"}
    assert tuple(dubins._WORDS) == WORD_ORDER  # the solver's tie order


def test_solve_word_refuses_an_unknown_word():
    with pytest.raises(ValueError, match="'lsl'; expected one of LSL, RSR, LSR, RSL, RLR, LRL"):
        solve_word("lsl", pose(0, 0, 0), pose(5, 0, 0), 1.0)


# Scaled distances on both sides of the long-path threshold d = 4.
_NEAR_FOUR = sorted({4.0, math.nextafter(4.0, math.inf), math.nextafter(4.0, -math.inf),
                     *(4.0 * (1.0 + sign * 2.0 ** -k) for k in (1, 2, 3, 5, 8, 13, 21, 34, 52)
                       for sign in (1.0, -1.0))})


def _near_four_pairs():
    """(d, start, goal, r) at each d of _NEAR_FOUR, with both headings near
    pi/2 or 3pi/2, where CCC words are optimal just inside d = 4. The goal
    lies on the x-axis d*r from the origin, so the solver reads d exactly;
    the offsets never make the two headings' cosines equal or opposite."""
    for i, d in enumerate(_NEAR_FOUR):
        r = (1.0, 0.5, 2.0)[i % 3]
        for scale in (0.5, 2.0):
            step = scale * max(math.sqrt(abs(d - 4.0) / 4.0), 1e-8)
            for base in (math.pi / 2, 3 * math.pi / 2):
                for u in (-1.0, -0.55, -0.2, 0.1, 0.35, 0.7):
                    for v in (-0.9, -0.4, -0.05, 0.25, 0.6, 0.95):
                        yield d, pose(0, 0, base + u * step), pose(d * r, 0, base + v * step), r


def test_long_path_pruning_bit_equal_to_six_formulas_near_four():
    words_inside = set()
    for d, start, goal, r in _near_four_pairs():
        word = dubins_shortest(start, goal, r)
        expected = scalar_shortest(start, goal, r, words=SIX_WORDS)
        assert word.word == expected.word, d
        assert struct.pack("<4d", *word.lengths, word.total) == \
            struct.pack("<4d", *expected.lengths, expected.total), d
        assert classify_j_type(start, goal, r)[1] == word
        if d > 4.0:
            assert word.word in CSC_WORDS
        else:
            words_inside.add(word.word)
    # CCC words still win on this side of the threshold, down to one ulp below 4.
    assert {"RLR", "LRL"} <= words_inside


def test_short_pair_still_returns_an_optimal_ccc_word():
    # d = 3.984375, both headings 0.02 rad off the normal of the line of travel.
    start, goal = (0.0, 0.0, math.pi / 2 + 0.02), (3.984375, 0.0, math.pi / 2 - 0.02)
    word = dubins_shortest(pose(*start), pose(*goal), 1.0)
    assert word.word == "LRL"
    assert word == scalar_shortest(pose(*start), pose(*goal), 1.0, words=SIX_WORDS)
    assert abs(word.total - dubins_search(start, goal, 1.0)) <= 1e-6
    csc = [solve_word(name, pose(*start), pose(*goal), 1.0) for name in CSC_WORDS]
    assert word.total < min(w.total for w in csc if w is not None) - 1e-3


def test_long_path_case_evaluates_no_ccc_formula(monkeypatch):
    def refuse(*args):
        raise AssertionError("CCC formula evaluated")

    # The scalar routine calls acos only in RLR and LRL, and with these
    # headings RLR has a solution at d = 4 (its tmp is about -0.996), so acos
    # runs whenever the CCC words are evaluated.
    monkeypatch.setattr(dubins, "acos", refuse)
    monkeypatch.setitem(dubins._WORDS, "RLR", (refuse, False))
    monkeypatch.setitem(dubins._WORDS, "LRL", (refuse, True))
    above = math.nextafter(4.0, math.inf)
    h0, h1 = math.pi / 2 - 0.1, math.pi / 2 + 0.2
    sets = np.zeros((3, 360))
    dubins_shortest(pose(0, 0, h0), pose(above, 0, h1), 1.0)
    multipoint_bruteforce([P(0, 0), P(above, 0), P(0, 0)], 1.0, 4,
                          headings=[[h0], [h1], [h0]])
    dubins._pair_costs([P(0, 0), P(above, 0), P(0, 0)], sets, 1.0)
    with pytest.raises(AssertionError, match="CCC formula evaluated"):
        dubins_shortest(pose(0, 0, h0), pose(4.0, 0, h1), 1.0)
    # A singleton DP evaluates them for each pair at d <= 4 on its own.
    with pytest.raises(AssertionError, match="CCC formula evaluated"):
        multipoint_bruteforce([P(0, 0), P(above, 0), P(above, 4.0)], 1.0, 4,
                              headings=[[h0], [h1], [h0]])
    # solve_word evaluates any word it is asked for.
    with pytest.raises(AssertionError, match="CCC formula evaluated"):
        solve_word("RLR", pose(0, 0, h0), pose(above, 0, h1), 1.0)
    # One pair at d = 4 makes the whole block evaluate all six words.
    with pytest.raises(AssertionError, match="CCC formula evaluated"):
        dubins._pair_costs([P(0, 0), P(above, 0), P(above, 4.0)], sets, 1.0)


@pytest.mark.parametrize("d", [3.984375, 4.0, math.nextafter(4.0, math.inf), 4.0 * (1.0 + 2.0 ** -30),
                               4.0 * (1.0 + 2.0 ** -10), 4.5],
                         ids=["4-2^-6", "4", "4+ulp", "4+2^-28", "4+2^-8", "4.5"])
def test_blocks_near_four_bit_equal_to_six_formulas(d):
    # At 360 headings a block holds one pair. Going back and forth along the
    # x-axis keeps d exact and turns the line of travel by pi. Below d = 4
    # CCC words are the minimum in some elements of each block.
    r = 0.5
    points = [P(0, 0), P(d * r, 0), P(0, 0)]
    grid = np.arange(360) * (dubins.TWO_PI / 360)
    for k in range(2):
        block = dubins._pair_costs(points[k:k + 2], np.tile(grid, (2, 1)), r)[0]
        expected = pair_cost(points[k], points[k + 1], grid, grid, r, words=SIX_WORDS)
        assert block.tobytes() == expected.tobytes()
    expected = multipoint_per_pair(points, r, 360, words=SIX_WORDS)
    assert multipoint_bruteforce(points, r, 360) == expected


@pytest.mark.parametrize("n, block_elements", [(2, 1 << 16), (1000, 1 << 16), (1000, 64)])
def test_multipoint_singletons_bit_equal_to_per_pair_reference(n, block_elements, monkeypatch):
    # Pinned headings make the DP a running sum of the scalar routine's least
    # totals, which no block size changes. It starts with pairs at d = 4 and
    # d = 4 + 1 ulp along the x-axis, so d is exact, with headings near the
    # normal of the line of travel; then points 0.1 to 12 apart put pairs on
    # both sides of d = 4.
    monkeypatch.setattr(dubins, "_BLOCK_ELEMENTS", block_elements)
    rng = random.Random(n)
    h0, h1 = math.pi / 2 - 0.1, math.pi / 2 + 0.2
    points = [P(0.0, 0.0), P(4.0, 0.0), P(0.0, 0.0), P(math.nextafter(4.0, math.inf), 0.0)][:n]
    headings = [[h0], [h1], [h0], [h1]][:n]
    while len(points) < n:
        step, turn = rng.uniform(0.1, 12.0), rng.uniform(-math.pi, math.pi)
        points.append(P(points[-1].x + step * math.cos(turn), points[-1].y + step * math.sin(turn)))
        headings.append([rng.uniform(-math.pi, math.pi)])
    expected = scalar_running_sum(points, [h for h, in headings], 1.0, words=SIX_WORDS)
    assert multipoint_bruteforce(points, 1.0, 4, headings=headings) == expected


@pytest.mark.parametrize("headings", [
    [[0.0], [math.nan], [1.0]],
    [[0.0], [1.0], [math.inf]],
    [[0.0, 1.0], [2.0, math.nan, 3.0], [1.0]],
    [[0.0, 1.0], [2.0, 3.0], [-math.inf]],
], ids=["nan-singleton", "inf-singleton", "nan-in-a-grid-set", "-inf-beside-a-grid"])
def test_multipoint_refuses_a_non_finite_heading(headings, monkeypatch):
    def refuse(*args):
        raise AssertionError("pair solved")

    monkeypatch.setattr(dubins, "_solve", refuse)
    monkeypatch.setattr(dubins, "_pair_costs", refuse)
    k = next(i for i, h in enumerate(headings) if not all(map(math.isfinite, h)))
    with pytest.raises(ValueError, match=rf"^point {k} has a non-finite heading in \[") as refused:
        multipoint_bruteforce([P(0, 0), P(3, 0), P(3, 3)], 1.0, 4, headings=headings)
    assert str(headings[k]) in str(refused.value)
