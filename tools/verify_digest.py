"""Digest of the verify workload's answers, and per-stage means of its op.

Draws the polylines of the benchmark's verify workload (190 per seed,
``perfbench.workloads.Verify.setup``), runs each through the workload's op
(``extract_pieces``, then ``dubins_shortest`` and ``classify_j_type`` per
piece, then the multipoint DP pinned at the tangent configurations) and
prints a sha256 over every word's name, lengths and total and every pinned
value, with the op and piece counts. Two checkouts that print the same
digest give the same answers, bit for bit.

    python3 tools/verify_digest.py                      # seeds 0-4
    python3 tools/verify_digest.py --src /path/to/other/checkout/src --seeds 0-4
    python3 tools/verify_digest.py --stages --seeds 0 --rounds 5

``--stages`` instead times the op's stages over one pass of the seed's
polylines and prints the mean ms per op of each, the best of ``--rounds``
rounds: ``extract_pieces``, all ``dubins_shortest`` calls, all
``classify_j_type`` calls and the pinned DP (``pinned_configurations`` and
``multipoint_bruteforce``), which add up to the op, and the whole op timed
apart; plus the mean µs per ``dubins_shortest`` call, and how many pieces
and pinned pairs there are and how many of each have a scaled distance
above 4.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import struct
import sys
import time

from plan_digest import _seeds

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _polylines(seeds):
    from perfbench.workloads import FULL, Verify

    for seed in seeds:
        yield from Verify().setup(seed, None, FULL)


def digest(seeds) -> dict:
    from perfbench.workloads import Verify

    op = Verify().op
    sha = hashlib.sha256()
    ops = pieces = 0
    for polyline in _polylines(seeds):
        out = op(polyline)
        for word in out.words:
            sha.update(word.word.encode() + struct.pack("<4d", *word.lengths, word.total))
        sha.update(struct.pack("<d", out.pinned))
        ops += 1
        pieces += len(out.pieces)
    return {"seeds": f"{min(seeds)}-{max(seeds)}", "ops": ops, "pieces": pieces,
            "sha256": sha.hexdigest()}


def stages(seeds, rounds: int) -> dict:
    from dps import dubins, smoother
    from dps.geom import dist
    from perfbench.workloads import R, Verify, pinned_configurations

    op = Verify().op
    work = []
    for polyline in _polylines(seeds):
        pieces = smoother.extract_pieces(polyline, R)
        work.append((polyline, pieces, pinned_configurations(pieces, R) if pieces else None))
    clock = time.perf_counter
    names = ("extract_pieces", "dubins_shortest", "classify_j_type", "pinned_dp", "op")
    best = dict.fromkeys(names, math.inf)
    for _ in range(rounds):
        sums = dict.fromkeys(best, 0.0)
        for polyline, _, _ in work:
            times = [clock()]
            pieces = smoother.extract_pieces(polyline, R)
            times.append(clock())
            for piece in pieces:
                dubins.dubins_shortest(piece.start, piece.end, R)
            times.append(clock())
            for piece in pieces:
                dubins.classify_j_type(piece.start, piece.end, R)
            times.append(clock())
            if pieces:
                points, headings = pinned_configurations(pieces, R)
                dubins.multipoint_bruteforce(points, R, 4, headings=headings)
            times.append(clock())
            op(polyline)
            times.append(clock())
            for name, t0, t1 in zip(names, times, times[1:]):
                sums[name] += t1 - t0
        best = {k: min(best[k], sums[k]) for k in best}
    # Scaled distances of the pieces' end points and of consecutive pinned points.
    pieces_d = [dist(p.start.position, p.end.position) / R for _, pieces, _ in work for p in pieces]
    pinned_d = [dist(a, b) / R for _, _, pinned in work if pinned
                for a, b in zip(pinned[0], pinned[0][1:])]
    return {"seeds": f"{min(seeds)}-{max(seeds)}", "ops": len(work), "rounds": rounds,
            "stage_ms_per_op": {k: round(t / len(work) * 1e3, 4) for k, t in best.items()},
            "us_per_dubins_shortest": round(best["dubins_shortest"] / len(pieces_d) * 1e6, 2),
            "pieces": len(pieces_d), "pieces_beyond_4r": sum(d > 4.0 for d in pieces_d),
            "pinned_pairs": len(pinned_d), "pinned_pairs_beyond_4r": sum(d > 4.0 for d in pinned_d)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="src directory of the checkout to run")
    parser.add_argument("--seeds", default=None, help="e.g. 0-4 or 1,3 (default 0-4, "
                        "with --stages 0)")
    parser.add_argument("--stages", action="store_true")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.abspath(ROOT)]
    seeds = _seeds(args.seeds or ("0" if args.stages else "0-4"))
    print(json.dumps(stages(seeds, args.rounds) if args.stages else digest(seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
