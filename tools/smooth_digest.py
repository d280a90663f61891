"""Digest of the smoother's answers on random feasible and failing polylines.

Draws, per seed from ``random.Random(f"smooth:{seed}")``, 200
``random_polyline`` inputs (feasible by construction) and 200 random walks
(steps of 0.3-4 at uniform headings, mostly with a failing edge). Both
cycle through 3-120 points, so both backends run, each with a turning
radius in 0.2-2. Every input goes through ``feasibility_report``, strict
and best-effort ``smooth_polyline``, ``vertex_solutions`` and
``extract_pieces``, and each of those answers is hashed into a part of its
own: the report's three flag tuples, the two modes' ``kind`` and ``data``
bytes, every field of every triplet solution and path piece, and each
refusal's call, input, type and message. It prints the count of inputs and
of feasible ones, a sha256 over the parts and each part's sha256, so two
checkouts that print the same digest smooth alike, bit for bit, and a
change shows which answers it moved.

    python3 tools/smooth_digest.py                      # seeds 0-4
    python3 tools/smooth_digest.py --src /path/to/other/checkout/src --seeds 0-4
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import struct
import sys

from plan_digest import _seeds

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

PER_KIND = 200  # random_polyline inputs, and as many random walks, per seed


def _inputs(seeds):
    """(polyline, r) pairs: per seed the random_polyline inputs, then the walks."""
    from dps.randgen import random_polyline
    from dps.smoother import Polyline

    for seed in seeds:
        rng = random.Random(f"smooth:{seed}")
        for i in range(PER_KIND):
            r = rng.uniform(0.2, 2.0)
            yield random_polyline(3 + i % 118, r, rng), r
        for i in range(PER_KIND):
            r = rng.uniform(0.2, 2.0)
            x = y = 0.0
            points = [(x, y)]
            for _ in range(2 + i % 118):
                step, heading = rng.uniform(0.3, 4.0), rng.uniform(0.0, 2.0 * math.pi)
                x, y = x + step * math.cos(heading), y + step * math.sin(heading)
                points.append((x, y))
            yield Polyline.from_array(points), r


def _report(report) -> bytes:
    far = b"-" if report.far_ok is None else bytes(report.far_ok)
    return b"|".join((bytes(report.local_ok), bytes(report.global_ok), far))


def _path(path) -> bytes:
    return struct.pack("<q", len(path.kind)) + path.kind.tobytes() + path.data.tobytes()


def _solutions(solutions) -> bytes:
    return b"".join(b"-" if s is None else struct.pack(
        "<11d", s.q1.x, s.q1.y, s.q2.x, s.q2.y, s.center.x, s.center.y, s.l, s.d, s.alpha, s.sweep,
        s.deviation) for s in solutions)


def _pieces(pieces) -> bytes:
    return b"".join(struct.pack(
        "<7d?q", p.start.position.x, p.start.position.y, p.start.heading.theta, p.end.position.x,
        p.end.position.y, p.end.heading.theta, p.length, p.guaranteed,
        -1 if p.vertex is None else p.vertex) for p in pieces)


def digest(seeds) -> dict:
    from dps import smoother

    calls = {
        "report": lambda p, r: _report(smoother.feasibility_report(p, r)),
        "strict": lambda p, r: _path(smoother.smooth_polyline(p, r)),
        "best_effort": lambda p, r: _path(smoother.smooth_polyline(p, r, mode="best-effort")),
        "vertex_solutions": lambda p, r: _solutions(smoother.vertex_solutions(p, r)),
        "extract_pieces": lambda p, r: _pieces(smoother.extract_pieces(p, r)),
    }
    shas = {name: hashlib.sha256() for name in (*calls, "refusals")}
    polylines = feasible = 0
    for index, (polyline, r) in enumerate(_inputs(seeds)):
        polylines += 1
        feasible += smoother.feasibility_report(polyline, r).feasible
        for name, call in calls.items():
            try:
                shas[name].update(call(polyline, r))
            except ValueError as error:
                shas[name].update(b"refused")
                shas["refusals"].update(f"{name} {index} {type(error).__name__}: {error}\n".encode())
    parts = {name: sha.hexdigest() for name, sha in shas.items()}
    total = hashlib.sha256("".join(f"{k}={v}\n" for k, v in parts.items()).encode())
    return {"seeds": f"{min(seeds)}-{max(seeds)}", "polylines": polylines, "feasible": feasible,
            "sha256": total.hexdigest(), "parts": parts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="src directory of the checkout to run")
    parser.add_argument("--seeds", default="0-4", help="e.g. 0-4 or 1,3 (default 0-4)")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.abspath(ROOT)]
    print(json.dumps(digest(_seeds(args.seeds))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
