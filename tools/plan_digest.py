"""Digest of plan() results on the plan_stream scenarios, and per-stage means.

Draws the scenarios of the benchmark's plan_stream workload (2,000 per seed,
``perfbench.workloads.PlanStream.setup``), plans each one as the workload's
op does, and prints a sha256 over the results with the counts by outcome.
A planned scenario contributes its route, the path's ``kind`` and ``data``
bytes, the clearance, the length, ``clearance_ok``, the offsets and the
inflated polygons' ``xs`` and ``ys``; a refused one its error type and
message. Two checkouts that print the same digest plan the same routes, bit
for bit.

    python3 tools/plan_digest.py                      # seeds 10-15
    python3 tools/plan_digest.py --src /path/to/other/checkout/src --seeds 10-15
    python3 tools/plan_digest.py --stages --seeds 1 --rounds 3

``--stages`` instead plans the planned scenarios again with the planner
functions that ``plan()`` calls wrapped, as module attributes, by
perfbench's ``Tracer`` and ``Target`` and prints the mean time per plan in
µs spent in each stage (inflate, graph, A*, smooth, clearance, and a whole
unwrapped ``plan()`` timed apart), the best of ``--rounds`` rounds, and the
mean edge-test counts per plan: node pairs tested, blocking clips
(``_segment_blocked`` calls), pairs a clip blocked, and edges found.
Supporting lines are the edges found plus the blocked pairs. A* tests the
pairs whose labels it pops, so their cost is in its time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _seeds(text: str) -> list[int]:
    """'10-15' or '1,4,7' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _scenarios(seeds):
    from perfbench.workloads import FULL, PlanStream

    for seed in seeds:
        yield from PlanStream().setup(seed, None, FULL)


def digest(seeds) -> dict:
    from perfbench.workloads import PlanStream, Refusal

    op = PlanStream().op
    sha = hashlib.sha256()
    counts = {}
    for scenario in _scenarios(seeds):
        out = op(scenario)
        if isinstance(out, Refusal):
            kind = out.kind
            sha.update(f"{type(out.error).__name__}: {out.error}\n".encode())
        else:
            kind = "planned"
            for array in (out.polyline.xy, out.path.kind, out.path.data):
                sha.update(array.tobytes())
            sha.update(struct.pack("<2d?", out.clearance, out.length, out.clearance_ok))
            sha.update(struct.pack(f"<{len(out.offsets)}d", *out.offsets))
            for poly in out.inflated:
                sha.update(struct.pack(f"<{2 * len(poly.xs)}d", *poly.xs, *poly.ys))
        counts[kind] = counts.get(kind, 0) + 1
    return {"seeds": f"{min(seeds)}-{max(seeds)}", "scenarios": sum(counts.values()),
            "sha256": sha.hexdigest(), "counts": dict(sorted(counts.items()))}


# The planner functions each stage of plan() calls, by module attribute.
_STAGES = {"inflate": ("_corners", "_worst_offset", "mitered_inflate"),
           "graph": ("build_visibility_graph",), "astar": ("shortest_polyline",),
           "smooth": ("smooth_polyline",), "clearance": ("clearance",)}


def stages(seeds, rounds: int) -> dict:
    from dps import planner, smoother
    from perfbench.tracer import Target, Tracer

    planned = []
    for scenario in _scenarios(seeds):
        try:
            planner.plan(scenario)
        except (planner.NoPathError, smoother.FeasibilityError):
            continue
        planned.append(scenario)

    # Edge tests: one "clip" span per blocking clip, and the graph of each
    # plan, whose ``known`` pairs A* has tested by the time plan() returns.
    pairs = edges = 0
    graphs = []
    counted = Tracer()
    with counted.installed([
            Target(planner, "_segment_blocked", "clip", lambda t, a, k, hit: t.add("blocked", hit)),
            Target(planner, "build_visibility_graph", "graph", lambda t, a, k, g: graphs.append(g))]):
        for scenario in planned:
            planner.plan(scenario)
            known = graphs.pop().known
            pairs += len(known)
            edges += sum(w < float("inf") for w in known.values())
    clips = sum(span.name == "clip" for span in counted.spans)

    best = dict.fromkeys((*_STAGES, "plan"), float("inf"))
    for _ in range(rounds):
        timed = Tracer()
        with timed.installed([Target(planner, name, stage)
                              for stage, names in _STAGES.items() for name in names]):
            for scenario in planned:
                planner.plan(scenario)
        sums = dict.fromkeys(best, 0.0)
        for span in timed.spans:
            sums[span.name] += span.duration
        for scenario in planned:
            t0 = time.perf_counter()
            planner.plan(scenario)
            sums["plan"] += time.perf_counter() - t0
        best = {k: min(best[k], sums[k]) for k in best}
    k = len(planned)
    return {"seeds": f"{min(seeds)}-{max(seeds)}", "planned": k, "rounds": rounds,
            "stage_us": {name: round(t / k * 1e6, 1) for name, t in best.items()},
            "per_plan": {"pairs_tested": round(pairs / k, 2), "blocking_clips": round(clips / k, 2),
                         "blocked_pairs": round(counted.counts["blocked"] / k, 2),
                         "edges_found": round(edges / k, 2)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="src directory of the checkout to run")
    parser.add_argument("--seeds", default=None, help="e.g. 10-15 or 1,3 (default 10-15, "
                        "with --stages 1)")
    parser.add_argument("--stages", action="store_true")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.abspath(ROOT)]
    seeds = _seeds(args.seeds or ("1" if args.stages else "10-15"))
    print(json.dumps(stages(seeds, args.rounds) if args.stages else digest(seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
