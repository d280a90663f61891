"""Time this checkout against another revision with the benchmark, in
alternating pairs, and write the runs and a verdict per metric as one JSON file.

    python3 tools/ab.py --against HEAD~1 --workload verify --pairs 10 --out BENCH.json
    python3 tools/ab.py --against main --workload plan_stream --seed 40 --seconds 20

The other revision is checked out with ``git worktree add --detach`` into a
temporary directory (under ``$TMPDIR``), and ``python -m compileall`` runs on
the ``src`` and ``perfbench`` directories of both trees, so that neither side
pays for compiling its imports. Pair k runs each tree's own
``perfbench/run.py --workload W --seed S+k --seconds T --trace 0`` once;
which side runs first alternates from pair to pair, the other revision first
in pair 0. The worktree is removed when the tool finishes.

The JSON file holds both revisions (this checkout's HEAD, with a flag for
changes to ``src`` that HEAD did not hold when the runs began), the Python,
numpy and orjson versions, the CPU count, every pair's end-to-end metrics
and op counts, and per metric both sides' medians and quartiles (inclusive
method). Each metric that ``BENCHMARK.json`` lists gets a verdict, the
change read against the other revision ("parent"):

- ``gain``: the change is better in at least 90 % of at least 10 pairs, and
  its median beats the parent's by more than the parent's quartile spread;
- ``worse than bound``: the change's median is worse than the parent's by
  more than the metric's relative bound;
- ``unresolved``: anything else.

``--smoke`` passes ``--smoke`` (tiny inputs) to both runs. The exit code is
0 when every run finished with correct answers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("long_route", "plan_stream", "verify")
SIDES = ("parent", "change")
GAIN_SHARE = 0.9
GAIN_MIN_PAIRS = 10


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", "-C", str(cwd), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def _versions() -> dict:
    import numpy
    import orjson

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "orjson": orjson.__version__}


def _run(tree: Path, args, seed: int) -> dict:
    """One ``perfbench/run.py`` of ``tree``: its metric values and op counts."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"error: {' '.join(cmd)} exited with code {proc.returncode} and no result")
    return {"correct": doc["correct"], "ops": doc["attempted"], "failed": doc["failed"],
            "metrics": {name: m["value"] for name, m in doc["metrics"].items()}}


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _summary(pairs: list, name: str, rule: dict | None) -> dict:
    parent = [p["parent"]["metrics"][name] for p in pairs]
    change = [p["change"]["metrics"][name] for p in pairs]
    out = {"parent_median": statistics.median(parent), "parent_quartiles": _quartiles(parent),
           "change_median": statistics.median(change), "change_quartiles": _quartiles(change)}
    base = out["parent_median"]
    out["change_over_parent"] = out["change_median"] / base if base else None
    if rule is None:
        return out
    sign = 1.0 if rule["better"] == "higher" else -1.0
    better = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    worse = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gap = sign * (out["change_median"] - base)  # > 0 where the change is better
    spread = out["parent_quartiles"][1] - out["parent_quartiles"][0]
    if (len(pairs) >= GAIN_MIN_PAIRS and better >= math.ceil(GAIN_SHARE * len(pairs))
            and gap > spread):
        verdict = "gain"
    elif -gap > rule["bound"] * abs(base):
        verdict = "worse than bound"
    else:
        verdict = "unresolved"
    out.update(better=rule["better"], bound=rule["bound"], pairs_change_better=better,
               pairs_change_worse=worse, median_gain=gap, parent_quartile_spread=spread,
               verdict=verdict)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="the revision to compare with")
    parser.add_argument("--workload", choices=WORKLOADS, default="verify")
    parser.add_argument("--seed", type=int, default=0, help="seed of pair 0; pair k uses seed + k")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (run.py --smoke)")
    parser.add_argument("--out", default=None,
                        help="JSON file to write (default BENCH_ab_<workload>.json)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    out = Path(args.out or f"BENCH_ab_{args.workload}.json")
    rules = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    against = _git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    revisions = {"parent": against, "change": _git("rev-parse", "HEAD"),
                 "change_src_differs_from_head": bool(_git("status", "--porcelain", "--", "src"))}
    # SIGTERM raises SystemExit here, so the worktree is removed below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = Path(tempfile.mkdtemp(prefix="dps-ab-"))
    other = workdir / "tree"
    _git("worktree", "add", "--detach", str(other), against)
    try:
        trees = {"parent": other, "change": ROOT}
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src"),
                            str(tree / "perfbench")], check=True, stdout=subprocess.DEVNULL)
        pairs = []
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            runs = {side: _run(trees[side], args, args.seed + k) for side in order}
            pairs.append({"seed": args.seed + k, "first": order[0], **runs})
            print(f"pair {k + 1}/{args.pairs} seed {args.seed + k}: " + ", ".join(
                f"{side} work_per_s {runs[side]['metrics'].get('work_per_s', math.nan):.6g}"
                for side in SIDES), file=sys.stderr)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(other)],
                       capture_output=True)
        shutil.rmtree(workdir, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)

    names = [n for n in pairs[0]["parent"]["metrics"] if all(
        n in p[side]["metrics"] for p in pairs for side in SIDES)]
    doc = {
        "command": "python3 tools/ab.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "workload": args.workload, "seeds": [p["seed"] for p in pairs], "seconds": args.seconds,
        "smoke": args.smoke,
        "revisions": revisions,
        "machine": {**_versions(), "cpu_count": os.cpu_count(), "system": platform.platform()},
        "all_answers_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
        "pairs": pairs,
        "ops": {side: [p[side]["ops"] for p in pairs] for side in SIDES},
        "summary": {name: _summary(pairs, name, rules.get(name)) for name in names},
    }
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, s in doc["summary"].items():
        if "verdict" in s:
            print(f"{name}: {s['parent_median']:.6g} -> {s['change_median']:.6g}, better in "
                  f"{s['pairs_change_better']} of {len(pairs)}: {s['verdict']}")
    return 0 if doc["all_answers_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
