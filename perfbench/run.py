"""Benchmark of the dps program: smoothing, planning and the Dubins cross-check.

Run from the root of a checkout:

    python3 perfbench/run.py                         # all workloads, untraced
    python3 perfbench/run.py --workload plan_stream --seed 3 --seconds 20 --trace 1

Each workload runs in its own single-threaded worker process, one at a
time. The worker builds its inputs from ``--seed``, measures whole passes
for ``--seconds`` and checks every op's answer. This command prints a
summary per workload, writes the full result (metadata included) to
``.perfbench/results/``, and prints one JSON object as its last line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
The exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("long_route", "plan_stream", "verify")
WORKER_TIMEOUT_S = 170
RESULTS = ROOT / ".perfbench" / "results"


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dps").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_worker(name: str, args) -> dict | None:
    cmd = [sys.executable, str(HERE / "worker.py"), name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("DPS_THREADS", None)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {name} ran longer than {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"error: {name} exited with code {proc.returncode} and no result",
              file=sys.stderr)
        return None
    if proc.returncode != 0 and doc.get("correct", False):
        return None
    return doc


def summarize(doc: dict) -> None:
    meta = doc.get("meta", {})
    state = "correct" if doc["correct"] else f"WRONG ANSWER: {doc.get('error')}"
    print(f"{doc['workload']} seed={doc['seed']} trace={doc['trace']}: "
          f"{doc['attempted']} ops in {meta.get('passes', 0)} passes, {state}")
    for name, m in {**doc["metrics"], **doc.get("extra", {})}.items():
        note = ""
        if "percentile" in m:
            note = f"  (p{m['percentile']} of {m['samples']} ops, {m['beyond']} above it)"
        elif "refusals" in m:
            note = f"  (refusals {m['refusals']})"
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dps" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'dps'}", file=sys.stderr)
        return 2

    context = {"git_revision": git_revision(), "src_sha256": source_digest(),
               "nproc": os.cpu_count(), "argv": sys.argv[1:]}
    RESULTS.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = []
    for name in names:
        doc = run_worker(name, args)
        if doc is None:
            return 1
        doc.setdefault("meta", {}).update(context)
        suffix = "-smoke" if args.smoke else ""
        out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}{suffix}.json"
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        summarize(doc)
        docs.append(doc)
        if not doc["correct"]:
            break

    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['workload']}.{k}": v for d in docs for k, v in d["metrics"].items()}
    correct = all(d["correct"] for d in docs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
