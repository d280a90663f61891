"""Run one workload in this process and print its result as one JSON line.

run.py starts one of these per workload. The worker imports the program
from ``src/`` of the checkout it sits in. Set-up time is the median time to
import the program in a fresh interpreter plus the median time to build the
seeded inputs, each done several times. The worker then runs whole passes
over the inputs until the requested seconds are used. Every op is preceded by a garbage collection and
followed by the workload's correctness gate; a wrong answer stops the run
with exit code 1.

With ``--trace 1`` the passes alternate: one untraced, one with the layer
wrappers installed. The traced passes give the per-layer metrics, and the
ratio of the two passes' op times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99, 95, 90)
MIN_BEYOND_TAIL = 10


class Timing:
    """Op times and outcomes of whole passes."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.work = 0
        self.refusals: Counter = Counter()
        self.passes = 0

    @property
    def ops(self) -> int:
        return len(self.times)


SRC = ROOT / "src"
IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import dps; print(time.perf_counter() - t)"
)


def import_program() -> None:
    """Import dps from the checkout's src/, and from nowhere else."""
    if not (SRC / "dps" / "__init__.py").is_file():
        raise SystemExit(f"error: the program's sources are missing ({SRC / 'dps'})")
    sys.path.insert(0, str(SRC))
    import dps

    if Path(dps.__file__).resolve().parent != (SRC / "dps").resolve():
        raise SystemExit(f"error: imported dps from {dps.__file__}, not from {SRC}")


def import_times(repeats: int) -> list[float]:
    """Seconds to import dps in fresh interpreters, one at a time."""
    return [float(subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                                 capture_output=True, text=True, check=True,
                                 timeout=60).stdout)
            for _ in range(repeats)]


def run_pass(workload, inputs, timing: Timing, tracer=None) -> None:
    for i, inp in enumerate(inputs):
        gc.collect()
        if tracer is None:
            start = time.perf_counter()
            out = workload.op(inp)
            elapsed = time.perf_counter() - start
        else:
            tracer.op += 1
            root = len(tracer.spans)
            with tracer.span("op"):
                out = workload.op(inp)
            elapsed = tracer.spans[root].duration
        workload.check(inp, out, i)
        timing.times.append(elapsed)
        timing.work += workload.work(inp, out)
        kind = getattr(out, "kind", None)
        if kind is not None:
            timing.refusals[kind] += 1
        del out
    timing.passes += 1


def tail(times: list[float]):
    """Highest of TAIL_PERCENTILES with at least MIN_BEYOND_TAIL samples
    above it, as (percentile, value, samples beyond); None if none has."""
    if len(times) < 2:
        return None
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    for q in TAIL_PERCENTILES:
        beyond = sum(1 for t in times if t > cuts[q - 1])
        if beyond >= MIN_BEYOND_TAIL:
            return q, cuts[q - 1], beyond
    return None


def retained_bytes_per_segment(workload, inputs) -> float:
    """Bytes a smooth_polyline result keeps alive per segment, measured with
    tracemalloc on one of the workload's inputs outside the timed passes."""
    from dps import smoother

    polyline, r = workload.probe(inputs)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        path = smoother.smooth_polyline(polyline, r)
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - base) / len(path.segments)
    finally:
        tracemalloc.stop()


def os_threads() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            workdir: Path) -> dict:
    import numpy

    import layers
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[name]
    sizes = workloads.SMOKE if smoke else workloads.FULL
    import_runs = [] if trace else import_times(SETUP_REPEATS)
    setup_times = []
    setup_tracer = Tracer()
    for _ in range(1 if trace else SETUP_REPEATS):
        inputs = None
        gc.collect()
        if trace:
            with setup_tracer.installed(layers.targets()), setup_tracer.span("setup"):
                inputs = workload.setup(seed, workdir, sizes)
            setup_times.append(setup_tracer.spans[0].duration)
        else:
            start = time.perf_counter()
            inputs = workload.setup(seed, workdir, sizes)
            setup_times.append(time.perf_counter() - start)
    # Inputs and modules are never garbage; keep collections before and
    # during ops from rescanning them.
    gc.collect()
    gc.freeze()
    # One untimed op first, so lazy imports and caches are warm.
    workload.check(inputs[0], workload.op(inputs[0]), 0)

    plain = Timing()
    traced = Timing()
    op_tracer = Tracer()
    targets = layers.targets()
    start = time.perf_counter()
    while True:
        run_pass(workload, inputs, plain)
        if trace:
            with op_tracer.installed(targets):
                run_pass(workload, inputs, traced, op_tracer)
        if time.perf_counter() - start >= seconds:
            break
    measured_s = time.perf_counter() - start

    refused = sum(plain.refusals.values())
    doc = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": True,
        "attempted": plain.ops + traced.ops,
        "failed": 0,
    }
    if trace:
        metrics = layers.layer_metrics(
            op_tracer,
            traced.ops,
            traced.passes,
            traced.refusals,
            setup_tracer,
            overhead_ratio=math.fsum(traced.times) / math.fsum(plain.times),
            retained_bytes_per_segment=retained_bytes_per_segment(workload, inputs),
        )
        units = {m.name: m.unit for m in layers.PER_LAYER}
        extra = {}
    else:
        metrics = {
            "setup_s": statistics.median(import_runs) + statistics.median(setup_times),
            "op_p50_ms": 1e3 * statistics.median(plain.times),
            "work_per_s": plain.work / math.fsum(plain.times),
            "ok_ratio": (plain.ops - refused) / plain.ops,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m.name: m.unit for m in layers.END_TO_END}
        extra = {
            f"{workload.work_unit}_per_s": {"value": metrics["work_per_s"], "unit": "1/s"},
            "fail_ratio": {"value": refused / plain.ops, "unit": "ratio",
                           "refusals": dict(plain.refusals)},
        }
        found = tail(plain.times)
        if found is not None:
            q, value, beyond = found
            extra[f"op_p{q}_ms"] = {"value": 1e3 * value, "unit": "ms", "percentile": q,
                                    "samples": plain.ops, "beyond": beyond}
    doc["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    doc["extra"] = extra
    doc["meta"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "sizes": {**workload.sizes(sizes), "smoke": smoke},
        "why": workload.why,
        "ops_untraced": plain.ops,
        "ops_traced": traced.ops,
        "passes": plain.passes,
        "measured_s": measured_s,
        "import_runs_s": import_runs,
        "setup_runs_s": setup_times,
        "os_threads": os_threads(),
    }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    import workloads

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        doc = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                      workdir)
    except workloads.CheckFailed as err:
        print(f"error: wrong answer: {err}", file=sys.stderr)
        doc = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "correct": False, "attempted": 0, "failed": 0, "metrics": {},
               "error": str(err)}
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
