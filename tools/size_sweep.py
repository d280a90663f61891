"""Stage times and peak memory of the long-polyline pipeline by size.

For each size, a fresh interpreter runs the benchmark's long_route stages on
a random feasible polyline: it loads it from CSV (``load_polyline``),
reports on it (``feasibility_report``), smooths it (``smooth_polyline``),
checks the path (``validate``), measures it (``path_length``), writes it as
path JSON (``save_path``), reads it back (``load_path``, which must give
the same bits) and draws it (``render_svg``). It prints one JSON line: the
median time of each stage, the peak RSS (VmHWM) above the interpreter's
baseline after each stage and, from one more untimed call per stage made
after all of those, the stage's peak allocation under ``tracemalloc``
(``traced_peak_<stage>_mib``). VmHWM only rises, so it cannot see a stage
whose transient stays below an earlier stage's peak; the traced peak can.
It also prints the sha256 of the path JSON file (``path_sha256``) and of
the SVG text (``svg_sha256``), so that the bytes of the text stages can be
compared between checkouts.
``--crossover`` instead times smoothing plus a report per backend of the
tangent pass at small sizes.

    python3 tools/size_sweep.py 1000 10000 100000 1000000
    python3 tools/size_sweep.py --src /path/to/other/checkout/src 1000 10000
    python3 tools/size_sweep.py --crossover

The CSV files are written once per size to ``--workdir`` (default: the
system temporary directory) with ``random_polyline(n, 1.0, seed=n)``; the
path JSON goes beside its CSV and is removed once read.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
import tracemalloc

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def _csv(workdir: str, n: int) -> str:
    path = os.path.join(workdir, f"sweep_{n}.csv")
    if not os.path.exists(path):
        from dps import randgen

        points = randgen.random_polyline(n, 1.0, seed=n).points
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y\n")
            fh.writelines(f"{p.x!r},{p.y!r}\n" for p in points)
    return path


def _rss_mib() -> float:
    """Peak resident set of this process: VmHWM where /proc has it, since
    ru_maxrss keeps the peak of the process that started this one."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM")) / 1024.0
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(csv: str, n: int) -> dict:
    """Stage medians and peak RSS for one size, in this process."""
    from dps import fileio, render, smoother

    base = _rss_mib()
    repeats = 5 if n <= 100_000 else 3
    out = {"n": n, "repeats": repeats, "baseline_rss_mib": round(base, 1)}

    stages = []

    def timed(stage, call):
        stages.append((stage, call))
        times = []
        for _ in range(repeats):
            gc.collect()
            t0 = time.perf_counter()
            result = call()
            times.append(time.perf_counter() - t0)
        out[f"{stage}_s"] = statistics.median(times)
        out[f"peak_rss_after_{stage}_mib"] = round(_rss_mib() - base, 1)
        return result

    polyline = timed("load_polyline", lambda: fileio.load_polyline(csv))
    out["feasible"] = timed("feasibility_report", lambda: smoother.feasibility_report(polyline, 1.0)).feasible
    path = timed("smooth_polyline", lambda: smoother.smooth_polyline(polyline, 1.0))
    out["segments"] = len(path.kind)
    out["valid"] = timed("validate", lambda: smoother.validate(path, 1.0)).ok
    length = timed("path_length", lambda: smoother.path_length(path))
    path_json = os.path.splitext(csv)[0] + "_path.json"
    timed("save_path", lambda: fileio.save_path(path, path_json, total_length=length))
    loaded, meta = timed("load_path", lambda: fileio.load_path(path_json))
    if (loaded.kind.tobytes(), loaded.data.tobytes(), meta["total_length"]) != (
            path.kind.tobytes(), path.data.tobytes(), length):
        raise SystemExit(f"n = {n}: save_path -> load_path did not round-trip bit-exactly")
    svg = timed("render_svg", lambda: render.render_svg(loaded))
    out["svg_bytes"] = len(svg)
    out["svg_sha256"] = hashlib.sha256(svg.encode()).hexdigest()
    del svg
    with open(path_json, "rb") as fh:
        digest = hashlib.sha256()
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    out["path_sha256"] = digest.hexdigest()
    # Traced last, so that tracemalloc's own memory raises no VmHWM above.
    for stage, call in stages:
        gc.collect()
        tracemalloc.start()
        call()
        out[f"traced_peak_{stage}_mib"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 1)
        tracemalloc.stop()
    os.remove(path_json)
    return out


def crossover(sizes=(8, 16, 24, 32, 40, 48, 64, 96, 128), repeats=25) -> dict:
    """Best time in µs of smooth_polyline + feasibility_report per backend."""
    from dps import randgen, smoother

    polylines = {n: [randgen.random_polyline(n, 1.0, seed=s) for s in range(8)] for n in sizes}
    best = {n: {"floats": float("inf"), "arrays": float("inf")} for n in sizes}
    chosen = smoother._backend
    try:
        for _ in range(repeats):
            for n in sizes:
                for name, backend in (("floats", smoother._FLOATS), ("arrays", smoother._ARRAYS)):
                    smoother._backend = lambda _, backend=backend: backend

                    def work():
                        for p in polylines[n]:
                            smoother.smooth_polyline(p, 1.0)
                            smoother.feasibility_report(p, 1.0)

                    us = timeit.timeit(work, number=1) / len(polylines[n]) * 1e6
                    best[n][name] = min(best[n][name], us)
    finally:
        smoother._backend = chosen
    return {n: {k: round(v, 1) for k, v in row.items()} for n, row in best.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sizes", type=int, nargs="*")
    parser.add_argument("--src", default=SRC, help="src directory of the checkout to measure")
    parser.add_argument("--workdir", default=tempfile.gettempdir())
    parser.add_argument("--crossover", action="store_true")
    parser.add_argument("--one", metavar="CSV", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    if args.crossover:
        print(json.dumps(crossover()))
    elif args.one:
        print(json.dumps(measure(args.one, args.sizes[0])))
    else:
        for n in args.sizes:  # each size measured in a fresh interpreter
            subprocess.run([sys.executable, __file__, "--src", args.src, "--one",
                            _csv(args.workdir, n), str(n)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
