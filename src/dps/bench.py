"""Benchmark harness: smoothing time and length comparison against the
sampled-heading multipoint reference.

Lengths are deterministic for a fixed seed (generation draws MT19937
uniforms only); timings use the monotonic clock with one warm-up run and
report the mean over the requested repeats. The benchmark turning radius
is 1 and edge radii are drawn from [1, 10], matching the random protocol.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .dubins import multipoint_bruteforce
from .randgen import random_polyline
from .smoother import path_length, smooth_polyline

BENCH_TURNING_RADIUS = 1.0

CSV_HEADER = "n,seq_time_s,dps_length,mpdp_p_length,ratio"


@dataclass(frozen=True, slots=True)
class BenchRow:
    n: int
    seq_time_s: float
    dps_length: float
    mpdp_p_length: float
    ratio: float

    def csv(self) -> str:
        return (
            f"{self.n},{self.seq_time_s!r},{self.dps_length!r},"
            f"{self.mpdp_p_length!r},{self.ratio!r}"
        )


def _time_mean(fn, repeats: int) -> float:
    fn()  # warm-up
    total = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        total += time.perf_counter() - t0
    return total / repeats


def run_bench(n: int, repeats: int, seed: int, samples_per_angle: int = 360) -> BenchRow:
    """One benchmark row at ``n`` points."""
    if n < 3:
        raise ValueError(f"benchmark needs at least 3 points, got {n}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    r = BENCH_TURNING_RADIUS
    polyline = random_polyline(n, r=r, seed=seed)
    # The reference first: it refuses a bad sample count before any timing.
    mpdp_length = multipoint_bruteforce(polyline.points, r, samples_per_angle)
    dps_length = path_length(smooth_polyline(polyline, r))
    seq_time = _time_mean(lambda: smooth_polyline(polyline, r), repeats)
    return BenchRow(
        n=n,
        seq_time_s=seq_time,
        dps_length=dps_length,
        mpdp_p_length=mpdp_length,
        ratio=mpdp_length / dps_length,
    )
