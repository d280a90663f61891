"""Tests of the benchmark itself: metric names and units, span accounting,
correctness gates, repeatable counts and refusal to run without sources.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import worker
import workloads
from dps import dubins, fileio, planner, smoother
from dps.geom import LineSegment, Point2
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, "perfbench/run.py"]
COUNTS = (
    "planner.unreachable",
    "planner.no_path",
    "planner.infeasible_route",
    "planner.graph_edges",
    "dubins.solves_per_piece",
    "smoother.extract_pieces.vertex_solutions_calls",
    "smoother.feasibility_report.existence_checks",
)


def run_smoke(trace: int, seed: int = 5) -> dict:
    proc = subprocess.run(
        RUN + ["--smoke", "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_untraced():
    return run_smoke(0)


@pytest.fixture(scope="module")
def smoke_traced():
    return run_smoke(1)


def smoke_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    return workload, workload.setup(3, tmp_path, workloads.SMOKE)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        m[:3] for m in layers.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in layers.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(m.moves for m in layers.PER_LAYER)


def test_smoke_run_prints_every_end_to_end_metric(smoke_untraced):
    units = {m.name: m.unit for m in layers.END_TO_END}
    assert smoke_untraced["correct"] and smoke_untraced["failed"] == 0
    for name in workloads.WORKLOADS:
        got = {k.split(".", 1)[1]: v for k, v in smoke_untraced["metrics"].items()
               if k.startswith(name + ".")}
        assert {k: v["unit"] for k, v in got.items()} == units
        assert all(v["value"] > 0 for v in got.values())


def test_smoke_traced_run_prints_every_layer_metric(smoke_traced):
    units = {m.name: m.unit for m in layers.PER_LAYER}
    for name in workloads.WORKLOADS:
        got = {k.split(".", 1)[1]: v for k, v in smoke_traced["metrics"].items()
               if k.startswith(name + ".")}
        assert {k: v["unit"] for k, v in got.items()} == units
    metrics = smoke_traced["metrics"]
    assert metrics["long_route.smoother.feasibility_report.existence_checks"]["value"] == 3
    assert metrics["verify.smoother.extract_pieces.vertex_solutions_calls"]["value"] == 2
    assert metrics["verify.dubins.solves_per_piece"]["value"] == 2
    assert metrics["long_route.dubins.dubins_shortest.calls"]["value"] == 0
    assert metrics["plan_stream.planner.graph_edges"]["value"] > 0


def test_counts_repeat_at_a_fixed_seed(smoke_traced):
    again = run_smoke(1)
    for name in workloads.WORKLOADS:
        for count in COUNTS:
            key = f"{name}.{count}"
            assert again["metrics"][key] == smoke_traced["metrics"][key], key


def test_fail_ratio_repeats_at_a_fixed_seed(smoke_untraced):
    result = ROOT / ".perfbench" / "results" / "plan_stream-seed5-trace0-smoke.json"
    first = json.loads(result.read_text())["extra"]["fail_ratio"]
    run_smoke(0)
    assert json.loads(result.read_text())["extra"]["fail_ratio"] == first


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_span_self_times_sum_to_each_op(name, tmp_path):
    workload, inputs = smoke_inputs(name, tmp_path)
    originals = {(t.module, t.attr): getattr(t.module, t.attr) for t in layers.targets()}
    tracer = Tracer()
    with tracer.installed(layers.targets()):
        worker.run_pass(workload, inputs, worker.Timing(), tracer)
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn
    own = self_times(tracer.spans)
    roots = [i for i, s in enumerate(tracer.spans) if s.parent < 0]
    assert len(roots) == len(inputs)
    for i in roots:
        op = tracer.spans[i].op
        total = math.fsum(t for s, t in zip(tracer.spans, own) if s.op == op)
        assert total == pytest.approx(tracer.spans[i].duration, abs=1e-9)
        assert len([s for s in tracer.spans if s.op == op]) > 1


def _shift_first_line(path):
    segs = list(path.segments)
    k = next(i for i, s in enumerate(segs) if isinstance(s, LineSegment))
    b = segs[k].b
    segs[k] = LineSegment(segs[k].a, Point2(b.x + 1e-6, b.y))
    return smoother.SmoothPath(tuple(segs), path.start_point, path.end_point)


def test_shifted_segment_endpoint_trips_the_gate(monkeypatch, tmp_path):
    workload, inputs = smoke_inputs("long_route", tmp_path)
    real = smoother.smooth_polyline
    monkeypatch.setattr(smoother, "smooth_polyline", lambda p, r: _shift_first_line(real(p, r)))
    with pytest.raises(workloads.CheckFailed, match="validate"):
        workload.check(inputs[0], workload.op(inputs[0]), 0)


def test_lossy_round_trip_trips_the_gate(monkeypatch, tmp_path):
    workload, inputs = smoke_inputs("long_route", tmp_path)
    real = fileio.load_path

    def lossy(source):
        path, meta = real(source)
        seg = path.segments[0]
        nudged = LineSegment(seg.a, Point2(math.nextafter(seg.b.x, math.inf), seg.b.y))
        return smoother.SmoothPath((nudged,) + path.segments[1:], path.start_point,
                                   path.end_point), meta

    monkeypatch.setattr(fileio, "load_path", lossy)
    with pytest.raises(workloads.CheckFailed, match="round-trip"):
        workload.check(inputs[0], workload.op(inputs[0]), 0)


def test_wrong_dubins_length_trips_the_gate(monkeypatch, tmp_path):
    workload, inputs = smoke_inputs("verify", tmp_path)
    real = dubins.dubins_shortest

    def off(start, goal, r):
        word = real(start, goal, r)
        return dubins.DubinsWord(word.word, word.lengths, word.total + 1e-6)

    monkeypatch.setattr(dubins, "dubins_shortest", off)
    with pytest.raises(workloads.CheckFailed, match="Dubins"):
        workload.check(inputs[0], workload.op(inputs[0]), 0)


def test_low_clearance_trips_the_gate(monkeypatch, tmp_path):
    workload, inputs = smoke_inputs("plan_stream", tmp_path)
    real = planner.clearance
    monkeypatch.setattr(planner, "clearance", lambda path, obstacles: real(path, obstacles) - 1.0)
    with pytest.raises(workloads.CheckFailed, match="clearance"):
        for i, scenario in enumerate(inputs):
            workload.check(scenario, workload.op(scenario), i)


def test_false_refusal_trips_the_gate(monkeypatch, tmp_path):
    workload, inputs = smoke_inputs("plan_stream", tmp_path)

    def refuse(scenario, inflated):
        raise planner.UnreachableConfigurationError("start lies inside an inflated obstacle")

    monkeypatch.setattr(planner, "build_visibility_graph", refuse)
    with pytest.raises(workloads.CheckFailed, match="unreachable"):
        for i, scenario in enumerate(inputs):
            workload.check(scenario, workload.op(scenario), i)


def test_wrong_answer_exits_nonzero(monkeypatch, capsys):
    real = smoother.smooth_polyline
    monkeypatch.setattr(smoother, "smooth_polyline", lambda p, r: _shift_first_line(real(p, r)))
    code = worker.main(["long_route", "--seed", "1", "--seconds", "0", "--smoke"])
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and doc["correct"] is False


def test_independent_inflation_check_agrees_with_the_planner():
    rng = random.Random(11)
    checked = 0
    while checked < 300:
        scenario = workloads._random_scenario(rng)
        if scenario is None:
            continue
        h, r = scenario.robot_radius, scenario.turning_radius
        for poly in scenario.obstacles:
            offset = max(planner.required_offset(h, r, a) for a in poly.interior_angles())
            inflated = planner.mitered_inflate(poly, offset)
            p = Point2(rng.uniform(0, 20), rng.uniform(0, 20))
            inside = workloads.inside_inflated(p, poly.vertices, h, r, tol=1e-6)
            if inside != workloads.inside_inflated(p, poly.vertices, h, r, tol=-1e-6):
                continue  # within 1e-6 of the boundary
            assert inside == inflated.contains(p)
            checked += 1


def test_tail_needs_ten_samples_beyond():
    assert worker.tail([float(i) for i in range(1000)])[0] == 99
    assert worker.tail([float(i) for i in range(200)])[0] == 95
    assert worker.tail([float(i) for i in range(50)]) is None


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        RUN + ["--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
