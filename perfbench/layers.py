"""Layer boundaries the traced run wraps, and the metrics it derives.

Layers are the modules of ``src/dps``. Each public function below is wrapped
at every module attribute a caller looks it up through (``plan`` calls
``dps.planner.smooth_polyline``, the benchmark calls
``dps.smoother.smooth_polyline``), and records a span named after the module
that defines it. Private helpers such as ``solve_three_points`` stay
unwrapped, so their time shows up as self time of the public caller.

Every per-layer metric names the end-to-end metric it should move and the
workload where that should show (``moves``). Times are self seconds per op
(per set-up for ``randgen``); a layer a workload never calls reads 0.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from typing import NamedTuple

from tracer import Span, Target, self_times


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str = ""


# Workload-independent metrics printed by every untraced run; BENCHMARK.json
# lists the same names with their regression bounds.
END_TO_END = [
    Metric("setup_s", "s", "lower"),
    Metric("op_p50_ms", "ms", "lower"),
    Metric("work_per_s", "1/s", "higher"),
    Metric("ok_ratio", "ratio", "higher"),
    Metric("peak_rss_mib", "MiB", "lower"),
]

_ROUTE = "route_vertices_per_s/op_p50_ms on long_route"
_PLAN = "plans_per_s/op_p99_ms on plan_stream"
_PIECES = "pieces_per_s/op_p99_ms on verify"

PER_LAYER = [
    Metric("smoother.smooth_polyline.self_s", "s", "lower", _ROUTE + "; no change on plan_stream"),
    Metric("smoother.us_per_vertex", "us", "lower", _ROUTE),
    Metric("smoother.segments_out", "count", "lower", _ROUTE),
    Metric("smoother.feasibility_report.self_s", "s", "lower", _ROUTE),
    Metric("smoother.feasibility_report.ratio_to_smooth", "ratio", "lower", _ROUTE),
    Metric("smoother.feasibility_report.existence_checks", "count", "lower", _ROUTE),
    Metric("smoother.check_global_existence.self_s", "s", "lower", _ROUTE),
    Metric("smoother.check_far_condition.self_s", "s", "lower", _ROUTE + "; " + _PIECES),
    Metric("smoother.vertex_solutions.self_s", "s", "lower", _ROUTE + "; " + _PIECES),
    Metric("smoother.extract_pieces.self_s", "s", "lower", _PIECES),
    Metric("smoother.extract_pieces.vertex_solutions_calls", "count", "lower", _PIECES),
    Metric("smoother.validate.self_s", "s", "lower", _ROUTE),
    Metric("smoother.path_length.self_s", "s", "lower", _ROUTE),
    Metric("smoother.retained_bytes_per_segment", "B", "lower", "peak_rss_mib on long_route"),
    Metric("dubins.dubins_shortest.self_s", "s", "lower", _PIECES),
    Metric("dubins.dubins_shortest.calls", "count", "lower", _PIECES),
    Metric("dubins.solves_per_piece", "count", "lower", _PIECES),
    Metric("dubins.classify_j_type.self_s", "s", "lower", _PIECES),
    Metric("dubins.multipoint_bruteforce.self_s", "s", "lower", _PIECES),
    Metric("dubins.multipoint_bruteforce.pairs", "count", "lower", _PIECES),
    Metric("planner.plan.self_s", "s", "lower", _PLAN),
    Metric("planner.build_visibility_graph.self_s", "s", "lower", _PLAN),
    Metric("planner.graph_nodes", "count", "lower", _PLAN),
    Metric("planner.graph_edges", "count", "lower", _PLAN),
    Metric("planner.pairs_tested", "count", "lower", _PLAN),
    Metric("planner.edge_yield", "ratio", "higher", _PLAN),
    Metric("planner.clearance.self_s", "s", "lower", _PLAN),
    Metric("planner.mitered_inflate.self_s", "s", "lower", _PLAN),
    Metric("planner.shortest_polyline.self_s", "s", "lower", _PLAN),
    Metric("planner.smooth_polyline.self_s", "s", "lower", _PLAN),
    Metric("planner.route_vertices", "count", "lower", _PLAN),
    Metric("planner.clearance_margin_min", "m", "higher", _PLAN),
    Metric("planner.unreachable", "count", "lower", "ok_ratio (fail_ratio) on plan_stream"),
    Metric("planner.no_path", "count", "lower", "ok_ratio (fail_ratio) on plan_stream"),
    Metric("planner.infeasible_route", "count", "lower", "ok_ratio (fail_ratio) on plan_stream"),
    Metric("fileio.load_polyline.self_s", "s", "lower", _ROUTE),
    Metric("fileio.save_path.self_s", "s", "lower", _ROUTE),
    Metric("fileio.load_path.self_s", "s", "lower", _ROUTE),
    Metric("fileio.bytes_written", "B", "lower", _ROUTE),
    Metric("fileio.bytes_read", "B", "lower", _ROUTE),
    Metric("render.render_svg.self_s", "s", "lower", _ROUTE),
    Metric("render.svg_bytes", "B", "lower", _ROUTE),
    Metric("randgen.random_polyline.self_s", "s", "lower", "setup_s on long_route and verify"),
    Metric("randgen.points_per_s", "1/s", "higher", "setup_s on long_route and verify"),
    Metric("trace.overhead_ratio", "ratio", "lower", "none: traced op time / untraced op time"),
]


# -- counting hooks: (tracer, args, kwargs, result) -> None ----------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _bytes_read(tracer, args, kwargs, result):
    source = _arg(args, kwargs, 0, "source")
    if isinstance(source, str):  # the inner call on the open file is skipped
        tracer.add("fileio.bytes_read", os.path.getsize(source))


def _bytes_written(tracer, args, kwargs, result):
    dest = _arg(args, kwargs, 1, "dest")
    if isinstance(dest, str):
        tracer.add("fileio.bytes_written", os.path.getsize(dest))


def _smoothed(tracer, args, kwargs, result):
    tracer.add("smoother.vertices_in", len(_arg(args, kwargs, 0, "p")))
    tracer.add("smoother.segments_out", len(result.segments))


def _pieces(tracer, args, kwargs, result):
    tracer.add("smoother.pieces_out", len(result))


def _pairs(tracer, args, kwargs, result):
    tracer.add("dubins.multipoint_pairs", len(_arg(args, kwargs, 0, "points")) - 1)


def _graph(tracer, args, kwargs, result):
    n = len(result.nodes)
    tracer.add("planner.graphs", 1)
    tracer.add("planner.graph_nodes", n)
    tracer.add("planner.graph_edges", len(result.edges))
    tracer.add("planner.pairs_tested", n * (n - 1) // 2)


def _route(tracer, args, kwargs, result):
    tracer.add("planner.routes", 1)
    tracer.add("planner.route_vertices", len(result))


def _planned(tracer, args, kwargs, result):
    scenario = _arg(args, kwargs, 0, "scenario")
    tracer.minimum("planner.clearance_margin", result.clearance - scenario.robot_radius)


def _svg(tracer, args, kwargs, result):
    tracer.add("render.svg_bytes", len(result.encode("utf-8")))


def _generated(tracer, args, kwargs, result):
    tracer.add("randgen.points", len(result))


def targets() -> list[Target]:
    from dps import dubins, fileio, planner, randgen, render, smoother

    out = []
    for fn, hook in (
        ("smooth_polyline", _smoothed),
        ("feasibility_report", None),
        ("check_global_existence", None),
        ("check_far_condition", None),
        ("vertex_solutions", None),
        ("extract_pieces", _pieces),
        ("validate", None),
        ("path_length", None),
    ):
        out.append(Target(smoother, fn, f"smoother.{fn}", hook))
    for fn, hook in (
        ("dubins_shortest", None),
        ("classify_j_type", None),
        ("multipoint_bruteforce", _pairs),
    ):
        out.append(Target(dubins, fn, f"dubins.{fn}", hook))
    for fn, hook in (
        ("plan", _planned),
        ("mitered_inflate", None),
        ("build_visibility_graph", _graph),
        ("shortest_polyline", _route),
        ("clearance", None),
    ):
        out.append(Target(planner, fn, f"planner.{fn}", hook))
    # plan() looks these two up in its own module.
    out.append(Target(planner, "smooth_polyline", "smoother.smooth_polyline", _smoothed))
    out.append(Target(planner, "path_length", "smoother.path_length"))
    out.append(Target(fileio, "load_polyline", "fileio.load_polyline", _bytes_read))
    out.append(Target(fileio, "save_path", "fileio.save_path", _bytes_written))
    out.append(Target(fileio, "load_path", "fileio.load_path", _bytes_read))
    out.append(Target(render, "render_svg", "render.render_svg", _svg))
    out.append(Target(randgen, "random_polyline", "randgen.random_polyline", _generated))
    return out


# -- aggregation -----------------------------------------------------------


class _Agg:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


def aggregate(spans: list[Span]):
    """Per span name: calls, self and inclusive seconds; per (ancestor name,
    name): calls made anywhere below that ancestor; and self seconds of
    smoothing called directly by plan()."""
    agg: dict[str, _Agg] = defaultdict(_Agg)
    below: Counter = Counter()
    plan_smooth_s = 0.0
    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        a = agg[span.name]
        a.calls += 1
        a.self_s += own
        a.total_s += span.duration
        seen = set()
        p = span.parent
        while p >= 0:
            ancestor = spans[p].name
            if ancestor not in seen:
                seen.add(ancestor)
                below[(ancestor, span.name)] += 1
            p = spans[p].parent
        if (span.name == "smoother.smooth_polyline" and span.parent >= 0
                and spans[span.parent].name == "planner.plan"):
            plan_smooth_s += own
    return agg, below, plan_smooth_s


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    op_tracer,
    ops: int,
    passes: int,
    refusals: Counter,
    setup_tracer,
    overhead_ratio: float,
    retained_bytes_per_segment: float,
) -> dict[str, float]:
    """Per-layer metrics from the traced passes (``ops`` ops in ``passes``
    whole passes) and one traced set-up."""
    agg, below, plan_smooth_s = aggregate(op_tracer.spans)
    c = op_tracer.counts

    def self_s(name):
        return _ratio(agg[name].self_s, ops) if name in agg else 0.0

    def calls(name):
        return agg[name].calls if name in agg else 0

    smooth = "smoother.smooth_polyline"
    feas = "smoother.feasibility_report"
    m = {
        "smoother.smooth_polyline.self_s": self_s(smooth),
        "smoother.us_per_vertex": 1e6 * _ratio(agg[smooth].self_s if smooth in agg else 0.0,
                                               c["smoother.vertices_in"]),
        "smoother.segments_out": _ratio(c["smoother.segments_out"], calls(smooth)),
        "smoother.feasibility_report.self_s": self_s(feas),
        "smoother.feasibility_report.ratio_to_smooth": _ratio(
            agg[feas].total_s if feas in agg else 0.0,
            agg[smooth].total_s if smooth in agg else 0.0),
        "smoother.feasibility_report.existence_checks": _ratio(
            below[(feas, "smoother.check_global_existence")], calls(feas)),
        "smoother.check_global_existence.self_s": self_s("smoother.check_global_existence"),
        "smoother.check_far_condition.self_s": self_s("smoother.check_far_condition"),
        "smoother.vertex_solutions.self_s": self_s("smoother.vertex_solutions"),
        "smoother.extract_pieces.self_s": self_s("smoother.extract_pieces"),
        "smoother.extract_pieces.vertex_solutions_calls": _ratio(
            below[("smoother.extract_pieces", "smoother.vertex_solutions")],
            calls("smoother.extract_pieces")),
        "smoother.validate.self_s": self_s("smoother.validate"),
        "smoother.path_length.self_s": self_s("smoother.path_length"),
        "smoother.retained_bytes_per_segment": retained_bytes_per_segment,
        "dubins.dubins_shortest.self_s": self_s("dubins.dubins_shortest"),
        "dubins.dubins_shortest.calls": _ratio(calls("dubins.dubins_shortest"), ops),
        "dubins.solves_per_piece": _ratio(calls("dubins.dubins_shortest"),
                                          c["smoother.pieces_out"]),
        "dubins.classify_j_type.self_s": self_s("dubins.classify_j_type"),
        "dubins.multipoint_bruteforce.self_s": self_s("dubins.multipoint_bruteforce"),
        "dubins.multipoint_bruteforce.pairs": _ratio(c["dubins.multipoint_pairs"], ops),
        "planner.plan.self_s": self_s("planner.plan"),
        "planner.build_visibility_graph.self_s": self_s("planner.build_visibility_graph"),
        "planner.graph_nodes": _ratio(c["planner.graph_nodes"], c["planner.graphs"]),
        "planner.graph_edges": _ratio(c["planner.graph_edges"], c["planner.graphs"]),
        "planner.pairs_tested": _ratio(c["planner.pairs_tested"], c["planner.graphs"]),
        "planner.edge_yield": _ratio(c["planner.graph_edges"], c["planner.pairs_tested"]),
        "planner.clearance.self_s": self_s("planner.clearance"),
        "planner.mitered_inflate.self_s": self_s("planner.mitered_inflate"),
        "planner.shortest_polyline.self_s": self_s("planner.shortest_polyline"),
        "planner.smooth_polyline.self_s": _ratio(plan_smooth_s, ops),
        "planner.route_vertices": _ratio(c["planner.route_vertices"], c["planner.routes"]),
        "planner.clearance_margin_min": op_tracer.minima.get("planner.clearance_margin", 0.0),
        "planner.unreachable": _ratio(refusals["unreachable"], passes),
        "planner.no_path": _ratio(refusals["no_path"], passes),
        "planner.infeasible_route": _ratio(refusals["infeasible_route"], passes),
        "fileio.load_polyline.self_s": self_s("fileio.load_polyline"),
        "fileio.save_path.self_s": self_s("fileio.save_path"),
        "fileio.load_path.self_s": self_s("fileio.load_path"),
        "fileio.bytes_written": _ratio(c["fileio.bytes_written"], ops),
        "fileio.bytes_read": _ratio(c["fileio.bytes_read"], ops),
        "render.render_svg.self_s": self_s("render.render_svg"),
        "render.svg_bytes": _ratio(c["render.svg_bytes"], ops),
    }
    setup_agg, _, _ = aggregate(setup_tracer.spans)
    gen = setup_agg.get("randgen.random_polyline")
    m["randgen.random_polyline.self_s"] = gen.self_s if gen else 0.0
    m["randgen.points_per_s"] = _ratio(setup_tracer.counts["randgen.points"], gen.self_s) if gen else 0.0
    m["trace.overhead_ratio"] = overhead_ratio
    return m
