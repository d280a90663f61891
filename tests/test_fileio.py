import io
import json
import math

import pytest

from dps.geom import ArcSegment, Heading, LineSegment, Point2, arc_endpoint
from dps.fileio import load_path, load_polyline, load_scenario, save_path
from dps.randgen import random_polyline
from dps.render import render_svg
from dps.smoother import SmoothPath, smooth_polyline

P = Point2


def test_load_polyline_with_header():
    src = io.StringIO("x,y\n0,0\n4,0\n4,4\n")
    polyline = load_polyline(src)
    assert polyline.points == (P(0, 0), P(4, 0), P(4, 4))


def test_load_polyline_without_header():
    src = io.StringIO("0.5,1.5\n2.0,-3.25\n")
    polyline = load_polyline(src)
    assert polyline.points == (P(0.5, 1.5), P(2.0, -3.25))


def test_load_polyline_errors():
    with pytest.raises(ValueError):
        load_polyline(io.StringIO("0,0\n"))  # too few points
    with pytest.raises(ValueError):
        load_polyline(io.StringIO("0,0\n1,2,3\n"))  # bad record
    with pytest.raises(ValueError):
        load_polyline(io.StringIO("0,0\nnope,nan\n"))  # bad number past header


def test_path_round_trip_exact(tmp_path):
    polyline = random_polyline(30, 1.0, seed=12)
    path = smooth_polyline(polyline, 1.0)
    out = tmp_path / "path.json"
    save_path(path, str(out), total_length=1.25)
    loaded, meta = load_path(str(out))
    assert loaded == path  # bit-exact floats via repr round-trip
    assert meta["total_length"] == 1.25


def test_path_round_trip_awkward_floats():
    from dps.smoother import SmoothPath
    from dps.geom import arc_endpoint

    seg = LineSegment(P(0.1 + 0.2, -1e-17 + 1), P(math.pi, math.e))
    arc = ArcSegment(P(1 / 3, 2 / 3), 0.1234567890123456789, Heading(2.9999999999999996), -1e-3)
    path_in = SmoothPath((seg, arc), seg.a, arc_endpoint(arc, True)[0])
    buf = io.StringIO()
    save_path(path_in, buf, total_length=None, min_clearance=0.5)
    buf.seek(0)
    loaded, meta = load_path(buf)
    assert loaded.segments == path_in.segments
    assert meta == {"min_clearance": 0.5}


def _float_bits(path):
    """Every float of every segment, as hex, so -0.0 and 0.0 differ."""
    out = []
    for seg in path.segments:
        if isinstance(seg, LineSegment):
            values = (seg.a.x, seg.a.y, seg.b.x, seg.b.y)
        else:
            values = (seg.center.x, seg.center.y, seg.radius, seg.start_angle.theta, seg.sweep)
        out.append(tuple(float(v).hex() for v in values))
    return out


def _indented_document(path, **meta):
    """The document that the indented json.dump writer of earlier versions
    produced for a path."""
    segments = [
        {"type": "line", "a": [s.a.x, s.a.y], "b": [s.b.x, s.b.y]}
        if isinstance(s, LineSegment)
        else {"type": "arc", "center": [s.center.x, s.center.y], "radius": s.radius,
              "start_angle": s.start_angle.theta, "sweep": s.sweep}
        for s in path.segments
    ]
    return {"segments": segments, **{k: v for k, v in meta.items() if v is not None}}


def _edge_float_path():
    from dps.smoother import SmoothPath
    from dps.geom import arc_endpoint

    line = LineSegment(P(-0.0, 5e-324), P(0.1 + 0.2, 2.2250738585072014e-308))
    arc = ArcSegment(P(1 / 3, -0.0), 0.30000000000000004, Heading(-0.0), 2.9999999999999996)
    sliver = ArcSegment(P(-1e-320, 7.0), 1.7976931348623157e3, Heading(-2.220446049250313e-16), -5e-324)
    return SmoothPath((line, arc, sliver), line.a, arc_endpoint(sliver, True)[0])


def test_path_round_trip_keeps_every_bit():
    # -0.0, subnormals and 17-digit floats come back with the same bits
    path_in = _edge_float_path()
    buf = io.StringIO()
    save_path(path_in, buf, total_length=0.1 + 0.2)
    loaded, meta = load_path(io.StringIO(buf.getvalue()))
    assert _float_bits(loaded) == _float_bits(path_in)
    assert meta["total_length"].hex() == (0.1 + 0.2).hex()


def test_path_file_has_one_segment_record_per_line(tmp_path):
    path = smooth_polyline(random_polyline(12, 1.0, seed=3), 1.0)
    out = tmp_path / "path.json"
    with open(out, "w", encoding="utf-8") as fh:  # caller-owned text stream
        save_path(path, fh, total_length=2.5, min_clearance=math.inf)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == '{"segments": ['
    records = [json.loads(line.rstrip(",")) for line in lines[1:1 + len(path.segments)]]
    assert records == _indented_document(path)["segments"]
    assert lines[1 + len(path.segments):] == ["],", '"total_length": 2.5,', '"min_clearance": Infinity}']
    loaded, meta = load_path(str(out))
    assert loaded == path
    assert meta == {"total_length": 2.5, "min_clearance": math.inf}


def test_path_document_matches_indented_writer():
    for path, meta in (
        (smooth_polyline(random_polyline(40, 1.0, seed=8), 1.0), {"total_length": 1.5}),
        (_edge_float_path(), {"total_length": None, "min_clearance": math.inf}),
        (_edge_float_path(), {}),
    ):
        buf = io.StringIO()
        save_path(path, buf, **meta)
        doc = json.loads(buf.getvalue())
        expected = _indented_document(path, **meta)
        assert doc == expected and list(doc) == list(expected)
        # files in the indented layout still load, to the same path
        old_file = io.StringIO(json.dumps(expected, indent=2) + "\n")
        loaded, old_meta = load_path(old_file)
        assert _float_bits(loaded) == _float_bits(path)
        assert old_meta == {k: v for k, v in meta.items() if v is not None}


def test_path_with_numpy_coordinates_is_valid_json():
    np = pytest.importorskip("numpy")
    from dps.smoother import Polyline

    polyline = Polyline([P(np.float64(x), np.float64(y)) for x, y in ((0, 0), (4, 0), (4, 4))])
    path = smooth_polyline(polyline, 1.0)
    buf = io.StringIO()
    save_path(path, buf, total_length=np.float64(7.5))
    assert json.loads(buf.getvalue()) == _indented_document(path, total_length=7.5)


def test_load_path_rejects_empty():
    with pytest.raises(ValueError):
        load_path(io.StringIO(json.dumps({"segments": []})))
    with pytest.raises(ValueError):
        load_path(io.StringIO(json.dumps({"segments": [{"type": "blob"}]})))


_GOOD_LINE = {"type": "line", "a": [0.0, 0.0], "b": [1.0, 0.0]}
_GOOD_ARC = {"type": "arc", "center": [1.0, 1.0], "radius": 1.0, "start_angle": -1.5, "sweep": 1.0}


@pytest.mark.parametrize("record, reason", [
    ({**_GOOD_ARC, "radius": 1e999}, "non-finite"),
    ({**_GOOD_LINE, "b": [float("nan"), 0.0]}, "non-finite"),
    ({**_GOOD_ARC, "radius": 0.0}, "radius must be positive"),
    ({**_GOOD_ARC, "radius": -2.0}, "radius must be positive"),
    ({**_GOOD_ARC, "sweep": -7.0}, "sweep must lie in"),
    ({**_GOOD_LINE, "b": [0.0, 1e-10]}, "endpoints coincide"),
    ({**_GOOD_LINE, "a": [0.0, 0.0, 0.0]}, "expected \\[x, y\\]"),
    ({**_GOOD_LINE, "a": "01"}, "expected \\[x, y\\]"),
    ({**_GOOD_ARC, "center": {"x": 1.0, "y": 1.0}}, "expected \\[x, y\\]"),
    ({**_GOOD_ARC, "radius": [1.0]}, "expected \\[x, y\\]"),
    ({**_GOOD_LINE, "b": ["x", 0.0]}, "expected \\[x, y\\]"),
    ({**_GOOD_ARC, "sweep": None}, "non-finite"),
    ({"type": "spline"}, "unknown type 'spline'"),
    ({"type": "arc", "center": [1.0, 1.0]}, "missing key 'radius'"),
])
def test_load_path_names_the_bad_segment(record, reason):
    good = [_GOOD_LINE, _GOOD_ARC, {**_GOOD_LINE, "a": [2.0, 2.0]}]
    # the bad record is segment 2 and a later one is bad too
    doc = {"segments": [*good[:2], record, good[2], record]}
    with pytest.raises(ValueError, match=rf"^segment 2: .*{reason}"):
        load_path(io.StringIO(json.dumps(doc)))
    loaded, _ = load_path(io.StringIO(json.dumps({"segments": good})))
    assert len(loaded.segments) == 3


def test_load_path_normalizes_start_angles_like_heading():
    angles = [1.5 * math.pi, -math.pi, math.pi, -1.5 * math.pi, 7.0, -0.0, 2.0]
    records = [{**_GOOD_ARC, "start_angle": a} for a in angles]
    loaded, _ = load_path(io.StringIO(json.dumps({"segments": records})))
    assert [arc.start_angle for arc in loaded.segments] == [Heading(a) for a in angles]
    assert loaded.data[:, 3].tolist() == [Heading(a).theta for a in angles]
    assert loaded.start_point == arc_endpoint(loaded.segments[0], False)[0]
    assert loaded.end_point == arc_endpoint(loaded.segments[-1], True)[0]


def _reference_file(path, **meta):
    """save_path's output written from segment objects."""
    records = [
        '{"type": "line", "a": [%r, %r], "b": [%r, %r]}' % (s.a.x, s.a.y, s.b.x, s.b.y)
        if isinstance(s, LineSegment)
        else '{"type": "arc", "center": [%r, %r], "radius": %r, "start_angle": %r, "sweep": %r}'
        % (s.center.x, s.center.y, s.radius, s.start_angle.theta, s.sweep)
        for s in path.segments
    ]
    tail = "".join(f',\n"{k}": {json.dumps(v)}' for k, v in meta.items())
    return '{"segments": [\n' + ",\n".join(records) + "\n]" + tail + "}\n"


def _reference_svg(path, width=800):
    """render_svg's output for a lone path, drawn from segment objects."""
    fmt = "{:.10g}".format
    lo, hi = [math.inf, math.inf], [-math.inf, -math.inf]
    for s in path.segments:
        if isinstance(s, LineSegment):
            boxes = [(s.a.x, s.a.y, 0.0), (s.b.x, s.b.y, 0.0)]
        else:
            boxes = [(s.center.x, s.center.y, s.radius)]
        for x, y, m in boxes:
            lo = [min(lo[0], x - m), min(lo[1], y - m)]
            hi = [max(hi[0], x + m), max(hi[1], y + m)]
    pad = 0.05 * max(hi[0] - lo[0], hi[1] - lo[1], 1e-9)
    xmin, ymin, xmax, ymax = lo[0] - pad, lo[1] - pad, hi[0] + pad, hi[1] + pad
    w, h = xmax - xmin, ymax - ymin
    first = path.segments[0]
    cursor = first.a if isinstance(first, LineSegment) else arc_endpoint(first, False)[0]
    d = [f"M {fmt(cursor.x)} {fmt(cursor.y)}"]
    for s in path.segments:
        if isinstance(s, LineSegment):
            d.append(f"L {fmt(s.b.x)} {fmt(s.b.y)}")
            continue
        start, sweep = s.start_angle.theta, s.sweep
        halves = [(start, sweep)] if abs(sweep) < 2 * math.pi - 1e-9 else [
            (start, 0.5 * sweep), (start + 0.5 * sweep, 0.5 * sweep)]
        d.append(" ".join(
            f"A {fmt(s.radius)} {fmt(s.radius)} 0 {int(abs(ds) > math.pi)} {int(ds > 0)} "
            f"{fmt(s.center.x + s.radius * math.cos(a0 + ds))} "
            f"{fmt(s.center.y + s.radius * math.sin(a0 + ds))}"
            for a0, ds in halves))
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{int(round(width * h / w))}" '
        f'viewBox="{fmt(xmin)} {fmt(ymin)} {fmt(w)} {fmt(h)}">',
        f'<g transform="matrix(1 0 0 -1 0 {fmt(ymin + ymax)})">',
        f'<path d="{" ".join(d)}" fill="none" stroke="#d03030" '
        f'stroke-width="{fmt(0.004 * max(w, h))}"/>',
        "</g>",
        "</svg>",
    ]) + "\n"


def _full_circle_path():
    circle = ArcSegment(P(1.0, 2.0), 0.75, Heading(0.3), 2 * math.pi)
    back = ArcSegment(P(-4.0, 2.5), 2.0, Heading(-math.pi), -2 * math.pi)
    line = LineSegment(arc_endpoint(circle, True)[0], P(5.0, 5.0))
    return SmoothPath((circle, line, back), arc_endpoint(circle, False)[0], arc_endpoint(back, True)[0])


def test_file_and_svg_match_segment_reference():
    paths = [smooth_polyline(random_polyline(n, 1.0, seed=n), 1.0) for n in (2, 3, 50, 400)]
    for path in (*paths, _full_circle_path(), _edge_float_path()):
        buf = io.StringIO()
        save_path(path, buf, total_length=2.5)
        assert buf.getvalue() == _reference_file(path, total_length=2.5)
        assert render_svg(path) == _reference_svg(path)
        loaded, _ = load_path(io.StringIO(buf.getvalue()))
        assert loaded.segments == path.segments
    assert render_svg(_full_circle_path()).count(" A ") == 4  # full circles in halves


def test_load_scenario():
    doc = {
        "bounds": [0, 0, 20, 20],
        "robot_radius": 0.2,
        "turning_radius": 0.5,
        "start": [1, 1],
        "goal": [19, 19],
        "obstacles": [[[8, 8], [12, 8], [12, 12], [8, 12]]],
    }
    scenario = load_scenario(io.StringIO(json.dumps(doc)))
    assert scenario.robot_radius == 0.2
    assert len(scenario.obstacles) == 1
    assert len(scenario.obstacles[0].vertices) == 4


def test_load_scenario_hulls_nonconvex():
    doc = {
        "bounds": [0, 0, 20, 20],
        "robot_radius": 0.2,
        "turning_radius": 0.5,
        "start": [1, 1],
        "goal": [19, 19],
        # star-ish vertex order with an interior point
        "obstacles": [[[8, 8], [10, 9], [12, 8], [12, 12], [8, 12]]],
    }
    scenario = load_scenario(io.StringIO(json.dumps(doc)))
    assert len(scenario.obstacles[0].vertices) == 4


@pytest.mark.parametrize("key, value, name", [
    ("robot_radius", "0.2", "robot_radius"),
    ("turning_radius", True, "turning_radius"),
    ("bounds", ["0", "0", "20", "20"], "bounds"),
    ("start", ["1", "1"], "start"),
    ("goal", [19, False], "goal"),
    ("obstacles", [[[8, 8], [12, 8], [12, 12], [8, 12]], [[1, 1], ["2", 1], [2, 2]]], "obstacle 1"),
])
def test_load_scenario_takes_only_json_numbers(key, value, name):
    doc = {"bounds": [0, 0, 20, 20], "robot_radius": 0.2, "turning_radius": 0.5,
           "start": [1, 1], "goal": [19, 19], "obstacles": [], key: value}
    with pytest.raises(ValueError, match=f"^{name}: expected a number, got "):
        load_scenario(io.StringIO(json.dumps(doc)))


def test_load_scenario_missing_key():
    with pytest.raises(ValueError):
        load_scenario(io.StringIO(json.dumps({"bounds": [0, 0, 1, 1]})))


def test_load_scenario_start_outside_bounds():
    doc = {
        "bounds": [0, 0, 10, 10],
        "robot_radius": 0.2,
        "turning_radius": 0.5,
        "start": [-5, 1],
        "goal": [9, 9],
        "obstacles": [],
    }
    with pytest.raises(ValueError):
        load_scenario(io.StringIO(json.dumps(doc)))
