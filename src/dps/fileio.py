"""Text file formats: polyline CSV, scenario JSON, and path JSON.

Floats are written with ``repr`` precision (up to 17 significant digits),
so every file round-trips back to bit-identical doubles.

A path JSON file holds ``{"segments": [``, one segment record per line,
``]`` and one line per metadata key. Metadata goes through ``json`` (an
infinite clearance reads ``Infinity``). Any layout of the document loads.
"""

from __future__ import annotations

import json
from typing import Optional, TextIO, Union

from .geom import ArcSegment, Heading, LineSegment, Point2
from .planner import Bounds, ConvexPolygon, Scenario
from .smoother import Polyline, SmoothPath


def load_polyline(source: Union[str, TextIO]) -> Polyline:
    """Read a polyline from CSV with one ``x,y`` record per line.

    A single leading header line (e.g. ``x,y``) is skipped; blank lines are
    ignored.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return load_polyline(fh)
    points = []
    for lineno, line in enumerate(source, start=1):
        text = line.strip()
        if not text:
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'x,y', got {text!r}")
        try:
            x = float(parts[0])
            y = float(parts[1])
        except ValueError:
            if lineno == 1:  # optional header
                continue
            raise ValueError(f"line {lineno}: cannot parse {text!r}") from None
        points.append(Point2(x, y))
    return Polyline(points)


def _point(obj) -> Point2:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ValueError(f"expected [x, y], got {obj!r}")
    return Point2(float(obj[0]), float(obj[1]))


def load_scenario(source: Union[str, TextIO]) -> Scenario:
    """Read a planning scenario from JSON.

    Required keys: ``bounds`` ([xmin, ymin, xmax, ymax]), ``robot_radius``,
    ``turning_radius``, ``start``, ``goal``, ``obstacles`` (list of vertex
    lists; non-convex vertex lists are convex-hulled).
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return load_scenario(fh)
    doc = json.load(source)
    for key in ("bounds", "robot_radius", "turning_radius", "start", "goal", "obstacles"):
        if key not in doc:
            raise ValueError(f"scenario is missing key {key!r}")
    bounds = doc["bounds"]
    if not (isinstance(bounds, list) and len(bounds) == 4):
        raise ValueError("bounds must be [xmin, ymin, xmax, ymax]")
    obstacles = tuple(
        ConvexPolygon.from_points(_point(v) for v in poly) for poly in doc["obstacles"]
    )
    return Scenario(
        obstacles=obstacles,
        bounds=Bounds(*map(float, bounds)),
        robot_radius=float(doc["robot_radius"]),
        turning_radius=float(doc["turning_radius"]),
        start=_point(doc["start"]),
        goal=_point(doc["goal"]),
    )


# Path JSON segment records, one per line of the file.
_LINE = '{"type": "line", "a": [%s, %s], "b": [%s, %s]}'
_ARC = '{"type": "arc", "center": [%s, %s], "radius": %s, "start_angle": %s, "sweep": %s}'


def save_path(
    path: SmoothPath,
    dest: Union[str, TextIO],
    total_length: Optional[float] = None,
    min_clearance: Optional[float] = None,
) -> None:
    """Write a smooth path as JSON, one segment record per line, plus
    trailing metadata."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as fh:
            save_path(path, fh, total_length, min_clearance)
        return
    # Segment coordinates are finite by construction, so str() (the shortest
    # round-trip repr, also for numpy scalars) is valid JSON for every one.
    records = [
        _LINE % (seg.a.x, seg.a.y, seg.b.x, seg.b.y)
        if isinstance(seg, LineSegment)
        else _ARC % (seg.center.x, seg.center.y, seg.radius, seg.start_angle.theta, seg.sweep)
        for seg in path.segments
    ]
    dest.writelines(('{"segments": [\n', ",\n".join(records), "\n]"))
    for key, value in (("total_length", total_length), ("min_clearance", min_clearance)):
        if value is not None:
            dest.write(f',\n"{key}": {json.dumps(value)}')
    dest.write("}\n")


def load_path(source: Union[str, TextIO]) -> tuple[SmoothPath, dict]:
    """Read a path JSON file; returns the path and its metadata dict."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return load_path(fh)
    doc = json.load(source)
    records = doc.get("segments")
    if not records:
        raise ValueError("path file has no segments")
    segments = []
    for i, rec in enumerate(records):
        kind = rec.get("type")
        if kind == "line":
            segments.append(LineSegment(_point(rec["a"]), _point(rec["b"])))
        elif kind == "arc":
            segments.append(
                ArcSegment(
                    center=_point(rec["center"]),
                    radius=float(rec["radius"]),
                    start_angle=Heading(float(rec["start_angle"])),
                    sweep=float(rec["sweep"]),
                )
            )
        else:
            raise ValueError(f"segment {i}: unknown type {kind!r}")
    first = segments[0]
    last = segments[-1]
    start = first.a if isinstance(first, LineSegment) else _arc_point(first, False)
    end = last.b if isinstance(last, LineSegment) else _arc_point(last, True)
    meta = {k: v for k, v in doc.items() if k != "segments"}
    return SmoothPath(tuple(segments), start, end), meta


def _arc_point(arc: ArcSegment, at_end: bool) -> Point2:
    from .geom import arc_endpoint

    return arc_endpoint(arc, at_end)[0]
