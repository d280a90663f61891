"""Text file formats: polyline CSV, scenario JSON, and path JSON.

Floats are written with ``repr`` precision (up to 17 significant digits),
so every file round-trips back to bit-identical doubles.

A path JSON file holds ``{"segments": [``, one segment record per line,
``]`` and one line per metadata key. Metadata goes through ``json`` (an
infinite clearance reads ``Infinity``). Any layout of the document loads.
Paths are written from and read into ``SmoothPath`` columns; the reader runs
the segment constructors' checks over the arrays and names a failing index.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Optional, TextIO, Union

import numpy as np

from .geom import LENGTH_EPSILON, TWO_PI, Point2, arc_ends, normalize_angle
from .planner import Bounds, ConvexPolygon, Scenario
from .smoother import ARC, LINE, Polyline, SmoothPath


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


def _number(value) -> float:
    """A JSON number as a float; strings, booleans and null are refused."""
    if type(value) not in (int, float):  # bool is a subclass of int
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _point(obj) -> Point2:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ValueError(f"expected [x, y], got {obj!r}")
    return Point2(_number(obj[0]), _number(obj[1]))


def _polygon(obj) -> ConvexPolygon:
    return ConvexPolygon.from_points(map(_point, obj))


def _named(name: str, convert, value):
    """``convert(value)``, with a failure raised as a ``ValueError`` that
    starts with ``name``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"{name}: {err}") from None


def load_scenario(source: Union[str, TextIO]) -> Scenario:
    """Read a planning scenario from JSON.

    Required keys: ``bounds`` ([xmin, ymin, xmax, ymax]), ``robot_radius``,
    ``turning_radius``, ``start``, ``goal``, ``obstacles`` (list of vertex
    lists; non-convex vertex lists are convex-hulled). Every coordinate and
    radius must be a JSON number; a string or a boolean raises ``ValueError``.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return load_scenario(fh)
    doc = json.load(source)
    if not isinstance(doc, dict):
        raise ValueError(f"scenario must be a JSON object, got {type(doc).__name__}")
    for key in ("bounds", "robot_radius", "turning_radius", "start", "goal", "obstacles"):
        if key not in doc:
            raise ValueError(f"scenario is missing key {key!r}")
    bounds, polys = doc["bounds"], doc["obstacles"]
    if not (isinstance(bounds, list) and len(bounds) == 4):
        raise ValueError("bounds must be [xmin, ymin, xmax, ymax]")
    if not isinstance(polys, list):
        raise ValueError(f"obstacles must be a list of vertex lists, got {polys!r}")
    return Scenario(
        obstacles=tuple(_named(f"obstacle {i}", _polygon, poly) for i, poly in enumerate(polys)),
        bounds=_named("bounds", lambda b: Bounds(*map(_number, b)), bounds),
        robot_radius=_named("robot_radius", _number, doc["robot_radius"]),
        turning_radius=_named("turning_radius", _number, doc["turning_radius"]),
        start=_named("start", _point, doc["start"]),
        goal=_named("goal", _point, doc["goal"]),
    )


# Path JSON segment records, one per line of the file. Each takes a whole
# row; "%.0s" prints nothing for the fifth value of a line row.
_LINE = '{"type": "line", "a": [%s, %s], "b": [%s, %s]}%.0s'
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
    # Column values are finite floats, so str() (the shortest round-trip
    # repr) is valid JSON for every one. One template formats all rows.
    template = ",\n".join([_ARC if kind == ARC else _LINE for kind in path.kind.tolist()])
    dest.writelines(('{"segments": [\n', template % tuple(path.data.ravel().tolist()), "\n]"))
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
    if not isinstance(doc, dict):
        raise ValueError(f"path file must be a JSON object, got {type(doc).__name__}")
    records = doc.get("segments")
    if not records:
        raise ValueError("path file has no segments")
    if not isinstance(records, list):
        raise ValueError(f"path file segments must be a list, got {records!r}")
    # Each record gives two pairs and a sweep: a line a, b and 0, an arc its
    # center, (radius, start_angle) and its sweep.
    kinds, pairs, sweeps = [], [], []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValueError(f"segment {i}: expected an object, got {rec!r}")
        kind = rec.get("type")
        if kind not in ("line", "arc"):
            raise ValueError(f"segment {i}: unknown type {kind!r}")
        try:
            line = kind == "line"
            pairs += (rec["a"], rec["b"]) if line else (rec["center"], (rec["radius"], rec["start_angle"]))
            sweeps.append(0.0 if line else rec["sweep"])
        except KeyError as err:
            raise ValueError(f"segment {i}: missing key {err}") from None
        kinds.append(LINE if line else ARC)
    try:
        if not (set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) == {2}):
            raise ValueError
        xy = np.fromiter(chain.from_iterable(pairs), np.float64, 2 * len(pairs)).reshape(-1, 4)
        data = np.column_stack((xy, np.fromiter(sweeps, np.float64, len(sweeps))))
    except (TypeError, ValueError):
        for i, rec in enumerate(records):
            p, q = pairs[2 * i: 2 * i + 2]
            try:
                if {type(p), type(q)} <= {list, tuple} and len(p) == len(q) == 2:
                    np.fromiter((*p, *q, sweeps[i]), np.float64, 5)
                    continue
            except (TypeError, ValueError):
                pass
            raise ValueError(f"segment {i}: expected [x, y] pairs of numbers, got {rec!r}") from None
    arc = np.array(kinds) == ARC
    x0, y0, x1, y1, sweep = data.T
    with np.errstate(invalid="ignore"):
        checks = ((~np.isfinite(data).all(axis=1), "non-finite value"),
                  (arc & ~(x1 > 0.0), "arc radius must be positive"),
                  (arc & (np.abs(sweep) > TWO_PI), "arc sweep must lie in [-2pi, 2pi]"),
                  (~arc & ~(np.hypot(x1 - x0, y1 - y0) > LENGTH_EPSILON), "line endpoints coincide"))
    failed = [(int(bad.argmax()), text) for bad, text in checks if bad.any()]
    if failed:
        i, text = min(failed, key=lambda f: f[0])
        raise ValueError(f"segment {i}: {text}: {records[i]!r}")
    # Start angles as Heading keeps them, normalized to (-pi, pi].
    for i in np.flatnonzero(arc & ((y1 <= -math.pi) | (y1 > math.pi))).tolist():
        data[i, 3] = normalize_angle(data[i, 3])
    first, last = data[0].tolist(), data[-1].tolist()
    start = first[:2] if kinds[0] == LINE else arc_ends(*first)[:2]
    end = last[2:4] if kinds[-1] == LINE else arc_ends(*last)[2:]
    meta = {k: v for k, v in doc.items() if k != "segments"}
    return SmoothPath._from_columns(kinds, data, Point2(*start), Point2(*end)), meta
