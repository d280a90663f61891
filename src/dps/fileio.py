"""Text file formats: polyline CSV, scenario JSON, and path JSON.

Floats are written as their shortest round-trip digits in ``repr``'s
notation, block by block, so every file round-trips back to bit-identical
doubles and path files keep the bytes that earlier versions wrote.

A polyline CSV is read straight into the ``Polyline`` coordinate array, line
1 and then each ``_BLOCK`` lines parsed as one JSON list by orjson (a ``-0``
token, which orjson reads as the integer 0, as ``-0.0``); a block with a line
other than two JSON numbers and one comma is read again by ``float()``, line
by line, so a record that does not parse or has a non-finite coordinate is
named by its line. A path JSON file holds ``{"segments": [``, one segment
record per line, ``]`` and one line per metadata key. Metadata goes through
``json`` (an infinite clearance reads ``Infinity``). Paths are written from
and read into ``SmoothPath`` columns, ``_BLOCK`` records at a time both
ways: the reader parses each block of record lines with orjson, so it holds
one block's records besides the columns. Any other layout of the document,
and a block that orjson refuses or reads an integer from (``-0`` included),
loads whole through ``json.load``, which also raises every error, so a bad
file is named as if it had been read whole.

The JSON readers take every number as a float (``parse_int=float``: ``-0``
reads as -0.0, an integer beyond the float range as inf) and refuse strings
and booleans. The path reader checks all types in one pass, reads ``null``
as nan and names the first segment that ``smoother.first_bad_row`` refuses,
such as one with a non-finite value.
"""

from __future__ import annotations

import json
import math
import os
import re
from array import array
from itertools import chain, islice, repeat
from typing import Optional, TextIO, Union

import numpy as np

from .geom import Point2, arc_ends, normalize_angle
from .planner import Bounds, ConvexPolygon, Scenario
from .smoother import ARC, LINE, Polyline, SmoothPath, first_bad_row


def load_polyline(source: Union[str, os.PathLike, TextIO]) -> Polyline:
    """Read a polyline from CSV with one ``x,y`` record per line, straight
    into the polyline's coordinate array.

    A first line neither of whose fields parses as a number (e.g. ``x,y``)
    is a header and skipped; a byte order mark before it and blank lines are
    ignored. A refused record, including a non-finite coordinate, is named
    by its line number. Line 1, and then each ``_BLOCK`` lines, is parsed by
    ``_read_block`` when it can be, else line by line. The coordinates are
    collected as C doubles, which the polyline copies once.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8-sig") as fh:
            return load_polyline(fh)
    lines, values = iter(source), array("d")
    append = values.append
    block, first = [next(lines, "").removeprefix("\ufeff")], 1
    while block:
        for lineno, line in enumerate([] if _read_block(block, values) else block, start=first):
            parts = line.split(",")
            if len(parts) != 2:
                if not line.strip():
                    continue
                raise ValueError(f"line {lineno}: expected 'x,y', got {line.strip()!r}")
            try:
                if "_" in line:  # float() takes digit-group underscores, which no CSV writer emits
                    raise ValueError(line)
                x, y = float(parts[0]), float(parts[1])
            except ValueError:
                if lineno == 1 and not any(map(_parses, parts)):  # optional header
                    continue
                raise ValueError(f"line {lineno}: cannot parse {line.strip()!r}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"line {lineno}: non-finite coordinates ({x}, {y})")
            append(x)
            append(y)
        first += len(block)
        block = list(islice(lines, _BLOCK))
    return Polyline.from_array(np.frombuffer(values).reshape(-1, 2))


def _read_block(lines: list[str], values: array) -> bool:
    """Append a block's records, read as one JSON list by orjson (again with
    ``-0.0`` for each ``-0`` token, which it reads as the integer 0), and
    return True; or append nothing and return False if a line holds other
    than one comma, or a value is other than a float or an integer."""
    import orjson  # here, as in save_path

    try:
        row = orjson.loads(text := "[" + ",".join(lines) + "]")
    except ValueError:  # orjson's JSONDecodeError included: 1e400, +1, 1., nan
        return False
    types = set(map(type, row))
    if set(map(str.count, lines, repeat(","))) != {1} or not types <= {float, int}:
        return False
    if int in types and _MINUS_ZERO.search(text):
        row = orjson.loads(_MINUS_ZERO.sub("-0.0", text))
    values.fromlist(row)  # an integer converts as float() converts its digits
    return True


def _parses(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _number(value) -> float:
    """A JSON number read with ``parse_int=float``; strings, booleans and
    null are refused."""
    if type(value) is not float:
        raise ValueError(f"expected a number, got {value!r}")
    return value


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
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name}: {err}") from None


def load_scenario(source: Union[str, os.PathLike, TextIO]) -> Scenario:
    """Read a planning scenario from JSON.

    Required keys: ``bounds`` ([xmin, ymin, xmax, ymax]), ``robot_radius``,
    ``turning_radius``, ``start``, ``goal``, ``obstacles`` (list of vertex
    lists; non-convex vertex lists are convex-hulled). Every coordinate and
    radius must be a JSON number; a string or a boolean raises ``ValueError``.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8-sig") as fh:
            return load_scenario(fh)
    doc = json.load(source, parse_int=float)
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
# Rows per block of save_path's text, of load_path's and load_polyline's
# reading and of render's path commands, which bounds their temporaries.
_BLOCK = 1024
# The first line of save_path's layout, and the whitespace JSON allows.
_HEADER = '{"segments": [\n'
_SPACE = " \t\n\r"
_MINUS_ZERO = re.compile(r"-0(?![.\deE])(?<![eE]-0)")  # the token -0, not -0.5, -0e1 or 1e-0


# The types json.load(..., parse_int=float) gives JSON numbers; null reads as
# a non-finite number, as JavaScript's JSON.stringify writes NaN and Infinity.
_NUMBERS = {float, type(None)}


def save_path(
    path: SmoothPath,
    dest: Union[str, os.PathLike, TextIO],
    total_length: Optional[float] = None,
    min_clearance: Optional[float] = None,
) -> None:
    """Write a smooth path as JSON, one segment record per line, plus
    trailing metadata."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8") as fh:
            save_path(path, fh, total_length, min_clearance)
        return
    import orjson  # here, so that a process writing no path maps none of its 0.3 MiB
    # Column values are finite floats. orjson writes the shortest round-trip
    # digits as repr does, in its own notation only below 1e-4 and from 1e16
    # (0.00001 for 1e-05, 1e16 for 1e+16), where repr rewrites the token.
    dest.write(_HEADER)
    for lo in range(0, len(path.kind), _BLOCK):
        values = path.data[lo:lo + _BLOCK].ravel().tolist()
        text = orjson.dumps(values).decode()
        tokens = text[1:-1].split(",")
        if "e" in text or "0.0000" in text:
            tokens = [repr(v) if "e" in t or "0.0000" in t else t for t, v in zip(tokens, values)]
        template = ",\n".join([_ARC if k == ARC else _LINE for k in path.kind[lo:lo + _BLOCK].tolist()])
        dest.write((",\n" if lo else "") + template % tuple(tokens))
    dest.write("\n]")
    for key, value in (("total_length", total_length), ("min_clearance", min_clearance)):
        if value is not None:
            dest.write(f',\n"{key}": {json.dumps(value)}')
    dest.write("}\n")


def load_path(source: Union[str, os.PathLike, TextIO]) -> tuple[SmoothPath, dict]:
    """Read a path JSON file; returns the path and its metadata dict.

    A document in save_path's layout is read ``_BLOCK`` records at a time
    (``_read_blocks``). Any other document, a stream that cannot seek, and
    any file in which the block reader meets something it does not take,
    such as a bad record, is read whole by ``json.load``, which then also
    names the error."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8-sig") as fh:
            return load_path(fh)
    try:
        origin = source.tell() if source.seekable() else None
    except OSError:  # a text file that is being iterated cannot tell
        origin = None
    read = None if origin is None else _read_blocks(source)
    if read is None and origin is not None:
        source.seek(origin)
    kind, data, meta = read or _read_whole(source)
    # Start angles as Heading keeps them, normalized to (-pi, pi].
    angle = data[:, 3]
    for i in np.flatnonzero((kind == ARC) & ((angle <= -math.pi) | (angle > math.pi))).tolist():
        data[i, 3] = normalize_angle(data[i, 3])
    first, last = data[0].tolist(), data[-1].tolist()
    start = first[:2] if kind[0] == LINE else arc_ends(*first)[:2]
    end = last[2:4] if kind[-1] == LINE else arc_ends(*last)[2:]
    return SmoothPath._from_columns(kind, data, Point2(*start), Point2(*end)), meta


def _read_whole(source: TextIO) -> tuple[np.ndarray, np.ndarray, dict]:
    doc = json.load(source, parse_int=float)
    if not isinstance(doc, dict):
        raise ValueError(f"path file must be a JSON object, got {type(doc).__name__}")
    records = doc.get("segments")
    if not records:
        raise ValueError("path file has no segments")
    if not isinstance(records, list):
        raise ValueError(f"path file segments must be a list, got {records!r}")
    return (*_columns(records), {k: v for k, v in doc.items() if k != "segments"})


def _read_blocks(source: TextIO) -> Optional[tuple[np.ndarray, np.ndarray, dict]]:
    """The columns and metadata of a document in save_path's layout, or
    None where ``json.load`` might read the document otherwise.

    Each block of record lines is parsed as one JSON list by orjson and its
    rows are copied out before the next block is read; a block that orjson
    refuses, or that holds a number orjson reads as an integer (-0 as 0
    too), gives None. The metadata after the list goes through json."""
    if source.readline() != _HEADER:
        return None
    import orjson  # here, as in save_path

    kinds, values = array("b"), array("d")
    want, closed = True, ""  # want: a record comes next, the first or one after a comma
    while not closed:
        lines = list(islice(source, _BLOCK))
        # The records run to the first line that starts with "]", which closes the list.
        body, closed, rest = ("\n" + "".join(lines)).partition("\n]")
        body = body.rstrip(_SPACE)
        more = body.endswith(",")
        body = body[:-1] if more else body
        filled = bool(body.strip(_SPACE))
        if filled != want or (more and closed) or not (closed or len(lines) == _BLOCK):
            return None  # a missing or trailing comma, no records, or no "]"
        if filled:
            try:
                kind, data = _columns(orjson.loads(f"[{body}]"))
            except ValueError:  # orjson's JSONDecodeError included
                return None
            kinds.frombytes(kind)
            values.frombytes(data.tobytes())
        want = more
    tail = rest + source.read()
    if "segments" in tail or "\\" in tail:  # no key may spell "segments" again
        return None
    try:
        meta = json.loads('{"segments": []' + tail, parse_int=float)
    except ValueError:
        return None
    del meta["segments"]
    return np.frombuffer(kinds, np.int8), np.frombuffer(values).reshape(-1, 5), meta


def _columns(records: list) -> tuple[np.ndarray, np.ndarray]:
    """The kind and data columns of segment records as a JSON reader gives
    them; a ``ValueError`` names the first record that holds no segment."""
    # Each record gives two pairs and a sweep: a line a, b and 0, an arc its
    # center, (radius, start_angle) and its sweep.
    kinds, pairs, sweeps = [], [], []
    for i, rec in enumerate(records):
        try:
            kind = rec["type"]
            if kind == "line":
                pairs += rec["a"], rec["b"]
                sweeps.append(0.0)
                kinds.append(LINE)
            elif kind == "arc":
                pairs += rec["center"], (rec["radius"], rec["start_angle"])
                sweeps.append(rec["sweep"])
                kinds.append(ARC)
            else:
                raise ValueError(f"segment {i}: unknown type {kind!r}")
        except (TypeError, KeyError) as err:
            if not isinstance(rec, dict):
                raise ValueError(f"segment {i}: expected an object, got {rec!r}") from None
            problem = "unknown type None" if "type" not in rec else f"missing key {err}"
            raise ValueError(f"segment {i}: {problem}") from None
    shaped = set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) == {2}
    flat = list(chain.from_iterable(pairs)) if shaped else []
    # One type check over all values, at C speed; a failure names its record.
    if not (shaped and set(map(type, flat)) | set(map(type, sweeps)) <= _NUMBERS):
        for i, (p, q, sweep) in enumerate(zip(pairs[::2], pairs[1::2], sweeps)):
            if not ({type(p), type(q)} <= {list, tuple} and len(p) == len(q) == 2
                    and set(map(type, (*p, *q, sweep))) <= _NUMBERS):
                what = ("pairs of numbers" if kinds[i] == LINE
                        else "center and numbers for radius, start_angle and sweep")
                raise ValueError(f"segment {i}: expected [x, y] {what}, got {records[i]!r}")
    data = np.column_stack((np.array(flat, np.float64).reshape(-1, 4), np.array(sweeps, np.float64)))
    kind = np.array(kinds, np.int8)
    if (bad := first_bad_row(kind, data)) is not None:
        raise ValueError("segment {}: {}: {!r}".format(*bad, records[bad[0]]))
    return kind, data
