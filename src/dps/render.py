"""SVG rendering of a smooth path, alone or over a scenario's obstacles.

Arcs are emitted as native SVG ``A`` commands (no polyline approximation);
a group transform flips the y-axis so geometry coordinates map directly to
the usual math orientation. Paths are drawn from their columns, in a
document ``_WIDTH`` pixels wide that is one join of its pieces: the header
lines, the path's commands block by block, and the closing tags. A block of
``_BLOCK`` rows is filled in by one ``%`` from its columns.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .fileio import _BLOCK
from .geom import TWO_PI, arc_end_columns
from .planner import Scenario
from .smoother import ARC, SmoothPath

_FULL = TWO_PI - 1e-9
_WIDTH = 800
# A line's command, then an arc's by 1 + 2 * large-arc flag + sweep flag.
_COMMANDS = (" L %.10g %.10g", *(f" A %.10g %.10g 0 {large} {sweep} %.10g %.10g"
                                  for large in (0, 1) for sweep in (0, 1)))


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _path_d(path: SmoothPath) -> list[str]:
    """The path's SVG commands unjoined: ``M x y`` at its start point, then
    one piece per ``_BLOCK`` rows, each command led by a space; a full
    circle, which degenerates in an ``A`` command, is first split in halves.
    A line ends at its ``b``, an arc where ``arc_end_columns`` puts its end."""
    kind, data = path.kind, path.data
    full = (kind == ARC) & (np.abs(data[:, 4]) >= _FULL)
    if full.any():
        kind, data = np.repeat(kind, full + 1), np.repeat(data, full + 1, axis=0)
        first = np.flatnonzero(full) + np.arange(np.count_nonzero(full))
        data[first, 4] = data[first + 1, 4] = 0.5 * data[first, 4]
        data[first + 1, 3] += data[first, 4]
    pieces = ["M %.10g %.10g" % (path.start_point.x, path.start_point.y)]
    for lo in range(0, len(kind), _BLOCK):
        rows, arc = data[lo:lo + _BLOCK], kind[lo:lo + _BLOCK] == ARC
        sweep = rows[:, 4]
        command = np.where(arc, 1 + 2 * (np.abs(sweep) > math.pi) + (sweep > 0), 0)
        # a line's values are its b, an arc's its radius twice and end point
        values, used = rows[:, [2, 3, 2, 3]], arc[:, None] | (np.arange(4) < 2)
        values[arc, 1] = rows[arc, 2]
        values[arc, 2], values[arc, 3] = arc_end_columns(*rows[arc].T)
        pieces.append("".join(map(_COMMANDS.__getitem__, command.tolist())) % tuple(values[used].tolist()))
    return pieces


def render_svg(path: SmoothPath, scenario: Optional[Scenario] = None) -> str:
    """An SVG document of the path, drawn over the scenario's bounds and
    obstacles when one is given; refuses an extent that overflows a float."""
    # a line spans its two end points, an arc its circle's square
    arc = path.kind == ARC
    x0, y0, x1, y1, _ = path.data.T
    boxes = [(np.where(arc, x0 - x1, np.minimum(x0, x1)).min().item(),
              np.where(arc, y0 - x1, np.minimum(y0, y1)).min().item(),
              np.where(arc, x0 + x1, np.maximum(x0, x1)).max().item(),
              np.where(arc, y0 + x1, np.maximum(y0, y1)).max().item())]
    if scenario is not None:
        b = scenario.bounds
        boxes.append((b.xmin, b.ymin, b.xmax, b.ymax))
        boxes += (poly.box for poly in scenario.obstacles)
    lo_x, lo_y, hi_x, hi_y = zip(*boxes)
    xmin, ymin, xmax, ymax = min(lo_x), min(lo_y), max(hi_x), max(hi_y)
    pad = 0.05 * max(xmax - xmin, ymax - ymin, 1e-9)
    xmin, ymin, xmax, ymax = xmin - pad, ymin - pad, xmax + pad, ymax + pad
    w, h = xmax - xmin, ymax - ymin
    if not (math.isfinite(w) and math.isfinite(h)):
        raise ValueError("path extent overflows a float")
    stroke = 0.004 * max(w, h)
    height = int(round(_WIDTH * h / w))

    pieces = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="{_fmt(xmin)} {_fmt(ymin)} {_fmt(w)} {_fmt(h)}">',
        # Flip y so the document shows the usual math orientation.
        f'\n<g transform="matrix(1 0 0 -1 0 {_fmt(ymin + ymax)})">',
    ]
    if scenario is not None:
        for poly in scenario.obstacles:
            pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(poly.xs, poly.ys))
            pieces.append(f'\n<polygon points="{pts}" fill="#b0b0b0" stroke="none"/>')
    pieces.append('\n<path d="')
    pieces += _path_d(path)
    pieces.append(f'" fill="none" stroke="#d03030" stroke-width="{_fmt(stroke)}"/>\n</g>\n</svg>\n')
    return "".join(pieces)
