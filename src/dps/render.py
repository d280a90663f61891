"""SVG rendering of a smooth path, alone or over a scenario's obstacles.

Arcs are emitted as native SVG ``A`` commands (no polyline approximation);
a group transform flips the y-axis so geometry coordinates map directly to
the usual math orientation. Paths are drawn from their columns, in a
document ``_WIDTH`` pixels wide that is one join of its pieces: the header
lines, the path's commands block by block, and the closing tags.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .fileio import _BLOCK
from .geom import TWO_PI, arc_ends
from .planner import Scenario
from .smoother import ARC, LINE, SmoothPath

_FULL = TWO_PI - 1e-9
_WIDTH = 800


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _path_d(path: SmoothPath) -> list[str]:
    """The path's SVG commands unjoined: ``M x y`` at its start point, then
    one piece per ``_BLOCK`` rows, each command led by a space and the piece
    formatted by one template, so only a block's values are held at once.
    An arc is an ``A`` command to its end point; a full circle, which
    degenerates in that command, is drawn as two halves."""
    pieces = ["M %.10g %.10g" % (path.start_point.x, path.start_point.y)]
    for lo in range(0, len(path.kind), _BLOCK):
        commands, values = [], []
        for kind, row in zip(path.kind[lo:lo + _BLOCK].tolist(), path.data[lo:lo + _BLOCK].tolist()):
            if kind == LINE:
                commands.append(" L %.10g %.10g")
                values += row[2:4]
                continue
            cx, cy, radius, start, sweep = row
            halves = [(start, sweep)] if abs(sweep) < _FULL else [
                (start, 0.5 * sweep), (start + 0.5 * sweep, 0.5 * sweep)]
            for a0, ds in halves:
                commands.append(" A %.10g %.10g 0 %d %d %.10g %.10g")
                values += (radius, radius, abs(ds) > math.pi, ds > 0,
                           *arc_ends(cx, cy, radius, a0, ds)[2:])
        pieces.append("".join(commands) % tuple(values))
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
