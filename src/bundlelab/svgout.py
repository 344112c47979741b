"""Deterministic SVG rendering of index maps.

Fixed palette (0 white, 1 red, 2 yellow, 3+ blues), boundary polyline in
black, legend included.  All floats are written with 6 significant digits so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

__all__ = ["emit_svg", "render_svg"]

_PALETTE = {
    -1: "#bbbbbb",
    0: "#ffffff",
    1: "#d62728",
    2: "#ffdf00",
}
_BLUES = ["#1f77b4", "#175a87", "#104e8b", "#0a3161", "#061f3f"]


def _color(v):
    if v in _PALETTE:
        return _PALETTE[v]
    return _BLUES[min(v - 3, len(_BLUES) - 1)]


def _f(x):
    return f"{float(x):.6g}"


def render_svg(imap):
    """The SVG document for an IndexMap, 720 pixels wide, as a string."""
    width = 720
    re_min, re_max, im_min, im_max = imap.bounds
    span_x = re_max - re_min
    span_y = im_max - im_min
    height = width * span_y / span_x
    sx = width / span_x
    sy = height / span_y

    def to_px(x, y):
        return (x - re_min) * sx, (im_max - y) * sy

    res = imap.resolution
    cell_w = span_x / res
    cell_h = span_y / res
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_f(width)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(width)} {_f(height)}">',
        f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" fill="#ffffff"/>',
    ]
    # merge horizontal runs of equal value into single rectangles: a run
    # starts at column 0 and wherever the value changes along its row
    grid = imap.grid
    starts = np.ones(grid.shape, dtype=bool)
    starts[:, 1:] = grid[:, 1:] != grid[:, :-1]
    flat = np.flatnonzero(starts)
    lengths = np.diff(np.append(flat, grid.size))
    rows, cols = np.divmod(flat, res)
    values = grid.ravel()[flat]
    colors = {v: _color(v) for v in set(values.tolist())}
    for i, j, n, v in zip(rows.tolist(), cols.tolist(), lengths.tolist(), values.tolist()):
        if v != 0:  # white background already covers index 0
            x0, ypx = to_px(re_min + j * cell_w, im_min + i * cell_h + cell_h)
            parts.append(
                '<rect x="%.6g" y="%.6g" width="%.6g" height="%.6g" fill="%s"/>'
                % (x0, ypx, n * cell_w * sx, cell_h * sy, colors[v])
            )
    pts = np.concatenate([imap.curve, imap.curve[:1]])
    px, py = to_px(pts.real, pts.imag)
    coords = " ".join(map("%.6g,%.6g".__mod__, zip(px.tolist(), py.tolist())))
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#000000" '
        f'stroke-width="{_f(0.002 * width)}"/>'
    )
    for b in imap.branch_points:
        px, py = to_px(b.real, b.imag)
        parts.append(
            f'<circle cx="{_f(px)}" cy="{_f(py)}" r="{_f(0.006 * width)}" '
            f'fill="none" stroke="#000000" stroke-width="{_f(0.0015 * width)}"/>'
        )
    box = 0.022 * width
    for row, v in enumerate(sorted(colors)):
        y = 0.02 * width + row * 1.4 * box
        label = "band" if v < 0 else f"index {v}"
        parts.append(
            f'<rect x="{_f(0.02 * width)}" y="{_f(y)}" width="{_f(box)}" '
            f'height="{_f(box)}" fill="{_color(v)}" stroke="#000000" '
            f'stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_f(0.02 * width + 1.3 * box)}" y="{_f(y + 0.8 * box)}" '
            f'font-family="monospace" font-size="{_f(0.8 * box)}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(imap, path):
    """Write the rendering to a file; identical maps give identical bytes."""
    data = render_svg(imap)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)
    return path
