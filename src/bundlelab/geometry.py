"""Boundary curves, winding numbers, and integer index maps.

The index of a point omega counts the zeros of f - omega strictly inside the
unit disk.  Two independent computations must agree or the operation errors:

* argument principle: summed argument increments of f on the circle of radius
  ``1 - 1e-5`` (strictly inside, so values of f on the unit circle itself are
  still meaningful probes), adaptively refined; f is evaluated on the
  circle's first 4096 points once per function, and every omega probed on
  that function reuses the values;
* root counting: companion-matrix roots of P - omega*Q with |root| below the
  same radius.

:func:`fiber` returns those roots once the two counts agree, so that a
caller that needs the fiber over a point and its index solves it once.

Index maps flag a band of cells around the sampled image of the unit circle
(a nearest-point query on the cells near the curve) and assign each remaining
4-connected region the common index of its probe cells.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blaschke import fiber_roots
from .errors import WindingError
from .funcspec import RationalFunction

__all__ = [
    "IndexMap",
    "boundary_curve",
    "fiber",
    "winding_index",
    "index_map",
    "branch_values",
    "COUNT_RADIUS",
]

COUNT_RADIUS = 1.0 - 1e-5
_BOUNDARY_BAND_DIAGONALS = 1.5


def boundary_curve(spec, samples=1024, spacing=np.inf):
    """Image of the unit circle, adaptively refined.

    Starts from ``samples`` equispaced parameters and bisects every interval
    whose chord exceeds 1% of the bounding-box diameter or ``spacing``,
    whichever is smaller, while there are fewer than 2**20 points.  Returns
    the open polyline (the closing edge back to the first point is implicit).
    """
    if samples < 256:
        raise ValueError("boundary curves need at least 256 samples")
    f = RationalFunction.from_spec(spec)
    t = np.linspace(0.0, 1.0, samples, endpoint=False)
    vals = f.value(np.exp(2j * np.pi * t))
    while t.size < 1 << 20:
        diam = _bbox_diag(vals)
        nxt = np.roll(vals, -1)
        gaps = np.abs(nxt - vals)
        bad = gaps > min(0.01 * diam, spacing)
        if not np.any(bad):
            break
        t = _bisect(t, bad)
        vals = f.value(np.exp(2j * np.pi * t))
    return vals


def _bisect(t, bad):
    """The sorted parameters t in [0, 1) plus the midpoint of each interval
    flagged in ``bad`` (interval i runs from t[i] to the next, cyclically)."""
    tn = np.roll(t, -1)
    tn[-1] += 1.0
    return np.sort(np.concatenate([t, (0.5 * (t[bad] + tn[bad])) % 1.0]))


def _bbox_diag(vals):
    w = np.ptp(vals.real)
    h = np.ptp(vals.imag)
    return max(np.hypot(w, h), 1e-12)


# f on the 4096-point circle of each radius, per function: every omega
# probed on one function starts from the same values (weak keys: an entry
# goes with its function)
_CIRCLES = weakref.WeakKeyDictionary()


def _argument_winding(f, omega, radius):
    """Winding of f on |z| = radius around omega by summed argument steps,
    from 4096 points bisected up to 2**21.  f is evaluated on the 4096
    points once per function and radius; only the refinement evaluates it
    again."""
    t = np.linspace(0.0, 1.0, 4096, endpoint=False)
    circles = _CIRCLES.setdefault(f, {})
    if radius not in circles:
        circles[radius] = f.value(radius * np.exp(2j * np.pi * t))
    v = circles[radius] - omega
    scale = 1.0 + abs(omega)
    while True:
        if np.min(np.abs(v)) < 1e-13 * scale:
            raise WindingError(
                f"margin violation: the integration curve passes through {omega}"
            )
        ratios = np.roll(v, -1) / v
        d = np.angle(ratios)
        bad = np.abs(d) > 0.5
        if not np.any(bad):
            total = float(np.sum(d) / (2.0 * np.pi))
            nearest = round(total)
            if abs(total - nearest) > 0.05:
                raise WindingError(
                    f"winding sum {total:.4f} is not within 0.05 of an integer"
                )
            return int(nearest)
        if t.size >= 1 << 21:
            raise WindingError("argument-principle refinement budget exceeded")
        t = _bisect(t, bad)
        v = f.value(radius * np.exp(2j * np.pi * t)) - omega


def fiber(spec, omega):
    """Roots of spec - omega inside |z| < COUNT_RADIUS, their count doubly computed.

    The roots come from :func:`fiber_roots` on the fiber polynomial, in its
    order; their number must equal the argument-principle winding, or
    (sampling too coarse, or omega pathologically close to the image of the
    counting circle) WindingError is raised.
    """
    f = RationalFunction.from_spec(spec)
    omega = complex(omega)
    n_arg = _argument_winding(f, omega, COUNT_RADIUS)
    roots = fiber_roots(f.fiber_poly(omega), COUNT_RADIUS)
    if n_arg != len(roots):
        raise WindingError(
            f"index cross-check disagreement at {omega}: "
            f"argument principle {n_arg}, root count {len(roots)}"
        )
    return roots


def winding_index(spec, omega):
    """Zeros of spec - omega inside |z| < COUNT_RADIUS: the length of :func:`fiber`."""
    return len(fiber(spec, omega))


def branch_values(spec):
    """Critical values f(z*) over disk critical points, with multiplicity."""
    from .blaschke import critical_points

    return [v for (_, v) in critical_points(spec)]


@dataclass
class IndexMap:
    """Integer index per grid cell; -1 marks the boundary band."""

    bounds: tuple  # (re_min, re_max, im_min, im_max)
    resolution: int
    grid: np.ndarray  # (res, res) int16, row i = im index, col j = re index
    curve: np.ndarray  # boundary polyline samples
    branch_points: list
    probes: list = field(default_factory=list)  # (omega, index) verification records

    def cell_centers(self):
        """Cell-center coordinates (xs, ys), as index_map bands and probes them."""
        re_min, re_max, im_min, im_max = self.bounds
        return _centers(re_min, re_max, self.resolution), _centers(im_min, im_max, self.resolution)

    @cached_property
    def cells_per_index(self):
        """{index: number of cells} over the cells off the band, by index."""
        counts = np.bincount(self.grid.ravel() + 1)[1:]
        values = np.flatnonzero(counts)
        return dict(zip(values.tolist(), counts[values].tolist()))

    @property
    def index_values(self):
        return list(self.cells_per_index)


def index_map(spec, bounds, resolution):
    """Constant-index regions of the complement of the boundary curve.

    Cells within 1.5 cell diagonals of the sampled curve are flagged as
    boundary band (-1).  Every 4-connected unflagged region is assigned the
    index computed at up to 5 deterministic probe cells;
    the probes must agree with each other (region constancy) and each probe
    runs both index computations internally.
    """
    from scipy import ndimage  # imported here: no other command needs it

    if resolution > 2048:
        raise ValueError("resolution capped at 2048 cells per axis")
    re_min, re_max, im_min, im_max = (float(b) for b in bounds)
    if not (re_max > re_min and im_max > im_min):
        raise ValueError("empty bounds rectangle")
    f = RationalFunction.from_spec(spec)
    cell_w = (re_max - re_min) / resolution
    cell_h = (im_max - im_min) / resolution
    diag = float(np.hypot(cell_w, cell_h))
    curve = boundary_curve(f, 2048, spacing=0.25 * diag)

    xs = _centers(re_min, re_max, resolution)
    ys = _centers(im_min, im_max, resolution)
    band = _band(curve, xs, ys, (re_min, im_min, cell_w, cell_h),
                 _BOUNDARY_BAND_DIAGONALS * diag)

    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    labels, nlab = ndimage.label(~band, structure=structure)
    values_by_label = np.full(nlab + 1, -1, dtype=np.int16)  # label 0 is the band
    probes = []
    for lab, box in enumerate(ndimage.find_objects(labels), start=1):
        # row-major within the bounding box is row-major in the grid
        cells = np.argwhere(labels[box] == lab) + (box[0].start, box[1].start)
        picks = _spread_picks(cells, 5)
        values = []
        for (i, j) in picks:
            omega = complex(xs[j], ys[i])
            values.append(winding_index(f, omega))
            probes.append((omega, values[-1]))
        if len(set(values)) != 1:
            raise WindingError(
                f"region {lab} is not index-constant across probes: {values}"
            )
        values_by_label[lab] = values[0]
    return IndexMap(
        bounds=(re_min, re_max, im_min, im_max),
        resolution=resolution,
        grid=values_by_label[labels],
        curve=curve,
        branch_points=branch_values(f),
        probes=probes,
    )


def _band(curve, xs, ys, cells, width):
    """Whether the center (xs[j], ys[i]) of cell (i, j) is closer than
    ``width`` to a point of ``curve``; ``cells`` is (re_min, im_min, cell
    width, cell height).

    Such a center lies within ``width`` of the point on each axis, so only
    the cells in the boxes of that half-width around the points are queried.
    The boxes are a quarter cell wider for roundoff, and ``width`` is padded
    by 64 ulps of the largest coordinate so that they also cover cells too
    small for the coordinates to resolve.
    """
    from scipy.spatial import cKDTree  # imported here: no other command needs it

    tree = cKDTree(np.column_stack([curve.real, curve.imag]))
    res = xs.size
    re_min, im_min, cell_w, cell_h = cells
    extent = max(abs(xs[0]), abs(xs[-1]), abs(ys[0]), abs(ys[-1]))
    padded = width + 64.0 * np.finfo(float).eps * extent
    spans = []
    for coord, lo, size in ((curve.imag, im_min, cell_h), (curve.real, re_min, cell_w)):
        at = (coord - lo) / size - 0.5  # in cells, from the first center
        reach = padded / size + 0.25
        # clipped to the grid in floating point, before the integer cast
        spans.append((np.maximum(np.ceil(at - reach), 0.0),
                      np.minimum(np.floor(at + reach), res - 1.0)))
    (r0, r1), (c0, c1) = spans
    keep = (r0 <= r1) & (c0 <= c1)
    r0, c0 = r0[keep].astype(np.intp), c0[keep].astype(np.intp)
    r1, c1 = r1[keep].astype(np.intp) + 1, c1[keep].astype(np.intp) + 1
    # the union of the boxes [r0, r1) x [c0, c1), by summing a 2-D difference array
    n = res + 1
    cover = np.bincount(np.concatenate([r0 * n + c0, r1 * n + c1]), minlength=n * n)
    cover -= np.bincount(np.concatenate([r0 * n + c1, r1 * n + c0]), minlength=n * n)
    cover = cover.reshape(n, n)
    np.cumsum(cover, axis=0, out=cover)
    np.cumsum(cover, axis=1, out=cover)
    near = np.flatnonzero(cover[:res, :res] > 0)
    dist, _ = tree.query(np.column_stack([xs[near % res], ys[near // res]]),
                         distance_upper_bound=width)
    band = np.zeros(res * res, dtype=bool)
    band[near[dist < width]] = True
    return band.reshape(res, res)


def _centers(lo, hi, res):
    return lo + (np.arange(res) + 0.5) * ((hi - lo) / res)


def _spread_picks(cells, count):
    n = cells.shape[0]
    if n == 0:
        return []
    idx = np.unique(np.linspace(0, n - 1, min(count, n)).astype(int))
    return [tuple(cells[i]) for i in idx]
