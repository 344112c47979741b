"""Boundary curves, winding numbers, and integer index maps.

The index of a point omega counts the zeros of f - omega strictly inside the
unit disk.  Two independent computations must agree or the operation errors:

* argument principle: summed argument increments of f on the circle of radius
  ``1 - 1e-5`` (strictly inside, so values of f on the unit circle itself are
  still meaningful probes), adaptively refined;
* root counting: companion-matrix roots of P - omega*Q with |root| below the
  same radius.

Index maps flag a band of cells around the sampled image of the unit circle
and assign each remaining 4-connected region the common index of its probe
cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .blaschke import fiber_roots
from .errors import WindingError
from .funcspec import RationalFunction

__all__ = [
    "IndexMap",
    "boundary_curve",
    "winding_index",
    "index_map",
    "branch_values",
    "COUNT_RADIUS",
]

COUNT_RADIUS = 1.0 - 1e-5
_BOUNDARY_BAND_DIAGONALS = 1.5


def boundary_curve(spec, samples=1024, max_gap_frac=0.01, max_points=1 << 20, spacing=np.inf):
    """Image of the unit circle, adaptively refined.

    Starts from ``samples`` equispaced parameters and bisects every interval
    whose chord exceeds ``max_gap_frac`` of the bounding-box diameter or
    ``spacing``, whichever is smaller.  Returns the open polyline (the
    closing edge back to the first point is implicit).
    """
    if samples < 256:
        raise ValueError("boundary curves need at least 256 samples")
    f = RationalFunction.from_spec(spec)
    t = np.linspace(0.0, 1.0, samples, endpoint=False)
    vals = f.value(np.exp(2j * np.pi * t))
    while t.size < max_points:
        diam = _bbox_diag(vals)
        nxt = np.roll(vals, -1)
        gaps = np.abs(nxt - vals)
        bad = gaps > min(max_gap_frac * diam, spacing)
        if not np.any(bad):
            break
        tn = np.roll(t, -1).copy()
        tn[-1] += 1.0
        mids = 0.5 * (t[bad] + tn[bad])
        t = np.sort(np.concatenate([t, mids % 1.0]))
        vals = f.value(np.exp(2j * np.pi * t))
    return vals


def _bbox_diag(vals):
    w = np.ptp(vals.real)
    h = np.ptp(vals.imag)
    return max(np.hypot(w, h), 1e-12)


def _argument_winding(f, omega, radius, start_points=4096, max_points=1 << 21):
    """Winding of f on |z| = radius around omega by summed argument steps."""
    t = np.linspace(0.0, 1.0, start_points, endpoint=False)
    v = f.value(radius * np.exp(2j * np.pi * t)) - omega
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
        if t.size >= max_points:
            raise WindingError("argument-principle refinement budget exceeded")
        tn = np.roll(t, -1).copy()
        tn[-1] += 1.0
        mids = (0.5 * (t[bad] + tn[bad])) % 1.0
        t = np.sort(np.concatenate([t, mids]))
        v = f.value(radius * np.exp(2j * np.pi * t)) - omega


def _root_count(f, omega, radius):
    R = f.fiber_poly(omega)
    if np.max(np.abs(R)) == 0.0:
        raise WindingError("fiber polynomial vanished identically")
    return len(fiber_roots(R, radius))


def winding_index(spec, omega, radius=COUNT_RADIUS):
    """Zeros of spec - omega inside |z| < radius, doubly computed.

    The argument-principle path and the companion-matrix root count must
    agree; disagreement (sampling too coarse, or omega pathologically close
    to the image of the counting circle) raises WindingError.
    """
    f = RationalFunction.from_spec(spec)
    omega = complex(omega)
    n_arg = _argument_winding(f, omega, radius)
    n_root = _root_count(f, omega, radius)
    if n_arg != n_root:
        raise WindingError(
            f"index cross-check disagreement at {omega}: "
            f"argument principle {n_arg}, root count {n_root}"
        )
    if n_arg < 0:
        raise WindingError(f"negative winding {n_arg}: not an analytic image")
    return n_arg


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
        re_min, re_max, im_min, im_max = self.bounds
        xs = re_min + (np.arange(self.resolution) + 0.5) * (re_max - re_min) / self.resolution
        ys = im_min + (np.arange(self.resolution) + 0.5) * (im_max - im_min) / self.resolution
        return xs, ys

    @property
    def index_values(self):
        vals = np.unique(self.grid[self.grid >= 0])
        return [int(v) for v in vals]


def index_map(spec, bounds, resolution, probes_per_region=5):
    """Constant-index regions of the complement of the boundary curve.

    Cells within 1.5 cell diagonals of the sampled curve are flagged as
    boundary band (-1).  Every 4-connected unflagged region is assigned the
    index computed at up to ``probes_per_region`` deterministic probe cells;
    the probes must agree with each other (region constancy) and each probe
    runs both index computations internally.
    """
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

    xs = re_min + (np.arange(resolution) + 0.5) * cell_w
    ys = im_min + (np.arange(resolution) + 0.5) * cell_h
    X, Y = np.meshgrid(xs, ys)
    width = _BOUNDARY_BAND_DIAGONALS * diag
    tree = cKDTree(np.column_stack([curve.real, curve.imag]))
    # cells farther than the band width get an infinite distance
    dist, _ = tree.query(np.column_stack([X.ravel(), Y.ravel()]), distance_upper_bound=width)
    band = dist.reshape(resolution, resolution) < width

    grid = np.full((resolution, resolution), -1, dtype=np.int16)
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    labels, nlab = ndimage.label(~band, structure=structure)
    probes = []
    for lab in range(1, nlab + 1):
        cells = np.argwhere(labels == lab)
        picks = _spread_picks(cells, probes_per_region)
        values = []
        for (i, j) in picks:
            omega = complex(X[i, j], Y[i, j])
            values.append(winding_index(f, omega))
            probes.append((omega, values[-1]))
        if len(set(values)) != 1:
            raise WindingError(
                f"region {lab} is not index-constant across probes: {values}"
            )
        grid[labels == lab] = values[0]
    return IndexMap(
        bounds=(re_min, re_max, im_min, im_max),
        resolution=resolution,
        grid=grid,
        curve=curve,
        branch_points=branch_values(f),
        probes=probes,
    )


def _spread_picks(cells, count):
    n = cells.shape[0]
    if n == 0:
        return []
    idx = np.unique(np.linspace(0, n - 1, min(count, n)).astype(int))
    return [tuple(cells[i]) for i in idx]
