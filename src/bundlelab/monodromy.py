"""Maximal inner-factor decomposition by a complete block search.

A factorization f = h o B with B a Blaschke product of order d splits the
fiber of f over a base value into level sets of B, d points each; a block
of fiber points is the zero set of a candidate inner factor, unique up to a
disk automorphism of the target.  For each divisor d of the fiber size,
largest first, every block of d points containing sheet 0 is proposed; a
cheap probe of the outer recovery discards the blocks on which f is not
constant over the inner-factor fibers, and the partitions the survivors
induce are recovered in full, the outer factor by sampling on a circle of
preimages.  A candidate only counts when the reassembled composition
reproduces f on held-out points: the residual certificate is the acceptance
authority, not the search.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from . import geometry
from .blaschke import BlaschkeProduct, _cluster, _lex_key, _UnionFind
from .blaschke import fiber_roots, with_multiplicity
from .errors import DomainError, FiberError, RootFindingError
from .funcspec import RationalFunction, spec_to_text

__all__ = [
    "Fiber",
    "RecoveredOuter",
    "Decomposition",
    "base_fiber",
    "inner_factor_from_block",
    "outer_factor",
    "decompose",
    "identity_blaschke",
]

_MIN_SEPARATION = 1e-6
_CONSISTENCY_TOL = 1e-8
_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class Fiber:
    """Ordered distinct preimages of a base value."""

    base: complex
    points: tuple

    @property
    def size(self):
        return len(self.points)

    def min_separation(self):
        return _pairwise_min(np.array(self.points, dtype=complex))


def identity_blaschke():
    """The automorphism that is literally z (zero at 0, phase pi)."""
    return BlaschkeProduct((0.0,), np.pi)


def base_fiber(spec, omega0):
    """Distinct fiber points over omega0, validated against the winding index.

    The count must match the argument-principle/root-count index, and the
    points must be separated by more than 1e-6 (otherwise omega0 sits too
    close to a branch value and must be re-chosen).
    """
    f = RationalFunction.from_spec(spec)
    pts = with_multiplicity(fiber_roots(f.fiber_poly(omega0), geometry.COUNT_RADIUS))
    n = geometry.winding_index(f, omega0)
    if len(pts) != n:
        raise FiberError(
            f"fiber count {len(pts)} does not match index {n} at {omega0}"
        )
    fib = Fiber(complex(omega0), tuple(pts))
    if fib.size >= 2 and fib.min_separation() <= _MIN_SEPARATION:
        raise FiberError(
            f"fiber points at {omega0} are closer than {_MIN_SEPARATION}; "
            "choose a base point farther from the branch values"
        )
    return fib


def _pairwise_min(pts):
    n = pts.size
    if n < 2:
        return np.inf
    d = np.abs(pts[:, None] - pts[None, :])
    d[np.diag_indices(n)] = np.inf
    return float(d.min())


def _clustered_branch_values(spec):
    clusters = _cluster(geometry.branch_values(spec), tol=1e-6)
    return sorted((centroid for centroid, _ in clusters), key=_lex_key)


def _bbox(curve):
    return float(
        np.hypot(np.ptp(curve.real), np.ptp(curve.imag))
    )


def default_base_point(f, curve, bvs):
    """f(0) nudged off the branch set and the boundary curve, deterministically.

    Candidates spiral outward from f(0); among admissible ones (clear of the
    branch values and the curve) the one with the largest index is taken, so
    the decomposition runs over the maximal-index component when possible.
    """
    scale = _bbox(curve)
    center = f.value(0.0)
    clearance = max(1e-3, 0.02 * scale)
    best = None
    for delta in (0.0, 0.005, 0.02, 0.05, 0.12, 0.25):
        for k in range(8):
            cand = center + delta * scale * np.exp(1j * np.pi * k / 4.0)
            d_curve = float(np.min(np.abs(curve - cand)))
            d_b = min((abs(cand - b) for b in bvs), default=np.inf)
            if d_curve < clearance or d_b < clearance:
                continue
            try:
                n = geometry.winding_index(f, cand)
            except Exception:
                continue
            if n >= 1 and (best is None or n > best[1]):
                best = (cand, n)
        if best is not None and delta > 0:
            break
    if best is None:
        raise FiberError("no admissible base point found near f(0)")
    return complex(best[0])


def inner_factor_from_block(fiber, block):
    """Blaschke product whose zeros are the block's fiber points (phase 0).

    If f factors through an inner factor whose fiber block this is, the
    product differs from that factor only by a disk automorphism of the
    target, which the outer recovery absorbs.
    """
    return BlaschkeProduct(tuple(fiber.points[i] for i in block), 0.0)


@dataclass
class RecoveredOuter:
    """Outer factor recovered from circle samples plus its Taylor polynomial.

    The Taylor polynomial (``taylor``) is the serialized artifact and is
    trusted for |w| <= taylor_radius.  Through the defining pair (source f,
    inner factor), ``value``, the chain-rule derivatives and ``preimages``
    evaluate and invert h anywhere in the disk by solving the inner fiber
    exactly, trusted for |w| <= eval_radius, so h answers the same calls as a
    RationalFunction; ``_preimages`` solves the fibers over a whole set of w
    in one stacked call.
    """

    radius: float
    samples: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    source: object = field(repr=False)  # RationalFunction of f
    inner: object = field(repr=False)  # inner factor, rational
    noise_floor: float = 0.0
    consistency: float = 0.0
    eval_radius = 0.97
    taylor_radius = 0.8

    def _preimages(self, w):
        """One inner-factor preimage per w, preferring large |inner'|.

        Every fiber is solved in one stacked call; each row takes its first
        in-disk root of largest |inner'|.
        """
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        roots, inside = fiber_roots(self.inner.fiber_poly(w), 1.0)
        empty = ~np.any(inside, axis=1)
        if np.any(empty):
            raise DomainError(
                f"no inner-factor preimage of {w[np.argmax(empty)]} inside the disk"
            )
        d = np.where(inside, np.abs(self.inner.derivative(roots)), -np.inf)
        return roots[np.arange(w.size), np.argmax(d, axis=1)]

    def value(self, w):
        out = self.source.value(self._preimages(w))
        return out if out.size > 1 else complex(out[0])

    # The chain rules combine per point in Python complex arithmetic: numpy's
    # array division can differ from it in the last bit.
    def derivative(self, w):
        out = np.array([
            self.source.derivative(z) / self.inner.derivative(z)
            for z in self._preimages(w)
        ])
        return out if out.size > 1 else complex(out[0])

    def second_derivative(self, w):
        vals = []
        for z in self._preimages(w):
            fp = self.source.derivative(z)
            fpp = self.source.second_derivative(z)
            bp = self.inner.derivative(z)
            bpp = self.inner.second_derivative(z)
            vals.append((fpp * bp - fp * bpp) / bp**3)
        out = np.array(vals)
        return out if out.size > 1 else complex(out[0])

    def preimages(self, v):
        """h-preimages of v in the open disk: inner-factor images of the f-fiber over v."""
        roots = fiber_roots(self.source.fiber_poly(v), 1.0)
        ws = [complex(self.inner.value(z)) for z in roots]
        inside = [w for w in ws if abs(w) < 1.0]
        return sorted((c for c, _ in _cluster(inside, tol=1e-7)), key=_lex_key)

    def taylor(self, w):
        w = np.asarray(w, dtype=complex)
        if np.any(np.abs(w) > self.taylor_radius + 1e-12):
            raise DomainError(
                f"recovered outer factor is trusted only for |w| <= {self.taylor_radius}"
            )
        out = np.polyval(self.coeffs[::-1], w)
        return out if out.shape else complex(out)

    def tail_report(self):
        if self.coeffs.size == 0:
            return 0.0
        scale = max(float(np.max(np.abs(self.samples))), 1e-300)
        return float(abs(self.coeffs[-1]) * self.radius ** (self.coeffs.size - 1) / scale)


def _inner_fibers(f, R, order, tol=_CONSISTENCY_TOL):
    """f on the inner-factor fibers of a stack R of fiber polynomials.

    One stacked solve; a row is bad when its fiber has other than ``order``
    points in the disk or the f-values on it spread by more than tol times
    max(1, |f|).  Returns (counts, values of the good-count rows with their
    preimages in sort_complex order, spread, bad).
    """
    roots, inside = fiber_roots(R, 1.0)
    counts = np.sum(inside, axis=1)
    ok = counts == order
    vals = f.value(np.sort_complex(roots[ok][inside[ok]].reshape(-1, order)))
    spread = np.full(len(R), np.nan)
    spread[ok] = np.max(np.abs(vals - vals[:, :1]), axis=1)
    scale = np.fmax(1.0, np.max(np.abs(vals), axis=1))
    bad = ~ok
    bad[ok] = spread[ok] > tol * scale
    return counts, vals, spread, bad


def outer_factor(spec, bhat, r=0.7, S=1024, tol=_CONSISTENCY_TOL):
    """Recover h with f = h o bhat by sampling h on the circle |w| = r.

    The full bhat-fibers over all S samples are solved in one stacked call;
    h(w) is set from the first preimage and all others must agree within the
    tolerance, otherwise the block is invalid for f and FiberError is raised
    for the first failing sample.  Taylor coefficients come from the discrete
    Fourier transform of the circle samples, trimmed at the noise floor.
    """
    if not (0.0 < r < 1.0):
        raise ValueError("sampling radius must lie in (0, 1)")
    if S & (S - 1):
        raise ValueError("sample count must be a power of two")
    f = RationalFunction.from_spec(spec)
    bres = RationalFunction(*bhat.rational())
    ws = r * np.exp(2j * np.pi * np.arange(S) / S)
    counts, vals, spread, bad = _inner_fibers(f, bres.fiber_poly(ws), bhat.order, tol)
    if np.any(bad):
        s = int(np.argmax(bad))
        if counts[s] != bhat.order:
            raise FiberError(
                f"inner-factor fiber at sample {s} has {counts[s]} points, "
                f"expected {bhat.order}"
            )
        raise FiberError(
            f"outer recovery inconsistency {spread[s]:.3e} at sample {s}: "
            "the block system does not factor f"
        )
    worst = float(np.fmax.reduce(spread, initial=0.0))
    samples = vals[:, 0].copy()
    fft = np.fft.fft(samples) / S
    scale = max(float(np.max(np.abs(samples))), 1e-300)
    floor = 1e-13 * scale
    mags = np.abs(fft[: S // 2])
    keep = np.nonzero(mags >= floor)[0]
    L = int(keep[-1]) + 1 if keep.size else 1
    ks = np.arange(L)
    coeffs = fft[:L] / r**ks
    return RecoveredOuter(
        radius=r,
        samples=samples,
        coeffs=coeffs,
        source=f,
        inner=bres,
        noise_floor=floor,
        consistency=worst,
    )


# The block search: every 128th of outer_factor's samples on |w| = 0.7 (the
# same values), the most blocks one decomposition may propose, the most
# solved in one stack, and the distance below which two values of an inner
# factor on the fiber count as one level.
_PROBES = 0.7 * np.exp(2j * np.pi * np.arange(1024) / 1024)[::128]
_CANDIDATE_CAP = 20000
_CHUNK = 2048
_LEVEL_TOL = 1e-6


def _level_sets(fiber, block):
    """The fiber partitioned by the values of the block's inner factor."""
    vals = inner_factor_from_block(fiber, block)(np.array(fiber.points))
    uf = _UnionFind(fiber.size)
    for i, j in combinations(range(fiber.size), 2):
        if abs(vals[i] - vals[j]) <= _LEVEL_TOL:
            uf.union(i, j)
    return tuple(sorted(tuple(g) for g in uf.groups()))


def _block_partitions(f, fiber, d):
    """Sorted partitions into d-point level sets induced by the probed blocks.

    Every block of d fiber points containing sheet 0 gives a candidate inner
    factor; it survives when the outer recovery's count test and spread rule
    hold at the probe samples, so no block that outer_factor accepts is
    dropped.  The candidates are solved in stacks of at most _CHUNK.
    """
    blocks = [(0,) + rest for rest in combinations(range(1, fiber.size), d - 1)]
    partitions = set()
    for start in range(0, len(blocks), _CHUNK):
        chunk = blocks[start:start + _CHUNK]
        pairs = (inner_factor_from_block(fiber, b).rational() for b in chunk)
        R = np.concatenate([RationalFunction(P, Q).fiber_poly(_PROBES) for P, Q in pairs])
        with np.errstate(all="ignore"):
            bad = _inner_fibers(f, R, d)[3].reshape(len(chunk), -1)
        for block, rejected in zip(chunk, np.any(bad, axis=1)):
            if not rejected:
                partition = _level_sets(fiber, block)
                if all(len(b) == d for b in partition):
                    partitions.add(partition)
    return sorted(partitions)


@dataclass
class Decomposition:
    """Certified factorization f = h o B with B of maximal order."""

    inner: BlaschkeProduct
    outer: object  # RecoveredOuter, or the original spec when m == 1
    m: int
    residual: float
    base_point: complex
    fiber: Fiber
    branch_values: list
    candidates_tried: int
    outer_index: int
    test_points: int
    certificate: str

    def to_dict(self):
        h = self.outer
        if isinstance(h, RecoveredOuter):
            hdict = {
                "taylor": [[c.real, c.imag] for c in h.coeffs],
                "sample_radius": h.radius,
                "tail": h.tail_report(),
                "consistency": h.consistency,
            }
        else:
            hdict = {"spec": spec_to_text(h)}
        return {
            "certificate": self.certificate,
            "inner_zeros": [[z.real, z.imag] for z in self.inner.zeros],
            "inner_theta": self.inner.theta,
            "m": self.m,
            "outer": hdict,
            "residual": self.residual,
            "base_point": [self.base_point.real, self.base_point.imag],
            "test_points": self.test_points,
            "branch_values": [[b.real, b.imag] for b in self.branch_values],
            "candidates_tried": self.candidates_tried,
        }


def _held_out_points(inner, count, limit, rng_seed=20240613, cap=40000):
    rng = np.random.default_rng(rng_seed)
    pts = []
    draws = 0
    while len(pts) < count and draws < cap:
        block = rng.uniform(-0.95, 0.95, size=(256, 2))
        draws += 256
        zs = block[:, 0] + 1j * block[:, 1]
        zs = zs[np.abs(zs) <= 0.95]
        vals = inner.value(zs)
        good = zs[np.abs(vals) <= limit]
        pts.extend(good.tolist())
    if len(pts) < count:
        raise FiberError("could not draw enough held-out test points")
    return np.array(pts[:count], dtype=complex)


def _certificate_id(spec, omega0):
    try:
        text = spec_to_text(spec)
    except TypeError:
        text = repr(spec)
    digest = hashlib.sha1(f"{text}|{omega0:.12g}".encode()).hexdigest()
    return f"dec-{digest[:12]}"


def decompose(spec, omega0=None, test_points=200):
    """Maximal Blaschke inner factor of f with a residual certificate.

    Block sizes d dividing the fiber size n are searched largest first; the
    partitions of a size (see _block_partitions) are tried in sorted order,
    and the first whose outer recovery is consistent and whose reassembled
    composition matches f on held-out points wins.  No passing candidate
    means f is indecomposable: m = 1 with f itself as the outer factor.  A
    search that would propose more than _CANDIDATE_CAP blocks raises
    FiberError instead.
    """
    f = RationalFunction.from_spec(spec)
    curve = geometry.boundary_curve(f, 1024)
    bvs = _clustered_branch_values(f)
    if omega0 is None:
        omega0 = default_base_point(f, curve, bvs)
    else:
        omega0 = complex(omega0)
        d_curve = float(np.min(np.abs(curve - omega0)))
        d_b = min((abs(omega0 - b) for b in bvs), default=np.inf)
        if d_curve <= 1e-3 or d_b <= 1e-3:
            raise FiberError(
                f"base point {omega0} is within 1e-3 of the branch set or boundary"
            )
    cert = _certificate_id(spec, omega0)
    fiber = base_fiber(f, omega0)
    n = fiber.size
    if n == 0:
        raise FiberError(f"{omega0} is outside the image of the disk")
    tried = 0
    for d in range(n, 1, -1):
        if n % d:
            continue
        tried += comb(n - 1, d - 1)
        if tried > _CANDIDATE_CAP:
            raise FiberError(
                f"block search over {n} fiber points needs more than "
                f"{_CANDIDATE_CAP} candidates"
            )
        for partition in _block_partitions(f, fiber, d):
            # any block works (they differ by a target automorphism); the one
            # with the smallest zero moduli gives the best-conditioned factor
            block = min(
                partition, key=lambda b: max(abs(fiber.points[i]) for i in b)
            )
            bhat = inner_factor_from_block(fiber, block)
            try:
                outer = outer_factor(f, bhat)
            except (FiberError, RootFindingError):
                continue
            try:
                zs = _held_out_points(outer.inner, test_points, outer.taylor_radius * 0.97)
                residual = float(
                    np.max(np.abs(f.value(zs) - outer.taylor(outer.inner.value(zs))))
                )
            except (FiberError, DomainError):
                continue
            if residual < _RESIDUAL_TOL:
                return Decomposition(
                    inner=bhat,
                    outer=outer,
                    m=d,
                    residual=residual,
                    base_point=omega0,
                    fiber=fiber,
                    branch_values=bvs,
                    candidates_tried=tried,
                    outer_index=n // d,
                    test_points=test_points,
                    certificate=cert,
                )
    return Decomposition(
        inner=identity_blaschke(),
        outer=spec,
        m=1,
        residual=0.0,
        base_point=omega0,
        fiber=fiber,
        branch_values=bvs,
        candidates_tried=tried,
        outer_index=n,
        test_points=0,
        certificate=cert,
    )
