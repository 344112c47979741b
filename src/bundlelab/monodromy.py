"""Maximal inner-factor decomposition by a complete block search.

A factorization f = h o B with B a Blaschke product of order d splits the
fiber of f over a base value into level sets of B, d points each; a block
of fiber points is the zero set of a candidate inner factor B_hat = N/D,
unique up to a disk automorphism of the target.  For f = P/Q of degree n the
outer factor is then rational of degree k = n/d (Ritt 1922), and h = A/C
solves  sum_j (c_j P - a_j Q) N^j D^(k-j) = 0,  a linear system in the 2(k+1)
coefficients of A and C whose null vector is h (see outer_factor).  The
degree n is that of P/Q once their common factors are cancelled, found by
the same solve for the inner factor z (see _reduced_degree).  For each d
dividing both the fiber size and n, largest first, every block of d points
containing sheet 0 is solved, one stacked SVD per chunk; the blocks whose h
reproduces f on held-out points of the disk induce partitions of the fiber
into level sets, and the first partition, re-solved on its best-conditioned
block, is the result.  The held-out residual is the acceptance authority;
the solve's singular-value ratio is recorded as evidence only.  When the
solve does not reproduce f even for the inner factor z, a search that
accepts no block proves nothing, and decompose raises FiberError rather
than claim m = 1.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import geometry, series
from .blaschke import BlaschkeProduct, _cluster, _groups, _lex_key
from .blaschke import with_multiplicity
from .errors import FiberError
from .funcspec import RationalFunction, spec_to_text

__all__ = [
    "Decomposition",
    "base_fiber",
    "inner_factor_from_block",
    "outer_factor",
    "outer_taylor",
    "decompose",
    "identity_blaschke",
]

_MIN_SEPARATION = 1e-6
_RESIDUAL_TOL = 1e-8
_TEST_POINTS = 200  # held-out points of the residual certificate


def identity_blaschke():
    """The automorphism that is literally z (zero at 0, phase pi)."""
    return BlaschkeProduct((0.0,), np.pi)


def base_fiber(spec, omega0, roots=None):
    """Tuple of the distinct fiber points over omega0.

    They are the roots of :func:`geometry.fiber`, whose count the argument
    principle has checked (``roots`` when the caller has them already),
    clustered by :func:`with_multiplicity`.  The points must be separated by
    more than 1e-6 (otherwise omega0 sits too close to a branch value and
    must be re-chosen).
    """
    if roots is None:
        roots = geometry.fiber(spec, omega0)
    pts = with_multiplicity(roots)
    z = np.array(pts, dtype=complex)
    gaps = np.abs(z[:, None] - z) + np.diag(np.full(z.size, np.inf))
    if z.size >= 2 and gaps.min() <= _MIN_SEPARATION:
        raise FiberError(
            f"fiber points at {omega0} are closer than {_MIN_SEPARATION}; "
            "choose a base point farther from the branch values"
        )
    return tuple(pts)


def _clustered_branch_values(spec):
    clusters = _cluster(geometry.branch_values(spec), tol=1e-6)
    return sorted((centroid for centroid, _ in clusters), key=_lex_key)


def default_base_point(f, curve, bvs):
    """f(0) nudged off the branch set and the boundary curve, deterministically.

    Candidates spiral outward from f(0); among admissible ones (clear of the
    branch values and the curve) the one with the largest index is taken, so
    the decomposition runs over the maximal-index component when possible.
    Returns the point and its fiber roots (:func:`geometry.fiber`), whose
    number is its index.
    """
    scale = geometry._bbox_diag(curve)
    center = f.value(0.0)
    clearance = max(1e-3, 0.02 * scale)
    best = None
    for delta in (0.0, 0.005, 0.02, 0.05, 0.12, 0.25):
        for k in range(8 if delta > 0 else 1):  # the ring of radius 0 is one point
            cand = center + delta * scale * np.exp(1j * np.pi * k / 4.0)
            d_curve = float(np.min(np.abs(curve - cand)))
            d_b = min((abs(cand - b) for b in bvs), default=np.inf)
            if d_curve < clearance or d_b < clearance:
                continue
            try:
                roots = geometry.fiber(f, cand)
            except Exception:
                continue
            if len(roots) >= 1 and (best is None or len(roots) > len(best[1])):
                best = (cand, roots)
        if best is not None:
            break
    if best is None:
        raise FiberError("no admissible base point found near f(0)")
    return complex(best[0]), best[1]


def inner_factor_from_block(fiber, block):
    """Blaschke product whose zeros are the block's fiber points (phase 0).

    If f factors through an inner factor whose fiber block this is, the
    product differs from that factor only by a disk automorphism of the
    target, which the outer factor absorbs.
    """
    return BlaschkeProduct(tuple(fiber[i] for i in block), 0.0)


def outer_factor(f, zeros, degree):
    """Exact outer factors h = A/C with f = h o B_hat, one per row of zeros.

    Row s of the (S, d) array ``zeros`` is the zero set of the phase-0 inner
    factor B_hat = N/D, and k = degree / d, where degree is deg f once the
    common factors of P and Q are cancelled (see _reduced_degree).  The
    identity
    sum_j (c_j P - a_j Q) N^j D^(k-j) = 0 is linear in (c, a).  It is taken
    divided by D^k, as P(z) C(B_hat(z)) - Q(z) A(B_hat(z)) = 0, at the
    2 deg f + 1 roots of unity: a polynomial of degree 2 deg f vanishes
    there only if it vanishes identically, and dividing by D^k keeps the
    rows near a zero of B_hat close to the circle at full weight.  (At
    d = 1 and k = deg f it is 2k + 2 roots, so that there are as many rows
    as columns.)  With the columns normalized, one stacked SVD gives each
    row's null vector, scaled so that C(0) = 1, and its score
    sigma_min / sigma_max.  Returns
    (A, C, score): (S, k+1) constant-first coefficient stacks and (S,) scores.
    """
    f = RationalFunction.from_spec(f)
    zeros = np.atleast_2d(np.asarray(zeros, dtype=complex))
    n, d = f.degree, zeros.shape[1]
    if degree % d:
        raise ValueError(f"inner order {d} does not divide deg f = {degree}")
    k = degree // d
    rows = max(2 * n + 1, 2 * k + 2)
    z = np.exp(2j * np.pi * np.arange(rows) / rows)
    powers = _inner_values(zeros, z)[:, :, None] ** np.arange(k + 1)
    M = np.concatenate([np.polyval(f.P[::-1], z)[:, None] * powers,
                        -np.polyval(f.Q[::-1], z)[:, None] * powers], axis=2)
    norms = np.linalg.norm(M, axis=1)
    _, s, Vh = np.linalg.svd(M / norms[:, None, :], full_matrices=False)
    x = Vh[:, -1].conj() / norms
    # an outer factor has no pole in the disk, so a null vector with C(0) = 0
    # is none; it is divided by 1 instead, for its residual to reject
    x /= np.where(x[:, :1] == 0, 1.0, x[:, :1])
    x[:, 0] = 1.0
    return x[:, k + 1:], x[:, : k + 1], s[:, -1] / s[:, 0]


def _inner_values(zeros, z):
    """The phase-0 inner factor of each row of zeros at the points z, (S, len(z))."""
    p = zeros[:, :, None]
    return np.prod((p - z) / (1.0 - p.conj() * z), axis=1)


def _residuals(fz, zs, zeros, A, C):
    """max |f - h o B_hat| over the held-out points zs (f's values fz), per row of zeros."""
    w = _inner_values(zeros, zs)
    h = npoly.polyval(w, A.T[..., None], tensor=False) / npoly.polyval(w, C.T[..., None], tensor=False)
    return np.max(np.abs(fz - h), axis=1)


# The block search: the most blocks one decomposition may propose, the most
# solved in one stack, and the distance below which two values of an inner
# factor on the fiber count as one level.
_CANDIDATE_CAP = 20000
_CHUNK = 2048
_LEVEL_TOL = 1e-6


def _level_sets(fiber, block):
    """The fiber partitioned by the values of the block's inner factor."""
    vals = inner_factor_from_block(fiber, block)(np.array(fiber))
    # the values lie in the disk, where _groups' tolerance is absolute
    return tuple(sorted(tuple(g) for g in _groups(vals, _LEVEL_TOL)))


def _reduced_degree(f, fiber_size, zs, fz):
    """deg f with the common factors of P and Q cancelled, or None.

    A sum or product of specs reduces to a P/Q that can share factors, and
    then deg P/Q overstates deg f.  deg f is at least the fiber size, so it
    is the least degree from there up to deg P/Q whose outer factor for the
    inner factor -z (f itself, up to the sign of z) reproduces f on the
    held-out points zs, where f takes the values fz, to _RESIDUAL_TOL.  None
    when no degree does: the solve cannot reproduce f itself.
    """
    zero = np.zeros((1, 1))  # the inner factor -z
    for degree in range(fiber_size, f.degree + 1):
        A, C, _ = outer_factor(f, zero, degree)
        if _residuals(fz, zs, zero, A, C)[0] < _RESIDUAL_TOL:
            return degree
    return None


def _block_partitions(f, degree, fiber, d, zs, fz):
    """Sorted partitions into d-point level sets induced by the accepted blocks.

    Every block of d fiber points containing sheet 0 gives a candidate inner
    factor; its outer factor (of degree degree / d, degree being the reduced
    deg f) is solved in stacks of at most _CHUNK blocks, and the block is
    accepted when its residual on the held-out points zs (f's values fz) is
    below _RESIDUAL_TOL.  Empty when d does not divide the degree.
    """
    if degree % d:
        return []
    pts = np.array(fiber)
    blocks = [(0,) + rest for rest in combinations(range(1, len(fiber)), d - 1)]
    partitions = set()
    for start in range(0, len(blocks), _CHUNK):
        chunk = blocks[start:start + _CHUNK]
        rows = np.array(chunk)
        A, C, _ = outer_factor(f, pts[rows], degree)
        residuals = _residuals(fz, zs, pts[rows], A, C)
        for block in (b for b, r in zip(chunk, residuals) if r < _RESIDUAL_TOL):
            partition = _level_sets(fiber, block)
            if all(len(b) == d for b in partition):
                partitions.add(partition)
    return sorted(partitions)


# The serialized Taylor polynomial of an outer factor: cut where the rest of
# the series at |w| = _TAYLOR_RADIUS is below _TAYLOR_TAIL relative.
_TAYLOR_RADIUS = 0.8
_TAYLOR_TAIL = 1e-13


def outer_taylor(h):
    """Taylor coefficients of the rational h, cut at the 1e-13 tail at |w| = 0.8.

    The expansion doubles from 64 terms until its last term at radius 0.8 is
    below 1e-16 of the largest (at most 4096 terms); it is then cut at the
    first index where the sum of the remaining terms falls below 1e-13 of
    the largest, which bounds h on |w| <= 0.8 from below.
    """
    K = 64
    while True:
        c = series.rational(h.P, h.Q, np.eye(1, K, dtype=complex)[0])
        t = np.abs(c) * _TAYLOR_RADIUS ** np.arange(K)
        if t[-1] <= 1e-16 * t.max() or K >= 4096:
            break
        K *= 2
    rest = np.cumsum(t[::-1])[::-1]
    return c[: max(int(np.sum(rest > _TAYLOR_TAIL * t.max())), 1)]


@dataclass
class Decomposition:
    """Certified factorization f = h o B with B of maximal order."""

    inner: BlaschkeProduct
    outer: object  # RationalFunction, or the original spec when m == 1
    m: int
    residual: float
    base_point: complex
    fiber: tuple
    branch_values: list
    candidates_tried: int
    test_points: int
    certificate: str
    block_score: float | None = None  # sigma_min / sigma_max of the outer solve

    def outer_dict(self):
        """The spec form when m == 1, else the coefficients, Taylor polynomial and score."""
        h = self.outer
        if self.m == 1:
            return {"spec": spec_to_text(h)}
        return {
            "numerator": _pairs(h.P),
            "denominator": _pairs(h.Q),
            "taylor": _pairs(outer_taylor(h)),
            "block_score": self.block_score,
        }

    def to_dict(self):
        return {
            "certificate": self.certificate,
            "inner_zeros": _pairs(self.inner.zeros),
            "inner_theta": self.inner.theta,
            "m": self.m,
            "outer": self.outer_dict(),
            "residual": self.residual,
            "base_point": [self.base_point.real, self.base_point.imag],
            "test_points": self.test_points,
            "branch_values": _pairs(self.branch_values),
            "candidates_tried": self.candidates_tried,
        }


def _pairs(values):
    return [[c.real, c.imag] for c in values]


@functools.cache
def _held_out_points(count):
    """count points drawn uniformly from the disk |z| <= 0.95, one fixed seed;
    drawn once per process and returned read-only."""
    rng = np.random.default_rng(20240613)
    pts = np.zeros(0, dtype=complex)
    while pts.size < count:
        zs = rng.uniform(-0.95, 0.95, size=(256, 2)) @ np.array([1.0, 1j])
        pts = np.concatenate([pts, zs[np.abs(zs) <= 0.95]])
    pts = pts[:count]
    pts.flags.writeable = False
    return pts


def _certificate_id(spec, omega0):
    try:
        text = spec_to_text(spec)
    except TypeError:
        text = repr(spec)
    digest = hashlib.sha1(f"{text}|{omega0:.12g}".encode()).hexdigest()
    return f"dec-{digest[:12]}"


def decompose(spec, omega0=None):
    """Maximal Blaschke inner factor of f with a residual certificate.

    Block sizes d dividing both the fiber size and the reduced deg f are
    searched largest first; the partitions of a size (see _block_partitions)
    are tried in sorted order, and the first whose best-conditioned block's
    outer factor reproduces f on the held-out points to _RESIDUAL_TOL wins.
    No passing candidate means f is indecomposable: m = 1 with f itself as
    the outer factor.  A search over more than _CANDIDATE_CAP blocks of the
    sizes dividing the fiber size raises FiberError instead, and so does a
    search without a passing candidate when the solve does not reproduce f
    for the inner factor z.
    """
    f = RationalFunction.from_spec(spec)
    curve = geometry.boundary_curve(f, 1024)
    bvs = _clustered_branch_values(f)
    roots = None  # base_fiber solves the fiber of a supplied base point
    if omega0 is None:
        omega0, roots = default_base_point(f, curve, bvs)
    else:
        omega0 = complex(omega0)
        d_curve = float(np.min(np.abs(curve - omega0)))
        d_b = min((abs(omega0 - b) for b in bvs), default=np.inf)
        if d_curve <= 1e-3 or d_b <= 1e-3:
            raise FiberError(
                f"base point {omega0} is within 1e-3 of the branch set or boundary"
            )
    cert = _certificate_id(spec, omega0)
    fiber = base_fiber(f, omega0, roots)
    n = len(fiber)
    if n == 0:
        raise FiberError(f"{omega0} is outside the image of the disk")
    zs = _held_out_points(_TEST_POINTS)
    fz = f.value(zs)
    degree = _reduced_degree(f, n, zs, fz)
    trusted = degree is not None
    degree = f.degree if degree is None else degree
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
        for partition in _block_partitions(f, degree, fiber, d, zs, fz):
            # any block works (they differ by a target automorphism); the one
            # with the smallest zero moduli gives the best-conditioned factor
            block = min(
                partition, key=lambda b: max(abs(fiber[i]) for i in b)
            )
            bhat = inner_factor_from_block(fiber, block)
            zeros = np.array([bhat.zeros])
            A, C, score = outer_factor(f, zeros, degree)
            residual = float(_residuals(fz, zs, zeros, A, C)[0])
            if residual < _RESIDUAL_TOL:
                return Decomposition(
                    inner=bhat,
                    outer=RationalFunction(A[0], C[0]),
                    m=d,
                    residual=residual,
                    base_point=omega0,
                    fiber=fiber,
                    branch_values=bvs,
                    candidates_tried=tried,
                    test_points=_TEST_POINTS,
                    certificate=cert,
                    block_score=float(score[0]),
                )
    if not trusted:
        raise FiberError(
            "the outer factor solve does not reproduce f itself (inner factor z) "
            f"to {_RESIDUAL_TOL}, so rejecting every block does not show m = 1"
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
        test_points=0,
        certificate=cert,
    )
