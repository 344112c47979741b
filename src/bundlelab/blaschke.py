"""Finite Blaschke products, Moebius transforms, fibers, and critical points.

A Blaschke product of order m is ``e^{i theta} * prod (z_j - z)/(1 - conj(z_j) z)``
with all zeros strictly inside the unit disk; it maps the disk onto itself
m-to-1 and has modulus one on the circle.  Fibers (all disk preimages of a
value, with multiplicity) are computed through companion-matrix roots of the
rational form plus Newton polishing; :func:`fiber_roots` and
:func:`with_multiplicity` are the one fiber path every module uses.
:func:`fiber_roots` solves one fiber polynomial per call and polishes all
of its roots in one vectorized Newton loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryRootWarning, DomainError, RootFindingError

__all__ = [
    "BlaschkeProduct",
    "MoebiusTransform",
    "eval_blaschke",
    "compose_blaschke",
    "moebius_inverse",
    "fiber_roots",
    "with_multiplicity",
    "solve_fiber",
    "critical_points",
    "moebius",
]

_ZERO_MARGIN = 1e-12
_INTERIOR = 1.0 - 1e-9
_BOUNDARY_BAND = 1e-6
_CLUSTER_TOL = 1e-8
_POLISH_TOL = 1e-12


@dataclass(frozen=True)
class BlaschkeProduct:
    """Zero list inside the disk plus a unimodular phase factor e^{i theta}."""

    zeros: tuple = ()
    theta: float = 0.0

    def __post_init__(self):
        zs = tuple(complex(z) for z in self.zeros)
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * np.pi))
        for z in zs:
            if abs(z) >= 1.0 - _ZERO_MARGIN:
                raise DomainError(f"Blaschke zero {z} is not strictly inside the disk")

    @property
    def order(self):
        return len(self.zeros)

    @property
    def phase(self):
        return complex(np.exp(1j * self.theta))

    def __call__(self, z):
        return eval_blaschke(self, z)

    def star(self):
        """Coefficient-conjugate product: zeros conjugated, phase reflected."""
        return BlaschkeProduct(tuple(np.conj(z) for z in self.zeros), -self.theta)

    def rational(self):
        """Numerator/denominator coefficient arrays, constant term first."""
        num = np.array([self.phase], dtype=complex)
        den = np.array([1.0 + 0.0j])
        for z in self.zeros:
            num = np.convolve(num, np.array([z, -1.0], dtype=complex))
            den = np.convolve(den, np.array([1.0, -np.conj(z)], dtype=complex))
        return num, den


class MoebiusTransform(BlaschkeProduct):
    """Order-1 Blaschke product: a disk automorphism."""

    def __init__(self, z0, theta=0.0):
        super().__init__((complex(z0),), theta)

    @property
    def z0(self):
        return self.zeros[0]


def moebius(z0, theta=0.0):
    """The automorphism e^{i theta} (z0 - z)/(1 - conj(z0) z)."""
    return MoebiusTransform(z0, theta)


def eval_blaschke(B, z):
    """Evaluate the product at one point or an array of points."""
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, B.phase, dtype=complex)
    for zj in B.zeros:
        out *= (zj - z) / (1.0 - np.conj(zj) * z)
    return out if out.shape else complex(out)


def compose_blaschke(B1, B2):
    """The Blaschke product B1 o B2, of order m1 * m2.

    Zeros are the B2-preimages of the zeros of B1 (with multiplicity); the
    phase is fixed by matching one probe evaluation rather than by symbolic
    phase algebra.
    """
    from .funcspec import BlaschkeSpec

    zeros = []
    spec2 = BlaschkeSpec(B2)
    for zj in B1.zeros:
        zeros.extend(solve_fiber(spec2, zj))
    candidate = BlaschkeProduct(tuple(zeros), 0.0)
    for probe in (0.31 + 0.17j, -0.22 + 0.41j, 0.05 - 0.53j):
        denom = eval_blaschke(candidate, probe)
        if abs(denom) > 1e-6:
            ratio = eval_blaschke(B1, eval_blaschke(B2, probe)) / denom
            return BlaschkeProduct(tuple(zeros), float(np.angle(ratio)))
    raise RootFindingError("could not fix the phase of a composed Blaschke product")


def moebius_inverse(phi):
    """The inverse automorphism, verified on 20 probe points to 1e-12."""
    if phi.order != 1:
        raise DomainError("moebius_inverse needs an order-1 Blaschke product")
    z0 = phi.zeros[0]
    w0 = phi.phase * z0  # the inverse sends phi(0) back to 0
    p = 0.3
    image = eval_blaschke(phi, p)
    ratio = p * (1.0 - np.conj(w0) * image) / (w0 - image) if abs(w0 - image) > 0 else 1.0
    psi = MoebiusTransform(w0, float(np.angle(ratio)))
    probes = 0.9 * np.exp(2j * np.pi * np.arange(20) / 20.0) * np.linspace(0.3, 1.0, 20)
    err = np.max(np.abs(eval_blaschke(psi, eval_blaschke(phi, probes)) - probes))
    if err > 1e-12:
        raise RootFindingError(f"Moebius inverse probe identity failed ({err:.2e})")
    return psi


def _poly_roots(coeffs):
    """Roots of one constant-first polynomial, as complex numbers.

    numpy.roots after trimming the top coefficients of modulus at most
    1e-300; a zero polynomial has no isolated roots and raises.
    """
    c = np.asarray(coeffs, dtype=complex)
    if np.max(np.abs(c)) == 0.0:
        raise RootFindingError("zero polynomial has no isolated roots")
    c = c[: np.flatnonzero(np.abs(c) > 1e-300)[-1] + 1]
    # numpy.roots gives float zeros when every root is an exact zero
    return np.roots(c[::-1]).astype(complex)


def _newton_polish(coeffs, roots, tol=_POLISH_TOL, iters=50):
    """Polish roots of one constant-first polynomial, all roots at once.

    Each root stops on its own: relative residual below tol with a Newton
    step below tol (1 + |z|) (so an ill-conditioned root, one with a small
    derivative, keeps polishing to the noise floor), a flat derivative, a
    step below 1e-16 (1 + |z|), or after iters steps.  Moduli are taken with
    ``hypot``, as Python's ``abs`` of one complex value does.
    """
    c = np.asarray(coeffs, dtype=complex)
    p = c[::-1]
    dp = (c[1:] * np.arange(1, c.size))[::-1]
    scale = max(np.max(np.abs(c)), 1e-300)
    z = np.array(roots, dtype=complex)
    live = np.arange(z.size)
    for _ in range(iters):
        if live.size == 0:
            break
        x = z[live]
        v, dv = np.polyval(p, x), np.polyval(dp, x)
        # negated tests: a NaN modulus stops nothing, as in a scalar loop
        av, adv = np.hypot(v.real, v.imag), np.hypot(dv.real, dv.imag)
        go = ~(av <= tol * scale) | ~(av <= tol * adv * (1.0 + np.hypot(x.real, x.imag)))
        go &= ~(adv < 1e-300)
        live = live[go]
        step = v[go] / dv[go]
        x = x[go] - step
        z[live] = x
        small = np.hypot(step.real, step.imag) < 1e-16 * (1.0 + np.hypot(x.real, x.imag))
        live = live[~small]
    return z


def fiber_roots(R, radius):
    """Newton-polished roots of constant-first R with |z| < radius, in solver order.

    The single fiber solve: companion-matrix roots, then Newton polishing.
    Only the roots below twice the radius are polished: polishing moves a
    root by far less than its modulus, so one beyond that cannot end inside,
    and far out its polynomial overflows.
    """
    roots = _poly_roots(R)
    near = np.abs(roots) < 2.0 * radius
    roots[near] = _newton_polish(R, roots[near])
    return roots[np.abs(roots) < radius]


def _lex_key(z, quantum=1e-9):
    """(re, im) lexicographic key, quantized so roundoff cannot flip order."""
    z = complex(z)
    return (round(z.real / quantum), round(z.imag / quantum))


class _UnionFind:
    """Disjoint sets over 0..n-1: union links root to root, find halves paths."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self):
        """Members of each set, sets in order of their first member."""
        out = {}
        for i in range(len(self.parent)):
            out.setdefault(self.find(i), []).append(i)
        return list(out.values())


def _cluster(points, tol=_CLUSTER_TOL):
    """Group points within tol; returns (centroid, size) pairs."""
    pts = list(points)
    uf = _UnionFind(len(pts))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) <= tol * max(1.0, abs(pts[i])):
                uf.union(i, j)
    return [(complex(np.mean([pts[k] for k in g])), len(g)) for g in uf.groups()]


def with_multiplicity(points, tol=_CLUSTER_TOL):
    """Cluster centroids, each repeated by its cluster size, in _lex_key order."""
    out = []
    for centroid, size in _cluster(points, tol):
        out.extend([centroid] * size)
    return sorted(out, key=_lex_key)


def solve_fiber(spec, omega, cluster_tol=_CLUSTER_TOL):
    """All zeros of spec(z) - omega strictly inside the disk, with multiplicity.

    Roots come from :func:`fiber_roots` on P - omega*Q and are clustered for
    multiplicity detection.  A root within 1e-6 of the unit circle triggers
    BoundaryRootWarning and is excluded from the interior list.
    """
    from .funcspec import RationalFunction

    R = RationalFunction.from_spec(spec).fiber_poly(omega)
    roots = fiber_roots(R, np.inf)
    scale = max(np.max(np.abs(R)), 1e-300)
    # Multiple roots satisfy |R| ~ |z - z*|^mu; accept when the residual is
    # small in that weaker sense as well.
    for res in np.abs(np.polyval(R[::-1], roots)):
        if res > 1e-6 * scale:
            raise RootFindingError(
                f"root polish stalled at residual {res / scale:.2e} for value {omega}"
            )
    r = np.abs(roots)
    near = np.abs(r - 1.0) < _BOUNDARY_BAND
    for z in roots[near]:
        warnings.warn(
            f"fiber root {z:.12g} lies within 1e-6 of the unit circle",
            BoundaryRootWarning,
            stacklevel=2,
        )
    return with_multiplicity(roots[~near & (r < _INTERIOR)], cluster_tol)


def critical_points(spec):
    """Disk zeros of the derivative, paired with their branch values.

    Returns a list of ``(point, value)`` with multiplicity, sorted like
    :func:`solve_fiber`.
    """
    from .funcspec import RationalFunction

    f = RationalFunction.from_spec(spec)
    if np.max(np.abs(f.N1)) == 0.0:
        return []
    points = with_multiplicity(fiber_roots(f.N1, _INTERIOR))
    return [(z, complex(f.value(z))) for z in points]
