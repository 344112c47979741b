"""Numerical monodromy and maximal inner-factor decomposition.

Given f analytic on the closed disk, the fiber over a base value is tracked
around loops encircling the branch values; the induced permutations generate
the monodromy action.  Generator-stable partitions of the fiber (block
systems) are factorization candidates: a block of fiber points is the zero
set of a candidate inner Blaschke factor, and the outer factor is recovered
by sampling on a circle of preimages.  A candidate only counts when every
preimage of a sample point carries the same f-value and the reassembled
composition reproduces f on held-out points; the residual certificate is
the acceptance authority, not the group theory.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .blaschke import BlaschkeProduct, _cluster, _lex_key, _UnionFind
from .blaschke import fiber_roots, with_multiplicity
from .errors import (
    DomainError,
    FiberError,
    RootFindingError,
    StepSizeUnderflowError,
)
from .funcspec import RationalFunction, spec_to_text

__all__ = [
    "Fiber",
    "MonodromyAction",
    "RecoveredOuter",
    "Decomposition",
    "base_fiber",
    "track_fiber",
    "loop_permutation",
    "monodromy_generators",
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
        pts = self.points
        if len(pts) < 2:
            return np.inf
        return min(
            abs(pts[i] - pts[j])
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        )


def identity_blaschke():
    """The automorphism that is literally z (zero at 0, phase pi)."""
    return BlaschkeProduct((0.0,), np.pi)


def _as_rational(spec):
    if isinstance(spec, RationalFunction):
        return spec
    return RationalFunction.from_spec(spec)


def base_fiber(spec, omega0):
    """Distinct fiber points over omega0, validated against the winding index.

    The count must match the argument-principle/root-count index, and the
    points must be separated by more than 1e-6 (otherwise omega0 sits too
    close to a branch value and must be re-chosen).
    """
    f = _as_rational(spec)
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


def track_fiber(spec, fiber, path, newton_tol=1e-11):
    """Predictor-corrector continuation of every fiber point along a polyline.

    The step size adapts so that no accepted state lets the pairwise
    separation drop below half its running minimum, no point moves by more
    than a fraction of that separation in one step (which would risk a sheet
    swap), and every corrected point satisfies |f(z) - omega| below the
    tolerance.  Failure to make progress raises StepSizeUnderflowError.
    """
    f = _as_rational(spec)
    pts = np.array(fiber.points, dtype=complex)
    path = np.asarray(path, dtype=complex)
    if abs(path[0] - fiber.base) > 1e-9:
        raise FiberError("path must start at the fiber's base value")
    run_min = _pairwise_min(pts)
    tol = newton_tol * (1.0 + float(np.max(np.abs(path))))
    for a, b in zip(path[:-1], path[1:]):
        seg = b - a
        if seg == 0:
            continue
        s = 0.0
        h = 1.0
        while s < 1.0:
            h = min(h, 1.0 - s)
            target = a + (s + h) * seg
            cur = a + s * seg
            new = _step(f, pts, cur, target, tol)
            ok = new is not None
            if ok:
                move = float(np.max(np.abs(new - pts)))
                sep = _pairwise_min(new)
                ok = (
                    sep > max(0.5 * run_min, _MIN_SEPARATION)
                    and move <= 0.45 * run_min
                    and np.all(np.abs(new) < 1.0 - 1e-9)
                )
            if ok:
                pts = new
                s += h
                run_min = min(run_min, _pairwise_min(pts))
                h = min(h * 1.7, 1.0)
            else:
                h *= 0.5
                if h < 1e-9:
                    raise StepSizeUnderflowError(
                        f"tracking stalled near {cur} (separation "
                        f"{_pairwise_min(pts):.3e})"
                    )
    return Fiber(complex(path[-1]), tuple(pts))


def _step(f, pts, cur, target, tol):
    d = f.derivative(pts)
    if np.any(np.abs(d) < 1e-14):
        return None
    new = pts + (target - cur) / d
    for _ in range(16):
        r = f.value(new) - target
        if np.max(np.abs(r)) <= tol:
            return new
        d = f.derivative(new)
        if np.any(np.abs(d) < 1e-14) or not np.all(np.isfinite(d)):
            return None
        step = r / d
        if np.max(np.abs(step)) > 0.5:
            return None
        new = new - step
    return None


def loop_permutation(spec, fiber, path):
    """Track a closed loop and match the final fiber to the starting one.

    Returns the permutation p with p[i] = j when sheet i arrives at the
    starting position of sheet j.
    """
    final = track_fiber(spec, fiber, path)
    start = np.array(fiber.points)
    out = np.array(final.points)
    n = start.size
    perm = [-1] * n
    used = set()
    thresh = 0.45 * max(_pairwise_min(start), _MIN_SEPARATION)
    for i in range(n):
        dists = np.abs(out[i] - start)
        j = int(np.argmin(dists))
        if dists[j] > thresh or j in used:
            raise FiberError("loop endpoints do not match the starting fiber")
        used.add(j)
        perm[i] = j
    return tuple(perm)


@dataclass
class MonodromyAction:
    """Loop permutations around the reachable branch values."""

    fiber: Fiber
    generators: list
    branch_values: list
    skipped: list
    transitive: bool
    closure_size: int | None

    @property
    def degree(self):
        return self.fiber.size


def _orbit(n, gens, start=0):
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for g in gens:
            if g[x] not in seen:
                seen.add(g[x])
                frontier.append(g[x])
    return seen


def _closure_size(n, gens, cap=20000):
    if not gens:
        return 1
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[p[i]] for i in range(n))
            if q not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(q)
                frontier.append(q)
    return len(seen)


def _segment_with_detours(a, b, obstacles, clearance, depth=0):
    """Waypoints from a to b dodging obstacle points by the given clearance."""
    if depth > 8:
        return [a, b]
    seg = b - a
    L = abs(seg)
    if L == 0:
        return [a, b]
    for obs, rad in obstacles:
        t = np.clip(((obs - a) / seg).real, 0.0, 1.0)
        foot = a + t * seg
        c = max(clearance, rad)
        if abs(obs - foot) < c and 0.0 < t < 1.0:
            normal = 1j * seg / L
            side = normal if abs(foot + normal * c - obs) > abs(foot - normal * c - obs) else -normal
            mid = obs + side * 1.5 * c
            left = _segment_with_detours(a, mid, obstacles, clearance, depth + 1)
            right = _segment_with_detours(mid, b, obstacles, clearance, depth + 1)
            return left[:-1] + right
    return [a, b]


def monodromy_generators(spec, omega0=None, ring_points=24):
    """Loop permutations around each reachable branch value.

    For each branch value in the base point's component, the loop is a
    straight approach (with detours around the other branch values), a full
    circle around the value, and the reversed approach.  Branch values whose
    loop cannot keep clear of the boundary curve are skipped and reported.
    """
    f = _as_rational(spec)
    curve = geometry.boundary_curve(f, 1024)
    if omega0 is None:
        omega0 = default_base_point(spec, curve=curve)
    fiber = base_fiber(f, omega0)
    bvs = _clustered_branch_values(spec)
    gens = []
    looped = []
    skipped = []
    scale = _bbox(curve)
    for b in bvs:
        others = [x for x in bvs if x != b]
        d_base = abs(omega0 - b)
        d_other = min((abs(b - x) for x in others), default=np.inf)
        d_curve = float(np.min(np.abs(curve - b)))
        r = max(1e-2, d_base / 4.0)
        r = min(r, 0.4 * d_other, 0.5 * d_curve, 0.6 * d_base)
        if not np.isfinite(r) or r < 1e-6:
            skipped.append((b, "crowded"))
            continue
        entry = b + r * (omega0 - b) / d_base
        obstacles = [(x, max(1e-2, 0.25 * abs(x - b))) for x in others]
        seg = _segment_with_detours(omega0, entry, obstacles, max(5e-3, 0.02 * scale))
        ang0 = np.angle(entry - b)
        ring = [
            b + r * np.exp(1j * (ang0 + 2.0 * np.pi * k / ring_points))
            for k in range(1, ring_points)
        ]
        loop = seg + ring + [entry] + seg[::-1]
        loop_min_curve = float(
            np.min(np.abs(np.asarray(loop)[:, None] - curve[None, :]))
        )
        if loop_min_curve < max(2e-3, 5e-3 * scale):
            skipped.append((b, "loop leaves the component"))
            continue
        try:
            gens.append(loop_permutation(f, fiber, np.array(loop)))
            looped.append(b)
        except (FiberError, StepSizeUnderflowError, RootFindingError) as exc:
            skipped.append((b, f"tracking failed: {exc}"))
    n = fiber.size
    transitive = len(_orbit(n, gens)) == n if n else True
    return MonodromyAction(
        fiber=fiber,
        generators=gens,
        branch_values=looped,
        skipped=skipped,
        transitive=transitive,
        closure_size=_closure_size(n, gens),
    )


def _clustered_branch_values(spec):
    clusters = _cluster(geometry.branch_values(spec), tol=1e-6)
    return sorted((centroid for centroid, _ in clusters), key=_lex_key)


def _bbox(curve):
    return float(
        np.hypot(np.ptp(curve.real), np.ptp(curve.imag))
    )


def default_base_point(spec, curve=None):
    """f(0) nudged off the branch set and the boundary curve, deterministically.

    Candidates spiral outward from f(0); among admissible ones (clear of the
    branch values and the curve) the one with the largest index is taken, so
    the decomposition runs over the maximal-index component when possible.
    """
    f = _as_rational(spec)
    if curve is None:
        curve = geometry.boundary_curve(f, 1024)
    bvs = _clustered_branch_values(spec)
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


def _pair_closure_partition(n, gens, a, b):
    """Finest generator-stable partition merging sheets a and b."""
    uf = _UnionFind(n)
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        rx, ry = uf.find(x), uf.find(y)
        if rx == ry:
            continue
        uf.union(rx, ry)
        for g in gens:
            stack.append((g[rx], g[ry]))
    return _canonical_partition(uf.groups())


def _canonical_partition(blocks):
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def _join(n, p1, p2):
    uf = _UnionFind(n)
    for part in (p1, p2):
        for block in part:
            for x in block[1:]:
                uf.union(block[0], x)
    return _canonical_partition(uf.groups())


def _stable_partitions(n, gens):
    """Join-closure of all pair-closure partitions (plus the full partition)."""
    found = set()
    for i in range(1, n):
        found.add(_pair_closure_partition(n, gens, 0, i))
    frontier = list(found)
    while frontier:
        p = frontier.pop()
        for q in list(found):
            j = _join(n, p, q)
            if j not in found:
                found.add(j)
                frontier.append(j)
    found.add((tuple(range(n)),))
    return found


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

    The Taylor polynomial is the serialized artifact and is trusted for
    |w| <= eval_radius; through the defining pair (source f, inner factor),
    ``oracle_value`` and the chain-rule derivatives evaluate h anywhere in the
    disk by solving the inner fiber exactly.
    """

    radius: float
    samples: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    source: object = field(repr=False)  # RationalFunction of f
    inner: object = field(repr=False)  # inner factor, rational
    noise_floor: float = 0.0
    consistency: float = 0.0
    eval_radius: float = 0.8

    def _preimage(self, w):
        """One inner-factor preimage of w, preferring large |inner'|."""
        roots = fiber_roots(self.inner.fiber_poly(w), 1.0)
        if roots.size == 0:
            raise DomainError(f"no inner-factor preimage of {w} inside the disk")
        d = np.abs(self.inner.derivative(roots))
        return complex(roots[int(np.argmax(d))])

    def oracle_value(self, w):
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        out = np.array([self.source.value(self._preimage(x)) for x in w])
        return out if out.size > 1 else complex(out[0])

    def oracle_derivative(self, w):
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        vals = []
        for x in w:
            z = self._preimage(x)
            vals.append(self.source.derivative(z) / self.inner.derivative(z))
        out = np.array(vals)
        return out if out.size > 1 else complex(out[0])

    def oracle_second_derivative(self, w):
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        vals = []
        for x in w:
            z = self._preimage(x)
            fp = self.source.derivative(z)
            fpp = self.source.second_derivative(z)
            bp = self.inner.derivative(z)
            bpp = self.inner.second_derivative(z)
            vals.append((fpp * bp - fp * bpp) / bp**3)
        out = np.array(vals)
        return out if out.size > 1 else complex(out[0])

    def oracle_preimages(self, v, radius=0.97):
        """h-preimages of v: inner-factor images of the f-fiber over v."""
        roots = fiber_roots(self.source.fiber_poly(v), 1.0)
        ws = [complex(self.inner.value(z)) for z in roots]
        inside = [w for w in ws if abs(w) <= radius]
        return sorted((c for c, _ in _cluster(inside, tol=1e-7)), key=_lex_key)

    def value(self, w):
        w = np.asarray(w, dtype=complex)
        if np.any(np.abs(w) > self.eval_radius + 1e-12):
            raise DomainError(
                f"recovered outer factor is trusted only for |w| <= {self.eval_radius}"
            )
        out = np.polyval(self.coeffs[::-1], w)
        return out if out.shape else complex(out)

    def tail_report(self):
        if self.coeffs.size == 0:
            return 0.0
        scale = max(float(np.max(np.abs(self.samples))), 1e-300)
        return float(abs(self.coeffs[-1]) * self.radius ** (self.coeffs.size - 1) / scale)


def outer_factor(spec, bhat, r=0.7, S=1024, tol=_CONSISTENCY_TOL):
    """Recover h with f = h o bhat by sampling h on the circle |w| = r.

    For every sample w the full bhat-fiber is computed; h(w) is set from the
    first preimage and all others must agree within the tolerance, otherwise
    the block is invalid for f and FiberError is raised.  Taylor coefficients
    come from the discrete Fourier transform of the circle samples, trimmed
    at the noise floor.
    """
    if not (0.0 < r < 1.0):
        raise ValueError("sampling radius must lie in (0, 1)")
    if S & (S - 1):
        raise ValueError("sample count must be a power of two")
    f = _as_rational(spec)
    bres = RationalFunction(*bhat.rational())
    ws = r * np.exp(2j * np.pi * np.arange(S) / S)
    samples = np.empty(S, dtype=complex)
    worst = 0.0
    for s, w in enumerate(ws):
        roots = fiber_roots(bres.fiber_poly(w), 1.0)
        if roots.size != bhat.order:
            raise FiberError(
                f"inner-factor fiber at sample {s} has {roots.size} points, "
                f"expected {bhat.order}"
            )
        vals = f.value(np.sort_complex(roots))
        spread = float(np.max(np.abs(vals - vals[0])))
        worst = max(worst, spread)
        scale = max(1.0, float(np.max(np.abs(vals))))
        if spread > tol * scale:
            raise FiberError(
                f"outer recovery inconsistency {spread:.3e} at sample {s}: "
                "the block system does not factor f"
            )
        samples[s] = vals[0]
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


@dataclass
class Decomposition:
    """Certified factorization f = h o B with B of maximal order."""

    inner: BlaschkeProduct
    outer: object  # RecoveredOuter, or the original spec when m == 1
    m: int
    residual: float
    base_point: complex
    fiber: Fiber
    action: MonodromyAction | None
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
            "branch_values": [
                [b.real, b.imag] for b in (self.action.branch_values if self.action else [])
            ],
            "generators": [
                _cycle_notation(g) for g in (self.action.generators if self.action else [])
            ],
        }


def _cycle_notation(perm):
    n = len(perm)
    seen = set()
    parts = []
    for i in range(n):
        if i in seen or perm[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        j = perm[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = perm[j]
        seen.add(i)
        parts.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def _held_out_points(bhat, count, limit, rng_seed=20240613, cap=40000):
    rng = np.random.default_rng(rng_seed)
    pts = []
    bres = RationalFunction(*bhat.rational())
    draws = 0
    while len(pts) < count and draws < cap:
        block = rng.uniform(-0.95, 0.95, size=(256, 2))
        draws += 256
        zs = block[:, 0] + 1j * block[:, 1]
        zs = zs[np.abs(zs) <= 0.95]
        vals = bres.value(zs)
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

    Candidate partitions are the join-closure of the pair-closure block
    systems plus the full fiber, tested in decreasing block size; the first
    candidate whose outer recovery is consistent and whose reassembled
    composition matches f on held-out points wins.  No passing candidate
    means f is indecomposable: m = 1 with f itself as the outer factor.
    """
    f = _as_rational(spec)
    curve = geometry.boundary_curve(f, 1024)
    if omega0 is None:
        omega0 = default_base_point(spec, curve=curve)
    else:
        omega0 = complex(omega0)
        d_curve = float(np.min(np.abs(curve - omega0)))
        bvs = _clustered_branch_values(spec)
        d_b = min((abs(omega0 - b) for b in bvs), default=np.inf)
        if d_curve <= 1e-3 or d_b <= 1e-3:
            raise FiberError(
                f"base point {omega0} is within 1e-3 of the branch set or boundary"
            )
    cert = _certificate_id(spec, omega0)
    action = monodromy_generators(spec, omega0)
    fiber = action.fiber
    n = fiber.size
    if n == 0:
        raise FiberError(f"{omega0} is outside the image of the disk")
    candidates = []
    if n > 1 and action.transitive:
        for p in _stable_partitions(n, action.generators):
            sizes = {len(b) for b in p}
            if len(sizes) != 1:
                continue
            d = sizes.pop()
            if d > 1 and n % d == 0:
                candidates.append((d, p))
        candidates.sort(key=lambda dp: (-dp[0], dp[1]))
    for d, partition in candidates:
        # any block works (they differ by a target automorphism); the one
        # with the smallest zero moduli gives the best-conditioned factor
        block = min(
            partition, key=lambda b: max(abs(fiber.points[i]) for i in b)
        )
        bhat = inner_factor_from_block(fiber, block)
        try:
            outer = outer_factor(spec, bhat)
        except (FiberError, RootFindingError):
            continue
        try:
            zs = _held_out_points(bhat, test_points, outer.eval_radius * 0.97)
            bres = RationalFunction(*bhat.rational())
            residual = float(
                np.max(np.abs(f.value(zs) - outer.value(bres.value(zs))))
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
                action=action,
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
        action=action,
        outer_index=n,
        test_points=0,
        certificate=cert,
    )
