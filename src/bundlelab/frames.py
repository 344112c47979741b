"""Kernel-direction frames, Gram matrices and Riesz bounds.

For a finite Blaschke product B with distinct zeros ``z_1..z_m`` (B itself or
a precomposition that brings them nearer 0, :func:`_normalize_product`), the
frame columns are the vectors ``B^n(z) / (1 - conj(z_j) z)`` laid out with
column index ``n*m + j``.  The coefficients come from the exact rational
recursion ``B^{n+1} = (P/Q) B^n`` and one banded solve per kernel factor
(:func:`series.rational`).  The recursion is written once, :func:`_powers`,
which forms Q's Toeplitz band once and steps with
:func:`series.rational_banded`; :func:`build_frame` and
:func:`column_norm_profile` both draw from it, and the profile reads the
powers that a frame build of the same automorphism hands it, so that the
counterexample probe computes each power once.  Real products get real
frames: when the product's zeros and phase are real (every
automorphism phi_t of the counterexample), the powers, the block, its Gram
matrix and its SVD are float64 (``dtbtrs``, ``dsyrk``, ``dpbtrf``), a
quarter of the complex flops in half the memory; every other product is
complex128.  Three normalizations of the same Taylor coefficient
block are exposed:

* ``raw``      -- the vectors themselves in orthonormal coordinates,
* ``beta``     -- column (j, n) divided by beta_n (Riesz-base candidate),
* ``beta-inv`` -- column (j, n) multiplied by beta_n, in the reciprocal space's
  orthonormal coordinates (the pairing partner of ``beta``).

The extremal singular values come from the two extreme eigenvalues of the
Gram matrix, which squares the condition number; a frame whose Gram matrix is
too close to singular for that (cond > 1e4) falls back to a full SVD, with
no Gram product when the column norms alone show that the eigenvalue ratio
must refuse the frame.  The two eigenvalues are those of the Gram band:
offsets past b are dropped for the smallest b whose dropped Frobenius mass is
at most sqrt(n)*eps*||G||_F, the Gram product's own roundoff level (b = m - 1
for Hardy).  Each end is bracketed by banded
Cholesky factorizations alone (:func:`_band_ends`), O(n b^2) each where all n
eigenvalues would cost O(n^2 b), and inverse iteration with each factor
that succeeds places the next shifts, about a quarter as many as plain
bisection takes; a band b >= n/16 is solved dense.  When
beta_k**2 is a polynomial of degree d in k, the Riesz ladder needs no K-row
frame: its rungs come from the exact Gram, block-banded with offsets <= d, whose
blocks are fitted as polynomials in n from the first columns; when 1/beta_k**2
is one, they come from the same band of the dual frame.  Riesz verdicts
are finite-section statements: every report carries its doubling ladder,
whose trend one classifier reads (:func:`ladder_trend`, shared with the
counterexample probe), and never an infinite-dimensional claim.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from scipy.linalg import eigvalsh, lu_factor, lu_solve, svd, svdvals
from scipy.linalg.blas import dsyrk, zherk
from scipy.linalg.lapack import dpbtrf, dpbtrs, zpbtrf, zpbtrs

from . import funcspec, series
from .blaschke import BlaschkeProduct, MoebiusTransform, eval_blaschke
from .errors import DomainError, NumericalSingularityError

__all__ = [
    "FrameMatrix",
    "RieszReport",
    "build_frame",
    "gram",
    "riesz_bounds",
    "ladder_trend",
    "kernel_matrix",
    "cpb_check",
    "moebius_duality_check",
    "column_norm_profile",
    "moebius_derivative_power_norm",
    "derivative_power_lower_bound",
]

_DISTINCT_TOL = 1e-8
# a precomposition must lower the largest zero modulus by more than this,
# relative (well above roundoff), so that a laid-out product stays as it is
_LAYOUT_GAIN = 1e-12
_TAIL_PAD = 64
# a frame whose beta-tail is above this does not hold its columns in its K
# rows, so its extremes say nothing about the untruncated ones
TAIL_BAR = 1e-8
# the Riesz ladder stops when c1 and c2 each drift by at most this, relative
_STABILITY_TARGET = 0.01
# entries below sqrt(tiny) are flushed to 0, so that every product of two
# surviving entries is a normal number (subnormal arithmetic is slow)
_FLUSH = math.sqrt(np.finfo(float).tiny)
# the Gram matrix gives s_min to about eps * cond^2 relative; below this
# eigenvalue ratio (cond > 1e4) the extremes come from a full SVD instead
_GRAM_RATIO = 1e-8
# lambda_min <= min diag G <= max diag G <= lambda_max, so squared column
# norms that spread past 1/_GRAM_RATIO put the eigenvalue ratio below the
# bar; the margin covers the roundoff of the norms against diag G
_COLUMN_SPREAD = (1.0 + 1e-6) / _GRAM_RATIO
# a Gram band b >= n/16 goes dense.  With BLAS at one thread the break-even
# grows with n: about n/16 for a real band and n/8 for a complex one at
# n 122, about n/4 at n 401, so 16 never picks the band where it loses
# (_band_ends against eigvalsh on random positive definite bands, min of 7
# runs, in ms, complex then real: n 122, b 7: 0.68 vs 1.10, 0.55 vs 0.59;
# b 15: 1.09 vs 1.11, 1.11 vs 0.61; n 401, b 25: 4.5 vs 22, 2.3 vs 8.4;
# b 100: 20 vs 22, 9.0 vs 8.3; n 1602, b 100: 94 vs 1061, 38 vs 380)
_BAND_CROSSOVER = 16
# build_frame makes this many powers at a time, so that its temporaries stay
# at (K + _TAIL_PAD) x 64 entries next to the frame block
_BUILD_CHUNK = 64


@dataclass
class FrameMatrix:
    """Taylor coefficient block of a kernel-direction frame plus metadata.

    ``taylor`` has ``K + pad`` rows (coefficient indices 0..K-1 plus a tail
    pad that only feeds the truncation diagnostics), matching the K x K
    operator truncation.  ``conjugator`` records the Moebius
    precomposition that laid out ``product`` (None when it is the supplied one).
    """

    product: BlaschkeProduct
    w: object
    n_max: int
    K: int
    taylor: np.ndarray
    pad: int
    conjugator: MoebiusTransform | None = None
    _extremes: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def m(self):
        return self.product.order

    @property
    def ncols(self):
        return self.m * (self.n_max + 1)

    def _scales(self, normalization, rows):
        lb = self.w.log_betas(rows - 1)
        lbn = np.repeat(self.w.log_betas(self.n_max), self.m)
        if normalization == "raw":
            return np.exp(lb), np.ones(self.ncols)
        if normalization == "beta":
            return np.exp(lb), np.exp(-lbn)
        if normalization == "beta-inv":
            return np.exp(-lb), np.exp(lbn)
        raise ValueError(f"unknown normalization {normalization!r}")

    def matrix(self, normalization="beta"):
        """Frame matrix in orthonormal coordinates, coefficient rows 0..K-1."""
        rscale, cscale = self._scales(normalization, self.K)
        A = self.taylor[: self.K] * rscale[:, None]
        A *= cscale  # in place: no second block-sized temporary
        return A

    def times(self, P, Q):
        """M_{P/Q} applied to ``matrix("beta")``, without forming M_{P/Q}.

        With M_f[i, j] = fhat(i-j) beta_i/beta_j the beta_j cancel the row
        scale of the frame, so the product is :func:`series.rational` on the
        Taylor rows 0..K-1, then scaled in place like ``matrix``.
        """
        rscale, cscale = self._scales("beta", self.K)
        A = series.rational(P, Q, self.taylor[: self.K])
        A *= rscale[:, None]
        A *= cscale
        return A

    def tail(self):
        """Max column norm of ``matrix("beta")`` carried by the pad rows at and beyond K."""
        rows = self.K + self.pad
        rscale, cscale = self._scales("beta", rows)
        block = self.taylor[self.K :] * rscale[self.K :, None] * cscale[None, :]
        return float(np.max(np.linalg.norm(block, axis=0))) if block.size else 0.0

    def extremes(self):
        """``(s_min, s_max)`` of ``matrix("beta")`` as numpy floats, computed once.

        Both come from the extreme eigenvalues of the Gram matrix
        (:func:`_gram_product` fills one triangle of it, or of its conjugate,
        which has the same eigenvalues), taken by :func:`_band_ends` on the
        band of :func:`_gram_band`, or by the dense ``eigvalsh`` for a band b
        >= n/16.  A Gram eigenvalue ratio at or below ``_GRAM_RATIO`` takes
        ``svdvals`` instead.  So, with no Gram product, does a wide matrix,
        whose Gram matrix is singular, and a matrix whose squared column norms
        (the diagonal of G) spread past ``_COLUMN_SPREAD``, which puts that
        ratio below the bar.
        """
        if self._extremes is None:
            A = self.matrix("beta")
            lam = _gram_ends(A)
            if lam is not None and lam[0] > _GRAM_RATIO * lam[-1]:
                self._extremes = (np.sqrt(lam[0]), np.sqrt(lam[-1]))
            else:
                s = svdvals(A)
                self._extremes = (s[-1], s[0])
        return self._extremes

    def conjugator_zero(self):
        """``[re, im]`` of the zero z_k whose swap psi_k laid the frame out, or None."""
        if self.conjugator is None:
            return None
        z = self.conjugator.z0
        return [z.real, z.imag]

    def rebuild(self, n_max, K):
        # build_frame keeps the laid-out ``product`` as it is
        return replace(build_frame(self.product, self.w, n_max, K), conjugator=self.conjugator)


def _gram_ends(A):
    """The extreme eigenvalues of A's Gram matrix, or None where ``extremes`` must take ``svdvals``.

    None, with no Gram product formed, when A has more columns than rows or
    its squared column norms spread past ``_COLUMN_SPREAD``; the ratio test
    of ``extremes`` decides every other block.
    """
    if A.shape[1] > A.shape[0]:
        return None
    parts = (A.real, A.imag) if np.iscomplexobj(A) else (A,)  # views: no block-sized temporary
    norms2 = sum(np.einsum("ij,ij->j", part, part) for part in parts)
    if np.max(norms2) > _COLUMN_SPREAD * np.min(norms2):
        return None
    G = _gram_product(A)
    b = _gram_band(G)
    if _BAND_CROSSOVER * b >= G.shape[0]:
        return eigvalsh(G, lower=False, overwrite_a=True)
    band = np.zeros((b + 1, G.shape[0]), dtype=G.dtype, order="F")
    for k in range(b + 1):
        band[b - k, k:] = np.diagonal(G, k)
    return _band_ends(band)


def _gram_product(A):
    """The upper triangle of the Gram matrix of A's columns, conjugated when complex.

    ``dsyrk`` or ``zherk`` on the F-ordered view A.T, with no copy of A: a
    real A takes a quarter of the complex flops.
    """
    return (zherk if np.iscomplexobj(A) else dsyrk)(1.0, A.T)


def _gram_band(G):
    """Smallest b whose offsets past b have Frobenius mass <= sqrt(n)*eps*||G||_F.

    ``G`` is upper triangular, as :func:`_gram_product` leaves it.  The
    dropped mass is summed from the outermost offset inwards, so that
    roundoff meets roundoff.
    The product's roundoff in the outer half of frame Grams measured 0.1-1.7
    eps*||G||_F; a bound of n*eps*||G||_F moved Bergman c1 by up to 3.2e-12."""
    n = G.shape[0]
    flat, diag = G.ravel(order="K"), np.diagonal(G)  # views, no n x n temporary
    fro2 = 2.0 * np.vdot(flat, flat).real - np.vdot(diag, diag).real
    tol2 = n * np.finfo(float).eps ** 2 * fro2
    dropped = 0.0
    for b in range(n - 1, 0, -1):
        d = np.diagonal(G, b)
        dropped += 2.0 * np.vdot(d, d).real
        if dropped > tol2:
            return b
    return 0


def _band_ends(band, which=("min", "max")):
    """lambda_min ("min") and lambda_max ("max") of the Hermitian matrix in
    upper band storage, each only when named in ``which``, in its order.

    ``band[b - k, k:]`` holds offset k and the entries left of it are 0.  The
    max end is the min end of -band.  lambda_min starts in its Gershgorin
    bracket [min(diag - off), min(diag)], with ``off`` the row sums of the
    off-diagonal moduli, and the bracket is certified by banded Cholesky
    alone (``dpbtrf`` on a real band, ``zpbtrf`` on a complex one, O(n b^2)):
    band - sigma*I factors iff sigma < lambda_min, so ``lo`` only moves to a
    shift that factored and ``hi`` only to one that did not.  The search
    stops when the bracket is at most tol = 2*eps times the largest row sum
    and returns its midpoint.  Inverse iteration places the shifts: a factor
    that succeeds at sigma serves three solves (``dpbtrs`` or ``zpbtrs``, O(n
    b)) of an iterate carried from a fixed seeded vector, whose Rayleigh
    quotient mu is at least lambda_min.  The next shifts are mu + tol/4, which
    should fail, then mu - max(tol/2, 4|dmu|), dmu the last solve's change of
    mu, which should succeed; while it fails the step doubles.  With no such
    shift inside the bracket the midpoint is taken, and so is every shift
    after as many steps as plain bisection needs, so that an end takes at
    most twice the factorizations of plain bisection.
    """
    if not np.all(np.isfinite(band)):
        raise ValueError("the band must contain only finite numbers")
    n = band.shape[1]
    band = band[max(band.shape[0] - n, 0):]  # offsets >= n hold no entry
    b = band.shape[0] - 1
    diag, mod = band[b].real, np.abs(band[:b])
    off = np.zeros(n)
    for k in range(1, b + 1):
        off[k:] += mod[b - k, k:]  # G[j-k, j] in row j, as its conjugate G[j, j-k]
        off[: n - k] += mod[b - k, k:]  # G[i, i+k] in row i
    tol = 2.0 * np.finfo(float).eps * np.max(np.abs(diag) + off)
    work = np.empty(band.shape, dtype=band.dtype, order="F")
    pbtrf, pbtrs = (zpbtrf, zpbtrs) if np.iscomplexobj(band) else (dpbtrf, dpbtrs)
    start = np.random.default_rng(0).standard_normal(n)
    start /= np.linalg.norm(start)

    def shifts(mu, step, lo):
        yield mu + 0.25 * tol
        while mu - step > lo:
            yield mu - step
            step *= 2.0

    def end(sign):
        lo, hi = np.min(sign * diag - off), np.min(sign * diag)
        budget = math.ceil(math.log2((hi - lo) / tol)) if hi - lo > tol else 0
        x, guide = start, iter(())
        while hi - lo > tol:
            if budget == 0:  # midpoints only from here
                guide = iter(())
            budget -= 1
            sigma = next((s for s in guide if lo < s < hi), 0.5 * (lo + hi))
            np.multiply(band, sign, out=work)
            work[b] -= sigma
            factor, info = pbtrf(work, overwrite_ab=1)
            if info:
                hi = sigma
                continue
            lo = sigma
            if budget >= 0:
                mu = []
                for _ in range(3):
                    y = pbtrs(factor, x)[0]
                    # (sign*band - sigma) y = x with |x| = 1, so y^H x / y^H y
                    # is y's Rayleigh quotient less sigma
                    mu.append(sigma + np.vdot(y, x).real / np.vdot(y, y).real)
                    x = y / np.linalg.norm(y)
                guide = shifts(mu[-1], max(0.5 * tol, 4.0 * abs(mu[-1] - mu[-2])), lo)
        return sign * 0.5 * (lo + hi)

    return tuple(end(1.0 if name == "min" else -1.0) for name in which)


def _normalize_product(B):
    """B, or B o psi_k when that lowers the largest zero modulus, and psi_k or None.

    psi_k swaps 0 and z_k, for the k whose moved zeros psi_k(z_i) (in B's
    order) have the lowest largest modulus.  The rule reads the zero set
    alone, so no order or rotation of the zeros changes the layout, and it
    keeps a laid-out product.  Order 1 keeps its kernel point (the duality
    layout).
    """
    zeros = np.array(B.zeros, dtype=complex)
    m = zeros.size
    if m == 0:
        raise DomainError("frames need at least one zero")
    for i in range(m):
        for j in range(i + 1, m):
            if abs(zeros[i] - zeros[j]) <= _DISTINCT_TOL:
                raise DomainError(
                    f"repeated zeros {zeros[i]} ~ {zeros[j]}: the frame layout "
                    "needs distinct zeros; perturb the product and retry"
                )
    if m == 1:
        return B, None
    # moved[k, i] = psi_k(z_i) = (z_k - z_i)/(1 - conj(z_k) z_i)
    moved = (zeros[:, None] - zeros) / (1.0 - zeros[:, None].conj() * zeros)
    radii = np.max(np.abs(moved), axis=1)
    k = int(np.argmin(radii))
    if radii[k] >= (1.0 - _LAYOUT_GAIN) * np.max(np.abs(zeros)):
        return B, None
    psi, probe = MoebiusTransform(zeros[k]), 0.37 + 0.21j
    cand = BlaschkeProduct(tuple(moved[k]))
    ratio = eval_blaschke(B, eval_blaschke(psi, probe)) / eval_blaschke(cand, probe)
    return replace(cand, theta=float(np.angle(ratio))), psi


def _flush(a):
    """Set the entries of ``a`` below ``_FLUSH`` in modulus to 0, in place.

    A real ``a`` is compared as it is, with no array of moduli beside it."""
    a[np.abs(a) < _FLUSH if np.iscomplexobj(a) else (-_FLUSH < a) & (a < _FLUSH)] = 0
    return a


def _powers(B, rows):
    """B^0, B^1, ... on ``rows`` coefficients, as long as they are drawn.

    Each step is ``B^{n+1} = (P/Q) B^n`` by :func:`series.rational_banded` on
    Q's band, formed once, and its entries below ``_FLUSH`` are set to 0.  A
    power is computed only when it is drawn, so n draws make n - 1 steps.
    The powers are float64 when the imaginary parts of P and Q are exactly 0.
    """
    P, Q = funcspec.to_rational(B)
    if not (np.any(P.imag) or np.any(Q.imag)):
        P, Q = P.real, Q.real
    band = series.toeplitz_band(Q, rows)
    power = np.zeros(rows, dtype=band.dtype)
    power[0] = 1.0
    while True:
        yield power
        power = _flush(series.rational_banded(P, band, power))


def build_frame(B, w, n_max, K, powers=None):
    """Frame columns B^n(z)/(1 - conj(z_j) z) by exact rational recursion.

    The powers B^n come from :func:`_powers` on ``K + _TAIL_PAD``
    coefficients, ``_BUILD_CHUNK`` at a time, and each kernel factor 1/(1 -
    conj(z_j) z) is one banded solve over a chunk, written straight into the
    frame block.  Entries below ``_FLUSH`` in the columns are set to 0.
    Zeros must be distinct.  The product is laid out by
    :func:`_normalize_product` (its precomposition, if any, recorded in
    ``conjugator``).  Real products get real frames: when the laid-out
    product's zeros and phase are real (so are its P and Q), the powers, the
    kernel factors and the block are float64, else complex128.  ``powers``,
    an array of n_max + 1 rows and at most ``K + _TAIL_PAD`` columns,
    receives the leading coefficients of the powers of the laid-out product,
    B^n in row n, so that a caller that reads them runs no recursion of its
    own.
    """
    if n_max < 0 or K < 8:
        raise ValueError("need n_max >= 0 and K >= 8")
    if B.order * max(n_max, 1) > 8 * K:
        raise DomainError("truncation overflow: n_max*order is too large for K")
    Bn, conj_psi = _normalize_product(B)
    rows = K + _TAIL_PAD
    m = Bn.order
    zeros = np.array(Bn.zeros)
    if not (np.any(zeros.imag) or Bn.phase.imag):
        zeros = zeros.real  # then P and Q are real too, and _powers draws float64
    X = np.empty((rows, m * (n_max + 1)), dtype=zeros.dtype)
    source = _powers(Bn, rows)
    for c in range(0, n_max + 1, _BUILD_CHUNK):
        chunk = np.empty((min(_BUILD_CHUNK, n_max + 1 - c), rows), dtype=X.dtype)
        for k in range(chunk.shape[0]):
            chunk[k] = next(source)
        if powers is not None:
            powers[c : c + chunk.shape[0]] = chunk[:, : powers.shape[1]]
        cols = slice(m * c, m * (c + chunk.shape[0]))
        for j, zj in enumerate(zeros):
            X[:, cols][:, j::m] = _flush(series.rational([1.0], [1.0, -np.conj(zj)], chunk.T))
    return FrameMatrix(product=Bn, w=w, n_max=n_max, K=K, taylor=X, pad=_TAIL_PAD,
                       conjugator=conj_psi)


@dataclass
class GramResult:
    matrix: np.ndarray
    column_tails: np.ndarray


def gram(F, normalization="raw"):
    """Conjugate-transpose(A) @ A with per-column tail diagnostics.

    :func:`_gram_product` fills the upper triangle of conj(A^H A) (of A^T A
    for a real frame) with no conjugate copy of A; conjugating that triangle
    in place and mirroring it column by column gives the Hermitian Gram
    matrix, real for a real frame.
    """
    rows = F.K + F.pad
    rscale, cscale = F._scales(normalization, rows)
    full = F.taylor * rscale[:, None]
    full *= cscale  # in place, as in FrameMatrix.matrix
    tails = np.linalg.norm(full[F.K :], axis=0)
    G = _gram_product(full[: F.K])
    np.conjugate(G, out=G)
    for k in range(G.shape[0] - 1):
        G[k + 1 :, k] = G[k, k + 1 :].conj()
    G += 0.0  # the conjugation turns zero imaginary parts into -0; print them as 0
    return GramResult(G, tails)


@dataclass
class RieszReport:
    """Extremal squared singular values of the beta-normalized frame."""

    c1: float
    c2: float
    cond: float
    K: int
    n_max: int
    tail: float
    stability: dict
    verdict: str

    def to_dict(self):
        return asdict(self)


def _truncated_extremal(F, K, n_max):
    """(c1, c2, tail) of the K-row frame of F's product with columns n <= n_max."""
    G = F if (K, n_max) == (F.K, F.n_max) else F.rebuild(n_max, K)
    s_min, s_max = G.extremes()
    return float(s_min**2), float(s_max**2), G.tail()


def _cheb(ns, lo, hi, d):
    """Chebyshev-Vandermonde rows of degree d at x = (2n - lo - hi)/(hi - lo)."""
    return chebvander((2.0 * np.asarray(ns, dtype=float) - lo - hi) / (hi - lo), d)


@dataclass
class _GramFit:
    """Raw Gram blocks G[n, n+s] (s <= d) of a frame whose beta_k**2 is a
    polynomial of degree d in k, for every n.

    Then <f, g>_beta = <p(z d/dz) f, g>_{H^2} with deg p = d.  As z d/dz
    (B^n g) = B^n (n zB'/B + z d/dz) g, p(z d/dz)(B^n k_i) is a sum over
    r <= d of B^(n-r) g_r, each g_r a polynomial of degree <= r in n with
    rational coefficients in H^2 minus B^(2r+1) H^2 (analytic once n >= r).
    M_B is an isometry of H^2, so <B^(n-r) g_r, B^(n+s) k_j> = <g_r,
    B^(s+r) k_j>: the offsets s > d vanish, and for n >= d each block is a
    polynomial of degree <= d in n.  The blocks n <= d are kept as read
    (``head``); the rest come from the Chebyshev coefficients ``coef`` in
    x = (2n - lo - hi)/(hi - lo), fitted on n in [lo, hi] by ``pinv`` from
    blocks whose largest diagonal entries are ``scale``.
    """

    d: int
    m: int
    head: np.ndarray
    coef: np.ndarray
    pinv: np.ndarray
    scale: np.ndarray
    lo: int
    hi: int
    residual: float
    tail: float
    bound: float

    @property
    def trusted(self):
        return self.residual <= self.bound and self.tail**2 <= self.bound

    def blocks(self, n_max):
        """G[n, n+s] for n = 0..n_max and s = 0..d, shape (n_max+1, d+1, m, m)."""
        fitted = _cheb(np.arange(self.d + 1, n_max + 1), self.lo, self.hi, self.d) @ self.coef
        return np.concatenate([self.head[: n_max + 1], fitted.reshape(-1, self.d + 1, self.m, self.m)])

    def error(self, n, own_scale):
        """Estimated error of the blocks at n relative to their scale ``own_scale``.

        The measured noise ``residual`` (at least eps) per unit of envelope,
        carried from the fit points to n by the fit's weights.  As the blocks
        grow like n^d, the factor levels off far out at about 2^(d-1) (8/3)^d
        (about 200 for d = 4, 5e7 for d = 12).
        """
        carried = np.abs(_cheb([n], self.lo, self.hi, self.d) @ self.pinv)[0] @ self.scale / own_scale
        return max(self.residual, np.finfo(float).eps) * (1.0 + carried)


def _fit_gram(F):
    """The :class:`_GramFit` of ``F``'s frame, or None when beta_k**2 is no polynomial.

    It reads the raw Gram of the first block columns of ``F`` (or of one
    rebuilt frame when ``F`` has too few), fits the blocks n in [d+1, 4d+3]
    and holds out the next d+1.  A length-K inner product is exact to
    gamma_{K+2} <= (K+2)*eps times the product of the column norms (sigma), and
    a fitted block moves each data error by its least-squares weights l_i, so
    on an exact structure every held-out block lies within (K+2)*eps*(sigma +
    sum |l_i| sigma_i) of the data, and every block at offset d+1 within
    (K+2)*eps*sigma of 0.  ``residual`` is the largest of these misfits over
    its envelope; the fit is trusted when it is at most (K+2)*eps and the
    read columns' beta-tail, squared, is too (it bounds their truncation
    error likewise).
    """
    d = F.w.beta_sq_degree
    if d is None:
        return None
    m = F.m
    lo, hi = d + 1, 4 * d + 3
    held = np.arange(hi + 1, hi + d + 2)
    need = held[-1] + d + 1  # the last block column read: offset d+1 of the last held-out n
    # column n of B^n k_j starts by row m*n, so 8m rows per column leaves none empty
    src = F if F.n_max >= need else F.rebuild(need, max(F.K, 8 * m * (need + 1)))
    sub = replace(src, n_max=need, taylor=src.taylor[:, : m * (need + 1)])
    A = sub.matrix("raw")
    G = (A.conj().T @ A).reshape(need + 1, m, need + 1, m)
    norms = np.sqrt(np.einsum("nini->ni", G).real)
    n = np.arange(held[-1] + 1)[:, None]
    s = np.arange(d + 2)
    Y = G[n, :, n + s, :]  # (n, s, i, j): G[n, n+s]
    sigma = norms[n][..., None] * norms[n + s][:, :, None, :]
    dropped = np.abs(Y[:, d + 1]) / sigma[:, d + 1]
    Y, sigma = Y[:, : d + 1], sigma[:, : d + 1]
    fit_n = np.arange(lo, hi + 1)
    flat = Y[fit_n].reshape(fit_n.size, -1)
    pinv = np.linalg.pinv(_cheb(fit_n, lo, hi, d))
    weights = _cheb(held, lo, hi, d) @ pinv  # (held, fit): each held-out block from the fitted data
    misfit = np.abs(weights @ flat - Y[held].reshape(held.size, -1))
    envelope = sigma[held].reshape(held.size, -1) + np.abs(weights) @ sigma[fit_n].reshape(fit_n.size, -1)
    return _GramFit(
        d=d, m=m, head=Y[: d + 1], coef=pinv @ flat, pinv=pinv,
        scale=np.max(norms[fit_n], axis=1) ** 2, lo=lo, hi=hi,
        residual=float(max(np.max(misfit / envelope), np.max(dropped))),
        tail=sub.tail(), bound=(src.K + 2) * np.finfo(float).eps,
    )


def _band_extremal(fit, w, n_max, C=None):
    """(c1, c2, tail) of the beta-normalized Gram of columns n <= n_max from ``fit``.

    Column (n, j) has index n*m + j, so block G[n, n+s] fills the offsets
    s*m + j - i of the scalar band, whose width b is m(d+1) - 1, and
    :func:`_band_ends` gives the band's two extreme eigenvalues.  An entry
    error of at most e*sqrt(G_aa G_bb) <= e*lambda_max, with e the fit's error
    at n_max, moves each eigenvalue by at most (2b+1)*e*lambda_max (Weyl, by
    row sums).  With ``C`` the fit is that of the dual frame and each block is
    mapped to C^H G C (see :func:`riesz_bounds`): the band solved is then the
    Gram of the biorthogonal family, whose extremes are (1/c2, 1/c1), and the
    move grows by ||C||_2^2, lambda_max (its only end bisected) staying that
    of the band before the map.  The Gram route accepts c1 to eps/_GRAM_RATIO
    relative (its error is about eps*c2/c1, and it hands over at c1/c2 =
    _GRAM_RATIO), so the rung is None when the move relative to the smallest
    eigenvalue solved is larger.
    """
    d, m = fit.d, fit.m
    b = m * (d + 1) - 1
    s, i, j = (a.ravel() for a in np.meshgrid(np.arange(d + 1), np.arange(m), np.arange(m), indexing="ij"))
    upper = (s > 0) | (j >= i)
    s, i, j = s[upper], i[upper], j[upper]
    n = np.arange(n_max + 1)[:, None]
    inside = n + s <= n_max
    lb = w.log_betas(n_max + d)
    scale = np.exp(-lb[n] - lb[n + s])[inside]
    rows = np.broadcast_to(b - (s * m + j - i), inside.shape)[inside]
    cols = ((n + s) * m + j)[inside]
    blocks = fit.blocks(n_max)
    error = (2 * b + 1) * fit.error(n_max, np.max(np.diagonal(blocks[n_max, 0]).real))

    def ends(blocks, which=("min", "max")):
        band = np.zeros((b + 1, m * (n_max + 1)), dtype=blocks.dtype, order="F")
        band[rows, cols] = blocks[n, s, i, j][inside] * scale
        return _band_ends(band, which)

    if C is None:
        lam = ends(blocks)
        move = error * lam[-1]
    else:
        move = error * np.linalg.norm(C, 2) ** 2 * ends(blocks, ("max",))[0]
        lam = ends(C.conj().T @ blocks @ C)
    if move * _GRAM_RATIO >= np.finfo(float).eps * lam[0]:
        return None
    if C is None:
        return float(lam[0]), float(lam[-1]), fit.tail
    return float(1.0 / lam[-1]), float(1.0 / lam[0]), fit.tail


def ladder_trend(values):
    """``"converging"``, ``"diverging"`` or ``"open"``: the trend of a doubling
    ladder of positive values, read from its log-steps s_k = log(v_{k+1}/v_k).

    Finite sections of a bounded operator drift like 1/n toward their limit,
    so each doubling about halves the step, while a power or geometric
    divergence keeps the log-steps about constant (the raw differences of a
    collapsing value shrink too).  Converging: the last rung moved by at most
    ``_STABILITY_TARGET`` relative to itself (|expm1(-s)|, the 1% stop), or
    each of the last two steps is 0.3 to 0.7 times the one before.
    Diverging: each is at least 0.8 times the one before.  Open otherwise.
    A log-step at roundoff, at most 1e3*eps, is 0: two such steps have no
    ratio, whatever their last bits.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.diff(np.log(np.asarray(values, dtype=float)))
        s[np.abs(s) <= 1e3 * np.finfo(float).eps] = 0.0
        if s.size and abs(np.expm1(-s[-1])) <= _STABILITY_TARGET:
            return "converging"
        ratios = s[-2:] / s[-3:-1] if s.size >= 3 else np.array([np.nan])
    if np.all((0.3 <= ratios) & (ratios <= 0.7)):
        return "converging"
    return "diverging" if np.all(ratios >= 0.8) else "open"


def _climb(F, extremal, max_doublings):
    """The :class:`RieszReport` of the doubling ladder from F's (K, n_max).

    ``extremal(K, n_max)`` gives a rung's (c1, c2, tail), or None to abandon
    the climb, which then returns None.  After each rung :func:`ladder_trend`
    reads the ladders of c1 and c2: either diverging ends the climb
    ``degenerating``, both converging ``Riesz-consistent``, each only on a
    rung whose tail is at most ``TAIL_BAR`` (else inconclusive).
    """
    ladder, verdict, trend = [], "inconclusive", {"c1": "open", "c2": "open"}
    for k in range(max_doublings + 1):
        K, n_max = F.K << k, F.n_max << k
        rung = extremal(K, n_max)
        if rung is None:
            return None
        c1, c2, tail = rung
        ladder.append({"K": K, "n_max": n_max, "c1": c1, "c2": c2})
        trend = {key: ladder_trend([r[key] for r in ladder]) for key in trend}
        if "diverging" in trend.values():
            verdict = "degenerating" if tail <= TAIL_BAR else "inconclusive"
            break
        if set(trend.values()) == {"converging"}:
            verdict = "Riesz-consistent" if c1 > 1e-10 and tail <= TAIL_BAR else "inconclusive"
            break
    rel = {key: abs(ladder[-1][key] - ladder[-2][key]) / max(ladder[-1][key], 1e-300)
           if len(ladder) > 1 else math.inf for key in trend}
    stability = {"c1_rel_change": rel["c1"], "c2_rel_change": rel["c2"],
                 "target": _STABILITY_TARGET, "trend": trend, "ladder": ladder}
    return RieszReport(
        c1=c1, c2=c2, cond=math.sqrt(c2 / c1) if c1 > 0 else math.inf,
        K=K, n_max=n_max, tail=tail, stability=stability, verdict=verdict,
    )


def _dual_map(zeros):
    """C = Gr^-1, Gr[i, j] = 1/(1 - z_i conj(z_j)) = <k_j, k_i>_{H^2}: the
    functions g_j = sum_i k_i C[i, j] pair with the kernels k_i to the identity;
    real when the zeros are."""
    z = np.asarray(zeros, dtype=complex)
    if not np.any(z.imag):
        z = z.real
    return np.linalg.inv(1.0 / (1.0 - z[:, None] * z.conj()[None, :]))


def riesz_bounds(F, max_doublings=4):
    """Riesz bound estimates with stability-under-doubling evidence.

    Both K and n_max are doubled, at most ``max_doublings`` times, until
    :func:`ladder_trend` reads the ladders of c1 and c2 as both converging
    or either diverging.  The report carries the last rung's values, the
    full ladder, the two trends (``stability["trend"]``) and a verdict:

    * ``"Riesz-consistent"`` -- both bounds converging, c1 bounded away from
      0, on a rung whose beta-tail is at most ``TAIL_BAR``;
    * ``"degenerating"``     -- c1 or c2 diverging under doubling (log-steps
      that do not shrink), on a rung whose beta-tail is at most ``TAIL_BAR``;
    * ``"inconclusive"``     -- the ladder budget ran out before either, or
      the rung that ended it does not hold its columns (tail above the bar).

    When beta_k**2 is a polynomial in k and :func:`_fit_gram` trusts its fit,
    every rung is the exact (untruncated) Gram band of its n_max columns
    (``stability["path"] == "band"``, ``tail`` that of the columns the fit
    read); otherwise, or when a band rung's error bound is beyond what the
    Gram route accepts (:func:`_band_extremal`), each rung is the K-row frame
    (``"truncated"``, ``tail`` that of the last rung).  When only 1/beta_k**2
    is a polynomial (bergman with 2*alpha an integer), the band is that of the
    dual frame y_{n,j} = beta_n B^n g_j in the reciprocal space, with g_j =
    sum_i k_i C[i, j] and C = Gr^-1, Gr[i, j] = 1/(1 - z_i conj(z_j)) over the
    frame's zeros: the spaces B^n K_B are orthogonal in H^2, so y pairs with
    the beta-frame to the identity, its Gram has the same block band, fitted
    from the same Taylor block, and its extremes are (1/c2, 1/c1).
    ``stability["fit_residual"]`` is the fit's held-out residual, None without
    a fit.
    """
    fit, w, C = _fit_gram(F), F.w, None
    if fit is None and w.dual().beta_sq_degree is not None:
        w = w.dual()
        fit, C = _fit_gram(replace(F, w=w)), _dual_map(F.product.zeros)
    rep, path = None, "band"
    if fit is not None and fit.trusted:
        rep = _climb(F, lambda K, n_max: _band_extremal(fit, w, n_max, C), max_doublings)
    if rep is None:
        rep = _climb(F, lambda K, n_max: _truncated_extremal(F, K, n_max), max_doublings)
        path = "truncated"
    rep.stability["path"] = path
    rep.stability["fit_residual"] = None if fit is None else fit.residual
    return rep


@dataclass
class KernelMatrixResult:
    matrix: np.ndarray
    inverse: np.ndarray
    min_singular_value: float


def kernel_matrix(points):
    """The matrix 1/(1 - conj(z_i) z_j) and its pivoted-factorization inverse."""
    pts = np.asarray(list(points), dtype=complex)
    if np.any(np.abs(pts) >= 1.0):
        raise DomainError("kernel points must lie strictly inside the disk")
    m = pts.size
    for i in range(m):
        for j in range(i + 1, m):
            if pts[i] == pts[j]:
                raise DomainError("kernel points must be pairwise distinct")
    A = 1.0 / (1.0 - np.conj(pts)[:, None] * pts[None, :])
    s = svd(A, compute_uv=False)
    if s[-1] < 1e-13 * s[0] * m:
        raise NumericalSingularityError(
            "kernel matrix numerically singular", min_singular_value=float(s[-1])
        )
    lu, piv = lu_factor(A)
    inv = lu_solve((lu, piv), np.eye(m, dtype=complex))
    return KernelMatrixResult(A, inv, float(s[-1]))


@dataclass
class IdentityCheckReport:
    max_dev: float
    scale: float = 1.0


def cpb_check(B, w, n_max, K):
    """Compare the two Gram constructions related by the (n+1)beta_n reweighting.

    Left side: Gram of {B^{n+1}/beta~_n} in the space with beta~_k=(k+1)beta_k.
    Right side: Gram of {D D_w M_{B'} (B^n/beta_n)} in the original space,
    with D = diag((k+2)/(k+1)) and D_w = diag(w_{k+1}) acting on Taylor
    coefficients.  Agreement is exact in infinite truncation; the report
    carries the max entry deviation over the (n_max+1)^2 block.
    """
    zeros = np.array(B.zeros, dtype=complex)
    if zeros.size == 0 or np.min(np.abs(zeros)) > 1e-9:
        raise DomainError("this check needs 0 among the zeros")
    ks = np.arange(K + 1, dtype=float)
    ns = np.arange(n_max + 1)
    betas = w.betas(K)
    tilde_row = (ks + 1.0) * betas  # beta~_k
    d_row = (ks + 2.0) / (ks + 1.0)
    w_row = w.weights(K + 1)  # w_{k+1} at index k, length K+1
    # B = P/Q and B' = N1/Q^2; column n holds B^n
    f = funcspec.RationalFunction.from_spec(B)
    powers = np.zeros((K + 1, n_max + 2), dtype=complex)
    powers[0, 0] = 1.0
    for n in ns:
        powers[:, n + 1] = series.rational(f.P, f.Q, powers[:, n])
    lhs_cols = powers[:, 1:] * tilde_row[:, None] / ((ns + 1.0) * betas[ns])
    bprime_powers = series.rational(f.N1, np.convolve(f.Q, f.Q), powers[:, :-1])
    rhs_cols = bprime_powers * (d_row * w_row * betas)[:, None] / betas[ns]
    G_l = lhs_cols.conj().T @ lhs_cols
    G_r = rhs_cols.conj().T @ rhs_cols
    return IdentityCheckReport(float(np.max(np.abs(G_l - G_r))))


def moebius_duality_check(z0, w, n_max, K):
    """Pair the beta and inverse-beta kernel families of an automorphism.

    The conjugate transpose of the inverse-normalized family applied to the
    beta-normalized family is a positive multiple of the identity; the
    multiple is 1/(1 - |z0|^2), the squared norm of the kernel direction
    (the family becomes orthonormal in the classical space only after
    scaling by sqrt(1 - |z0|^2)).
    """
    if abs(z0) >= 1:
        raise DomainError("the automorphism parameter must lie inside the disk")
    F = build_frame(MoebiusTransform(z0), w, n_max, K)
    M1 = F.matrix("beta-inv")
    M2 = F.matrix("beta")
    scale = 1.0 / (1.0 - abs(z0) ** 2)
    dev = np.abs(M1.conj().T @ M2 - scale * np.eye(n_max + 1))
    return IdentityCheckReport(float(np.max(dev)), scale=scale)


def column_norm_profile(z0, w, n_max, powers=None):
    """Normalized power norms r_n = ||phi^n|| / beta_n for n <= n_max.

    The truncation K is doubled until the tail (last eighth of the rows)
    contributes less than 1e-6 of every power's squared norm, from K = 512
    (or 4 n_max) up to 2**17.  The powers come from :func:`_powers` on K + 1
    coefficients, or, for the first K, from ``powers`` when given: phi^n in
    row n for n <= n_max at least, on those K + 1 coefficients, as
    :func:`build_frame` writes them for the frame of phi at that K.
    """
    lb = w.log_betas(n_max)
    K = max(512, 4 * n_max)
    while True:
        betas2 = w.betas(K) ** 2
        cut = K - K // 8
        source = iter(powers) if powers is not None else _powers(MoebiusTransform(z0), K + 1)
        next(source)  # phi^0 = 1
        r = np.empty(n_max + 1)
        r[0] = 1.0
        for n in range(1, n_max + 1):
            terms = betas2 * np.abs(next(source)) ** 2
            total = float(np.sum(terms))
            if total <= 0:
                raise DomainError("power norms underflowed; weights decay too fast")
            if float(np.sum(terms[cut:])) > 1e-6 * total:
                break
            r[n] = math.exp(0.5 * math.log(total) - lb[n])
        else:
            return r
        K, powers = 2 * K, None
        if K > 1 << 17:
            raise DomainError("truncation budget exceeded in column_norm_profile")


def moebius_derivative_power_norm(t, N):
    """Classical-space norm of (phi_t')^N for the real automorphism phi_t.

    phi_t' = (t^2 - 1)/(1 - t z)^2, so each power is the last one times this
    rational function, one :func:`series.rational` recursion on 2049
    coefficients.
    """
    from .weights import WeightSequence

    if not 0 < t < 1:
        raise DomainError("t must lie in (0, 1)")
    power = np.zeros(2049, dtype=complex)
    power[0] = 1.0
    for _ in range(N):
        power = series.rational([t * t - 1.0], [1.0, -2.0 * t, t * t], power)
    return series.norm(series.PowerSeries(power), WeightSequence.hardy())


def derivative_power_lower_bound(t, N):
    """Closed-form lower bound (1+t)^N / ((1-t)^{N-1} sqrt(2 pi (2N-1)))."""
    return (1.0 + t) ** N / ((1.0 - t) ** (N - 1) * math.sqrt(2.0 * math.pi * (2 * N - 1)))
