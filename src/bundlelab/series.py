"""Truncated complex power series and weighted inner products.

A :class:`PowerSeries` holds Taylor coefficients through a truncation order K.
Arithmetic never reads beyond K and results carry the minimum of the operand
truncations.  Multiplication by a rational function P/Q is one primitive,
:func:`rational`: shifted sums for P, then one banded forward substitution
for Q, exact on the truncated coefficients.  Inner products against a weight
sequence use exact (fsum) summation in a fixed ascending-index order so
results are independent of any scheduling.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import ztbtrs

from .errors import DomainError
from .funcspec import PolySpec, to_rational

__all__ = [
    "PowerSeries",
    "rational",
    "taylor",
    "multiply",
    "evaluate",
    "inner",
    "norm",
]


class PowerSeries:
    """Coefficient vector c[k] of z^k for k = 0..K."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("a power series needs a nonempty 1-d coefficient vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("power series coefficients must be finite")
        self.coeffs = c

    @property
    def K(self):
        return self.coeffs.size - 1

    def __len__(self):
        return self.coeffs.size

    def __repr__(self):
        head = ", ".join(f"{c:.4g}" for c in self.coeffs[:4])
        more = ", ..." if self.coeffs.size > 4 else ""
        return f"PowerSeries(K={self.K}, [{head}{more}])"

    def padded(self, K):
        """Coefficient array zero-padded (or cut) to length K+1."""
        out = np.zeros(K + 1, dtype=complex)
        n = min(K + 1, self.coeffs.size)
        out[:n] = self.coeffs[:n]
        return out


def rational(P, Q, X):
    """Taylor coefficients of (P/Q)*x for each column x of X, to len(x) rows.

    P and Q are constant-first coefficient vectors with Q[0] != 0; X is one
    coefficient vector or a 2-d array of columns, and the result has its
    shape.  The numerator P*x is a sum of shifted copies of X; the division by
    Q is one lower-triangular banded solve with the Toeplitz band of Q (the
    recursion Q*y = P*x, no pivoting, no truncation error).
    """
    P = np.asarray(P, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    X = np.asarray(X, dtype=complex)
    cols = X[:, None] if X.ndim == 1 else X
    n = cols.shape[0]
    Y = np.asfortranarray(P[0] * cols)
    for k in range(1, min(P.size, n)):
        Y[k:] += P[k] * cols[: n - k]
    Q = Q[:n]
    ab = np.asfortranarray(np.broadcast_to(Q[:, None], (Q.size, n)))
    Y, info = ztbtrs(ab, Y, uplo="L", overwrite_b=1)
    if info != 0:  # info > 0 is a zero diagonal: Q[0] = 0, a pole at the origin
        raise DomainError(f"P/Q has no Taylor series: Q[0] = {Q[0]} (info {info})")
    return Y[:, 0] if X.ndim == 1 else Y


def taylor(spec, K):
    """Taylor coefficients of a FunctionSpec through order K.

    The tree is reduced to P/Q and expanded as :func:`rational` applied to the
    impulse, which is exact for polynomials and carries no composition tail.
    """
    if K < 0:
        raise ValueError("truncation order must be nonnegative")
    P, Q = to_rational(spec)
    impulse = np.zeros(K + 1, dtype=complex)
    impulse[0] = 1.0
    return PowerSeries(rational(P, Q, impulse))


def multiply(f, g):
    """Cauchy product truncated at min(K_f, K_g)."""
    n = min(f.K, g.K) + 1
    return PowerSeries(np.convolve(f.coeffs, g.coeffs)[:n])


def evaluate(f, z):
    """Horner evaluation of the truncated polynomial, |z| <= 1."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) > 1.0 + 1e-12):
        raise DomainError("series evaluation is only meaningful for |z| <= 1")
    out = np.polyval(f.coeffs[::-1], z)
    return out if out.shape else complex(out)


def inner(f, g, w):
    """<f, g> = sum beta_k^2 conj(g_k) f_k over the shared truncation.

    Summation is exact (math.fsum on real and imaginary parts separately) in
    ascending index order.
    """
    n = min(f.K, g.K)
    b2 = w.betas(n) ** 2
    terms = b2 * np.conj(g.coeffs[: n + 1]) * f.coeffs[: n + 1]
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def norm(f, w):
    """Weighted norm sqrt(<f, f>)."""
    return math.sqrt(max(inner(f, f, w).real, 0.0))


def poly_series(coeffs, K):
    """PowerSeries of an exact polynomial (constant first) at truncation K."""
    return taylor(PolySpec(tuple(coeffs)), K)

