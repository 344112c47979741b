"""Truncated complex power series and weighted inner products.

A :class:`PowerSeries` holds Taylor coefficients through a truncation order K.
Arithmetic never reads beyond K and results carry the minimum of the operand
truncations.  Inner products against a weight sequence use exact (fsum)
summation in a fixed ascending-index order so results are independent of any
scheduling.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import fftconvolve, lfilter

from .errors import DomainError
from .funcspec import PolySpec, to_rational

__all__ = [
    "PowerSeries",
    "taylor",
    "multiply",
    "derivative",
    "evaluate",
    "inner",
    "norm",
    "geometric",
]

_FFT_THRESHOLD = 768


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


def _conv(a, b, nout):
    if a.size + b.size <= _FFT_THRESHOLD:
        return np.convolve(a, b)[:nout]
    return fftconvolve(a, b)[:nout]


def taylor(spec, K):
    """Taylor coefficients of a FunctionSpec through order K.

    The tree is reduced to P/Q and expanded by synthetic division (an IIR
    impulse response), which is exact for polynomials and carries no
    composition tail.
    """
    if K < 0:
        raise ValueError("truncation order must be nonnegative")
    P, Q = to_rational(spec)
    if Q.size == 1:
        out = np.zeros(K + 1, dtype=complex)
        n = min(K + 1, P.size)
        out[:n] = P[:n] / Q[0]
        return PowerSeries(out)
    impulse = np.zeros(K + 1)
    impulse[0] = 1.0
    coeffs = lfilter(P.astype(complex), Q.astype(complex), impulse)
    return PowerSeries(coeffs)


def geometric(ratio, K):
    """The series of 1/(1 - ratio*z) through order K."""
    return PowerSeries(np.asarray(ratio, dtype=complex) ** np.arange(K + 1))


def multiply(f, g):
    """Cauchy product truncated at min(K_f, K_g)."""
    n = min(f.K, g.K) + 1
    return PowerSeries(_conv(f.coeffs, g.coeffs, n))


def derivative(f):
    """Termwise derivative; truncation drops by one."""
    if f.K == 0:
        return PowerSeries(np.zeros(1, dtype=complex))
    return PowerSeries(f.coeffs[1:] * np.arange(1, f.coeffs.size))


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

