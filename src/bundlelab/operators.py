"""Truncated operator matrices on weighted Hardy spaces.

All matrices act on coordinates relative to the orthonormal base
``{z^k / beta_k}``, so singular values measure the weighted-space geometry
directly.

Matrix conventions (K x K, row = output index):

* backward shift:      ``S[k-1, k] = beta_{k-1}/beta_k``
* multiplication:      ``M_f[i, j] = fhat(i-j) * beta_i/beta_j`` for ``i >= j``
* calculus ``h(S)``:   ``H[j, j+i] = hhat(i) * beta_j/beta_{j+i}``
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from . import series

__all__ = [
    "shift_matrix",
    "mult_matrix",
    "calculus_matrix",
    "left_inverse_check",
    "commutant_transport_check",
    "dump_matrix_csv",
]


def _finite(entries):
    if not np.all(np.isfinite(entries)):
        raise ValueError("operator entries must be finite")
    return entries


def _ratio_matrix(w, K):
    """R[i, j] = beta_i / beta_j, computed from log-betas."""
    lb = w.log_betas(K - 1)
    return np.exp(lb[:, None] - lb[None, :])


def shift_matrix(w, K):
    """Backward weighted shift: a single superdiagonal stripe 1/w_k."""
    if K < 2:
        raise ValueError("shift matrix needs K >= 2")
    lb = w.log_betas(K - 1)
    entries = np.zeros((K, K), dtype=complex)
    entries[np.arange(K - 1), np.arange(1, K)] = np.exp(lb[:-1] - lb[1:])
    return _finite(entries)


def mult_matrix(f, w, K):
    """Multiplication by a power series: lower-triangular Toeplitz pattern."""
    col = f.padded(K - 1)
    T = toeplitz(col, np.zeros(K, dtype=complex))
    return _finite(T * _ratio_matrix(w, K))


def calculus_matrix(h, w, K):
    """h applied to the backward shift: upper-triangular Toeplitz pattern."""
    row = h.padded(K - 1)
    e0 = np.zeros(K, dtype=complex)
    e0[0] = row[0]
    T = toeplitz(e0, row)
    return _finite(T * _ratio_matrix(w, K))


@dataclass
class LeftInverseReport:
    """Residual of calculus(star B) @ mult(B) against the identity."""

    block: int
    max_dev_block: float


def left_inverse_check(B, w, K, tailpad=14):
    """Check that star(B)(S) composed with B(M_z) reproduces the identity.

    The product of the two truncated triangular matrices agrees with the
    identity except where the discarded rows/columns beyond K contribute, so
    the deviation on the leading ``K - 2*order*tailpad`` block is attributable
    only to series truncation and decays with the zero moduli.
    """
    m = B.order
    if K <= 4 * m:
        raise ValueError("left-inverse check needs K > 4*order")
    block = K - 2 * m * tailpad
    if block < 1:
        raise ValueError("tailpad leaves no exact block; reduce it or raise K")
    bstar = series.taylor(B.star(), K - 1)
    b = series.taylor(B, K - 1)
    prod = calculus_matrix(bstar, w, K) @ mult_matrix(b, w, K)
    dev = np.abs(prod - np.eye(K))
    return LeftInverseReport(block=block, max_dev_block=float(np.max(dev[:block, :block])))


def commutant_transport_check(w, K):
    """Max deviation of the transported backward shift from M_z^* on the dual.

    Transporting the backward shift into the reciprocal-weight space (where
    the transport is the identity in orthonormal coordinates) must reproduce
    the conjugate transpose of multiplication by z there, exactly at
    truncation.
    """
    lhs = shift_matrix(w, K)
    zser = series.poly_series([0.0, 1.0], K - 1)
    rhs = mult_matrix(zser, w.dual(), K).conj().T
    return float(np.max(np.abs(lhs - rhs)))


def dump_matrix_csv(entries, path):
    """Row-major CSV dump with re,im pairs per entry."""
    entries = np.asarray(entries, dtype=complex)
    with open(path, "w", newline="") as fh:
        for row in entries:
            cells = []
            for v in row:
                cells.append(f"{v.real:.17g}")
                cells.append(f"{v.imag:.17g}")
            fh.write(",".join(cells) + "\n")
