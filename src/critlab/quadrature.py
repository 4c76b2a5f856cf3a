"""Closed-form quadrature of power weights against piecewise polynomials.

Every integral in this package reduces to sums of

    M_k = integral over [lo, hi] of  r^alpha (r - lo)^k dr,

with the interpolant of the smooth factor written in the local basis
(r - lo)^k on each cell.  Cells touching the origin get exact weight
moments; far cells use Gauss-Legendre nodes, where the weight is smooth
(the exact formulas would cancel catastrophically for k >= 2 there).
"""
from __future__ import annotations

import math

import numpy as np

# threshold (in units of the cell width) below which exact moments are used
_NEAR_FACTOR = 8.0
_GL_X, _GL_W = np.polynomial.legendre.leggauss(6)


def cell_moments(lo: np.ndarray, hi: np.ndarray, alpha: float, kmax: int) -> np.ndarray:
    """Moment matrix M[i, k] = int_{lo_i}^{hi_i} r^alpha (r - lo_i)^k dr.

    Requires 0 <= lo < hi and alpha > -1 (so every moment converges even
    when lo = 0).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo < 0.0) or np.any(hi <= lo):
        raise ValueError("cells must satisfy 0 <= lo < hi")
    if alpha <= -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    n = lo.size
    h = hi - lo
    M = np.empty((n, kmax + 1))

    near = lo <= _NEAR_FACTOR * h
    far = ~near

    if np.any(near):
        lo_n, hi_n = lo[near], hi[near]
        # binomial expansion of (r - lo)^k in powers of r; each power
        # integrates in closed form.  lo <= 8h keeps the alternating sum
        # well conditioned.
        pow_hi = np.empty((lo_n.size, kmax + 1))
        pow_lo = np.empty((lo_n.size, kmax + 1))
        for j in range(kmax + 1):
            e = alpha + j + 1.0
            pow_hi[:, j] = hi_n**e / e
            pow_lo[:, j] = lo_n**e / e
        base = pow_hi - pow_lo  # integral of r^{alpha+j}
        Mn = np.zeros((lo_n.size, kmax + 1))
        for k in range(kmax + 1):
            acc = np.zeros(lo_n.size)
            for j in range(k + 1):
                acc += math.comb(k, j) * (-lo_n) ** (k - j) * base[:, j]
            Mn[:, k] = acc
        M[near] = Mn

    if np.any(far):
        lo_f = lo[far][:, None]
        h_f = (hi[far] - lo[far])[:, None]
        tau = 0.5 * h_f * (_GL_X[None, :] + 1.0)
        w = 0.5 * h_f * _GL_W[None, :]
        wgt = w * (lo_f + tau) ** alpha
        Mf = np.empty((lo_f.size, kmax + 1))
        tk = np.ones_like(tau)
        for k in range(kmax + 1):
            Mf[:, k] = np.sum(wgt * tk, axis=1)
            tk = tk * tau
        M[far] = Mf

    return M


def hermite_coeffs(r: np.ndarray, f: np.ndarray, df: np.ndarray) -> np.ndarray:
    """Coefficients c[..., k] of (r - r_i)^k of the cubic Hermite cells.

    Node values f and derivatives df run along the last axis, as do the
    cells; rows of two nodes give just the cells they name.
    """
    h = np.diff(r)
    slope = np.diff(f) / h
    d0, d1 = df[..., :-1], df[..., 1:]
    return np.stack(
        (f[..., :-1], d0, (3.0 * slope - 2.0 * d0 - d1) / h, (d0 + d1 - 2.0 * slope) / h**2), axis=-1
    )


def hat_weights(r: np.ndarray, alpha: float) -> np.ndarray:
    """Diagonal weights w with sum(w * z) = int r^alpha * (linear interp of z).

    These are the weighted P1 hat-function masses; the quadrature of any
    nodal function against the weight reduces to a dot product.
    """
    M = cell_moments(r[:-1], r[1:], alpha, 1)
    h = np.diff(r)
    w = np.zeros(r.size)
    frac = M[:, 1] / h
    w[:-1] += M[:, 0] - frac
    w[1:] += frac
    return w


def cell_weight_integrals(r: np.ndarray, alpha: float) -> np.ndarray:
    """Per-cell integrals of r^alpha (zeroth moments)."""
    return cell_moments(r[:-1], r[1:], alpha, 0)[:, 0]
