"""Special functions the analytic outage expressions need beyond scipy.

Everything here is pure and reentrant.  Scalar arguments give scalar
results; array arguments broadcast in the usual numpy way.  The *_outer
functions return whole grids, contracted from one chunked Poisson term table.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

# Poisson mass a mixture may discard, its term cap, and the terms one chunk
# of the term table may hold (16 MB).
_REL_TOL = 1e-10
_MAX_TERMS = 10_000
_CHUNK_ENTRIES = 2 ** 21
# Largest aperture mu_from_w accepts: above it hyp - J1/z cancels (relative
# error 1.5e-11 at 1e6 wavelengths, 2.5e-10 at 1e7, 7.9e-7 at 1e10).
_MAX_W = 1e6


class SeriesConvergenceError(RuntimeError):
    """A truncated series failed to reach the requested tolerance."""


def bessel_i_ln(n: int, x):
    """ln I_n(x), stable for large x via the exponentially scaled Bessel."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.log(sp.ive(n, x)) + x
    return out if out.ndim else float(out)


def mu_from_w(w: float) -> float:
    """Average port correlation of a linear fluid antenna of size w wavelengths.

    mu = sqrt(2) * sqrt( 1F2(1/2; 1, 3/2; -pi^2 w^2) - J1(2 pi w)/(2 pi w) ),
    clamped to [0, 1] against rounding.  Decreases with w in trend.  The
    1F2 is the Struve form of Abramowitz & Stegun 11.1.7,
    1F2(1/2; 1, 3/2; -z^2/4) = J0(z) + (pi/2) [J1(z) H0(z) - J0(z) H1(z)].
    W above _MAX_W raises ValueError, since the difference cancels there.
    """
    if not 0 < w < math.inf:
        raise ValueError(f"fluid antenna size must be positive and finite, got {w}")
    if w > _MAX_W:
        raise ValueError(f"fluid antenna size {w:g} exceeds {_MAX_W:g} wavelengths, "
                         f"beyond which mu loses its accuracy to cancellation")
    z = 2.0 * math.pi * w
    j0, j1 = sp.j0(z), sp.j1(z)
    hyp = j0 + 0.5 * math.pi * (j1 * sp.struve(0, z) - j0 * sp.struve(1, z))
    mu_sq = 2.0 * (hyp - j1 / z)
    return math.sqrt(min(max(mu_sq, 0.0), 1.0))


def _poisson_k_range(lam_min: float, lam_max: float) -> tuple[int, int]:
    """Index window [k_lo, k_hi] carrying all but < _REL_TOL Poisson mass."""
    k_hi = int(lam_max + 12.0 * math.sqrt(lam_max + 1.0) + 30.0)
    # Poisson survival P(K > k) = gammainc(k+1, lam), increasing in lam.
    while sp.gammainc(k_hi + 1, lam_max) > _REL_TOL:
        k_hi = int(1.5 * k_hi) + 16
    k_lo = max(0, int(lam_min - 12.0 * math.sqrt(lam_min + 1.0) - 30.0))
    # P(K < k_lo) = gammaincc(k_lo, lam), decreasing in lam.
    while k_lo > 0 and sp.gammaincc(k_lo, lam_min) > _REL_TOL:
        k_lo //= 2
    if k_hi - k_lo + 1 > _MAX_TERMS:
        raise SeriesConvergenceError(f"Poisson mixture needs {k_hi - k_lo + 1} "
                                     f"terms, more than the cap of {_MAX_TERMS}")
    return k_lo, k_hi


def _poisson_weights(lam: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Poisson pmf matrix exp(k ln(lam) - lam - ln k!), rows over lam."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(ks * np.log(lam)[:, None] - lam[:, None] - sp.gammaln(ks + 1.0))
    out[lam == 0.0] = ks == 0
    return out


def _poisson_mixture(weights: np.ndarray, orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    """weights @ pois(orders; x).T, the term table built _CHUNK_ENTRIES at a time."""
    out = np.empty((weights.shape[0], x.shape[0]))
    cols = _CHUNK_ENTRIES // orders.shape[0]     # the term cap keeps this >= 209
    for lo in range(0, x.shape[0], cols):
        out[:, lo:lo + cols] = weights @ _poisson_weights(x[lo:lo + cols], orders).T
    return out


def marcum_q_outer(order: int, a, b) -> np.ndarray:
    """Marcum Q_order evaluated on the outer grid of a-values x b-values.

    Returns the (len(a), len(b)) matrix Q_order(a_i, b_j) through the
    Poisson mixture

        Q_N(a, b) = sum_k  pois(k; a^2/2) * GammaReg(N + k, b^2/2),

    truncated once the remaining Poisson tail mass drops below 1e-10.
    Every term lies in [0, 1], so the truncation error is bounded by the
    discarded mass.  GammaReg(s + 1, x) = GammaReg(s, x) + pois(s; x) turns
    the sum over the window k_lo..k_hi into (sum_k p_k) GammaReg(N + k_lo, x)
    + sum_j T_j pois(N + k_lo + j; x) with T_j = sum_{k > j} p_k: one gamma
    per b-value plus a product with the Poisson term table, with no
    cancellation; the window follows a alone, so far above a the upper tail
    is truncated.  A window wider than _MAX_TERMS raises SeriesConvergenceError.
    """
    if order < 1 or order != int(order):
        raise ValueError("order must be a positive integer")
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("a and b must be nonnegative")
    lam = 0.5 * a * a
    x = 0.5 * b * b
    k_lo, k_hi = _poisson_k_range(float(lam.min()), float(lam.max()))
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    pmat = _poisson_weights(lam, ks)
    tail = np.cumsum(pmat[:, :0:-1], axis=1)[:, ::-1]
    out = _poisson_mixture(tail, order + ks[:-1], x)
    out += pmat.sum(axis=1)[:, None] * sp.gammaincc(order + k_lo, x)[None, :]
    np.clip(out, 0.0, 1.0, out=out)
    out[:, x == 0.0] = 1.0
    return out


def ncx2_pdf_outer(m: int, lam, x) -> np.ndarray:
    """Noncentral chi-square pdf with 2m dof on the outer grid of lam x x.

    0.5 sum_k pois(k; lam/2) pois(m - 1 + k; x/2) over the Poisson term table;
    the terms peak near k = sqrt(lam x) / 2, so the window sits at that
    geometric mean and the relative accuracy holds also where x >> lam.
    """
    alpha, beta = 0.5 * np.asarray(lam, dtype=float), 0.5 * np.asarray(x, dtype=float)
    k_lo, k_hi = _poisson_k_range(math.sqrt(alpha.min() * beta.min()),
                                  math.sqrt(alpha.max() * beta.max()))
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    return 0.5 * _poisson_mixture(_poisson_weights(alpha, ks), m - 1 + ks, beta)
