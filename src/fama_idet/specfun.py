"""Special functions the analytic outage expressions need beyond scipy.

Everything here is pure and reentrant.  Scalar arguments give scalar
results; array arguments broadcast in the usual numpy way.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

# Poisson mass the Marcum mixture may discard, and its term cap.
_REL_TOL = 1e-10
_MAX_TERMS = 10_000


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
    """
    if w <= 0:
        raise ValueError(f"fluid antenna size must be positive, got {w}")
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
        raise SeriesConvergenceError(f"Marcum-Q Poisson mixture needs {k_hi - k_lo + 1} "
                                     f"terms, more than the cap of {_MAX_TERMS}")
    return k_lo, k_hi


def _poisson_weights(lam: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Poisson pmf matrix exp(k ln(lam) - lam - ln k!), rows over lam."""
    lam = lam[:, None]
    out = np.zeros((lam.shape[0], ks.shape[0]))
    pos = lam[:, 0] > 0.0
    if np.any(pos):
        with np.errstate(divide="ignore"):
            out[pos] = np.exp(
                ks[None, :] * np.log(lam[pos]) - lam[pos] - sp.gammaln(ks + 1.0)[None, :]
            )
    if np.any(~pos):
        out[~pos] = (ks == 0).astype(float)[None, :]
    return out


def marcum_q_outer(order: int, a, b) -> np.ndarray:
    """Marcum Q_order evaluated on the outer grid of a-values x b-values.

    Returns the (len(a), len(b)) matrix Q_order(a_i, b_j) through the
    Poisson mixture

        Q_N(a, b) = sum_k  pois(k; a^2/2) * GammaReg(N + k, b^2/2),

    truncated once the remaining Poisson tail mass drops below 1e-10.
    Every term lies in [0, 1], so the truncation error is bounded by the
    discarded mass.  The k-sum collapses to one matrix product, which is
    what makes the quadrature kernels affordable.  A window wider than
    _MAX_TERMS raises SeriesConvergenceError rather than build the grid.
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
    gmat = sp.gammaincc(order + ks[:, None], x[None, :])
    out = pmat @ gmat
    np.clip(out, 0.0, 1.0, out=out)
    out[:, x == 0.0] = 1.0
    return out
