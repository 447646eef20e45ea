"""Special functions the analytic outage expressions need beyond scipy.

Everything here is pure and reentrant.  Scalar arguments give scalar
results; array arguments broadcast in the usual numpy way.  The *_outer
functions return whole grids, contracted from one chunked Poisson term table.

Every exp whose result feeds a contraction goes through _flushed_exp, which
returns 0 where e^x would fall below the smallest normal double (2.2e-308)
and np.exp's own value everywhere else.  numpy's SIMD exp spends 14-90x as
long on a result that underflows or is subnormal as on a normal one, OpenBLAS
slows on subnormal operands too, and the term tables hold many such terms: a
Poisson window spans orders whose terms underflow.  A mixture sums at most
_MAX_TERMS terms with weights <= 1, so the flush moves a value by less than
_MAX_TERMS * 2.2e-308 ~ 2.2e-304, far below the 1e-300 floor of the
analytic kernels.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

# Terms a Poisson mixture may sum; one lam's window fits up to lam = 171,526.
_MAX_TERMS = 10_000
# Terms one chunk of the term table holds: 1 MB, so the chunk's log-terms,
# its terms and the BLAS product reading them fit in a 4 MB L2; but at least
# _CHUNK_COLS x-values, below which a wide window's product runs at half
# speed (20 MB for the two buffers at the term cap).
_CHUNK_ENTRIES = 2 ** 17
_CHUNK_COLS = 128
# Largest aperture mu_from_w accepts: above it hyp - J1/z cancels (relative
# error 1.5e-11 at 1e6 wavelengths, 2.5e-10 at 1e7, 7.9e-7 at 1e10).
_MAX_W = 1e6


class QuadratureConvergenceError(RuntimeError):
    """The numerics cannot vouch for a value: a Poisson window wider than
    _MAX_TERMS, or an exact evaluator's Richardson or range check failed."""


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


def _normal_exp_cut() -> float:
    """The least x whose np.exp is a normal double, found on np.exp's own
    rounding so that _flushed_exp keeps every normal result."""
    tiny, x = np.finfo(float).tiny, math.log(np.finfo(float).tiny)
    while np.exp(x) < tiny:
        x = np.nextafter(x, math.inf)
    while np.exp(np.nextafter(x, -math.inf)) >= tiny:
        x = np.nextafter(x, -math.inf)
    return float(x)


_EXP_CUT = _normal_exp_cut()


def _flushed_exp(x, out: np.ndarray | None = None) -> np.ndarray:
    """np.exp(x), but exactly 0 wherever that would be subnormal or 0 (x below
    _EXP_CUT); bit-identical to np.exp everywhere else, NaN included.  Writes
    into out when given (x's shape, not overlapping x)."""
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.zeros(x.shape)
    else:
        out.fill(0.0)
    # masked lanes skip exp: with numpy 2.4's AVX-512 exp on a Xeon, a result
    # that underflows to 0 costs 18 ns, a subnormal one 70-120 ns, a normal
    # one about 1.3 ns
    return np.exp(x, out=out, where=~(x < _EXP_CUT))


def _poisson_k_range(lam_min: float, lam_max: float) -> tuple[int, int]:
    """Index window [k_lo, k_hi] of a Poisson mixture over lam in
    [lam_min, lam_max]: from lam_min - (12 sqrt(lam_min + 1) + 30) to
    lam_max + (12 sqrt(lam_max + 1) + 30).  For each lam of the span, a
    Poisson law of mean lam has under 1e-30 of its mass on either side of
    it (tested up to the largest lam the cap admits, where the worse side
    reads 1.5e-33).  A window wider than _MAX_TERMS raises
    QuadratureConvergenceError."""
    k_hi = int(lam_max + 12.0 * math.sqrt(lam_max + 1.0) + 30.0)
    k_lo = max(0, int(lam_min - 12.0 * math.sqrt(lam_min + 1.0) - 30.0))
    if k_hi - k_lo + 1 > _MAX_TERMS:
        raise QuadratureConvergenceError(f"Poisson mixture needs {k_hi - k_lo + 1} "
                                         f"terms, more than the cap of {_MAX_TERMS}")
    return k_lo, k_hi


def _poisson_weights(lam: np.ndarray, ks: np.ndarray, log_terms: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Poisson pmf matrix exp(k ln(lam) - lam - ln k!), rows over lam, with
    terms below the smallest normal double flushed to 0.  The log-terms and
    the terms are built in place, in log_terms and out when given (both
    (len(lam), len(ks))), else in fresh arrays."""
    if log_terms is None:
        log_terms = np.empty((lam.shape[0], ks.shape[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(ks, np.log(lam)[:, None], out=log_terms)
    log_terms -= lam[:, None]
    log_terms -= sp.gammaln(ks + 1.0)
    out = _flushed_exp(log_terms, out)
    out[lam == 0.0] = ks == 0
    return out


def _poisson_mixture(weights: np.ndarray, orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    """weights @ pois(orders; x).T, the term table built _CHUNK_ENTRIES at a
    time in two buffers that every chunk reuses, each product written
    straight into its columns of the result."""
    out = np.empty((weights.shape[0], x.shape[0]))
    cols = max(_CHUNK_ENTRIES // orders.shape[0], _CHUNK_COLS)
    log_terms, terms = np.empty((2, min(cols, x.shape[0]), orders.shape[0]))
    for lo in range(0, x.shape[0], cols):
        n = min(cols, x.shape[0] - lo)
        table = _poisson_weights(x[lo:lo + n], orders, log_terms[:n], terms[:n])
        np.matmul(weights, table.T, out=out[:, lo:lo + n])
    return out


def marcum_q_outer(order: int, a, b) -> np.ndarray:
    """Marcum Q_order evaluated on the outer grid of a-values x b-values.

    Returns the (len(a), len(b)) matrix Q_order(a_i, b_j) through the
    Poisson mixture

        Q_N(a, b) = sum_k  pois(k; a^2/2) * GammaReg(N + k, b^2/2),

    truncated to the Poisson window of a^2/2 (_poisson_k_range), which
    discards under 1e-30 of the mass on either side.  Every term lies in
    [0, 1], so the truncation error is bounded by the discarded mass.
    GammaReg(s + 1, x) = GammaReg(s, x) + pois(s; x) turns the sum over the
    window k_lo..k_hi into (sum_k p_k) GammaReg(N + k_lo, x)
    + sum_j T_j pois(N + k_lo + j; x) with T_j = sum_{k > j} p_k: one gamma
    per b-value plus a product with the Poisson term table, with no
    cancellation; the window follows a alone, so far above a the upper tail
    is truncated.  A window wider than _MAX_TERMS raises QuadratureConvergenceError.
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
    # row by row, with no (a x b) temporary: fresh memory of that size on
    # every call costs more in page faults than the loop
    gamma = sp.gammaincc(order + k_lo, x)
    for row, mass in zip(out, pmat.sum(axis=1)):
        row += mass * gamma
    np.clip(out, 0.0, 1.0, out=out)
    out[:, x == 0.0] = 1.0
    return out


def _ncx2_pdf_on(m: int, lam, x_min: float, x_max: float):
    """Noncentral chi-square pdf with 2m dof, as a function of x-vectors
    within [x_min, x_max] that returns the (len(lam), len(x)) grid.

    0.5 sum_k pois(k; lam/2) pois(m - 1 + k; x/2) over the Poisson term table.
    The terms peak near k = sqrt(lam x) / 2 and fall off on either side at
    least as fast as a Poisson law of that mean.  So the window is
    _poisson_k_range's over that geometric mean; it leaves under 1e-30 of
    the terms' sum on either side (tested up to the cap), and the relative
    accuracy holds also where x >> lam.  Every x of the span shares that one
    window, so pieces of a grid evaluated apart sum the same terms."""
    alpha = 0.5 * np.asarray(lam, dtype=float)
    k_lo, k_hi = _poisson_k_range(math.sqrt(alpha.min() * (0.5 * x_min)),
                                  math.sqrt(alpha.max() * (0.5 * x_max)))
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    weights = _poisson_weights(alpha, ks)
    return lambda x: 0.5 * _poisson_mixture(weights, m - 1 + ks, 0.5 * np.asarray(x, dtype=float))
