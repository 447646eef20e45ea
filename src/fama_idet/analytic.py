"""Deterministic evaluation of the outage integrals and their closed forms.

Every exact evaluator but wdt_ehp_exact, a closed-form identity, integrates
the conditional noncentral chi-square structure of the port statistics:
conditioned on the shared components (r1 for the desired link, r2 for the
interference), per-port quantities are independent, so the K-port extremes
reduce to K-th powers of inner one-port kernels.  A LoS component
(rician_k > 0) makes the conditioners noncentral; the evaluators without a
Rician expression refuse it rather than return the Rayleigh value.
Each kernel `_*_raw(ctx, ns, nf)` reads all but its node counts from ctx.
Semi-infinite axes use Gauss-Laguerre after r = 2t, finite inner ranges use
Gauss-Legendre, and one driver runs each kernel with an optional Richardson
check that re-evaluates at 1.5x nodes to bound the truncation error.  Marcum
Q and the pdf beyond 2 dof come as node grids from specfun's Poisson
mixtures, contracted by BLAS products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sp

from .channel import SystemConfig
from .specfun import bessel_i_ln, marcum_q_outer, ncx2_pdf_outer

# Inner kernels are clamped here before K*log(.) so the K-th power stays finite.
_FLOOR = 1e-300
# Per-axis node cap; keeps the 3-D evaluations at desk scale even with the
# Richardson refinement (1.5x) applied on top of user-requested counts.
_MAX_NODES = 100


class QuadratureConvergenceError(RuntimeError):
    """Quadrature result failed the Richardson or range check."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and tolerance for the exact evaluators."""

    nodes_semiinfinite: int = 48
    nodes_finite: int = 64
    rel_tol_target: float = 1e-6
    richardson_check: bool = True

    def __post_init__(self):
        if not all(8 <= c <= _MAX_NODES for c in (self.nodes_semiinfinite, self.nodes_finite)):
            raise ValueError(f"node counts must lie in [8, {_MAX_NODES}] (cost guard)")
        if not 0.0 < self.rel_tol_target < 1.0:
            raise ValueError("rel_tol_target must be in (0, 1)")


DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class KernelContext:
    """Dimensionless scenario parameters entering the outage integrals."""

    mu: float
    gamma_th: float
    q_hat: float
    n_users: int
    n_ports: int
    rician_k: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")
        if self.gamma_th <= 0.0:
            raise ValueError("gamma_th must be positive")
        if self.q_hat < 0.0:
            raise ValueError("q_hat must be nonnegative")
        if self.n_users < 2 or self.n_ports < 1:
            raise ValueError("need n_users >= 2 and n_ports >= 1")
        if self.rician_k < 0.0:
            raise ValueError("rician_k must be nonnegative")

    @classmethod
    def from_config(cls, cfg: SystemConfig) -> "KernelContext":
        return cls(
            mu=cfg.mu,
            gamma_th=cfg.sinr_threshold,
            q_hat=cfg.q_hat,
            n_users=cfg.n_users,
            n_ports=cfg.n_ports,
            rician_k=cfg.rician_k,
        )

    @property
    def q_tilde(self) -> float:
        """mu -> 0 limit of the normalized WET threshold."""
        return self.q_hat * (1.0 - self.mu ** 2)

    @property
    def corr_ratio(self) -> float:
        """c = mu^2 / (1 - mu^2), the shared-component scale."""
        if self.mu >= 1.0:
            raise ValueError("kernel undefined at mu = 1")
        return self.mu ** 2 / (1.0 - self.mu ** 2)


@lru_cache(maxsize=32)
def _laguerre(n: int):
    t, w = sp.roots_laguerre(n)
    with np.errstate(divide="ignore"):
        return t, np.log(w)


@lru_cache(maxsize=32)
def _legendre01(n: int):
    """Gauss-Legendre nodes/weights mapped to (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _ncx2_quad(m: int, lam, n_nodes: int):
    """Nodes v and weights for E[g(v)], v ~ noncentral chi-square(2m, lam).

    `lam` is one rate or an array of rates shaped to broadcast against the
    nodes, one row per rate (lam[:, None]); the weights then have one row
    per rate.  Substitution v = 2t folds the e^{-v/2} density factor into
    the Gauss-Laguerre weight; lam = 0 reduces to the central chi-square.
    """
    t, logw = _laguerre(n_nodes)
    v = 2.0 * t
    if np.ndim(lam) == 0 and lam == 0.0:
        extra = (m - 1) * np.log(t) - sp.gammaln(m) if m > 1 else 0.0
    else:
        extra = -0.5 * lam + bessel_i_ln(m - 1, np.sqrt(2.0 * lam * t))
        if m > 1:
            log_lam = math.log(lam) if np.ndim(lam) == 0 else np.log(lam)
            extra = extra + 0.5 * (m - 1) * (np.log(v) - log_lam)
    return v, np.exp(logw + extra)


def _ncx2_pdf(lam, x):
    """Noncentral chi-square pdf with 2 dof, stable at large arguments."""
    # i0e = e^{-|arg|} I_0: its scaling is the sqrt(lam x) cross term of the exponent
    return 0.5 * np.exp(-0.5 * (np.sqrt(lam) - np.sqrt(x)) ** 2) * sp.i0e(np.sqrt(lam * x))


def _pow_k(values: np.ndarray, k: int) -> np.ndarray:
    """values**k through exp(k log .), with values clamped into (0, 1]."""
    return np.exp(k * np.log(np.clip(values, _FLOOR, 1.0)))


def _rayleigh_only(ctx: KernelContext, name: str) -> None:
    if ctx.rician_k > 0.0:
        raise ValueError(f"{name} holds only for Rayleigh fading (rician_k = 0)")


def _check_mu(ctx: KernelContext, name: str) -> None:
    if not 0.0 < ctx.mu < 1.0:
        raise ValueError(f"{name} requires mu in (0, 1)")


def _conditioners(ctx: KernelContext, ns: int):
    """lam1, lam2 are the shared-component noncentralities (0 for Rayleigh)."""
    n, mu2 = ctx.n_users, ctx.mu ** 2
    lam1, lam2 = ctx.rician_k / mu2, (n - 1) * ctx.rician_k / mu2
    return (_ncx2_quad(1, lam1, ns),        # desired-link conditioner (2 dof)
            _ncx2_quad(n - 1, lam2, ns))    # interference conditioner (2(N-1) dof)


def _with_richardson(raw, ctx: KernelContext, quad: QuadratureSpec, name: str) -> float:
    """Evaluate raw(ctx, ns, nf), re-evaluate at 1.5x nodes if asked, range-check, clamp."""
    ns, nf, tol = quad.nodes_semiinfinite, quad.nodes_finite, 10.0 * quad.rel_tol_target
    val = raw(ctx, ns, nf)
    if quad.richardson_check:
        refined = raw(ctx, min(math.ceil(1.5 * ns), _MAX_NODES),
                      min(math.ceil(1.5 * nf), _MAX_NODES))
        if abs(refined - val) > tol:
            raise QuadratureConvergenceError(
                f"{name}: Richardson deviation {abs(refined - val):.3e} exceeds {tol:.1e}")
        val = refined
    if val < -tol or val > 1.0 + tol:
        raise QuadratureConvergenceError(f"{name}: value {val} outside [0, 1]")
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# WDT outage, WDT-oriented port (max-SIR selection)
# ---------------------------------------------------------------------------

def _wdt_sinr_raw(ctx: KernelContext, ns: int, nf: int) -> float:
    n, kp, g, c = ctx.n_users, ctx.n_ports, ctx.gamma_th, ctx.corr_ratio
    (v1, w1), (v2, w2) = _conditioners(ctx, ns)

    a = np.sqrt(c * g * v2 / (g + 1.0))
    b = np.sqrt(c * v1 / (g + 1.0))
    q = marcum_q_outer(n - 1, a, b)         # rows: v2 nodes, cols: v1 nodes

    # Bessel sum in logs, finite where I_n(x) and exp(-c (g v2 + v1)/(2(g+1))) are not
    x = c * np.sqrt(g * np.outer(v2, v1)) / (g + 1.0)
    expo = -c * (g * v2[:, None] + v1[None, :]) / (2.0 * (g + 1.0))
    log_ratio = 0.5 * (np.log(v1)[None, :] - np.log(v2)[:, None])
    s = np.zeros_like(x)
    for k in range(n - 1):
        for j in range(n - 1 - k):
            coeff = math.comb(n - k - 2, j) * (g + 1.0) ** k * g ** (0.5 * (j - k))
            s += coeff * np.exp(bessel_i_ln(j + k, x) + (j + k) * log_ratio + expo)
    s *= (g + 1.0) ** (1 - n)

    return float(w2 @ _pow_k(q - s, kp) @ w1)


def wdt_sinr_exact(ctx: KernelContext, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Probability that the best-SIR port still falls below gamma_th.

    A LoS component of power rician_k per antenna makes the shared-component
    conditioners noncentral; rician_k = 0 is Rayleigh fading.
    """
    _check_mu(ctx, "wdt_sinr_exact")
    return _with_richardson(_wdt_sinr_raw, ctx, quad, "wdt_sinr_exact")


@dataclass(frozen=True)
class ClosedFormPair:
    """Full closed-form value and its large-threshold simplification."""

    theorem: float
    corollary: float


def wdt_sinr_approx(ctx: KernelContext) -> ClosedFormPair:
    """Closed-form WDT outage approximations (binomial-expansion regime).

    Both values are 1 - K*s, the first-order truncation of the binomial
    expansion of the K-port product, where s is the probability that one
    port clears gamma_th (at K = 1 the theorem matches the single-port
    outage 1 - (1 + gamma_th)^-(N-1) to about 1e-4).
    They are valid only while the first-order term K*s << 1; for K*s >~ 1
    the truncation goes negative and the values clamp to 0, which is no
    estimate of the outage.
    """
    _rayleigh_only(ctx, "wdt_sinr_approx")
    n, kp, g, mu2 = ctx.n_users, ctx.n_ports, ctx.gamma_th, ctx.mu ** 2
    c_sum = 0.0
    for k in range(n - 1):
        for j in range(n - 1 - k):
            c_sum += (
                g ** j * (g + 1.0) ** (k + 1)
                * math.comb(n - k - 2, j)
                * mu2 ** (j + k) / ((1.0 - mu2) * g + 1.0) ** (j + k + 1)
            )
    cval = (
        ((2.0 * g * (1.0 - mu2) + 1.0) / (2.0 * g * g + (3.0 - mu2) * g + 1.0)) ** (n - 1)
        * (1.0 - mu2) * c_sum
    )
    theorem = max(0.0, 1.0 - kp * (mu2 / (g + 1.0)) ** (n - 1) - kp * cval)
    corollary = max(
        0.0,
        1.0 - kp * (mu2 / (g + 1.0)) ** (n - 1) - kp * ((1.0 - mu2) / (g + 1.0)) ** (n - 1),
    )
    return ClosedFormPair(theorem=theorem, corollary=corollary)


# ---------------------------------------------------------------------------
# WET outage, WET-oriented port (max-power selection)
# ---------------------------------------------------------------------------

def _wet_ehp_raw(ctx: KernelContext, ns: int, nf: int) -> float:
    n, kp, c = ctx.n_users, ctx.n_ports, ctx.corr_ratio
    lam = n * ctx.rician_k / ctx.mu ** 2
    q_eff = ctx.q_hat * (1.0 + 0.5 * ctx.rician_k)  # see wet_ehp_exact
    v, w = _ncx2_quad(n, lam, ns)           # total-power conditioner (2N dof)
    bracket = 1.0 - marcum_q_outer(n, np.sqrt(c * v), [math.sqrt(q_eff)])[:, 0]
    return float(w @ _pow_k(bracket, kp))


def wet_ehp_exact(ctx: KernelContext, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Probability that even the most energetic port harvests below Q_th.

    Under LoS (rician_k > 0) the 2N-dof conditioner is noncentral.  The
    harvested power is kept independent of kappa on average
    (power-preserving normalization), so the normalized threshold carries
    a (1 + kappa/2) factor; rician_k = 0 is Rayleigh fading.
    """
    _check_mu(ctx, "wet_ehp_exact")
    if ctx.q_hat == 0.0:
        return 0.0
    if math.isinf(ctx.q_hat):
        return 1.0
    return _with_richardson(_wet_ehp_raw, ctx, quad, "wet_ehp_exact")


def wet_ehp_approx(ctx: KernelContext) -> float:
    """Closed-form WET outage (binomial regime, large thresholds).

    The value is 1 - K*s, the first-order truncation of the binomial
    expansion of the K-port product; its leading term is
    K*s ~ K * Gamma_upper(N, q_hat/2). It is valid only while K*s << 1,
    i.e. at large thresholds; for K*s >~ 1 the value clamps to 0, which is
    no estimate of the outage.
    """
    _rayleigh_only(ctx, "wet_ehp_approx")
    n, kp, mu2, qh = ctx.n_users, ctx.n_ports, ctx.mu ** 2, ctx.q_hat
    if qh == 0.0:
        return 0.0
    if math.isinf(qh):
        return 1.0
    h = qh / 2.0
    series = sum(
        (1.0 - mu2) ** l * sp.hyp1f1(l + 1, n + 1, mu2 * h) for l in range(n)
    )
    third = kp * mu2 * math.exp(n * math.log(h) - h - sp.gammaln(n + 1)) * series
    return max(0.0, 1.0 - kp * sp.gammaincc(n, h) - third)


# ---------------------------------------------------------------------------
# WET outage, WDT-oriented port (harvest at the max-SIR port)
# ---------------------------------------------------------------------------

def _wet_sinr_raw(ctx: KernelContext, ns: int, nf: int) -> float:
    n, kp, g, c, qh = ctx.n_users, ctx.n_ports, ctx.gamma_th, ctx.corr_ratio, ctx.q_hat
    (v1, w1), (v2, w2) = _conditioners(ctx, ns)
    a1 = np.sqrt(c * v1)                            # desired-link Marcum parameter

    # z-axis (competing-port SIR) mapped to (0, inf) via z = (t/(1-t))^2;
    # the squared map keeps sqrt(z), which enters every Marcum argument,
    # smooth at the z = 0 endpoint
    tz, wz0 = _legendre01(nf)
    z = (tz / (1.0 - tz)) ** 2
    wz = wz0 * 2.0 * tz / (1.0 - tz) ** 3

    # shared Laguerre grid for the inner conditional-Y integrals, weighted
    # by f_Y|v2_j (one row per v2 node); the integrands are functions of
    # sqrt(y'), whose kink at 0 makes plain Laguerre converge algebraically,
    # so this axis is oversampled (capped where the Laguerre weights would
    # underflow)
    yq, wy = _ncx2_quad(n - 1, (c * v2)[:, None], min(4 * ns, 150))  # wy: (j, p)

    # finite y-range [0, qh/(1+z)] for the outage bracket; y = range * s^2
    # keeps sqrt(y) in the Marcum and Bessel arguments smooth at y = 0
    sy, ws0 = _legendre01(nf)
    ws = 2.0 * sy * ws0
    ygrid = qh / (1.0 + z)[:, None] * (sy ** 2)[None, :]   # (z, s)

    # one Marcum call covers all three b-grids
    b_yz = np.sqrt(z[:, None] * ygrid)              # (z, s)
    b_qy = np.sqrt(qh - ygrid)                      # (z, s)
    b_zy = np.sqrt(np.outer(z, yq))                 # (z, p)
    b_all = np.concatenate([b_yz.ravel(), b_qy.ravel(), b_zy.ravel()])
    qmat = marcum_q_outer(1, a1, b_all)
    n1, n2 = b_yz.size, b_qy.size
    q_yz = qmat[:, :n1].reshape(ns, nf, nf)
    q_qy = qmat[:, n1:n1 + n2].reshape(ns, nf, nf)
    q_zy = qmat[:, n1 + n2:].reshape(ns, nf, yq.size)

    # inner bracket integral over y, weighted by the conditional Y pdf f_y
    # (j, z, s; the i0e form at 2 dof beats the mixture at wide windows); the
    # arrays below are laid out (i, z, j), so each contraction is a matmul
    f_y = (ncx2_pdf_outer(n - 1, c * v2, ygrid.ravel()).reshape(ns, nf, nf) if n > 2
           else _ncx2_pdf((c * v2)[:, None, None], ygrid[None, :, :]))
    inner = np.matmul((q_yz - q_qy).transpose(1, 0, 2), (f_y * ws).transpose(1, 2, 0))
    inner = inner.transpose(1, 0, 2) * (qh / (1.0 + z))[:, None]

    # competing-port pdf f_A(z) = (K-1) (1-H)^{K-2} * Dinner
    h = np.tensordot(q_zy, wy, axes=(2, 1))
    f_x = _ncx2_pdf((c * v1)[:, None, None], z[None, :, None] * yq[None, None, :])
    dinner = np.tensordot(f_x, wy * yq[None, :], axes=(2, 1))
    f_a = (kp - 1) * _pow_k(1.0 - h, kp - 2) * dinner

    return kp * float(w1 @ ((f_a * inner) @ w2) @ wz)


def wet_sinr_exact(ctx: KernelContext, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Probability the SIR-optimal port harvests below Q_th."""
    _check_mu(ctx, "wet_sinr_exact")
    _rayleigh_only(ctx, "wet_sinr_exact")
    if ctx.q_hat == 0.0:
        return 0.0
    if math.isinf(ctx.q_hat):
        return 1.0
    # single port: the selection conditioning is vacuous
    raw = _wet_ehp_raw if ctx.n_ports == 1 else _wet_sinr_raw
    return _with_richardson(raw, ctx, quad, "wet_sinr_exact")


def wet_sinr_approx(ctx: KernelContext) -> float:
    """Small-mu closed form: X+Y decouples from the selection ratio X/Y."""
    _rayleigh_only(ctx, "wet_sinr_approx")
    if math.isinf(ctx.q_tilde):
        return 1.0
    return float(sp.gammainc(ctx.n_users, ctx.q_tilde / 2.0))


# ---------------------------------------------------------------------------
# WDT outage, WET-oriented port (decode at the max-power port)
# ---------------------------------------------------------------------------

def wdt_ehp_exact(ctx: KernelContext, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Probability the power-optimal port decodes below gamma_th.

    Exact for Rayleigh fading in closed form: a common unitary rotation of
    h0 and every e_k keeps their joint law and every port norm, so the
    max-power port's gain vector has a uniform direction independent of its
    norm, X/(X+Y) ~ Beta(1, N-1) and the outage is 1 - (1+gamma_th)^-(N-1)
    at every K and mu.  LoS breaks that isotropy, so Rician input is
    refused.  `quad` is unused; it keeps the evaluators' common signature.
    """
    _check_mu(ctx, "wdt_ehp_exact")
    _rayleigh_only(ctx, "wdt_ehp_exact")
    return 1.0 - (ctx.gamma_th + 1.0) ** (1 - ctx.n_users)


def wdt_ehp_approx(ctx: KernelContext) -> float:
    """Closed form 1 - (1+gamma_th)^-(N-1); exact for Rayleigh fading at
    every W and K (see wdt_ehp_exact), not only at large W."""
    _rayleigh_only(ctx, "wdt_ehp_approx")
    return 1.0 - (ctx.gamma_th + 1.0) ** (1 - ctx.n_users)


# ---------------------------------------------------------------------------
# IDET outages
# ---------------------------------------------------------------------------

def _idet_special_raw(ctx: KernelContext, ns: int, nf: int) -> float:
    n, kp, g, c, qh = ctx.n_users, ctx.n_ports, ctx.gamma_th, ctx.corr_ratio, ctx.q_hat
    (v1, w1), (v2, w2) = _conditioners(ctx, ns)

    upper = qh * g / (1.0 + g)                      # x-range where both bands overlap
    sx, wx = _legendre01(nf)
    x = upper * sx

    a2 = np.sqrt(c * v2)
    b = np.concatenate([np.sqrt(x / g), np.sqrt(qh - x)])
    qm = marcum_q_outer(n - 1, a2, b)
    diff = qm[:, :nf] - qm[:, nf:]                  # (j, s)

    f_x = _ncx2_pdf((c * v1)[:, None], x[None, :])           # (i, s)
    inner = upper * np.einsum("js,is,s->ij", diff, f_x, wx)  # rows i: v1, cols j: v2
    return float(w1 @ _pow_k(inner, kp) @ w2)


def idet_special_exact(ctx: KernelContext, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Probability every port fails the SIR and the harvest test jointly."""
    _check_mu(ctx, "idet_special_exact")
    _rayleigh_only(ctx, "idet_special_exact")
    if ctx.q_hat == 0.0:
        return 0.0
    if math.isinf(ctx.q_hat):
        return wdt_sinr_exact(ctx, quad)
    return _with_richardson(_idet_special_raw, ctx, quad, "idet_special_exact")


def idet_special_approx(ctx: KernelContext) -> float:
    """Product of the WDT_SINR theorem and the WET_EHP closed form: the
    joint all-port outage when the two events decouple (small mu).  Where
    a factor clamps at 0 outside its first-order regime, so does the product."""
    _rayleigh_only(ctx, "idet_special_approx")
    return wdt_sinr_approx(ctx).theorem * wet_ehp_approx(ctx)


def idet_general(wdt: float, wet: float, special: float, tol: float = 1e-6) -> float:
    """Union outage by the addition law; inputs must be Frechet-consistent."""
    for name, p in (("wdt", wdt), ("wet", wet), ("special", special)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} outage {p} outside [0, 1]")
    if special > min(wdt, wet) + tol:
        raise ValueError(
            f"special outage {special} exceeds min(wdt, wet) = {min(wdt, wet)} "
            f"beyond tolerance {tol}"
        )
    return min(max(wdt + wet - special, 0.0), 1.0)
