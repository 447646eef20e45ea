"""Deterministic evaluation of the outage integrals and their closed forms.

Every exact evaluator but wdt_ehp_exact, a closed-form identity, integrates
the conditional noncentral chi-square structure of the port statistics:
conditioned on the shared components (r1 for the desired link, r2 for the
interference), per-port quantities are independent, so the K-port extremes
reduce to K-th powers of inner one-port kernels.  A LoS component
(rician_k > 0) makes the conditioners noncentral; the evaluators without a
Rician expression refuse it rather than return the Rayleigh value.
Each kernel `_*_raw(ctx, ns, nf, ks)` reads all but its node counts and
port counts from ctx; it builds its K-free grid once and finishes it for
every K of ks, returning one value per K.  Each evaluator is written once
over ks (`_*_ports`); the public `*_exact` evaluators run it at
(ctx.n_ports,), and an n_ports sweep runs it over all of its K values.
Semi-infinite axes use Gauss-Laguerre after r = 2t, finite inner ranges use
Gauss-Legendre, and one driver runs each kernel with an optional Richardson
check that re-evaluates at 1.5x nodes to bound the truncation error, for
each K on its own.  Marcum Q and the pdf beyond 2 dof come as node grids
from specfun's Poisson mixtures, contracted by BLAS products; the 3-D
WET_SINR kernel builds its grids in z-slabs on a thread per CPU.  The
WDT_SINR kernel and its closed form share one one-port series, a sum over
N-1 Bessel orders (_order_weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sp

from .channel import SystemConfig, _thread_map
from .specfun import bessel_i_ln, marcum_q_outer, ncx2_pdf_outer

# Inner kernels are clamped here before K*log(.) so the K-th power stays finite.
_FLOOR = 1e-300
# Per-axis node cap, also on the Richardson refinement (1.5x): it bounds the
# time of the 3-D WET_SINR kernel, whose memory the slabs below bound.
_MAX_NODES = 100
# (i, z, p) entries one z-slab of _wet_sinr_raw may hold (1 MB per array):
# 4 slabs at the default 48 x 64 nodes, 8 at their 72 x 96 refinement.
_SLAB_ENTRIES = 2 ** 17


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
        if self.richardson_check and self.nodes_semiinfinite == self.nodes_finite == _MAX_NODES:
            # the refinement is capped at the same nodes, so it could only read a gap of 0
            raise ValueError(f"the Richardson check needs room to refine: with both node "
                             f"counts at the cap of {_MAX_NODES} it would re-evaluate the "
                             f"same nodes; lower one or set richardson_check=False")
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
        # each check is written to fail on NaN; q_hat may be +inf (ps_ratio = 1)
        if not self.gamma_th > 0.0:
            raise ValueError("gamma_th must be positive")
        if not self.q_hat >= 0.0:
            raise ValueError("q_hat must be nonnegative")
        if self.n_users < 2 or self.n_ports < 1:
            raise ValueError("need n_users >= 2 and n_ports >= 1")
        if not self.rician_k >= 0.0:
            raise ValueError("rician_k must be nonnegative")

    @classmethod
    def from_config(cls, cfg: SystemConfig) -> "KernelContext":
        return cls(mu=cfg.mu, gamma_th=cfg.sinr_threshold, q_hat=cfg.q_hat,
                   n_users=cfg.n_users, n_ports=cfg.n_ports, rician_k=cfg.rician_k)

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


def _powers(values: np.ndarray, ks):
    """values**k for each k of ks, one at a time, through exp(k log .), with
    values clamped into (0, 1]."""
    log_v = np.log(np.clip(values, _FLOOR, 1.0))
    return (np.exp(k * log_v) for k in ks)


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


def _with_richardson(raw, ctx: KernelContext, quad: QuadratureSpec, name: str, ks) -> list:
    """Evaluate raw(ctx, ns, nf, ks) and, if asked, again at 1.5x nodes; then
    check (NaN fails) and clamp each K's value on its own.  A K that fails
    gets its QuadratureConvergenceError in place of its value."""
    ns, nf, tol = quad.nodes_semiinfinite, quad.nodes_finite, 10.0 * quad.rel_tol_target
    coarse = raw(ctx, ns, nf, ks)
    fine = (raw(ctx, min(math.ceil(1.5 * ns), _MAX_NODES), min(math.ceil(1.5 * nf), _MAX_NODES), ks)
            if quad.richardson_check else coarse)

    def checked(val, refined):
        if quad.richardson_check:
            if not abs(refined - val) <= tol:
                return QuadratureConvergenceError(
                    f"{name}: Richardson deviation {abs(refined - val):.3e} exceeds {tol:.1e}")
            val = refined
        if not -tol <= val <= 1.0 + tol:
            return QuadratureConvergenceError(f"{name}: value {val} outside [0, 1]")
        return min(max(val, 0.0), 1.0)

    return [checked(v, r) for v, r in zip(coarse, fine)]


def _value_or_raise(value):
    """A per-K result of the `_*_ports` evaluators: its value, or its error raised."""
    if isinstance(value, Exception):
        raise value
    return value


def _at_n_ports(ports, ctx: KernelContext, quad: QuadratureSpec) -> float:
    """The public evaluator: `ports` at the one port count ctx.n_ports."""
    value, = ports(ctx, quad, (ctx.n_ports,))
    return _value_or_raise(value)


# ---------------------------------------------------------------------------
# WDT outage, WDT-oriented port (max-SIR selection)
# ---------------------------------------------------------------------------

def _order_weights(n: int, g: float) -> list[float]:
    """B_m = sum_{k<=m} C(n-k-2, m-k) ((g+1)/g)^k, m = 0..n-2: the one-port
    SIR series' (k, j) terms grouped by Bessel order m = j + k.  Equal to
    sum_{i<=m} C(n-1, i) g^(i-m), hence the recurrence."""
    b, weights = 0.0, []
    for m in range(n - 1):
        b = b / g + math.comb(n - 1, m)
        weights.append(b)
    return weights


def _wdt_sinr_raw(ctx: KernelContext, ns: int, nf: int, ks) -> list[float]:
    n, g, c = ctx.n_users, ctx.gamma_th, ctx.corr_ratio
    (v1, w1), (v2, w2) = _conditioners(ctx, ns)

    a = np.sqrt(c * g * v2 / (g + 1.0))
    b = np.sqrt(c * v1 / (g + 1.0))
    q = marcum_q_outer(n - 1, a, b)         # rows: v2 nodes, cols: v1 nodes

    # Bessel sum in logs, finite where I_n(x) and exp(-c (g v2 + v1)/(2(g+1))) are not
    x = c * np.sqrt(g * np.outer(v2, v1)) / (g + 1.0)
    expo = -c * (g * v2[:, None] + v1[None, :]) / (2.0 * (g + 1.0))
    log_ratio = 0.5 * (np.log(v1)[None, :] - np.log(v2)[:, None])
    s = np.zeros_like(x)
    for m, b_m in enumerate(_order_weights(n, g)):
        s += g ** (0.5 * m) * b_m * np.exp(bessel_i_ln(m, x) + m * log_ratio + expo)
    s *= (g + 1.0) ** (1 - n)

    return [float(w2 @ p @ w1) for p in _powers(q - s, ks)]


def wdt_sinr_exact(ctx: KernelContext, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Probability that the best-SIR port still falls below gamma_th.

    A LoS component of power rician_k per antenna makes the shared-component
    conditioners noncentral; rician_k = 0 is Rayleigh fading.
    """
    return _at_n_ports(_wdt_sinr_ports, ctx, quad)


def _wdt_sinr_ports(ctx: KernelContext, quad: QuadratureSpec, ks) -> list:
    _check_mu(ctx, "wdt_sinr_exact")
    return _with_richardson(_wdt_sinr_raw, ctx, quad, "wdt_sinr_exact", ks)


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
    d = (1.0 - mu2) * g + 1.0
    c_sum = sum(g ** m * (g + 1.0) * b_m * mu2 ** m / d ** (m + 1)
                for m, b_m in enumerate(_order_weights(n, g)))
    cval = (((2.0 * g * (1.0 - mu2) + 1.0) / (2.0 * g * g + (3.0 - mu2) * g + 1.0)) ** (n - 1)
            * (1.0 - mu2) * c_sum)
    shared = 1.0 - kp * (mu2 / (g + 1.0)) ** (n - 1)     # 1 less the term both values subtract
    theorem = max(0.0, shared - kp * cval)
    corollary = max(0.0, shared - kp * ((1.0 - mu2) / (g + 1.0)) ** (n - 1))
    return ClosedFormPair(theorem=theorem, corollary=corollary)


# ---------------------------------------------------------------------------
# WET outage, WET-oriented port (max-power selection)
# ---------------------------------------------------------------------------

def _wet_ehp_raw(ctx: KernelContext, ns: int, nf: int, ks) -> list[float]:
    n, c = ctx.n_users, ctx.corr_ratio
    lam = n * ctx.rician_k / ctx.mu ** 2
    q_eff = ctx.q_hat * (1.0 + 0.5 * ctx.rician_k)  # see wet_ehp_exact
    v, w = _ncx2_quad(n, lam, ns)           # total-power conditioner (2N dof)
    bracket = 1.0 - marcum_q_outer(n, np.sqrt(c * v), [math.sqrt(q_eff)])[:, 0]
    return [float(w @ p) for p in _powers(bracket, ks)]


def wet_ehp_exact(ctx: KernelContext, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Probability that even the most energetic port harvests below Q_th.

    Under LoS (rician_k > 0) the 2N-dof conditioner is noncentral.  The
    harvested power is kept independent of kappa on average
    (power-preserving normalization), so the normalized threshold carries
    a (1 + kappa/2) factor; rician_k = 0 is Rayleigh fading.
    """
    return _at_n_ports(_wet_ehp_ports, ctx, quad)


def _wet_ehp_ports(ctx: KernelContext, quad: QuadratureSpec, ks) -> list:
    _check_mu(ctx, "wet_ehp_exact")
    if ctx.q_hat == 0.0:
        return [0.0] * len(ks)
    if math.isinf(ctx.q_hat):
        return [1.0] * len(ks)
    return _with_richardson(_wet_ehp_raw, ctx, quad, "wet_ehp_exact", ks)


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

def _wet_sinr_raw(ctx: KernelContext, ns: int, nf: int, ks) -> list[float]:
    n, g, c, qh = ctx.n_users, ctx.gamma_th, ctx.corr_ratio, ctx.q_hat
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

    # conditional Y pdf f_y on the whole (j, z, s) grid, so that its Poisson
    # window does not depend on the slabs (the i0e form at 2 dof beats the
    # mixture at wide windows)
    f_y = (ncx2_pdf_outer(n - 1, c * v2, ygrid.ravel()).reshape(ns, nf, nf) if n > 2
           else _ncx2_pdf((c * v2)[:, None, None], ygrid[None, :, :]))

    def slab(zs: slice) -> list[np.ndarray]:
        """The (i, z) matrix of the integrand summed over j, for the z nodes
        zs: one matrix per K of ks."""
        zz, yy = z[zs], ygrid[zs]
        m = zz.size
        # one Marcum call covers all three b-grids
        b_yz = np.sqrt(zz[:, None] * yy)            # (z, s)
        b_qy = np.sqrt(qh - yy)                     # (z, s)
        b_zy = np.sqrt(np.outer(zz, yq))            # (z, p)
        qmat = marcum_q_outer(1, a1, np.concatenate([b_yz.ravel(), b_qy.ravel(), b_zy.ravel()]))
        q_yz = qmat[:, :m * nf].reshape(ns, m, nf)
        q_qy = qmat[:, m * nf:2 * m * nf].reshape(ns, m, nf)
        q_zy = qmat[:, 2 * m * nf:].reshape(ns, m, yq.size)

        # inner bracket integral over y, weighted by f_y; the arrays below
        # are laid out (i, z, j), so each contraction is a matmul
        inner = np.matmul((q_yz - q_qy).transpose(1, 0, 2), (f_y[:, zs] * ws).transpose(1, 2, 0))
        inner = inner.transpose(1, 0, 2) * (qh / (1.0 + zz))[:, None]

        # competing-port pdf f_A(z) = (K-1) (1-H)^{K-2} * Dinner, times inner
        h = np.tensordot(q_zy, wy, axes=(2, 1))
        f_x = _ncx2_pdf((c * v1)[:, None, None], zz[None, :, None] * yq[None, None, :])
        dinner = np.tensordot(f_x, wy * yq[None, :], axes=(2, 1))
        return [((k - 1) * p * dinner * inner) @ w2
                for k, p in zip(ks, _powers(1.0 - h, [k - 2 for k in ks]))]

    # every array above is separable in z, so the z nodes split into slabs
    # of at most _SLAB_ENTRIES (i, z, p) entries; each K's slab matrices join
    # in z order, and the one contraction over i and z below keeps every
    # value the same at any slab or thread count
    step = max(1, _SLAB_ENTRIES // (ns * yq.size))
    slabs = _thread_map(slab, [slice(lo, lo + step) for lo in range(0, nf, step)])
    return [k * float(w1 @ np.concatenate(cols, axis=1) @ wz)
            for k, cols in zip(ks, zip(*slabs))]


def wet_sinr_exact(ctx: KernelContext, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Probability the SIR-optimal port harvests below Q_th."""
    return _at_n_ports(_wet_sinr_ports, ctx, quad)


def _wet_sinr_ports(ctx: KernelContext, quad: QuadratureSpec, ks) -> list:
    _check_mu(ctx, "wet_sinr_exact")
    _rayleigh_only(ctx, "wet_sinr_exact")
    if ctx.q_hat == 0.0:
        return [0.0] * len(ks)
    if math.isinf(ctx.q_hat):
        return [1.0] * len(ks)
    # single port: the selection conditioning is vacuous, so K = 1 takes the WET_EHP kernel
    multi, out = tuple(k for k in ks if k > 1), {}
    if multi:
        out.update(zip(multi, _with_richardson(_wet_sinr_raw, ctx, quad, "wet_sinr_exact", multi)))
    if 1 in ks:
        out[1], = _with_richardson(_wet_ehp_raw, ctx, quad, "wet_sinr_exact", (1,))
    return [out[k] for k in ks]


def wet_sinr_approx(ctx: KernelContext) -> float:
    """Small-mu closed form: X+Y decouples from the selection ratio X/Y (1 at q_tilde = inf)."""
    _rayleigh_only(ctx, "wet_sinr_approx")
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
    return _at_n_ports(_wdt_ehp_ports, ctx, quad)


def _wdt_ehp_ports(ctx: KernelContext, quad: QuadratureSpec, ks) -> list:
    _check_mu(ctx, "wdt_ehp_exact")
    _rayleigh_only(ctx, "wdt_ehp_exact")
    return [wdt_ehp_approx(ctx)] * len(ks)


def wdt_ehp_approx(ctx: KernelContext) -> float:
    """Closed form 1 - (1+gamma_th)^-(N-1); exact for Rayleigh fading at
    every W and K (see wdt_ehp_exact), not only at large W."""
    _rayleigh_only(ctx, "wdt_ehp_approx")
    return 1.0 - (ctx.gamma_th + 1.0) ** (1 - ctx.n_users)


# ---------------------------------------------------------------------------
# IDET outages
# ---------------------------------------------------------------------------

def _idet_special_raw(ctx: KernelContext, ns: int, nf: int, ks) -> list[float]:
    n, g, c, qh = ctx.n_users, ctx.gamma_th, ctx.corr_ratio, ctx.q_hat
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
    return [float(w1 @ p @ w2) for p in _powers(inner, ks)]


def idet_special_exact(ctx: KernelContext, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Probability every port fails the SIR and the harvest test jointly."""
    return _at_n_ports(_idet_special_ports, ctx, quad)


def _idet_special_ports(ctx: KernelContext, quad: QuadratureSpec, ks) -> list:
    _check_mu(ctx, "idet_special_exact")
    _rayleigh_only(ctx, "idet_special_exact")
    if ctx.q_hat == 0.0:
        return [0.0] * len(ks)
    if math.isinf(ctx.q_hat):
        return _wdt_sinr_ports(ctx, quad, ks)
    return _with_richardson(_idet_special_raw, ctx, quad, "idet_special_exact", ks)


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
