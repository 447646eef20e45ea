"""Correlated fluid-antenna port channels and per-port SINR/EHP statistics.

The Rayleigh model composes each port gain from one shared pair of
standard normals per BS antenna (correlation mu) plus an independent
per-port pair.  The Rician model adds a constant line-of-sight phasor
that is common to all ports of a UE.  Gains are kept in the normalized
domain (unit-variance quadrature components); path loss enters only
through the harvested-power scaling.  `_thread_map` is the one rule by
which both the Monte-Carlo blocks and the exact kernels spread independent
work over threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .specfun import mu_from_w


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _thread_map(fn, items) -> list:
    """[fn(x) for x in items], on one thread per CPU when there is more than
    one of each; the results come back in item order either way."""
    items = list(items)
    threads = min(len(items), _cpus())
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, items))


@dataclass
class SystemConfig:
    """Scenario parameters.  mu is derived from fa_size unless overridden."""

    n_users: int = 5            # N, BS antenna-UE pairs
    n_ports: int = 200          # K
    fa_size: float = 5.0        # W, aperture in wavelengths
    ps_ratio: float = 0.5       # rho, power split toward the decoder
    tx_power: float = 1.0       # P [W]
    distance: float = 10.0      # d [m]
    pathloss_exp: float = 2.0   # beta
    sinr_threshold: float = 10 ** 0.3  # gamma_th, linear (3 dB)
    ehp_threshold: float = 0.010       # Q_th [W]
    rician_k: float = 0.0       # kappa; 0 = Rayleigh
    mu: float | None = None     # overrides the Eq.-of-W value when set

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name in ("n_users", "n_ports") and not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_users < 2:
            raise ValueError("n_users must be >= 2 (interference-limited model)")
        if self.n_ports < 1:
            raise ValueError("n_ports must be >= 1")
        for name in ("fa_size", "tx_power", "distance", "pathloss_exp", "sinr_threshold"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("ehp_threshold", "rician_k"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0.0 <= self.ps_ratio <= 1.0:
            raise ValueError("ps_ratio must lie in [0, 1]")
        if self.mu is None:
            self.mu = mu_from_w(self.fa_size)
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")

    @property
    def q_hat(self) -> float:
        """WET threshold normalized so the outage event reads X+Y < q_hat."""
        if self.ps_ratio >= 1.0:
            return math.inf if self.ehp_threshold > 0 else 0.0
        if self.mu >= 1.0:
            raise ValueError("q_hat undefined at mu = 1 (degenerate correlation)")
        return (self.distance ** self.pathloss_exp * self.ehp_threshold) / (
            (1.0 - self.mu ** 2) * (1.0 - self.ps_ratio) * self.tx_power
        )


@dataclass
class ChannelRealization:
    """Normalized K x N gain matrix seen by one UE in one coherence block."""

    gains: np.ndarray
    ue_index: int
    mu: float
    amp_scale: float = 1.0  # physical gain = amp_scale * gains

    def __post_init__(self):
        if not np.all(np.isfinite(self.gains)):
            raise ValueError("channel gains must be finite")


@dataclass
class PortStatistics:
    """Per-port desired power X_k (2 dof) and interference power Y_k (2(N-1) dof)."""

    x: np.ndarray
    y: np.ndarray
    degenerate: bool = False  # mu = 1: x, y hold the raw powers instead


def _compose(xk, yk, x0, y0, mu):
    """Correlated gain (sqrt(1-mu^2) z_k + mu z_0) per antenna and port."""
    s = math.sqrt(1.0 - mu * mu)
    return (s * xk + mu * x0) + 1j * (s * yk + mu * y0)


def generate_rayleigh(
    cfg: SystemConfig, ue: int, rng: np.random.Generator
) -> ChannelRealization:
    """Draw one correlated Rayleigh realization for UE `ue`."""
    n, k = cfg.n_users, cfg.n_ports
    x0 = rng.standard_normal((1, n))
    y0 = rng.standard_normal((1, n))
    xk = rng.standard_normal((k, n))
    yk = rng.standard_normal((k, n))
    return ChannelRealization(_compose(xk, yk, x0, y0, cfg.mu), ue, cfg.mu)


def generate_rician(
    cfg: SystemConfig, ue: int, phases: np.ndarray, rng: np.random.Generator
) -> ChannelRealization:
    """Draw one Rician realization: common LoS phasor plus correlated NLoS.

    The LoS phasor sqrt(kappa) e^{j omega} is added in the normalized
    domain, so the shared-component noncentralities come out as kappa/mu^2
    per antenna.  The amplitude metadata sqrt(2/(2+kappa)) keeps the mean
    received power independent of kappa and reduces the kappa = 0 case
    exactly to the Rayleigh draw.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (cfg.n_users,):
        raise ValueError("phases must have one entry per BS antenna")
    g = generate_rayleigh(cfg, ue, rng)
    los = math.sqrt(cfg.rician_k) * np.exp(1j * phases)[None, :]
    return ChannelRealization(
        g.gains + los, ue, cfg.mu, amp_scale=math.sqrt(2.0 / (2.0 + cfg.rician_k))
    )


def port_statistics(real: ChannelRealization, cfg: SystemConfig) -> PortStatistics:
    """X_k, Y_k for every port; |g|^2 = (1 - mu^2) X on the desired link."""
    p = np.abs(real.gains) ** 2
    i = real.ue_index
    interference = p.sum(axis=1) - p[:, i]
    if cfg.mu >= 1.0:
        return PortStatistics(p[:, i].copy(), interference, degenerate=True)
    scale = 1.0 - cfg.mu ** 2
    return PortStatistics(p[:, i] / scale, interference / scale)


def sinr_at_port(real: ChannelRealization, k: int) -> float:
    """Interference-limited SIR |g_k,i|^2 / sum_{m != i} |g_k,m|^2."""
    if real.gains.shape[1] < 2:
        raise ValueError("SIR undefined for a single BS antenna")
    p = np.abs(real.gains[k]) ** 2
    i = real.ue_index
    denom = p.sum() - p[i]
    if denom == 0.0:
        return math.inf
    return float(p[i] / denom)


def ehp_at_port(real: ChannelRealization, k: int, cfg: SystemConfig) -> float:
    """Harvested power (1 - rho) P / d^beta * sum_m |amp g_k,m|^2 in watts."""
    total = float((np.abs(real.gains[k]) ** 2).sum()) * real.amp_scale ** 2
    return (1.0 - cfg.ps_ratio) * cfg.tx_power * total / cfg.distance ** cfg.pathloss_exp
