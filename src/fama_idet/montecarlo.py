"""Monte-Carlo estimation of outage probabilities, gains and energy efficiency.

All UEs are statistically identical, so only UE 0 is simulated; the
number of UEs enters through the interference dimensionality.  Port
powers are drawn per antenna group, as noncentral chi-square variables
given the components all ports share.  Trials run in fixed-size blocks,
each block on its own counter-derived Philox substream, which makes every
estimate a pure function of (config, seed) regardless of scheduling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats as st

from .channel import SystemConfig

BLOCK = 8192
_PHASE_BLOCK = np.uint64(0xFFFFFFFFFFFFFFFF)  # reserved substream for LoS phases


class Metric(enum.Enum):
    WDT_SINR = "WDT_SINR"
    WET_SINR = "WET_SINR"
    WDT_EHP = "WDT_EHP"
    WET_EHP = "WET_EHP"
    IDET_SPECIAL = "IDET_SPECIAL"
    IDET_GENERAL = "IDET_GENERAL"


class Method(enum.Enum):
    MC = "MC"
    EXACT = "EXACT"
    CLOSED_FORM = "CLOSED_FORM"


class Strategy(enum.Enum):
    WDT = "WDT"
    WET = "WET"


@dataclass(frozen=True)
class OutageEstimate:
    """Outage rate with the half-width of its 95% Wilson score interval."""

    value: float
    ci_half_width: float
    trials: int
    metric: Metric
    method: Method = Method.MC

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0 or self.ci_half_width < 0.0:
            raise ValueError("outage estimate outside [0, 1]")


@dataclass(frozen=True)
class GainReport:
    m_wdt: float
    m_wet: float
    m_idet_special: float
    m_idet_general: float


@dataclass(frozen=True)
class EnergyEfficiencyReport:
    sum_rate: float          # bits/s
    harvested: float         # W
    total_power: float       # W
    ee: float                # bits/J, ratio of means
    ee_mean_of_ratios: float
    strategy: Strategy
    valid: bool = True


@dataclass(frozen=True)
class IndependenceReport:
    rank_correlation: float
    threshold: float
    passed: bool
    trials: int


def substream(seed: int, cell: int, block) -> np.random.Generator:
    """Deterministic counter-based stream for one (cell, block) pair."""
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
         np.uint64((np.uint64(cell) << np.uint64(40)) + np.uint64(block))],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def los_phases(cfg: SystemConfig, seed: int, cell: int = 0,
               n_antennas: int | None = None) -> np.ndarray:
    """Per-scenario LoS phases, fixed across trials for a given seed, one per
    antenna (`n_antennas`, by default cfg.n_users).  The draws fill in order,
    so a longer draw extends a shorter one."""
    rng = np.random.Generator(np.random.Philox(
        key=np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), _PHASE_BLOCK],
                     dtype=np.uint64)))
    return rng.uniform(0.0, 2.0 * math.pi, size=n_antennas or cfg.n_users)


def _blocks(cfg, trials, seed, cell, groups):
    """Yield UE 0's port powers summed per antenna group, one block of trials
    at a time, each block of shape (size, K, len(groups)) on its own substream.

    Group g is the next ``groups[g]`` antennas; group 0 is antenna 0, the
    desired link.  Given the shared means m_n = mu h0_n + sqrt(kappa) e^{j phi_n},
    a group of G antennas gives each port the power (s Z + |m|)^2 + s^2 C with
    |m|^2 = sum |m_n|^2, s^2 = 1 - mu^2, Z ~ N(0, 1) and C ~ chi2(2G - 1),
    drawn as a squared normal when G = 1.
    """
    if trials < 1000:
        raise ValueError("trials must be >= 1000")
    k, mu, n = cfg.n_ports, cfg.mu, sum(groups)
    s = math.sqrt(max(0.0, 1.0 - mu * mu))
    starts = np.cumsum((0, *groups[:-1]))
    los = 0.0
    if cfg.rician_k > 0.0:
        # nested N may sum more antennas than the config's n_users
        phases = los_phases(cfg, seed, cell, max(cfg.n_users, n))[:n]
        los = math.sqrt(cfg.rician_k) * np.stack([np.cos(phases), np.sin(phases)])[:, None]
    for b in range((trials + BLOCK - 1) // BLOCK):
        size = min(BLOCK, trials - b * BLOCK)
        rng = substream(seed, cell, b)
        h = mu * rng.standard_normal((2, size, n)) + los
        m = np.sqrt(np.add.reduceat(h[0] ** 2 + h[1] ** 2, starts, axis=1))
        p = (s * rng.standard_normal((size, k, len(groups))) + m[:, None, :]) ** 2
        for g, width in enumerate(groups):
            c = (rng.standard_normal((size, k)) ** 2 if width == 1
                 else rng.chisquare(2 * width - 1, (size, k)))
            p[:, :, g] += s * s * c
        yield p


def _sinr_q(desired, interf, q_scale):
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(interf > 0.0, desired / interf, np.inf)
    return sinr, q_scale * (desired + interf)


def _q_scale(cfg) -> float:
    # 2/(2+kappa) keeps mean harvested power independent of the LoS strength
    return (1.0 - cfg.ps_ratio) * cfg.tx_power / cfg.distance ** cfg.pathloss_exp \
        * 2.0 / (2.0 + cfg.rician_k)


def simulate_outage_counts(
    cfg: SystemConfig,
    trials: int,
    seed: int,
    cell: int = 0,
    k_values: list[int] | None = None,
    n_values: list[int] | None = None,
) -> dict:
    """Failure counts for all six outage metrics over `trials` realizations.

    With `k_values` (nested ports) or `n_values` (nested antennas) the four
    max-based metrics are additionally counted per swept value on common
    random numbers, so the pathwise monotonicity in K and N is exact.
    """
    if k_values is not None and n_values is not None:
        raise ValueError("nest over K or N, not both")
    gamma = cfg.sinr_threshold
    q_scale = _q_scale(cfg)
    q_th = cfg.ehp_threshold
    # nested N sums per-antenna powers cumulatively, so each antenna is a group
    groups = (1,) * max(n_values) if n_values else (1, cfg.n_users - 1)

    counts = {m: 0 for m in Metric}
    nested = None
    if k_values or n_values:
        nested = {m: np.zeros(len(k_values or n_values), dtype=np.int64)
                  for m in (Metric.WDT_SINR, Metric.WET_EHP,
                            Metric.IDET_SPECIAL, Metric.IDET_GENERAL)}

    for p in _blocks(cfg, trials, seed, cell, groups):
        if n_values:
            _count_nested_n(p, n_values, gamma, q_scale, q_th, nested)
            continue
        sinr, q = _sinr_q(p[:, :, 0], p[:, :, 1], q_scale)
        if k_values:
            _count_nested_k(sinr, q, k_values, gamma, q_th, nested)
        _count_full(sinr, q, gamma, q_th, counts)

    out = {"counts": counts, "trials": trials}
    if nested is not None:
        out["nested"] = nested
        out["nested_values"] = list(k_values or n_values)
    return out


def _count_full(sinr, q, gamma, q_th, counts):
    wdt_fail = sinr.max(axis=1) < gamma
    wet_fail = q.max(axis=1) < q_th
    idx_wdt = np.argmax(sinr, axis=1)
    idx_wet = np.argmax(q, axis=1)
    rows = np.arange(sinr.shape[0])
    counts[Metric.WDT_SINR] += int(wdt_fail.sum())
    counts[Metric.WET_EHP] += int(wet_fail.sum())
    counts[Metric.WET_SINR] += int((q[rows, idx_wdt] < q_th).sum())
    counts[Metric.WDT_EHP] += int((sinr[rows, idx_wet] < gamma).sum())
    counts[Metric.IDET_SPECIAL] += int((wdt_fail & wet_fail).sum())
    counts[Metric.IDET_GENERAL] += int((wdt_fail | wet_fail).sum())


def _count_nested_k(sinr, q, k_values, gamma, q_th, nested):
    run_sinr = np.maximum.accumulate(sinr, axis=1)
    run_q = np.maximum.accumulate(q, axis=1)
    for i, k in enumerate(k_values):
        wdt = run_sinr[:, k - 1] < gamma
        wet = run_q[:, k - 1] < q_th
        nested[Metric.WDT_SINR][i] += int(wdt.sum())
        nested[Metric.WET_EHP][i] += int(wet.sum())
        nested[Metric.IDET_SPECIAL][i] += int((wdt & wet).sum())
        nested[Metric.IDET_GENERAL][i] += int((wdt | wet).sum())


def _count_nested_n(p, n_values, gamma, q_scale, q_th, nested):
    desired = p[:, :, 0]
    cum = np.cumsum(p, axis=2)
    for i, n in enumerate(n_values):
        interf = cum[:, :, n - 1] - desired
        with np.errstate(divide="ignore", invalid="ignore"):
            sinr = np.where(interf > 0.0, desired / interf, np.inf)
        wdt = sinr.max(axis=1) < gamma
        wet = (q_scale * cum[:, :, n - 1]).max(axis=1) < q_th
        nested[Metric.WDT_SINR][i] += int(wdt.sum())
        nested[Metric.WET_EHP][i] += int(wet.sum())
        nested[Metric.IDET_SPECIAL][i] += int((wdt & wet).sum())
        nested[Metric.IDET_GENERAL][i] += int((wdt | wet).sum())


def wilson_interval(count: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval (Wilson, JASA 1927); unlike the Wald interval
    it keeps a positive width at counts of 0 and `trials`."""
    p = count / trials
    z2n = z * z / trials
    centre = (p + 0.5 * z2n) / (1.0 + z2n)
    half = z / (1.0 + z2n) * math.sqrt(p * (1.0 - p) / trials + 0.25 * z2n / trials)
    return max(0.0, centre - half), min(1.0, centre + half)


def _estimate(cfg, trials, seed, cell, metric):
    count = simulate_outage_counts(cfg, trials, seed, cell)["counts"][metric]
    lo, hi = wilson_interval(count, trials)
    return OutageEstimate(count / trials, 0.5 * (hi - lo), trials, metric)


_STRATEGY_METRIC = {
    (Strategy.WDT, Strategy.WDT): Metric.WDT_SINR,
    (Strategy.WDT, Strategy.WET): Metric.WET_SINR,
    (Strategy.WET, Strategy.WET): Metric.WET_EHP,
    (Strategy.WET, Strategy.WDT): Metric.WDT_EHP,
}


def estimate_outage(
    cfg: SystemConfig,
    strategy: Strategy,
    metric: Strategy,
    trials: int,
    seed: int,
    cell: int = 0,
) -> OutageEstimate:
    """Outage of `metric` (WDT=SINR test, WET=EHP test) under `strategy`'s port."""
    return _estimate(cfg, trials, seed, cell, _STRATEGY_METRIC[(strategy, metric)])


def estimate_idet(
    cfg: SystemConfig, trials: int, seed: int, kind: str = "SPECIAL", cell: int = 0
) -> OutageEstimate:
    """IDET outage: SPECIAL = every port fails both; GENERAL = either max fails."""
    m = Metric.IDET_SPECIAL if kind.upper() == "SPECIAL" else Metric.IDET_GENERAL
    return _estimate(cfg, trials, seed, cell, m)


def multiplexing_gains(outages: dict, n_users: int) -> GainReport:
    """N (1 - outage) for the four gain-bearing metrics."""
    def val(metric):
        o = outages[metric]
        return o.value if isinstance(o, OutageEstimate) else float(o)

    return GainReport(
        m_wdt=n_users * (1.0 - val(Metric.WDT_SINR)),
        m_wet=n_users * (1.0 - val(Metric.WET_EHP)),
        m_idet_special=n_users * (1.0 - val(Metric.IDET_SPECIAL)),
        m_idet_general=n_users * (1.0 - val(Metric.IDET_GENERAL)),
    )


def estimate_energy_efficiency(
    cfg: SystemConfig, strategy: Strategy, trials: int, seed: int, cell: int = 0
) -> EnergyEfficiencyReport:
    """Trial-averaged energy efficiency for the given port selection strategy.

    Primary figure is the ratio of means E[R] / E[Q_total]; the mean of the
    per-trial ratios is reported alongside.
    """
    q_scale = _q_scale(cfg)
    n = cfg.n_users
    base_power = n * cfg.tx_power + cfg.fixed_power

    rate_sums, q_sums, ratio_sums = [], [], []
    for p in _blocks(cfg, trials, seed, cell, (1, n - 1)):
        sinr, q = _sinr_q(p[:, :, 0], p[:, :, 1], q_scale)
        rows = np.arange(len(p))
        idx = np.argmax(sinr if strategy is Strategy.WDT else q, axis=1)
        sel_rate = np.log2(1.0 + sinr[rows, idx])
        sel_q = q[rows, idx]
        rate_sums.append(float(sel_rate.sum()))
        q_sums.append(float(sel_q.sum()))
        denom = base_power - n * sel_q
        ratio_sums.append(float((n * cfg.bandwidth * sel_rate / denom).sum()))

    mean_rate = math.fsum(rate_sums) / trials
    mean_q = math.fsum(q_sums) / trials
    sum_rate = n * cfg.bandwidth * mean_rate
    harvested = n * mean_q
    total_power = base_power - harvested
    valid = total_power > 0.0
    ee = sum_rate / total_power if valid else math.nan
    return EnergyEfficiencyReport(
        sum_rate=sum_rate,
        harvested=harvested,
        total_power=total_power,
        ee=ee,
        ee_mean_of_ratios=math.fsum(ratio_sums) / trials,
        strategy=strategy,
        valid=valid,
    )


def independence_diagnostic(
    cfg: SystemConfig, trials: int, seed: int, cell: int = 0
) -> IndependenceReport:
    """Rank correlation between X+Y and X/Y on a single port.

    At mu = 0 the two are exactly independent; the diagnostic passes when
    |corr| < 3 / sqrt(trials).  Any mu is accepted for informational runs.
    """
    blocks = _blocks(replace(cfg, n_ports=1), trials, seed, cell, (1, cfg.n_users - 1))
    x, y = np.concatenate(list(blocks))[:, 0].T
    corr = float(st.spearmanr(x + y, x / y).statistic)
    threshold = 3.0 / math.sqrt(trials)
    return IndependenceReport(corr, threshold, abs(corr) < threshold, trials)
