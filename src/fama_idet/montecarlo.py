"""Monte-Carlo estimation of outage probabilities, gains and energy efficiency.

All UEs are statistically identical, so only UE 0 is simulated; the
number of UEs enters through the interference dimensionality.  Port
powers are drawn per antenna group, as noncentral chi-square variables
given the components all ports share.  Trials run in fixed-size blocks,
each block on its own counter-derived Philox substream, which makes every
estimate a pure function of (config, seed) regardless of scheduling; the
blocks of one estimate run on a thread per CPU.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import SystemConfig

BLOCK = 8192
CHUNK = 1024  # trials per scratch and reduction chunk: temporaries stay CHUNK x K
_PHASE_BLOCK = np.uint64(0xFFFFFFFFFFFFFFFF)  # reserved substream for LoS phases


class Metric(enum.Enum):
    WDT_SINR = "WDT_SINR"
    WET_SINR = "WET_SINR"
    WDT_EHP = "WDT_EHP"
    WET_EHP = "WET_EHP"
    IDET_SPECIAL = "IDET_SPECIAL"
    IDET_GENERAL = "IDET_GENERAL"


# the max-based metrics, which nested K and N sweeps count per swept value
_NESTED = (Metric.WDT_SINR, Metric.WET_EHP, Metric.IDET_SPECIAL, Metric.IDET_GENERAL)


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


def los_phases(cfg: SystemConfig, seed: int, n_antennas: int | None = None) -> np.ndarray:
    """LoS phases, one per antenna (`n_antennas`, by default cfg.n_users).

    They are fixed per (config, seed): every trial, block and cell of a sweep
    shares them.  The draws fill in order, so a longer draw extends a shorter
    one."""
    rng = np.random.Generator(np.random.Philox(
        key=np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), _PHASE_BLOCK],
                     dtype=np.uint64)))
    return rng.uniform(0.0, 2.0 * math.pi, size=n_antennas or cfg.n_users)


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blocks(cfg, trials, seed, cell, groups, reduce):
    """Map `reduce` over UE 0's port powers summed per antenna group, one
    block of trials at a time; return its results in block order.

    Each block, of shape (size, K, len(groups)), is drawn on its own
    substream, so the blocks are independent and run on one thread per CPU
    with the same results at any thread count.  Group g is the next
    ``groups[g]`` antennas; group 0 is antenna 0, the desired link.  Given the
    shared means m_n = mu h0_n + sqrt(kappa) e^{j phi_n}, a group of G antennas
    gives each port the power (s Z + |m|)^2 + s^2 C with |m|^2 = sum |m_n|^2,
    s^2 = 1 - mu^2, Z ~ N(0, 1) and C ~ chi2(2G - 1), drawn as a squared
    normal when G = 1.
    """
    if trials < 1000:
        raise ValueError("trials must be >= 1000")
    k, mu, n = cfg.n_ports, cfg.mu, sum(groups)
    s = math.sqrt(max(0.0, 1.0 - mu * mu))
    starts = np.cumsum((0, *groups[:-1]))
    los = 0.0
    if cfg.rician_k > 0.0:
        # nested N may sum more antennas than the config's n_users
        phases = los_phases(cfg, seed, max(cfg.n_users, n))[:n]
        los = math.sqrt(cfg.rician_k) * np.stack([np.cos(phases), np.sin(phases)])[:, None]

    def run(b):
        size = min(BLOCK, trials - b * BLOCK)
        rng = substream(seed, cell, b)
        h = mu * rng.standard_normal((2, size, n)) + los
        m = np.sqrt(np.add.reduceat(h[0] ** 2 + h[1] ** 2, starts, axis=1))
        # drawn in place, C in row chunks, so a block holds one (size, K, groups) array
        p = rng.standard_normal((size, k, len(groups)))
        p *= s
        p += m[:, None, :]
        np.square(p, out=p)
        scratch = np.empty((min(CHUNK, size), k))
        for g, width in enumerate(groups):
            for rows in _row_chunks(size):
                c = scratch[:rows.stop - rows.start]
                if width == 1:
                    np.square(rng.standard_normal(out=c), out=c)
                else:  # chisquare(df) is 2 standard_gamma(df / 2), bit for bit
                    rng.standard_gamma(width - 0.5, out=c)
                    c *= 2.0
                c *= s * s
                p[rows, :, g] += c
        return reduce(p)

    n_blocks = (trials + BLOCK - 1) // BLOCK
    threads = min(n_blocks, _cpus())
    if threads == 1:
        return [run(b) for b in range(n_blocks)]
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(run, range(n_blocks)))


def _row_chunks(size):
    """Slices of at most CHUNK trials covering a block of `size` trials."""
    return [slice(r, min(r + CHUNK, size)) for r in range(0, size, CHUNK)]


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
    nested_values = k_values or n_values

    def reduce(p):
        counts = dict.fromkeys(Metric, 0)
        nested = ({m: np.zeros(len(nested_values), dtype=np.int64) for m in _NESTED}
                  if nested_values else None)
        for rows in _row_chunks(len(p)):
            chunk = p[rows]
            if n_values:
                _count_nested_n(chunk, n_values, gamma, q_scale, q_th, nested)
                continue
            sinr, q = _sinr_q(chunk[:, :, 0], chunk[:, :, 1], q_scale)
            if k_values:
                _count_nested_k(sinr, q, k_values, gamma, q_th, nested)
            _count_full(sinr, q, gamma, q_th, counts)
        return counts, nested

    blocks = _blocks(cfg, trials, seed, cell, groups, reduce)
    out = {"counts": {m: sum(c[m] for c, _ in blocks) for m in Metric}, "trials": trials}
    if nested_values:
        out["nested"] = {m: sum(nb[m] for _, nb in blocks) for m in _NESTED}
        out["nested_values"] = list(nested_values)
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

    def reduce(p):
        # gather the selected port's SINR and power chunk by chunk, then sum
        # over the whole block, so the float sums do not depend on CHUNK
        sel_sinr, sel_q = np.empty((2, len(p)))
        for rows in _row_chunks(len(p)):
            sinr, q = _sinr_q(p[rows, :, 0], p[rows, :, 1], q_scale)
            idx = np.argmax(sinr if strategy is Strategy.WDT else q, axis=1)
            picked = np.arange(len(idx))
            sel_sinr[rows] = sinr[picked, idx]
            sel_q[rows] = q[picked, idx]
        sel_rate = np.log2(1.0 + sel_sinr)
        denom = base_power - n * sel_q
        return (float(sel_rate.sum()), float(sel_q.sum()),
                float((n * cfg.bandwidth * sel_rate / denom).sum()))

    rate_sums, q_sums, ratio_sums = zip(*_blocks(cfg, trials, seed, cell, (1, n - 1), reduce))
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
    from scipy import stats  # slow to import, and only this diagnostic needs it

    blocks = _blocks(replace(cfg, n_ports=1), trials, seed, cell, (1, cfg.n_users - 1),
                     lambda p: p[:, 0])
    x, y = np.concatenate(blocks).T
    corr = float(stats.spearmanr(x + y, x / y).statistic)
    threshold = 3.0 / math.sqrt(trials)
    return IndependenceReport(corr, threshold, abs(corr) < threshold, trials)
