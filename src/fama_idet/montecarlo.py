"""Monte-Carlo estimation of outage probabilities, gains and energy efficiency.

All UEs are statistically identical, so only UE 0 is simulated; the
number of UEs enters through the interference dimensionality.  Port
powers are drawn per antenna group, as noncentral chi-square variables
given the components all ports share.  Trials run in fixed-size blocks,
each block on its own SFC64 substream keyed by (cell, block) through a
``SeedSequence`` spawn key, which makes every estimate a pure function of
(config, seed) regardless of scheduling; the blocks of one estimate run on
a thread per CPU.  A block draws, transforms and counts its trials in row
chunks of at most ENTRIES port powers, so its memory does not grow with K.
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
MIN_TRIALS = 1000
ENTRIES = 2 ** 16  # port powers per chunk buffer: (groups, rows, K) stays in cache
_PHASE_KEY = (0,)  # LoS phases: one word, unlike every (cell, block) key


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


def _stream(seed: int, *key: int) -> np.random.Generator:
    """SFC64 generator of `seed` under the SeedSequence spawn key `key`."""
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed & 0xFFFF_FFFF_FFFF_FFFF, spawn_key=key)))


def substream(seed: int, cell: int, block) -> np.random.Generator:
    """Deterministic stream for one (cell, block) pair."""
    return _stream(seed, cell, block)


def los_phases(cfg: SystemConfig, seed: int, n_antennas: int | None = None) -> np.ndarray:
    """LoS phases, one per antenna (`n_antennas`, by default cfg.n_users).

    They are fixed per (config, seed): every trial, block and cell of a sweep
    shares them.  The draws fill in order, so a longer draw extends a shorter
    one."""
    rng = _stream(seed, *_PHASE_KEY)
    return rng.uniform(0.0, 2.0 * math.pi, size=n_antennas or cfg.n_users)


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blocks(cfg, trials, seed, cell, groups, reduce):
    """Map `reduce` over UE 0's port powers summed per antenna group, one
    chunk of trials at a time; return its results in block order, then chunk
    order.

    Each block of BLOCK trials is drawn on its own substream, so the blocks
    are independent and run on one thread per CPU with the same results at
    any thread count.  A block walks its trials in chunks of `rows` trials,
    and `reduce` gets each chunk as an array of shape (len(groups), rows, K)
    that the next chunk overwrites.  Group g is the next ``groups[g]``
    antennas; group 0 is antenna 0, the desired link.  Given the shared means
    m_n = mu h0_n + sqrt(kappa) e^{j phi_n}, a group of G antennas gives each
    port the power (s Z + |m|)^2 + s^2 C with |m|^2 = sum |m_n|^2,
    s^2 = 1 - mu^2, Z ~ N(0, 1) and C ~ chi2(2G - 1), drawn as a squared
    normal when G = 1.
    """
    if not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}")
    k, mu, n = cfg.n_ports, cfg.mu, sum(groups)
    s = math.sqrt(max(0.0, 1.0 - mu * mu))
    starts = np.cumsum((0, *groups[:-1]))
    rows = max(1, ENTRIES // (k * len(groups)))
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
        p = np.empty((len(groups), min(rows, size), k))
        scratch = np.empty(p.shape[1:])
        out = []
        for r in range(0, size, rows):
            chunk = p[:, :min(rows, size - r)]
            c = scratch[:chunk.shape[1]]
            for g, width in enumerate(groups):
                z = rng.standard_normal(out=chunk[g])
                z *= s
                z += m[r:r + len(z), g, None]
                np.square(z, out=z)
                if width == 1:
                    np.square(rng.standard_normal(out=c), out=c)
                else:  # chisquare(df) is 2 standard_gamma(df / 2), bit for bit
                    rng.standard_gamma(width - 0.5, out=c)
                    c *= 2.0
                c *= s * s
                z += c
            out.append(reduce(chunk))
        return out

    n_blocks = (trials + BLOCK - 1) // BLOCK
    threads = min(n_blocks, _cpus())
    if threads == 1:
        per_block = [run(b) for b in range(n_blocks)]
    else:
        with ThreadPoolExecutor(threads) as pool:
            per_block = list(pool.map(run, range(n_blocks)))
    return [res for chunks in per_block for res in chunks]


def _sinr(desired, interf):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(interf > 0.0, desired / interf, np.inf)


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

    Returns ``{"counts": {Metric: int}, "trials": trials}``.  With `k_values`
    (nested ports, each in [1, n_ports]) or `n_values` (nested antennas, each
    at least 2) the six metrics are also counted per swept value on common
    random numbers, so the pathwise monotonicity of the four max-based
    metrics in K and N is exact; they come as ``"nested"`` ({Metric: int
    array over the values}) and ``"nested_values"``.  A nested-N run has no
    ``"counts"``: it draws every antenna on its own, a different stream from
    the plain run's, and may sum fewer antennas than n_users.
    """
    if k_values is not None and n_values is not None:
        raise ValueError("nest over K or N, not both")
    for name, values, lo, hi in (("k", k_values, 1, cfg.n_ports), ("n", n_values, 2, math.inf)):
        if not all(isinstance(v, (int, np.integer)) and lo <= v <= hi for v in values or ()):
            raise ValueError(f"{name}_values must be integers in [{lo}, {hi}], got {values}")
    gamma = cfg.sinr_threshold
    q_scale = _q_scale(cfg)
    q_th = cfg.ehp_threshold
    # nested N sums per-antenna powers cumulatively, so each antenna is a group
    groups = (1,) * max(n_values) if n_values else (1, cfg.n_users - 1)
    nested_values = k_values or n_values or []
    # the distinct views a chunk is counted in: antenna counts, or port counts
    keys = list(dict.fromkeys(n_values or [cfg.n_ports, *nested_values]))

    def reduce(p):
        if n_values:
            cum = np.cumsum(p, axis=0)
            views = ((_sinr(p[0], cum[n - 1] - p[0]), q_scale * cum[n - 1]) for n in keys)
        else:
            sinr, q = _sinr(p[0], p[1]), q_scale * (p[0] + p[1])
            views = ((sinr[:, :k], q[:, :k]) for k in keys)
        return [_count(sinr_v, q_v, gamma, q_th) for sinr_v, q_v in views]

    tally = dict(zip(keys, np.sum(_blocks(cfg, trials, seed, cell, groups, reduce), axis=0)))
    out = {"trials": trials}
    if not n_values:
        out["counts"] = dict(zip(Metric, map(int, tally[cfg.n_ports])))
    if nested_values:
        out["nested"] = dict(zip(Metric, np.array([tally[v] for v in nested_values]).T))
        out["nested_values"] = list(nested_values)
    return out


def _count(sinr, q, gamma, q_th):
    """A chunk's failures of the six metrics, in Metric order."""
    rows = np.arange(len(sinr))
    by_sinr, by_q = np.argmax(sinr, axis=1), np.argmax(q, axis=1)
    wdt_fail = sinr[rows, by_sinr] < gamma
    wet_fail = q[rows, by_q] < q_th
    return [np.count_nonzero(fail) for fail in (
        wdt_fail, q[rows, by_sinr] < q_th, sinr[rows, by_q] < gamma, wet_fail,
        wdt_fail & wet_fail, wdt_fail | wet_fail)]


def wilson_interval(count: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval (Wilson, JASA 1927); unlike the Wald interval
    it keeps a positive width at counts of 0 and `trials`."""
    p = count / trials
    z2n = z * z / trials
    centre = (p + 0.5 * z2n) / (1.0 + z2n)
    half = z / (1.0 + z2n) * math.sqrt(p * (1.0 - p) / trials + 0.25 * z2n / trials)
    return max(0.0, centre - half), min(1.0, centre + half)


def multiplexing_gains(outages: dict, n_users: int) -> GainReport:
    """N (1 - outage) for the four gain-bearing metrics, from outage rates per Metric."""
    return GainReport(
        m_wdt=n_users * (1.0 - outages[Metric.WDT_SINR]),
        m_wet=n_users * (1.0 - outages[Metric.WET_EHP]),
        m_idet_special=n_users * (1.0 - outages[Metric.IDET_SPECIAL]),
        m_idet_general=n_users * (1.0 - outages[Metric.IDET_GENERAL]),
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
        sinr, q = _sinr(p[0], p[1]), q_scale * (p[0] + p[1])
        idx = np.argmax(sinr if strategy is Strategy.WDT else q, axis=1)
        picked = np.arange(len(idx))
        sel_sinr, sel_q = sinr[picked, idx], q[picked, idx]
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

    chunks = _blocks(replace(cfg, n_ports=1), trials, seed, cell, (1, cfg.n_users - 1),
                     lambda p: p[:, :, 0].copy())
    x, y = np.concatenate(chunks, axis=1)
    corr = float(stats.spearmanr(x + y, x / y).statistic)
    threshold = 3.0 / math.sqrt(trials)
    return IndependenceReport(corr, threshold, abs(corr) < threshold, trials)
