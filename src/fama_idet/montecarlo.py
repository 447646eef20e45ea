"""Monte-Carlo estimation of outage probabilities and multiplexing gains.

All UEs are statistically identical, so only UE 0 is simulated; the
number of UEs enters through the interference dimensionality.  Port
powers are drawn for the desired antenna and for the other N - 1, as
noncentral chi-square variables given the components all ports share,
each built from uniform draws: a Box-Muller radius and angle for the
normal part and an Erlang log-product (a gamma for wide groups) for the
rest (see _blocks).
Trials run in fixed-size blocks, each block on its own SFC64 substream
keyed by (cell, block) through a ``SeedSequence`` spawn key, which makes
every estimate a pure function of (config, seed) regardless of scheduling;
the blocks of one estimate run on a thread per CPU.  A block draws,
transforms and counts its trials in row chunks of at most ENTRIES port
powers, so its memory does not grow with K.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .channel import SystemConfig, _thread_map

BLOCK = 8192
MIN_TRIALS = 1000
ENTRIES = 2 ** 16  # port powers per chunk buffer: (2, rows, K) stays in cache
_PHASE_KEY = (0,)  # LoS phases: one word, unlike every (cell, block) key
# chi2(2j) from j uniforms up to here, above it from one gamma: on one thread
# the uniforms cost 2.5-3 ns each and the gamma 20-22 ns at any j >= 2, and
# they tie near j = 7
_ERLANG_MAX = 6


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


def _stream(seed: int, *key: int) -> np.random.Generator:
    """SFC64 generator of `seed` under the SeedSequence spawn key `key`."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))


def substream(seed: int, cell: int, block) -> np.random.Generator:
    """Deterministic stream for one (cell, block) pair."""
    return _stream(seed, cell, block)


def los_phases(cfg: SystemConfig, seed: int) -> np.ndarray:
    """LoS phases, one per antenna of cfg.n_users.

    They are fixed per (config, seed): every trial, block and cell of a sweep
    shares them."""
    rng = _stream(seed, *_PHASE_KEY)
    return rng.uniform(0.0, 2.0 * math.pi, size=cfg.n_users)


def _blocks(cfg, trials, seed, cell, reduce):
    """Map `reduce` over UE 0's port powers summed per antenna group, one
    chunk of trials at a time; return its results in block order, then chunk
    order.

    Each block of BLOCK trials is drawn on its own substream, so the blocks
    are independent and run on one thread per CPU with the same results at
    any thread count.  A block walks its trials in chunks of `rows` trials,
    and `reduce` gets each chunk as an array of shape (2, rows, K) that the
    next chunk overwrites.  Group 0 is antenna 0, the desired link, and group
    1 is the other N - 1 antennas, the interference.

    Given the shared means m_n = mu h0_n + sqrt(kappa) e^{j phi_n}, a group
    of G antennas gives each port the power (s Z + |m|)^2 + s^2 C with
    |m|^2 = sum |m_n|^2, s^2 = 1 - mu^2, Z ~ N(0, 1) and C ~ chi2(2G - 1).
    Write Z = R cos(theta) (Box & Muller, Ann. Math. Stat. 1958): then
    Z^2 + C = R^2 + E with R^2 ~ chi2(2) and E ~ chi2(2G - 2), so the power
    is s^2 (R^2 + E) + 2 s |m| R cos(theta) + |m|^2, drawn from uniforms:

    - R^2 = -2 log(1 - U), finite for every U in [0, 1);
    - cos(theta) = (1 - t^2) / (1 + t^2) with t = tan(pi (V - 1/2)), the
      half-angle form, which numpy evaluates in SIMD where float64 cos is
      scalar; at V = 0 it reads -1;
    - E = -2 log prod_{i < G} (1 - U_i), an Erlang sum (Devroye, Non-Uniform
      Random Variate Generation, 1986), 0 at G = 1; above _ERLANG_MAX
      uniforms a gamma is cheaper, and E is 2 standard_gamma(G - 1).
    """
    if not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}")
    k, mu, n = cfg.n_ports, cfg.mu, cfg.n_users
    groups = (1, n - 1)
    s2 = max(0.0, 1.0 - mu * mu)
    rows = max(1, ENTRIES // (k * len(groups)))
    los = 0.0
    if cfg.rician_k > 0.0:
        phases = los_phases(cfg, seed)
        los = math.sqrt(cfg.rician_k) * np.stack([np.cos(phases), np.sin(phases)])[:, None]

    def run(b):
        size = min(BLOCK, trials - b * BLOCK)
        rng = substream(seed, cell, b)
        h = mu * rng.standard_normal((2, size, n)) + los
        m2 = np.add.reduceat(h[0] ** 2 + h[1] ** 2, (0, 1), axis=1)   # |m|^2, (size, 2)
        two_s_m = 2.0 * math.sqrt(s2) * np.sqrt(m2)
        p = np.empty((len(groups), min(rows, size), k))
        scratch = np.empty((2, *p.shape[1:]))
        out = []
        for r in range(0, size, rows):
            chunk = p[:, :min(rows, size - r)]
            x, c = scratch[:, :chunk.shape[1]]
            at = slice(r, r + chunk.shape[1])
            for g, width in enumerate(groups):
                power = _erlang(rng, width - 1, chunk[g], x)
                _uniform_cos(rng, c, x)
                np.log(_one_minus_uniform(rng, x), out=x)
                x *= -2.0                                 # R^2
                power += x
                power *= s2
                np.sqrt(x, out=x)
                x *= c
                x *= two_s_m[at, g, None]
                power += x
                power += m2[at, g, None]
            out.append(reduce(chunk))
        return out

    per_block = _thread_map(run, range((trials + BLOCK - 1) // BLOCK))
    return [res for chunks in per_block for res in chunks]


def _one_minus_uniform(rng, out):
    """1 - U into out: in (0, 1], so its log is finite."""
    rng.random(out=out)
    return np.subtract(1.0, out, out=out)


def _erlang(rng, j, out, scratch):
    """chi2(2j) into out, 0 at j = 0; scratch takes each further uniform."""
    if j == 0:
        out.fill(0.0)
    elif j > _ERLANG_MAX:
        rng.standard_gamma(j, out=out)
        out *= 2.0
    else:
        _one_minus_uniform(rng, out)
        for _ in range(j - 1):
            out *= _one_minus_uniform(rng, scratch)
        np.log(out, out=out)
        out *= -2.0
    return out


def _uniform_cos(rng, out, scratch):
    """cos(theta) into out for theta uniform on a circle, by the half-angle
    tangent t = tan(pi (V - 1/2)): (1 - t^2) / (1 + t^2)."""
    rng.random(out=out)
    out -= 0.5
    out *= math.pi
    np.tan(out, out=out)
    np.square(out, out=out)
    np.add(1.0, out, out=scratch)
    np.subtract(1.0, out, out=out)
    out /= scratch
    return out


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
) -> dict:
    """Failure counts for all six outage metrics over `trials` realizations.

    Returns ``{"counts": {Metric: int}, "trials": trials}``.  With `k_values`
    (nested ports, each in [1, n_ports]) the six metrics are also counted at
    each of those K on common random numbers, so the pathwise monotonicity
    of the four max-based metrics in K is exact; they come as ``"nested"``
    ({Metric: int array over k_values}).
    """
    if not all(isinstance(k, (int, np.integer)) and 1 <= k <= cfg.n_ports for k in k_values or ()):
        raise ValueError(f"k_values must be integers in [1, {cfg.n_ports}], got {k_values}")
    gamma, q_th, q_scale = cfg.sinr_threshold, cfg.ehp_threshold, _q_scale(cfg)
    keys = list(dict.fromkeys([cfg.n_ports, *(k_values or [])]))  # distinct K to count at

    def reduce(p):
        sinr, q = _sinr(p[0], p[1]), q_scale * (p[0] + p[1])
        return [_count(sinr[:, :k], q[:, :k], gamma, q_th) for k in keys]

    tally = dict(zip(keys, np.sum(_blocks(cfg, trials, seed, cell, reduce), axis=0)))
    out = {"trials": trials, "counts": dict(zip(Metric, map(int, tally[cfg.n_ports])))}
    if k_values:
        out["nested"] = dict(zip(Metric, np.array([tally[k] for k in k_values]).T))
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


def multiplexing_gains(outages: dict, n_users: int) -> dict:
    """{Metric: N (1 - outage)} for the four gain-bearing metrics, from outage rates per Metric."""
    return {m: n_users * (1.0 - outages[m])
            for m in (Metric.WDT_SINR, Metric.WET_EHP, Metric.IDET_SPECIAL, Metric.IDET_GENERAL)}
