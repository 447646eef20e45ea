"""Monte-Carlo estimation of outage probabilities and multiplexing gains.

All UEs are statistically identical, so only UE 0 is simulated; the
number of UEs enters through the interference dimensionality.  Port
powers are drawn for the desired antenna and for the other N - 1, as
noncentral chi-square variables given the components all ports share,
each built from uniform draws: a Box-Muller radius and angle for the
normal part and an Erlang log-product (a gamma for wide groups) for the
rest (see _blocks).  The uniforms are the two 32-bit halves of raw SFC64
words, and the powers are drawn, transformed and counted in float32.
Trials run in fixed-size blocks, each block on its own SFC64 substream
keyed by (cell, block) through a ``SeedSequence`` spawn key, which makes
every estimate a pure function of (config, seed) regardless of scheduling;
the blocks of one estimate run on a thread per CPU.  A block draws,
transforms and counts its trials in row chunks of at most ENTRIES port
powers, so its memory does not grow with K, and each numpy call of a chunk
covers both antenna groups, large enough for two threads to overlap.  A
chunk is counted at every K of a nested pass at once (see _count).
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .channel import SystemConfig, _thread_map

BLOCK = 8192
MIN_TRIALS = 1000
# port powers per chunk, (2, rows, K), so a chunk's numpy calls cover 2^16
# (one group) or 2^17 (both groups) entries; in calls of 2^15 two block
# threads spend much of their time handing the interpreter lock to each other
ENTRIES = 2 ** 17
_PHASE_KEY = (0,)  # LoS phases: one word, unlike every (cell, block) key
# chi2(2j) from j uniforms up to here, above it from one gamma: on one thread
# (float32, AVX-512) _erlang takes 4.0 ns an entry at j = 2 and 2.0-2.4 ns more
# per uniform, the gamma 19-20 ns at any j, and they tie between j = 9 and 10
_ERLANG_MAX = 9
# uniforms per product of an Erlang sum: each is at least 2^-33, so a product
# of 3 is at least 2^-99, a normal float32 (2^-126 is the least)
_FACTORS = 3


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
    and `reduce` gets each chunk as a float32 array of shape (2, rows, K)
    that the next chunk overwrites.  Group 0 is antenna 0, the desired link,
    and group 1 is the other N - 1 antennas, the interference.

    Given the shared means m_n = mu h0_n + sqrt(kappa) e^{j phi_n}, a group
    of G antennas gives each port the power (s Z + |m|)^2 + s^2 C with
    |m|^2 = sum |m_n|^2, s^2 = 1 - mu^2, Z ~ N(0, 1) and C ~ chi2(2G - 1).
    Write Z = R cos(theta) (Box & Muller, Ann. Math. Stat. 1958): then
    Z^2 + C = R^2 + E with R^2 ~ chi2(2) and E ~ chi2(2G - 2), so the power
    is s^2 (R^2 + E) + 2 s |m| R cos(theta) + |m|^2, drawn from uniforms V
    in (0, 1] (see _uniform):

    - R^2 = -2 log V, finite for every V;
    - cos(theta) = (1 - t^2) / (1 + t^2) with t = tan(pi (V - 1/2)), the
      half-angle form, which numpy evaluates in SIMD where cos is scalar;
    - E = -2 log prod_{i < G} V_i, an Erlang sum (Devroye, Non-Uniform
      Random Variate Generation, 1986), 0 at G = 1; above _ERLANG_MAX
      uniforms a gamma is cheaper, and E is 2 standard_gamma(G - 1).

    A chunk draws its 32-bit words as it uses them, each word for one
    uniform, in this order: E's words, one (rows, K) call per uniform (or
    E's gamma), of group 0 and then of group 1; then one (2, rows, K) call
    of cos(theta) words for both groups; then one of R words.  From the cos
    on, every step runs once over both groups.

    The means are drawn in float64; the uniforms, the powers and their
    arithmetic are float32, whose loops numpy runs at about twice the rate.
    Rounding can leave a power a few float32 ulps of |m|^2 below 0 where
    the cross term cancels the rest, so each group's powers are clipped at 0.
    """
    if not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}")
    k, mu, n = cfg.n_ports, cfg.mu, cfg.n_users
    if n * cfg.rician_k > float(np.finfo(np.float32).max):
        raise ValueError(f"rician_k = {cfg.rician_k:g} puts the LoS power n_users * rician_k "
                         "beyond the float32 range of the sampled port powers")
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
        h = rng.standard_normal((2, size, n))
        h *= mu
        h += los
        np.square(h, out=h)
        m2 = np.add.reduceat(h[0] + h[1], (0, 1), axis=1).T[:, :, None]  # |m|^2, (2, size, 1)
        del h                                   # the chunks read only m2 and two_s_m
        two_s_m = (2.0 * math.sqrt(s2) * np.sqrt(m2)).astype(np.float32)
        m2 = m2.astype(np.float32)
        buffers = np.empty((3, len(groups), min(rows, size), k), np.float32)
        out = []
        for r in range(0, size, rows):
            at = slice(r, min(r + rows, size))
            p, c, x = buffers[:, :, :at.stop - r]
            for g, width in enumerate(groups):
                words = (_raw_words(rng, p.shape[1:]) for _ in range(width - 1))
                _erlang(rng, words, width - 1, p[g], *c)          # E, c as scratch
            _uniform_cos(_raw_words(rng, p.shape), c, x)
            np.log(_uniform(_raw_words(rng, p.shape), x), out=x)
            x *= -2.0                                             # R^2
            p += x
            p *= s2
            np.sqrt(x, out=x)
            x *= c
            x *= two_s_m[:, at]
            p += x
            p += m2[:, at]
            np.maximum(p, 0.0, out=p)
            out.append(reduce(p))
        return out

    per_block = _thread_map(run, range((trials + BLOCK - 1) // BLOCK))
    return [res for chunks in per_block for res in chunks]


def _raw_words(rng, shape):
    """Independent 32-bit words u in a uint32 array of `shape`: both halves
    of each 64-bit SFC64 output, from one call."""
    count = math.prod(shape)
    return rng.bit_generator.random_raw((count + 1) // 2).view(np.uint32)[:count].reshape(shape)


def _uniform(bits, out):
    """V = (u + 1/2) 2^-32 of 32-bit words u, in float32 into out.

    V lies in (0, 1]: its least value is 2^-33, so log V >= -22.9 is
    finite, and the words within 2^7 of 2^32 round to 1."""
    np.add(bits, np.float32(0.5), out=out, dtype=np.float32)
    out *= np.float32(2.0 ** -32)
    return out


def _erlang(rng, bits, j, out, prod, scratch):
    """chi2(2j) into out, 0 at j = 0, from j uniforms of `bits` (an iterator
    of word arrays, which may draw each as it is taken); prod and scratch
    are buffers of out's shape.

    The uniforms are multiplied _FACTORS at a time and the logs of the
    products summed, so no product leaves float32's normal range."""
    if j == 0:
        out.fill(0.0)
    elif j > _ERLANG_MAX:
        rng.standard_gamma(j, out=out, dtype=np.float32)
        out *= 2.0
    else:
        for first in range(0, j, _FACTORS):
            acc = out if first == 0 else prod
            _uniform(next(bits), acc)
            for _ in range(1, min(_FACTORS, j - first)):
                acc *= _uniform(next(bits), scratch)
            np.log(acc, out=acc)
            if acc is not out:
                out += acc
        out *= -2.0
    return out


def _uniform_cos(bits, out, scratch):
    """cos(theta) into out for theta uniform on a circle, by the half-angle
    tangent t = tan(pi (V - 1/2)): (1 - t^2) / (1 + t^2), in [-1, 1]."""
    _uniform(bits, out)
    out -= 0.5
    out *= np.float32(math.pi)
    np.tan(out, out=out)
    np.square(out, out=out)
    np.add(1.0, out, out=scratch)
    np.subtract(1.0, out, out=out)
    out /= scratch
    return out


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
    (nested ports, each in [1, n_ports], in any order) the six metrics are
    also counted at each of those K on the same draw, the first K ports of
    every trial, so the pathwise monotonicity of the four max-based metrics
    in K is exact and the count at n_ports is the plain run's; they come as
    ``"nested"`` ({Metric: int array over k_values}).
    """
    if not all(isinstance(k, (int, np.integer)) and 1 <= k <= cfg.n_ports for k in k_values or ()):
        raise ValueError(f"k_values must be integers in [1, {cfg.n_ports}], got {k_values}")
    gamma, total_th = _thresholds(cfg)
    small = sorted(set(k_values or ()) - {cfg.n_ports})   # distinct K below n_ports
    chunks = _blocks(cfg, trials, seed, cell, lambda p: _count(p, small, gamma, total_th))
    tally = dict(zip([cfg.n_ports, *small], np.sum(chunks, axis=0)))
    out = {"trials": trials, "counts": dict(zip(Metric, map(int, tally[cfg.n_ports])))}
    if k_values:
        out["nested"] = dict(zip(Metric, np.array([tally[k] for k in k_values]).T))
    return out


def _thresholds(cfg):
    """float32 thresholds of the SINR and of the total port power p0 + p1.

    The harvested power is q_scale (p0 + p1), so it falls below q_th just
    when p0 + p1 falls below q_th / q_scale, and both pick the same port;
    at q_scale = 0 (ps_ratio = 1) every trial fails when q_th > 0 and none
    when q_th = 0.  The casts are explicit so that every numpy compares in
    float32; past float32's range a threshold reads inf, below its least
    subnormal 0."""
    q_th, q_scale = cfg.ehp_threshold, _q_scale(cfg)
    total_th = q_th / q_scale if q_scale > 0.0 else math.inf if q_th > 0.0 else 0.0
    with np.errstate(over="ignore"):
        return np.float32(cfg.sinr_threshold), np.float32(total_th)


def _count(p, small, gamma, total_th):
    """A chunk's failures of the six metrics in Metric order: one row at the
    chunk's K, then one at each K of `small` (ascending, all below it).

    A port's SINR is p0 / p1, inf where p1 = 0 (0/0 too), and its total is
    p0 + p1; each K picks, among its first K ports, the first of the largest
    SINR (WDT) or total (WET).  The chunk's K takes argmax over whole rows.
    The smaller K share one pass over int64 keys, a value's float32 bits
    (which order like the nonnegative floats, inf too) over K - 1 - j, so a
    maximum key names the first port j of its maximum: each segment of ports
    between two K is reduced once, port-major so the reduce runs across
    trials, and a running maximum gives each K's maximum key.
    """
    _, rows, k = p.shape
    q = np.empty_like(p)                                  # SINR, total
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(p[0], p[1], out=q[0])
    np.fmin(q[0], np.inf, out=q[0])                       # 0/0 reads inf
    np.add(p[0], p[1], out=q[1])
    thr = np.array([gamma, total_th], np.float32)[:, None]
    start = np.arange(0, rows * k, k)                     # flat index of port 0
    # fail[v, 2 b + m]: at the v-th K, quantity m fails at the port that
    # maximises quantity b; with IDET_SPECIAL and IDET_GENERAL, Metric order
    fail = np.empty((1 + len(small), 6, rows), bool)
    # nonnegative float32 bits argmax like the floats, and faster as int32
    by = start + np.argmax(q.view(np.int32).reshape(-1, k), axis=1).reshape(2, rows)
    np.less(np.take(q.reshape(2, -1), by, axis=1), thr[:, None],
            out=fail[0, :4].reshape(2, 2, rows).transpose(1, 0, 2))
    if small:
        top = small[-1]
        key = np.empty((top, 2, rows), "<i8")
        word = key.view("<u4")                            # low, high word of each key
        word[..., 1::2] = q[:, :, :top].transpose(2, 0, 1).view(np.uint32)
        word[..., 0::2] = np.arange(k - 1, k - 1 - top, -1, dtype=np.uint32)[:, None, None]
        best = np.empty((len(small), 2, rows), "<i8")     # each K's maximum key
        for i, (a, b) in enumerate(zip([0, *small], small)):
            np.maximum.reduce(key[a:b], axis=0, out=best[i])
            if i:
                np.maximum(best[i], best[i - 1], out=best[i])
        np.less(best, thr.view(np.uint32).astype(np.int64) << 32, out=fail[1:, 0:4:3])
        # the other quantity, total or SINR, at the port each maximum names
        at = start + (k - 1) + np.array([[rows * k], [0]]) - best.view("<u4")[..., 0::2]
        np.less(np.take(q, at), thr[::-1], out=fail[1:, 1:3])
    np.logical_and(fail[:, 0], fail[:, 3], out=fail[:, 4])
    np.logical_or(fail[:, 0], fail[:, 3], out=fail[:, 5])
    return np.count_nonzero(fail, axis=-1)


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
