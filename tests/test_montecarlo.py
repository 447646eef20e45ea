"""Monte-Carlo engine: determinism, count identities, orderings."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import fama_idet
from fama_idet import channel, montecarlo
from fama_idet.channel import (
    SystemConfig,
    generate_rayleigh,
    generate_rician,
    port_statistics,
)
from fama_idet.montecarlo import (
    _blocks,
    Metric,
    los_phases,
    multiplexing_gains,
    simulate_outage_counts,
    substream,
    wilson_interval,
)
from test_acceptance import independence_diagnostic

TRIALS = 40_000


def cfg_small(**kw):
    base = dict(n_users=2, n_ports=2, fa_size=1.0, ehp_threshold=0.010)
    base.update(kw)
    return SystemConfig(**base)


class TestDeterminism:
    def test_same_seed_same_counts(self):
        cfg = cfg_small()
        a = simulate_outage_counts(cfg, TRIALS, seed=3, cell=0)["counts"]
        b = simulate_outage_counts(cfg, TRIALS, seed=3, cell=0)["counts"]
        assert a == b

    def test_cells_are_distinct_streams(self):
        cfg = cfg_small()
        a = simulate_outage_counts(cfg, TRIALS, seed=3, cell=0)["counts"]
        b = simulate_outage_counts(cfg, TRIALS, seed=3, cell=1)["counts"]
        assert a != b

    def test_substream_reproducible(self):
        x = substream(1, 2, 3).standard_normal(8)
        y = substream(1, 2, 3).standard_normal(8)
        np.testing.assert_array_equal(x, y)
        z = substream(1, 2, 4).standard_normal(8)
        assert not np.array_equal(x, z)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            simulate_outage_counts(cfg_small(), TRIALS, seed=-1)

    def test_seeds_apart_by_2_64_are_distinct_streams(self):
        # a seed is not reduced modulo 2^64: 2^64 + 5 keys streams of its own
        cfg = cfg_small()
        a = simulate_outage_counts(cfg, TRIALS, seed=5)["counts"]
        b = simulate_outage_counts(cfg, TRIALS, seed=2 ** 64 + 5)["counts"]
        assert a != b

    def test_los_phases_fixed_per_seed(self):
        cfg = cfg_small(rician_k=2.0)
        p1 = los_phases(cfg, seed=9)
        p2 = los_phases(cfg, seed=9)
        np.testing.assert_array_equal(p1, p2)
        assert p1.shape == (cfg.n_users,)
        assert np.all((p1 >= 0.0) & (p1 < 2 * math.pi))

    def test_rician_counts_pinned(self):
        # one partial block at N = 3: the LoS phases enter every antenna's mean
        cfg = SystemConfig(n_users=3, n_ports=4, rician_k=2.0)
        counts = simulate_outage_counts(cfg, 2000, seed=1)["counts"]
        assert [counts[m] for m in Metric] == [1376, 113, 1836, 0, 0, 1376]

    def test_min_trials_enforced(self):
        with pytest.raises(ValueError):
            simulate_outage_counts(cfg_small(), 999, seed=0)

    def test_non_integer_trials_rejected(self):
        # checked next to MIN_TRIALS in _blocks, ahead of any draw, for
        # every caller that samples
        for run in (lambda t: simulate_outage_counts(cfg_small(), t, seed=0),
                    lambda t: simulate_outage_counts(cfg_small(), t, seed=0, k_values=[1]),
                    lambda t: _blocks(cfg_small(), t, 0, 0, len)):
            with pytest.raises(ValueError, match="trials must be an integer, got 2000.0"):
                run(2000.0)
        assert (simulate_outage_counts(cfg_small(), np.int64(2000), seed=0)["counts"]
                == simulate_outage_counts(cfg_small(), 2000, seed=0)["counts"])

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about half of the package's import time, and no
        # module of the package needs it.  mpmath is blocked: building a cell
        # (mu_from_w at W = 5) needs none
        src = str(Path(fama_idet.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys; sys.modules['mpmath'] = None; "
                "import fama_idet, fama_idet.cli; "
                "fama_idet.SystemConfig(fa_size=5); "
                "print('scipy.stats' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "False"


class TestPinnedStream:
    """Pinned MC values of a cell of two full blocks and a partial third.

    A change of the sampling stream fails here, and so does a result that
    depends on the number of threads the blocks run on.
    """

    TRIALS = 20_000
    CFG = dict(n_users=3, n_ports=16, fa_size=2.0, ehp_threshold=0.05)

    @pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n}cpu")
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(channel, "_cpus", lambda: request.param)
        return request.param

    def test_counts(self, cpus):
        cfg = SystemConfig(**self.CFG)
        full = simulate_outage_counts(cfg, self.TRIALS, seed=17, cell=2)["counts"]
        assert [full[m] for m in Metric] == [3437, 17638, 17763, 2871, 505, 5803]

        res = simulate_outage_counts(cfg, self.TRIALS, seed=17, cell=2, k_values=[1, 4, 16])
        assert res["counts"] == full
        assert {m.name: res["nested"][m].tolist() for m in res["nested"]} == {
            "WDT_SINR": [17698, 12477, 3437], "WET_EHP": [17495, 11814, 2871],
            "IDET_SPECIAL": [15500, 7377, 505], "IDET_GENERAL": [19693, 16914, 5803],
            "WET_SINR": [17495, 17477, 17638], "WDT_EHP": [17698, 17746, 17763]}
        # the view at k = n_ports is the plain run, all six metrics
        assert {m: int(res["nested"][m][-1]) for m in Metric} == full

        cfg_r = SystemConfig(**self.CFG, rician_k=2.0)
        rician = simulate_outage_counts(cfg_r, self.TRIALS, seed=17, cell=4)["counts"]
        assert [rician[m] for m in Metric] == [6306, 18352, 18362, 5517, 1548, 10275]

    def test_energy_efficiency(self, cpus):
        # rate and harvest sums of one reduce over _blocks, picked by best SIR
        # (WDT) or best harvest (WET), at bandwidth 1 MHz and fixed power 0.5 W;
        # the float32 chunk is summed in float64, so only the draw is pinned
        cfg = SystemConfig(**self.CFG)
        n, q_scale = cfg.n_users, montecarlo._q_scale(cfg)
        base_power = n * cfg.tx_power + 0.5
        for wdt, want in (
            (True, (7274628.15232229, 0.08913579972218535, 3.4108642002778145,
                    2132781.525494264, 2133509.8846482085)),
            (False, (2170716.390935812, 0.20002335605673166, 3.2999766439432685,
                     657797.5013610823, 657969.352630763)),
        ):
            def reduce(p):
                p = p.astype(np.float64)
                sinr, q = montecarlo._sinr(p[0], p[1]), q_scale * (p[0] + p[1])
                idx = np.argmax(sinr if wdt else q, axis=1)
                picked = np.arange(len(idx))
                rate, sel_q = np.log2(1.0 + sinr[picked, idx]), q[picked, idx]
                return (float(rate.sum()), float(sel_q.sum()),
                        float((n * 1e6 * rate / (base_power - n * sel_q)).sum()))

            rate_sums, q_sums, ratio_sums = zip(*_blocks(cfg, self.TRIALS, 17, 5, reduce))
            sum_rate = n * 1e6 * (math.fsum(rate_sums) / self.TRIALS)
            harvested = n * (math.fsum(q_sums) / self.TRIALS)
            total_power = base_power - harvested
            assert (sum_rate, harvested, total_power, sum_rate / total_power,
                    math.fsum(ratio_sums) / self.TRIALS) == want


class TestCountIdentities:
    @pytest.mark.parametrize("kw", [
        {}, {"n_users": 3, "n_ports": 4, "fa_size": 2.0},
        {"ehp_threshold": 0.030, "sinr_threshold": 2.0},
        {"rician_k": 3.0},
    ])
    def test_addition_law_exact_in_counts(self, kw):
        cfg = cfg_small(**kw)
        c = simulate_outage_counts(cfg, TRIALS, seed=5)["counts"]
        assert c[Metric.IDET_GENERAL] == (
            c[Metric.WDT_SINR] + c[Metric.WET_EHP] - c[Metric.IDET_SPECIAL]
        )

    def test_frechet_bounds_in_counts(self):
        cfg = cfg_small(n_users=3, n_ports=4)
        c = simulate_outage_counts(cfg, TRIALS, seed=6)["counts"]
        assert c[Metric.IDET_SPECIAL] <= min(c[Metric.WDT_SINR], c[Metric.WET_EHP])
        assert c[Metric.IDET_GENERAL] >= max(c[Metric.WDT_SINR], c[Metric.WET_EHP])

    @pytest.mark.parametrize("kw", [
        dict(n_users=3, n_ports=4),
        dict(n_users=5, n_ports=16, rician_k=2.0),
    ], ids=["rayleigh", "rician"])
    def test_mu_one_makes_ports_identical(self, kw):
        # at mu = 1 the port spread s is 0, so every port carries the shared
        # powers and the port picked for SINR or for harvest is the same
        c = simulate_outage_counts(SystemConfig(mu=1.0, **kw), 20_000, seed=3)["counts"]
        assert 0 < c[Metric.WDT_SINR] < 20_000
        assert c[Metric.WDT_SINR] == c[Metric.WDT_EHP]
        assert c[Metric.WET_SINR] == c[Metric.WET_EHP]

    def test_wet_counts_read_no_sinr_threshold(self):
        # gamma changes the SIR test but neither the draw nor the max-SIR pick
        counts = [simulate_outage_counts(cfg_small(n_users=3, n_ports=4, sinr_threshold=g),
                                         TRIALS, seed=8)["counts"] for g in (0.5, 4.0)]
        assert counts[0][Metric.WDT_SINR] != counts[1][Metric.WDT_SINR]
        for m in (Metric.WET_SINR, Metric.WET_EHP):
            assert counts[0][m] == counts[1][m], m

    def test_strategy_dominance(self):
        # the strategy-matched metric can only do better than the crossed one
        cfg = cfg_small(n_users=3, n_ports=6, ehp_threshold=0.020)
        c = simulate_outage_counts(cfg, TRIALS, seed=7)["counts"]
        # EHP at the SIR-optimal port fails at least as often as at the
        # EHP-optimal port, and symmetrically for the SIR test
        assert c[Metric.WET_SINR] >= c[Metric.WET_EHP]
        assert c[Metric.WDT_EHP] >= c[Metric.WDT_SINR]


class TestBlockMemory:
    @pytest.mark.parametrize("n_users, nested", [
        (5, {}), (5, {"k_values": [1, 50, 200]}), (16, {})], ids=["plain", "nested_k", "n16"])
    def test_block_peak_does_not_grow_with_k(self, n_users, nested, monkeypatch):
        # at K = 200 a whole (BLOCK, K, 2) array would take 26 MB; in chunks
        # a block peaks at 2.3 MB, counted at one K or at several, and at
        # 3.3 MB with 15 interfering antennas, whose float64 means (2, BLOCK,
        # 16) take 2.1 MB; the bound leaves 0.7 MB above the larger peak
        monkeypatch.setattr(channel, "_cpus", lambda: 1)
        dtypes = set()
        blocks = montecarlo._blocks

        def spy(cfg, trials, seed, cell, reduce):
            return blocks(cfg, trials, seed, cell, lambda p: dtypes.add(p.dtype) or reduce(p))

        monkeypatch.setattr(montecarlo, "_blocks", spy)
        cfg = SystemConfig(n_users=n_users, n_ports=200, fa_size=5.0, ehp_threshold=0.11)
        tracemalloc.start()
        try:
            simulate_outage_counts(cfg, montecarlo.BLOCK, seed=1, **nested)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dtypes == {np.dtype(np.float32)}
        assert peak < 4e6


class TestFloat32Draw:
    """Edges of the float32 draw: 32-bit words, products and thresholds."""

    def test_uniform_of_extreme_words(self):
        words = np.array([0, 1, 2 ** 31, 2 ** 32 - 1], dtype=np.uint32)
        out, scratch = np.empty((2, 4), np.float32)
        with np.errstate(all="raise"):
            v = montecarlo._uniform(words, out).copy()
            log_v = np.log(v)
            cos = montecarlo._uniform_cos(words, out, scratch)
        assert v.dtype == np.float32
        assert v.tolist() == [2.0 ** -33, 1.5 * 2.0 ** -32, 0.5, 1.0]
        assert np.all(np.isfinite(log_v)) and log_v.min() > -23.0
        assert np.all((cos >= -1.0) & (cos <= 1.0))

    def test_erlang_of_least_words_is_finite(self):
        # j words of 0 give V = 2^-33 each: a whole product of 2^-33j would
        # leave float32 at j = 5, so the products are taken _FACTORS at a time
        j = montecarlo._ERLANG_MAX
        out, prod, scratch = np.empty((3, 4), np.float32)
        with np.errstate(all="raise"):
            e = montecarlo._erlang(None, iter(np.zeros((j, 4), np.uint32)), j, out, prod, scratch)
        np.testing.assert_allclose(e, 66.0 * j * math.log(2.0), rtol=1e-6)

    @pytest.mark.parametrize("mu", [0.0, 0.99])
    @pytest.mark.parametrize("n_users", [2, 5, 7, 9, montecarlo._ERLANG_MAX + 2])
    def test_chunks_hold_finite_nonnegative_powers(self, n_users, mu):
        # E from one, two and three products of uniforms, and from the gamma
        cfg = SystemConfig(n_users=n_users, n_ports=16, mu=mu)
        ok = _blocks(cfg, 2 * montecarlo.BLOCK, 3, 0, lambda p: (
            p.dtype == np.float32 and bool(np.all(np.isfinite(p) & (p >= 0.0)))))
        assert all(ok)

    def test_sinr_threshold_past_float32_fails_every_trial(self):
        cfg = cfg_small(n_users=3, n_ports=4, sinr_threshold=1e40)
        counts = simulate_outage_counts(cfg, 2000, seed=1)["counts"]
        assert counts[Metric.WDT_SINR] == 2000

    def test_harvest_threshold_past_float32_fails_every_trial(self):
        cfg = cfg_small(n_users=3, n_ports=4, ehp_threshold=1e40)
        assert cfg.ehp_threshold / montecarlo._q_scale(cfg) > float(np.finfo(np.float32).max)
        counts = simulate_outage_counts(cfg, 2000, seed=1)["counts"]
        assert counts[Metric.WET_EHP] == 2000

    def test_harvest_threshold_below_float32_fails_no_trial(self):
        cfg = cfg_small(n_users=3, n_ports=4, ehp_threshold=1e-60)
        assert 0.0 < cfg.ehp_threshold / montecarlo._q_scale(cfg) < float(
            np.finfo(np.float32).smallest_subnormal)
        counts = simulate_outage_counts(cfg, 2000, seed=1)["counts"]
        assert counts[Metric.WET_EHP] == 0

    def test_los_power_past_float32_refused(self):
        top = float(np.finfo(np.float32).max)
        with pytest.raises(ValueError, match="rician_k"):
            simulate_outage_counts(cfg_small(n_users=5, rician_k=top / 4), 2000, seed=1)
        # just inside the range every power is finite
        cfg = cfg_small(n_users=5, rician_k=top / 5 * 0.999)
        assert all(_blocks(cfg, 2000, 1, 0, lambda p: bool(np.all(np.isfinite(p)))))


class TestNestedSweeps:
    def test_nested_k_monotone(self):
        cfg = cfg_small(n_users=3, n_ports=16)
        res = simulate_outage_counts(cfg, TRIALS, seed=8, k_values=[1, 2, 4, 8, 16])
        for metric in (Metric.WDT_SINR, Metric.WET_EHP, Metric.IDET_SPECIAL,
                       Metric.IDET_GENERAL):
            counts = res["nested"][metric]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("nested", [
        {"k_values": [-1]},      # would count the first 7 of 8 ports
        {"k_values": [20]},      # would count all 8
        {"k_values": [0]},
        {"k_values": [2.0]},
    ], ids=str)
    def test_nested_values_checked(self, nested):
        cfg = cfg_small(n_users=3, n_ports=8)
        with pytest.raises(ValueError, match="k_values must be integers in"):
            simulate_outage_counts(cfg, 1000, seed=0, **nested)


class TestThresholdMonotone:
    """The thresholds do not enter the draw, so at one (seed, cell) every
    count that tests a threshold is pathwise monotone in it, exactly."""

    CELLS = [dict(n_users=3, n_ports=8), dict(n_users=4, n_ports=8, rician_k=2.0)]
    # each axis's grid, the other threshold held where both events are common,
    # and the metrics that test the swept threshold
    AXES = {
        "sinr_threshold": ([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0], {"ehp_threshold": 0.05},
                           (Metric.WDT_SINR, Metric.WDT_EHP, Metric.IDET_SPECIAL,
                            Metric.IDET_GENERAL)),
        "ehp_threshold": ([0.01, 0.02, 0.03, 0.05, 0.07, 0.1, 0.2], {"sinr_threshold": 2.0},
                          (Metric.WET_SINR, Metric.WET_EHP, Metric.IDET_SPECIAL,
                           Metric.IDET_GENERAL)),
    }

    @pytest.mark.parametrize("cell", CELLS, ids=["rayleigh", "rician"])
    @pytest.mark.parametrize("axis", list(AXES))
    def test_counts_never_fall_as_the_threshold_rises(self, axis, cell):
        values, fixed, metrics = self.AXES[axis]
        counts = [simulate_outage_counts(cfg_small(**cell, **fixed, **{axis: v}), 5000,
                                         seed=12, cell=3)["counts"] for v in values]
        for metric in metrics:
            got = [c[metric] for c in counts]
            assert all(a <= b for a, b in zip(got, got[1:])), (metric, got)
            assert got[0] < got[-1], (metric, got)   # the grid spans the outage's rise


class TestEstimates:
    def test_wilson_half_width_of_counts(self):
        res = simulate_outage_counts(cfg_small(), TRIALS, seed=4)
        count = res["counts"][Metric.WDT_SINR]
        assert res["trials"] == TRIALS and 0 < count < TRIALS
        lo, hi = wilson_interval(count, TRIALS)
        # Wilson score half-width, away from the clamps at 0 and 1
        p, z2 = count / TRIALS, 1.96 ** 2
        want_ci = 1.96 / (1 + z2 / TRIALS) * math.sqrt(
            p * (1 - p) / TRIALS + z2 / (4 * TRIALS ** 2))
        assert 0.0 < lo < p < hi < 1.0
        assert 0.5 * (hi - lo) == pytest.approx(want_ci, rel=1e-12)

    def test_wilson_interval_keeps_width_at_extreme_counts(self):
        lo, hi = wilson_interval(0, 100_000)
        assert lo == 0.0 < hi
        lo, hi = wilson_interval(100_000, 100_000)
        assert lo < hi == 1.0

    def test_multiplexing_gains(self):
        cfg = cfg_small(n_users=4, n_ports=4)
        counts = simulate_outage_counts(cfg, TRIALS, seed=2)["counts"]
        outages = {m: counts[m] / TRIALS for m in Metric}
        gains = multiplexing_gains(outages, cfg.n_users)
        assert list(gains) == [Metric.WDT_SINR, Metric.WET_EHP,
                               Metric.IDET_SPECIAL, Metric.IDET_GENERAL]
        assert gains[Metric.WDT_SINR] == pytest.approx(4 * (1 - outages[Metric.WDT_SINR]))
        assert gains[Metric.WET_EHP] == pytest.approx(4 * (1 - outages[Metric.WET_EHP]))
        assert 0.0 <= gains[Metric.IDET_GENERAL] <= 4.0


class TestIndependenceDiagnostic:
    def test_independent_at_mu_zero(self):
        trials = 100_000
        corr = independence_diagnostic(cfg_small(n_users=5, mu=0.0), trials, seed=21)
        assert abs(corr) < 3.0 / math.sqrt(trials)


class TestSamplerOracle:
    """The group sampler against the explicit Gaussian composition.

    The explicit route draws every port gain from its own normals
    (``generate_rayleigh``/``generate_rician`` + ``port_statistics``); the
    group sampler draws the powers of the desired antenna and of the other
    N - 1 antennas directly.  Two-sample KS tests compare port 0's X, Y and
    X/Y, and the best port's X/Y, which depends on the components the ports
    share.  The interference group's chi2(2N - 4) part is 0 at N = 2, comes
    from one product of uniforms at N = 3 and 5 and from three at N = 9,
    and from a gamma at the first N above the crossover.
    """

    SAMPLES = 20_000

    @pytest.mark.parametrize("n_users, rician_k", [
        (2, 0.0), (3, 0.0), (5, 0.0), (9, 0.0), (montecarlo._ERLANG_MAX + 3, 0.0), (3, 2.0)])
    def test_port_powers_match_explicit_composition(self, n_users, rician_k):
        cfg = SystemConfig(n_users=n_users, n_ports=3, mu=0.8, rician_k=rician_k)
        # each chunk is (2, rows, K) in a buffer the next chunk reuses
        x_fast, y_fast = np.concatenate(_blocks(cfg, self.SAMPLES, 31, 0, lambda p: p.copy()),
                                        axis=1)

        phases = los_phases(cfg, seed=31)
        rng = np.random.default_rng(32)
        x_ref, y_ref = np.empty((2, self.SAMPLES, cfg.n_ports))
        for i in range(self.SAMPLES):
            real = (generate_rician(cfg, 0, phases, rng) if rician_k
                    else generate_rayleigh(cfg, 0, rng))
            ps = port_statistics(real, cfg)
            x_ref[i], y_ref[i] = ps.x, ps.y
        # port_statistics normalizes the powers by 1 - mu^2
        x_ref *= 1.0 - cfg.mu ** 2
        y_ref *= 1.0 - cfg.mu ** 2

        for name, fast, ref in (
            ("X", x_fast[:, 0], x_ref[:, 0]),
            ("Y", y_fast[:, 0], y_ref[:, 0]),
            ("X/Y", x_fast[:, 0] / y_fast[:, 0], x_ref[:, 0] / y_ref[:, 0]),
            ("best X/Y", (x_fast / y_fast).max(axis=1), (x_ref / y_ref).max(axis=1)),
        ):
            assert stats.ks_2samp(fast, ref).pvalue > 1e-3, name


class TestWordOrder:
    """Each 32-bit word of a block's substream feeds exactly one uniform.

    The chunks of block 0 are rebuilt in float64 from the words of
    ``substream(seed, cell, 0)`` in the order ``_blocks`` documents: the
    shared means, then per chunk E's words one uniform at a time (group 1;
    group 0 has none) or its gamma, then one call of cos words for both
    groups and one of R words.  Two uniforms that read the same word fail
    here; the KS tests above see that only where it changes a distribution,
    and the pins not at all once re-pinned for a stream change.
    """

    @pytest.mark.parametrize("n_users, rician_k", [
        (5, 0.0), (3, 2.0), (montecarlo._ERLANG_MAX + 3, 0.0)], ids=["erlang", "rician", "gamma"])
    def test_chunks_rebuilt_from_the_words(self, n_users, rician_k):
        cfg = SystemConfig(n_users=n_users, n_ports=16, mu=0.8, rician_k=rician_k)
        seed, cell, size, k = 5, 1, montecarlo.BLOCK, cfg.n_ports
        chunks = _blocks(cfg, size, seed, cell, lambda p: p.copy())
        assert len(chunks) > 1          # the words run on across a chunk boundary

        rng = substream(seed, cell, 0)
        h = cfg.mu * rng.standard_normal((2, size, n_users))
        if rician_k:
            phases = los_phases(cfg, seed)
            h += math.sqrt(rician_k) * np.stack([np.cos(phases), np.sin(phases)])[:, None]
        h = (h ** 2).sum(axis=0)
        m2 = np.stack([h[:, 0], h[:, 1:].sum(axis=1)])[:, :, None]       # (2, size, 1)
        s2 = 1.0 - cfg.mu ** 2

        def uniforms(shape):
            # V = (u + 1/2) 2^-32 in float32 of both 32-bit halves of each
            # 64-bit word (every count here is even), then float64
            words = rng.bit_generator.random_raw(math.prod(shape) // 2).view(np.uint32)
            v = np.add(words.reshape(shape), np.float32(0.5), dtype=np.float32)
            return (v * np.float32(2.0 ** -32)).astype(np.float64)

        start = 0
        for chunk in chunks:
            rows = chunk.shape[1]
            e = np.zeros((2, rows, k))
            j = n_users - 2
            if j > montecarlo._ERLANG_MAX:
                e[1] = 2.0 * rng.standard_gamma(j, (rows, k), dtype=np.float32)
            else:
                for _ in range(j):
                    e[1] -= 2.0 * np.log(uniforms((rows, k)))
            cos = np.cos(2.0 * math.pi * (uniforms((2, rows, k)) - 0.5))
            r2 = -2.0 * np.log(uniforms((2, rows, k)))
            m2_at = m2[:, start:start + rows]
            cross = 2.0 * np.sqrt(s2 * m2_at * r2)
            want = s2 * (r2 + e) + cross * cos + m2_at
            # float32 rounding, relative to each term; the 1 covers the log
            # of an Erlang product near 1, whose error is absolute
            scale = s2 * (r2 + e + 1.0) + cross + m2_at
            # the largest gap measured is 1.5 eps; a shared word is off by O(1)
            assert np.all(np.abs(chunk - want) <= 8 * np.finfo(np.float32).eps * scale)
            start += rows
        assert start == size
