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
    Strategy,
    estimate_energy_efficiency,
    independence_diagnostic,
    los_phases,
    multiplexing_gains,
    simulate_outage_counts,
    substream,
    wilson_interval,
)

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

    def test_los_phases_fixed_per_seed(self):
        cfg = cfg_small(rician_k=2.0)
        p1 = los_phases(cfg, seed=9)
        p2 = los_phases(cfg, seed=9)
        np.testing.assert_array_equal(p1, p2)
        assert p1.shape == (cfg.n_users,)
        assert np.all((p1 >= 0.0) & (p1 < 2 * math.pi))

    def test_min_trials_enforced(self):
        with pytest.raises(ValueError):
            simulate_outage_counts(cfg_small(), 999, seed=0)

    def test_non_integer_trials_rejected(self):
        # checked next to MIN_TRIALS in _blocks, ahead of any draw, for
        # every entry point that samples
        for run in (lambda t: simulate_outage_counts(cfg_small(), t, seed=0),
                    lambda t: simulate_outage_counts(cfg_small(), t, seed=0, k_values=[1]),
                    lambda t: estimate_energy_efficiency(cfg_small(), Strategy.WDT, t, seed=0),
                    lambda t: independence_diagnostic(cfg_small(), t, seed=0)):
            with pytest.raises(ValueError, match="trials must be an integer, got 2000.0"):
                run(2000.0)
        assert (simulate_outage_counts(cfg_small(), np.int64(2000), seed=0)["counts"]
                == simulate_outage_counts(cfg_small(), 2000, seed=0)["counts"])

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about half of the package's import time; only
        # independence_diagnostic needs it, and it imports it when called.
        # mpmath is blocked: building a cell (mu_from_w at W = 5) needs none
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
        assert [full[m] for m in Metric] == [3343, 17649, 17771, 2867, 450, 5760]

        res = simulate_outage_counts(cfg, self.TRIALS, seed=17, cell=2, k_values=[1, 4, 16])
        assert res["counts"] == full
        assert {m.name: res["nested"][m].tolist() for m in res["nested"]} == {
            "WDT_SINR": [17761, 12592, 3343], "WET_EHP": [17519, 11861, 2867],
            "IDET_SPECIAL": [15521, 7462, 450], "IDET_GENERAL": [19759, 16991, 5760],
            "WET_SINR": [17519, 17584, 17649], "WDT_EHP": [17761, 17855, 17771]}
        # the view at k = n_ports is the plain run, all six metrics
        assert {m: int(res["nested"][m][-1]) for m in Metric} == full

        cfg_n = SystemConfig(**{**self.CFG, "n_users": 5, "n_ports": 4})
        res = simulate_outage_counts(cfg_n, self.TRIALS, seed=17, cell=3, n_values=[2, 3, 5])
        assert {m.name: res["nested"][m].tolist() for m in res["nested"]} == {
            "WDT_SINR": [4080, 12500, 19007], "WET_EHP": [16990, 11893, 2198],
            "IDET_SPECIAL": [3430, 7393, 2103], "IDET_GENERAL": [17640, 17000, 19102],
            "WET_SINR": [19231, 17601, 11238], "WDT_EHP": [13418, 17789, 19773]}

        cfg_r = SystemConfig(**self.CFG, rician_k=2.0)
        rician = simulate_outage_counts(cfg_r, self.TRIALS, seed=17, cell=4)["counts"]
        assert [rician[m] for m in Metric] == [6275, 18334, 18459, 5526, 1515, 10286]

    def test_energy_efficiency(self, cpus):
        cfg = SystemConfig(**self.CFG)
        for strategy, want in (
            (Strategy.WDT, (7269631.767418998, 0.08810214947333657, 3.4118978505266635,
                            2130670.9889620086, 2131400.8888097024)),
            (Strategy.WET, (2154917.846947394, 0.2010584507487871, 3.298941549251213,
                            653214.9220517449, 653325.0110123741)),
        ):
            rep = estimate_energy_efficiency(cfg, strategy, self.TRIALS, seed=17, cell=5)
            assert (rep.sum_rate, rep.harvested, rep.total_power, rep.ee,
                    rep.ee_mean_of_ratios) == want


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

    def test_strategy_dominance(self):
        # the strategy-matched metric can only do better than the crossed one
        cfg = cfg_small(n_users=3, n_ports=6, ehp_threshold=0.020)
        c = simulate_outage_counts(cfg, TRIALS, seed=7)["counts"]
        # EHP at the SIR-optimal port fails at least as often as at the
        # EHP-optimal port, and symmetrically for the SIR test
        assert c[Metric.WET_SINR] >= c[Metric.WET_EHP]
        assert c[Metric.WDT_EHP] >= c[Metric.WDT_SINR]


class TestBlockMemory:
    @pytest.mark.parametrize("nested", [{}, {"n_values": list(range(2, 9))}],
                             ids=["plain", "nested_n"])
    def test_block_peak_does_not_grow_with_k(self, nested, monkeypatch):
        # at K = 200 a whole (BLOCK, K, groups) array would take 26 MB plain
        # and 105 MB for eight antenna groups; in chunks a block peaks near
        # 2.4 and 3.4 MB
        monkeypatch.setattr(channel, "_cpus", lambda: 1)
        cfg = SystemConfig(n_users=5, n_ports=200, fa_size=5.0, ehp_threshold=0.11)
        tracemalloc.start()
        try:
            simulate_outage_counts(cfg, montecarlo.BLOCK, seed=1, **nested)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestNestedSweeps:
    def test_nested_k_monotone(self):
        cfg = cfg_small(n_users=3, n_ports=16)
        res = simulate_outage_counts(cfg, TRIALS, seed=8, k_values=[1, 2, 4, 8, 16])
        for metric in (Metric.WDT_SINR, Metric.WET_EHP, Metric.IDET_SPECIAL,
                       Metric.IDET_GENERAL):
            counts = res["nested"][metric]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_nested_n_directions(self):
        cfg = cfg_small(n_users=6, n_ports=8)
        res = simulate_outage_counts(cfg, TRIALS, seed=9, n_values=[2, 3, 4, 5, 6])
        wdt = res["nested"][Metric.WDT_SINR]
        wet = res["nested"][Metric.WET_EHP]
        assert all(a <= b for a, b in zip(wdt, wdt[1:]))   # more interference
        assert all(a >= b for a, b in zip(wet, wet[1:]))   # more harvested power

    def test_nested_n_beyond_n_users_rician(self):
        # the LoS phases cover every antenna the nested sweep sums; the
        # first n_users of them are the phases a plain run draws
        cfg = SystemConfig(n_users=3, n_ports=4, rician_k=2.0)
        np.testing.assert_array_equal(los_phases(cfg, seed=1, n_antennas=4)[:3],
                                      los_phases(cfg, seed=1))
        res = simulate_outage_counts(cfg, 2000, seed=1, n_values=[2, 3, 4])
        wdt = res["nested"][Metric.WDT_SINR]
        assert all(a <= b for a, b in zip(wdt, wdt[1:]))
        # the plain Rician counts, whose phases the wider draw leaves alone
        plain = simulate_outage_counts(cfg, 2000, seed=1)["counts"]
        assert [plain[m] for m in Metric] == [1391, 100, 1841, 0, 0, 1391]

    def test_nested_n_has_no_full_counts(self):
        # a nested-N run draws each antenna on its own stream layout, so it
        # has no counts of the config's own six metrics to report
        cfg = SystemConfig(n_users=5, n_ports=4, fa_size=2, ehp_threshold=0.05)
        res = simulate_outage_counts(cfg, 2000, seed=1, n_values=[2, 3, 5])
        assert "counts" not in res
        assert res["nested_values"] == [2, 3, 5]
        assert res["nested"][Metric.WDT_SINR].tolist() == [415, 1244, 1912]

    def test_nesting_both_axes_rejected(self):
        with pytest.raises(ValueError):
            simulate_outage_counts(cfg_small(), TRIALS, seed=0,
                                   k_values=[1], n_values=[2])

    @pytest.mark.parametrize("nested", [
        {"k_values": [-1]},      # would count the first 7 of 8 ports
        {"k_values": [20]},      # would count all 8
        {"k_values": [0]},
        {"k_values": [2.0]},
        {"n_values": [0]},       # would divide by zero
        {"n_values": [1]},
        {"n_values": [2, 3.5]},
    ], ids=str)
    def test_nested_values_checked(self, nested):
        cfg = cfg_small(n_users=3, n_ports=8)
        name = next(iter(nested))
        with pytest.raises(ValueError, match=f"{name} must be integers in"):
            simulate_outage_counts(cfg, 1000, seed=0, **nested)


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
        assert gains.m_wdt == pytest.approx(4 * (1 - outages[Metric.WDT_SINR]))
        assert gains.m_wet == pytest.approx(4 * (1 - outages[Metric.WET_EHP]))
        assert 0.0 <= gains.m_idet_general <= 4.0


class TestEnergyEfficiency:
    def test_report_consistency(self):
        cfg = SystemConfig(n_users=3, n_ports=8, fa_size=1.0, distance=5.0)
        rep = estimate_energy_efficiency(cfg, Strategy.WDT, TRIALS, seed=12)
        assert rep.valid
        assert rep.total_power == pytest.approx(
            cfg.n_users * cfg.tx_power + cfg.fixed_power - rep.harvested, rel=1e-12
        )
        assert rep.ee == pytest.approx(rep.sum_rate / rep.total_power, rel=1e-12)
        assert rep.ee > 0.0
        assert rep.ee_mean_of_ratios > 0.0

    def test_wdt_strategy_has_higher_rate(self):
        cfg = SystemConfig(n_users=3, n_ports=8, fa_size=1.0, distance=5.0)
        wdt = estimate_energy_efficiency(cfg, Strategy.WDT, TRIALS, seed=12)
        wet = estimate_energy_efficiency(cfg, Strategy.WET, TRIALS, seed=12)
        assert wdt.sum_rate >= wet.sum_rate
        assert wet.harvested >= wdt.harvested


class TestIndependenceDiagnostic:
    def test_independent_at_mu_zero(self):
        cfg = cfg_small(n_users=5, mu=0.0)
        rep = independence_diagnostic(cfg, 100_000, seed=21)
        assert rep.threshold == pytest.approx(3.0 / math.sqrt(100_000))
        assert rep.passed
        assert abs(rep.rank_correlation) < rep.threshold

    def test_report_fields(self):
        cfg = cfg_small(n_users=5, mu=0.95)
        rep = independence_diagnostic(cfg, 1000, seed=21)
        assert rep.trials == 1000
        assert rep.passed == (abs(rep.rank_correlation) < rep.threshold)


class TestSamplerOracle:
    """The group sampler against the explicit Gaussian composition.

    The explicit route draws every port gain from its own normals
    (``generate_rayleigh``/``generate_rician`` + ``port_statistics``); the
    group sampler draws each antenna group's power directly.  Two-sample KS
    tests compare port 0's X, Y and X/Y, and the best port's X/Y, which
    depends on the components the ports share.
    """

    SAMPLES = 20_000

    @pytest.mark.parametrize("n_users, rician_k, per_antenna", [
        (2, 0.0, False), (3, 0.0, False), (5, 0.0, False),
        (3, 2.0, False), (5, 0.0, True),
    ])
    def test_port_powers_match_explicit_composition(self, n_users, rician_k, per_antenna):
        cfg = SystemConfig(n_users=n_users, n_ports=3, mu=0.8, rician_k=rician_k)
        groups = (1,) * n_users if per_antenna else (1, n_users - 1)
        # each chunk is (groups, rows, K) in a buffer the next chunk reuses
        p = np.concatenate(_blocks(cfg, self.SAMPLES, 31, 0, groups, lambda p: p.copy()),
                           axis=1)
        x_fast, y_fast = p[0], p[1:].sum(axis=0)

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
