"""Monte-Carlo engine: determinism, count identities, orderings."""

import math

import numpy as np
import pytest
from scipy import stats

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
    estimate_idet,
    estimate_outage,
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

    def test_strategy_dominance(self):
        # the strategy-matched metric can only do better than the crossed one
        cfg = cfg_small(n_users=3, n_ports=6, ehp_threshold=0.020)
        c = simulate_outage_counts(cfg, TRIALS, seed=7)["counts"]
        # EHP at the SIR-optimal port fails at least as often as at the
        # EHP-optimal port, and symmetrically for the SIR test
        assert c[Metric.WET_SINR] >= c[Metric.WET_EHP]
        assert c[Metric.WDT_EHP] >= c[Metric.WDT_SINR]


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
        # the plain Rician counts as drawn before the phase draw was widened
        plain = simulate_outage_counts(cfg, 2000, seed=1)["counts"]
        assert [plain[m] for m in Metric] == [1395, 103, 1838, 0, 0, 1395]

    def test_nesting_both_axes_rejected(self):
        with pytest.raises(ValueError):
            simulate_outage_counts(cfg_small(), TRIALS, seed=0,
                                   k_values=[1], n_values=[2])


class TestEstimates:
    def test_outage_estimate_fields(self):
        cfg = cfg_small()
        est = estimate_outage(cfg, Strategy.WDT, Strategy.WDT, TRIALS, seed=4)
        assert est.metric is Metric.WDT_SINR
        assert est.trials == TRIALS
        assert 0.0 <= est.value <= 1.0
        # Wilson score half-width
        p, z2 = est.value, 1.96 ** 2
        want_ci = 1.96 / (1 + z2 / TRIALS) * math.sqrt(
            p * (1 - p) / TRIALS + z2 / (4 * TRIALS ** 2))
        assert est.ci_half_width == pytest.approx(want_ci, rel=1e-12)

    def test_wilson_interval_keeps_width_at_extreme_counts(self):
        lo, hi = wilson_interval(0, 100_000)
        assert lo == 0.0 < hi
        lo, hi = wilson_interval(100_000, 100_000)
        assert lo < hi == 1.0

    def test_idet_kinds(self):
        cfg = cfg_small()
        special = estimate_idet(cfg, TRIALS, seed=4, kind="SPECIAL")
        general = estimate_idet(cfg, TRIALS, seed=4, kind="GENERAL")
        assert special.metric is Metric.IDET_SPECIAL
        assert general.metric is Metric.IDET_GENERAL
        assert general.value >= special.value

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
        p = np.concatenate(list(_blocks(cfg, self.SAMPLES, 31, 0, groups)))
        x_fast, y_fast = p[:, :, 0], p[:, :, 1:].sum(axis=2)

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
