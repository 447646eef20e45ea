"""Correlated channel generator: distributions, identities, determinism."""

import math

import numpy as np
import pytest
from scipy import stats

from fama_idet.analytic import KernelContext
from fama_idet.channel import (
    ChannelRealization,
    SystemConfig,
    ehp_at_port,
    generate_rayleigh,
    generate_rician,
    port_statistics,
    sinr_at_port,
)


def cfg_small(**kw):
    base = dict(n_users=3, n_ports=8, fa_size=1.0)
    base.update(kw)
    return SystemConfig(**base)


class TestSystemConfig:
    def test_defaults_match_reference_scenario(self):
        cfg = SystemConfig()
        assert cfg.n_users == 5
        assert cfg.n_ports == 200
        assert cfg.fa_size == 5.0
        assert cfg.ps_ratio == 0.5
        assert cfg.tx_power == 1.0
        assert cfg.distance == 10.0
        assert cfg.pathloss_exp == 2.0
        assert cfg.sinr_threshold == pytest.approx(10 ** 0.3)
        assert cfg.ehp_threshold == 0.010
        assert cfg.mu == pytest.approx(0.251924182354, rel=1e-9)

    def test_mu_override(self):
        cfg = cfg_small(mu=0.4)
        assert cfg.mu == 0.4

    @pytest.mark.parametrize("kw", [
        {"n_users": 1}, {"n_ports": 0}, {"fa_size": 0.0}, {"ps_ratio": 1.5},
        {"tx_power": -1.0}, {"rician_k": -0.1}, {"mu": 1.5},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            cfg_small(**kw)

    @pytest.mark.parametrize("name", [
        "fa_size", "ps_ratio", "tx_power", "distance", "pathloss_exp", "sinr_threshold",
        "ehp_threshold", "rician_k", "bandwidth", "fixed_power", "mu",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cfg_small(**{name: value})

    def test_q_hat_value(self):
        cfg = cfg_small(mu=0.5, ps_ratio=0.5, tx_power=2.0, distance=10.0,
                        pathloss_exp=2.0, ehp_threshold=0.010)
        want = (100.0 * 0.010) / ((1 - 0.25) * 0.5 * 2.0)
        assert cfg.q_hat == pytest.approx(want, rel=1e-14)
        q_tilde = KernelContext.from_config(cfg).q_tilde
        assert q_tilde == pytest.approx(want * (1 - 0.25), rel=1e-14)

    def test_q_hat_degenerate_ps(self):
        cfg = cfg_small(ps_ratio=1.0)
        assert math.isinf(cfg.q_hat)
        assert math.isinf(KernelContext.from_config(cfg).q_tilde)
        silent = cfg_small(ps_ratio=1.0, ehp_threshold=0.0)
        assert silent.q_hat == 0.0
        assert KernelContext.from_config(silent).q_tilde == 0.0


class TestRayleigh:
    def test_shape_and_determinism(self):
        cfg = cfg_small()
        r1 = generate_rayleigh(cfg, 0, np.random.Generator(np.random.Philox(key=[1, 2])))
        r2 = generate_rayleigh(cfg, 0, np.random.Generator(np.random.Philox(key=[1, 2])))
        assert r1.gains.shape == (cfg.n_ports, cfg.n_users)
        np.testing.assert_array_equal(r1.gains, r2.gains)

    def test_component_variance_and_port_marginal(self):
        # marginal per-component variance is 1 regardless of mu, so |g|^2
        # at any single port is chi-square with 2 dof
        cfg = cfg_small(fa_size=0.5, n_ports=4)
        rng = np.random.Generator(np.random.Philox(key=[7, 0]))
        samples = np.array([
            generate_rayleigh(cfg, 0, rng).gains[0, 0] for _ in range(4000)
        ])
        assert np.var(samples.real) == pytest.approx(1.0, abs=0.1)
        assert np.var(samples.imag) == pytest.approx(1.0, abs=0.1)
        p = np.abs(samples) ** 2
        assert stats.kstest(p, "chi2", args=(2,), alternative="two-sided").pvalue > 0.01

    def test_port_correlation_tracks_mu(self):
        cfg = cfg_small(mu=0.8, n_ports=2)
        rng = np.random.Generator(np.random.Philox(key=[3, 0]))
        a = np.empty(4000)
        b = np.empty(4000)
        for i in range(4000):
            g = generate_rayleigh(cfg, 0, rng).gains
            a[i], b[i] = g[0, 0].real, g[1, 0].real
        # cov(real parts across ports) = mu^2 by construction
        assert np.corrcoef(a, b)[0, 1] == pytest.approx(0.64, abs=0.06)


class TestRician:
    def test_kappa_zero_matches_rayleigh(self):
        cfg = cfg_small(rician_k=0.0)
        phases = np.zeros(cfg.n_users)
        g1 = generate_rician(cfg, 0, phases,
                             np.random.Generator(np.random.Philox(key=[5, 1])))
        g2 = generate_rayleigh(cfg, 0,
                               np.random.Generator(np.random.Philox(key=[5, 1])))
        np.testing.assert_allclose(g1.gains, g2.gains, rtol=0, atol=0)
        assert g1.amp_scale == pytest.approx(1.0)

    def test_mean_power_independent_of_kappa(self):
        # amp_scale^2 E|g|^2 = 2 per antenna for every kappa
        for kappa in (0.0, 1.0, 5.0):
            cfg = cfg_small(rician_k=kappa, n_ports=16)
            rng = np.random.Generator(np.random.Philox(key=[9, int(kappa)]))
            phases = rng.uniform(0.0, 2.0 * math.pi, size=cfg.n_users)
            total = 0.0
            trials = 1500
            for _ in range(trials):
                r = generate_rician(cfg, 0, phases, rng)
                total += float((np.abs(r.gains) ** 2).mean()) * r.amp_scale ** 2
            assert total / trials == pytest.approx(2.0, rel=0.08)

    def test_large_kappa_concentrates(self):
        cfg = cfg_small(rician_k=1e6, n_ports=4)
        rng = np.random.Generator(np.random.Philox(key=[11, 0]))
        phases = rng.uniform(0.0, 2.0 * math.pi, size=cfg.n_users)
        r = generate_rician(cfg, 0, phases, rng)
        p = np.abs(r.gains) ** 2 * r.amp_scale ** 2
        np.testing.assert_allclose(p, 2.0, rtol=0.02)

    def test_phase_validation(self):
        cfg = cfg_small(rician_k=2.0)
        with pytest.raises(ValueError):
            generate_rician(cfg, 0, np.zeros(cfg.n_users + 1),
                            np.random.default_rng(0))


class TestPortStatistics:
    def test_threshold_identity(self):
        # {EHP >= Q_th} iff {X + Y >= q_hat}, exactly up to rounding
        cfg = cfg_small(ehp_threshold=0.012)
        rng = np.random.Generator(np.random.Philox(key=[13, 0]))
        for _ in range(50):
            r = generate_rayleigh(cfg, 0, rng)
            s = port_statistics(r, cfg)
            for k in range(cfg.n_ports):
                lhs = ehp_at_port(r, k, cfg) >= cfg.ehp_threshold
                rhs = s.x[k] + s.y[k] >= cfg.q_hat
                assert lhs == rhs

    def test_sinr_identity(self):
        cfg = cfg_small()
        rng = np.random.Generator(np.random.Philox(key=[17, 0]))
        r = generate_rayleigh(cfg, 1, rng)
        s = port_statistics(r, cfg)
        for k in range(cfg.n_ports):
            assert sinr_at_port(r, k) == pytest.approx(s.x[k] / s.y[k], rel=1e-12)

    def test_degenerate_mu_one(self):
        cfg = cfg_small(mu=1.0)
        rng = np.random.default_rng(3)
        r = generate_rayleigh(cfg, 0, rng)
        s = port_statistics(r, cfg)
        assert s.degenerate
        # all ports identical when fully correlated
        np.testing.assert_allclose(s.x, s.x[0])

    def test_nonfinite_gains_rejected(self):
        with pytest.raises(ValueError):
            ChannelRealization(np.array([[np.inf + 0j]]), 0, 0.5)


class TestEhp:
    def test_scaling(self):
        cfg = cfg_small(ps_ratio=0.25, tx_power=2.0, distance=5.0, pathloss_exp=3.0)
        gains = np.ones((2, cfg.n_users), dtype=complex)
        r = ChannelRealization(gains, 0, cfg.mu)
        want = 0.75 * 2.0 * cfg.n_users / 125.0
        assert ehp_at_port(r, 0, cfg) == pytest.approx(want, rel=1e-12)

    def test_amp_scale_enters_quadratically(self):
        cfg = cfg_small()
        gains = np.ones((1, cfg.n_users), dtype=complex)
        base = ehp_at_port(ChannelRealization(gains, 0, cfg.mu), 0, cfg)
        half = ehp_at_port(ChannelRealization(gains, 0, cfg.mu, amp_scale=0.5), 0, cfg)
        assert half == pytest.approx(base / 4.0, rel=1e-12)
