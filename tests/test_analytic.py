"""Quadrature of the exact outage expressions, closed forms, Rician cases.

Monte-Carlo on the same scenario acts as the independent oracle for the
exact integrals; the full per-metric grid runs in the acceptance suite.
"""

import math

import pytest
from scipy import integrate, stats

from fama_idet.analytic import (
    DEFAULT_QUAD,
    KernelContext,
    QuadratureConvergenceError,
    QuadratureSpec,
    idet_general,
    idet_special_approx,
    idet_special_exact,
    rician_wdt_sinr_exact,
    rician_wet_ehp_exact,
    wdt_ehp_approx,
    wdt_ehp_exact,
    wdt_sinr_approx,
    wdt_sinr_exact,
    wet_ehp_approx,
    wet_ehp_exact,
    wet_sinr_approx,
    wet_sinr_exact,
)
from fama_idet.channel import SystemConfig
from fama_idet.montecarlo import Metric, simulate_outage_counts, wilson_interval
from fama_idet.specfun import gamma_lower_reg


def ctx_from(**kw):
    return KernelContext.from_config(SystemConfig(**kw))


SMALL = dict(n_users=2, n_ports=2, fa_size=1.0, ehp_threshold=0.010)


@pytest.fixture(scope="module")
def small_ctx():
    return ctx_from(**SMALL)


@pytest.fixture(scope="module")
def small_mc():
    trials = 150_000
    counts = simulate_outage_counts(SystemConfig(**SMALL), trials, seed=101)["counts"]
    return {m: (c / trials, 1.96 * math.sqrt((c / trials) * (1 - c / trials) / trials))
            for m, c in counts.items()}


EXACTS = {
    Metric.WDT_SINR: wdt_sinr_exact,
    Metric.WET_SINR: wet_sinr_exact,
    Metric.WDT_EHP: wdt_ehp_exact,
    Metric.WET_EHP: wet_ehp_exact,
    Metric.IDET_SPECIAL: idet_special_exact,
}


class TestExactVsMonteCarlo:
    @pytest.mark.parametrize("metric", list(EXACTS))
    def test_small_config(self, metric, small_ctx, small_mc):
        value = EXACTS[metric](small_ctx)
        mc, ci = small_mc[metric]
        assert abs(value - mc) <= 3.0 * ci

    def test_idet_general_matches(self, small_ctx, small_mc):
        value = idet_general(
            wdt_sinr_exact(small_ctx),
            wet_ehp_exact(small_ctx),
            idet_special_exact(small_ctx),
        )
        mc, ci = small_mc[Metric.IDET_GENERAL]
        assert abs(value - mc) <= 3.0 * ci

    @pytest.mark.parametrize("fa_size", [0.3, 5.0])
    @pytest.mark.parametrize("n_ports", [1, 16, 64])
    @pytest.mark.parametrize("n_users", [3, 5])
    def test_wdt_ehp_identity_at_every_w_and_k(self, n_users, n_ports, fa_size):
        # the closed form is exact for Rayleigh, not a large-W limit: W = 0.3
        # gives mu = 0.93, where the ports share most of their gain; the
        # threshold puts every cell's outage at 1/2, far from both ends
        cfg = SystemConfig(n_users=n_users, n_ports=n_ports, fa_size=fa_size,
                           sinr_threshold=2.0 ** (1.0 / (n_users - 1)) - 1.0)
        trials = 20_000
        count = simulate_outage_counts(cfg, trials, seed=43)["counts"][Metric.WDT_EHP]
        lo, hi = wilson_interval(count, trials, 3.0 * 1.96)
        assert lo <= wdt_ehp_exact(KernelContext.from_config(cfg)) <= hi


class TestEdgeCases:
    def test_wet_thresholds_degenerate(self):
        ctx = ctx_from(**{**SMALL, "ehp_threshold": 0.0})
        assert wet_ehp_exact(ctx) == 0.0
        assert wet_sinr_exact(ctx) == 0.0
        assert idet_special_exact(ctx) == 0.0
        ctx_inf = ctx_from(**{**SMALL, "ps_ratio": 1.0})
        assert wet_ehp_exact(ctx_inf) == 1.0
        assert wet_sinr_exact(ctx_inf) == 1.0

    def test_single_port_consistency(self):
        # with K = 1 both strategies pick the same port, so the WET outage
        # under SIR selection equals the plain WET outage
        ctx = ctx_from(**{**SMALL, "n_ports": 1})
        assert wet_sinr_exact(ctx) == pytest.approx(wet_ehp_exact(ctx), rel=1e-8)

    def test_mu_bounds_rejected(self):
        ctx = KernelContext(mu=1.0, gamma_th=2.0, q_hat=1.0, n_users=2, n_ports=2)
        for fn in (wdt_sinr_exact, wet_ehp_exact, wet_sinr_exact,
                   wdt_ehp_exact, idet_special_exact):
            with pytest.raises(ValueError):
                fn(ctx)

    def test_wdt_ehp_refuses_rician(self):
        # LoS breaks the isotropy the closed-form identity rests on
        with pytest.raises(ValueError, match="rician_wdt_ehp_exact"):
            wdt_ehp_exact(ctx_from(**SMALL, rician_k=2.0))

    def test_node_cap_enforced(self):
        quad = QuadratureSpec(nodes_semiinfinite=150, richardson_check=False)
        with pytest.raises(ValueError):
            wet_ehp_exact(ctx_from(**SMALL), quad)

    def test_richardson_gate_raises_when_unreachable(self):
        quad = QuadratureSpec(nodes_semiinfinite=8, nodes_finite=8,
                              rel_tol_target=1e-14)
        with pytest.raises(QuadratureConvergenceError):
            wet_sinr_exact(ctx_from(**SMALL), quad)


class TestClosedForms:
    def test_wdt_pair_structure(self):
        # inside the first-order regime (K*s <= 0.2), so neither value clamps
        ctx = ctx_from(n_users=3, n_ports=16, fa_size=2.0, sinr_threshold=10.0)
        pair = wdt_sinr_approx(ctx)
        assert 0.0 < pair.theorem < 1.0
        assert 0.0 < pair.corollary < 1.0
        g, mu2, n = ctx.gamma_th, ctx.mu ** 2, ctx.n_users
        first_order = ctx.n_ports * ((mu2 / (g + 1.0)) ** (n - 1)
                                     + ((1.0 - mu2) / (g + 1.0)) ** (n - 1))
        assert first_order <= 0.2
        assert 1.0 - pair.corollary == pytest.approx(first_order, rel=1e-12)

    def test_wdt_approx_tracks_exact_at_high_threshold(self):
        # validity regime: threshold high enough that the per-port success
        # probability is small
        ctx = ctx_from(n_users=2, n_ports=4, fa_size=0.3, sinr_threshold=10 ** 1.5)
        exact = wdt_sinr_exact(ctx)
        assert wdt_sinr_approx(ctx).theorem == pytest.approx(exact, rel=0.10)

    def test_wet_sinr_approx_is_gamma_cdf(self):
        ctx = ctx_from(**SMALL)
        want = gamma_lower_reg(ctx.n_users, ctx.q_tilde / 2.0)
        assert wet_sinr_approx(ctx) == pytest.approx(want, rel=1e-12)

    def test_small_mu_limits(self):
        # at mu = 0.05 selection decouples; closed form within 2 percent
        # (wdt_ehp_approx is exact at every mu: see
        # TestExactVsMonteCarlo::test_wdt_ehp_identity_at_every_w_and_k)
        cfg = dict(n_users=3, n_ports=4, mu=0.05, fa_size=1.0,
                   ehp_threshold=0.012, sinr_threshold=2.0)
        ctx = ctx_from(**cfg)
        wet = wet_sinr_exact(ctx)
        assert wet_sinr_approx(ctx) == pytest.approx(wet, rel=0.02)

    def test_wdt_ehp_approx_formula(self):
        ctx = ctx_from(**SMALL, sinr_threshold=3.0)
        assert wdt_ehp_approx(ctx) == pytest.approx(
            1.0 - (ctx.gamma_th + 1.0) ** (1 - ctx.n_users), rel=1e-12
        )


class TestIdetComposition:
    def test_addition_law(self, small_ctx):
        wdt = wdt_sinr_exact(small_ctx)
        wet = wet_ehp_exact(small_ctx)
        special = idet_special_exact(small_ctx)
        general = idet_general(wdt, wet, special)
        assert general == pytest.approx(wdt + wet - special, abs=1e-12)
        assert special <= min(wdt, wet) + 1e-9
        assert general >= max(wdt, wet) - 1e-9

    def test_frechet_violation_raises(self):
        with pytest.raises(ValueError):
            idet_general(0.1, 0.1, 0.5)
        with pytest.raises(ValueError):
            idet_general(0.1, 0.1, -0.01)

    def test_special_approx_regimes(self):
        wdt_dom = idet_special_approx(
            ctx_from(n_users=6, n_ports=2, fa_size=1.0, sinr_threshold=100.0,
                     ehp_threshold=1e-4)
        )
        assert wdt_dom.regime == "WDT_DOMINANT"
        wet_dom = idet_special_approx(
            ctx_from(n_users=2, n_ports=2, fa_size=1.0, sinr_threshold=0.01,
                     ehp_threshold=0.2)
        )
        assert wet_dom.regime == "WET_DOMINANT"
        for approx in (wdt_dom, wet_dom):
            assert approx.value == pytest.approx(approx.wdt * approx.wet, rel=1e-12)

    @pytest.mark.parametrize("n_users", [3, 5])
    def test_special_single_port_matches_quadrature(self, n_users):
        # at K = 1 the event is X < gamma Y and X + Y < t for independent
        # X ~ chi2(2), Y ~ chi2(2(N-1)) in port-power units; N = 2 cannot
        # tell the two conditioners apart, since both are chi2(2) there
        cfg = SystemConfig(n_users=n_users, n_ports=1, fa_size=2.0,
                           sinr_threshold=10 ** 0.3, ehp_threshold=0.030)
        gamma, t = cfg.sinr_threshold, cfg.q_tilde
        f_y = stats.chi2(2 * (n_users - 1)).pdf

        def integrand(y):
            return f_y(y) * -math.expm1(-0.5 * min(gamma * y, t - y))

        kink = t / (1.0 + gamma)
        want = sum(integrate.quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12)[0]
                   for a, b in ((0.0, kink), (kink, t)))
        assert idet_special_exact(KernelContext.from_config(cfg)) == pytest.approx(
            want, abs=1e-6)

    def test_special_approx_near_exact_when_one_side_dominates(self):
        ctx = ctx_from(n_users=6, n_ports=2, fa_size=1.0, sinr_threshold=100.0,
                       ehp_threshold=1e-4)
        approx = idet_special_approx(ctx)
        exact = idet_special_exact(ctx)
        assert approx.value == pytest.approx(exact, abs=1e-4)


class TestRician:
    def test_kappa_zero_reduces_to_rayleigh(self):
        ctx = ctx_from(n_users=5, n_ports=50, fa_size=1.0, ehp_threshold=0.055)
        assert abs(rician_wdt_sinr_exact(ctx) - wdt_sinr_exact(ctx)) < 1e-4
        assert abs(rician_wet_ehp_exact(ctx) - wet_ehp_exact(ctx)) < 1e-4

    def test_los_degrades_both_metrics(self):
        base = dict(n_users=5, n_ports=200, fa_size=1.0, ehp_threshold=0.090)
        k0 = ctx_from(**base, rician_k=0.0)
        k5 = ctx_from(**base, rician_k=5.0)
        assert rician_wdt_sinr_exact(k5) > rician_wdt_sinr_exact(k0)
        assert rician_wet_ehp_exact(k5) > rician_wet_ehp_exact(k0)

    def test_rician_matches_monte_carlo(self):
        cfg = SystemConfig(n_users=3, n_ports=8, fa_size=1.0, rician_k=2.0,
                           ehp_threshold=0.055, sinr_threshold=2.0)
        trials = 150_000
        counts = simulate_outage_counts(cfg, trials, seed=77)["counts"]
        ctx = KernelContext.from_config(cfg)
        for metric, fn in ((Metric.WDT_SINR, rician_wdt_sinr_exact),
                           (Metric.WET_EHP, rician_wet_ehp_exact)):
            mc = counts[metric] / trials
            ci = 1.96 * math.sqrt(mc * (1 - mc) / trials)
            assert abs(fn(ctx) - mc) <= 3.0 * ci


class TestContext:
    def test_from_config_fields(self):
        cfg = SystemConfig(**SMALL)
        ctx = KernelContext.from_config(cfg)
        assert ctx.mu == cfg.mu
        assert ctx.q_hat == cfg.q_hat
        assert ctx.q_tilde == pytest.approx(cfg.q_tilde, rel=1e-12)
        assert ctx.corr_ratio == pytest.approx(
            cfg.mu ** 2 / (1 - cfg.mu ** 2), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelContext(mu=0.5, gamma_th=0.0, q_hat=1.0, n_users=2, n_ports=2)
        with pytest.raises(ValueError):
            KernelContext(mu=0.5, gamma_th=1.0, q_hat=-1.0, n_users=2, n_ports=2)
