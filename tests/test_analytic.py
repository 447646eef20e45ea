"""Quadrature of the exact outage expressions, closed forms, Rician cases.

Monte-Carlo on the same scenario acts as the independent oracle for the
exact integrals; the full per-metric grid runs in the acceptance suite.
"""

import math
import tracemalloc

import pytest
from scipy import integrate, stats
from scipy import special as sp

from fama_idet import analytic, channel, sweep
from fama_idet.analytic import (
    DEFAULT_QUAD,
    KernelContext,
    QuadratureConvergenceError,
    QuadratureSpec,
    idet_general,
    idet_special_approx,
    idet_special_exact,
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
from fama_idet.specfun import SeriesConvergenceError, bessel_i_ln, marcum_q_outer


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
    # the gate of `fama-idet compare`: the Wilson interval at z = 3 * 1.96
    return {m: wilson_interval(c, trials, 3.0 * 1.96) for m, c in counts.items()}


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
        lo, hi = small_mc[metric]
        assert lo <= EXACTS[metric](small_ctx) <= hi

    def test_idet_general_matches(self, small_ctx, small_mc):
        value = idet_general(
            wdt_sinr_exact(small_ctx),
            wet_ehp_exact(small_ctx),
            idet_special_exact(small_ctx),
        )
        lo, hi = small_mc[Metric.IDET_GENERAL]
        assert lo <= value <= hi

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
        # the mu guard runs before the q_hat = 0 and q_hat = inf shortcuts,
        # so every q_hat must still raise, naming the evaluator
        for mu in (0.0, 1.0):
            for q_hat in (1.0, 0.0, math.inf):
                ctx = KernelContext(mu=mu, gamma_th=2.0, q_hat=q_hat, n_users=2, n_ports=2)
                for fn in EXACTS.values():
                    with pytest.raises(ValueError, match=f"{fn.__name__} requires mu"):
                        fn(ctx)

    def test_unchecked_quadrature_near_default(self):
        # the benchmark's trace mode times each evaluator without the 1.5x
        # re-check; that branch must land within the re-check's own gate
        ctx = ctx_from(n_users=5, n_ports=200, fa_size=5.0, ehp_threshold=0.110)
        quick = QuadratureSpec(richardson_check=False)
        for fn in sweep._EXACT_RAYLEIGH.values():
            assert abs(fn(ctx, quick) - fn(ctx)) <= 10.0 * quick.rel_tol_target, fn.__name__

    @pytest.mark.parametrize("fn", [
        wet_sinr_exact, idet_special_exact, wdt_ehp_exact, wdt_sinr_approx,
        wet_sinr_approx, wdt_ehp_approx, wet_ehp_approx, idet_special_approx,
    ], ids=lambda fn: fn.__name__)
    def test_refuses_rician(self, fn):
        # no Rician expression: a Rayleigh value must not come back in its
        # place (LoS also breaks the isotropy wdt_ehp_exact rests on)
        with pytest.raises(ValueError, match=fn.__name__):
            fn(ctx_from(**SMALL, rician_k=2.0))

    def test_node_cap_enforced(self):
        with pytest.raises(ValueError, match="node counts"):
            QuadratureSpec(nodes_semiinfinite=150, richardson_check=False)
        QuadratureSpec(nodes_semiinfinite=100, nodes_finite=8)

    def test_richardson_check_needs_room_to_refine(self):
        # at the cap on both axes the refinement is capped at the same nodes,
        # so its gap would always read 0
        with pytest.raises(ValueError, match="Richardson check needs room"):
            QuadratureSpec(nodes_semiinfinite=100, nodes_finite=100)
        QuadratureSpec(nodes_semiinfinite=100, nodes_finite=100, richardson_check=False)
        QuadratureSpec(nodes_semiinfinite=100, nodes_finite=99)

    def test_small_aperture_hits_series_cap(self):
        # W = 0.05 needs a Marcum window of about 44k terms, past the cap:
        # refused up front instead of building a gamma grid of gigabytes
        with pytest.raises(SeriesConvergenceError, match="terms"):
            wet_sinr_exact(ctx_from(n_users=5, n_ports=200, fa_size=0.05))

    def test_richardson_gate_raises_when_unreachable(self):
        quad = QuadratureSpec(nodes_semiinfinite=8, nodes_finite=8,
                              rel_tol_target=1e-14)
        with pytest.raises(QuadratureConvergenceError):
            wet_sinr_exact(ctx_from(**SMALL), quad)

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_driver_rejects_non_finite(self, bad, check):
        # NaN fails both the Richardson and the range check, at either node
        # count: a NaN of the first pass must not pass as a gap of NaN; the
        # driver hands the failed K its error in place of a value
        quad = QuadratureSpec(richardson_check=check)
        first = lambda ctx, ns, nf, ks: [bad] * len(ks)
        coarse_only = lambda ctx, ns, nf, ks: [bad if ns == quad.nodes_semiinfinite else 0.5] * len(ks)
        for raw in (first, coarse_only) if check else (first,):
            err, = analytic._with_richardson(raw, ctx_from(**SMALL), quad, "probe", (2,))
            assert isinstance(err, QuadratureConvergenceError) and "probe" in str(err)


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
        want = sp.gammainc(ctx.n_users, ctx.q_tilde / 2.0)
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


def _kernel_coeffs_by_k_j(n, g):
    """The one-port WDT series' Bessel coefficients as the (k, j) double sum
    writes them, C(n-k-2, j) (g+1)^k g^((j-k)/2), summed per order j + k."""
    out = [0.0] * (n - 1)
    for k in range(n - 1):
        for j in range(n - 1 - k):
            out[j + k] += math.comb(n - k - 2, j) * (g + 1.0) ** k * g ** (0.5 * (j - k))
    return out


def _theorem_by_k_j(n, kp, g, mu2):
    """wdt_sinr_approx's theorem with its series as the (k, j) double sum."""
    c_sum = 0.0
    for k in range(n - 1):
        for j in range(n - 1 - k):
            c_sum += (g ** j * (g + 1.0) ** (k + 1) * math.comb(n - k - 2, j)
                      * mu2 ** (j + k) / ((1.0 - mu2) * g + 1.0) ** (j + k + 1))
    cval = (((2.0 * g * (1.0 - mu2) + 1.0) / (2.0 * g * g + (3.0 - mu2) * g + 1.0)) ** (n - 1)
            * (1.0 - mu2) * c_sum)
    return max(0.0, 1.0 - kp * (mu2 / (g + 1.0)) ** (n - 1) - kp * cval)


class TestOrderSeries:
    """The WDT one-port series, summed once per Bessel order."""

    GRID = [(n, g, mu) for n in (2, 3, 5, 8, 12) for g in (0.3, 1.0, 2.0, 10.0, 100.0)
            for mu in (0.1, 0.5, 0.9)]

    @pytest.mark.parametrize("n,g", sorted({(n, g) for n, g, _ in GRID}))
    def test_weights_match_double_sum(self, n, g):
        weights = analytic._order_weights(n, g)
        assert len(weights) == n - 1
        for m, (b_m, want) in enumerate(zip(weights, _kernel_coeffs_by_k_j(n, g))):
            assert g ** (0.5 * m) * b_m == pytest.approx(want, rel=1e-13, abs=0.0), m

    def test_theorem_matches_double_sum(self):
        for n, g, mu in self.GRID:
            for kp in (1, 3):
                ctx = KernelContext(mu=mu, gamma_th=g, q_hat=1.0, n_users=n, n_ports=kp)
                assert wdt_sinr_approx(ctx).theorem == pytest.approx(
                    _theorem_by_k_j(n, kp, g, mu * mu), rel=1e-13, abs=1e-15), (n, g, mu, kp)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_kernel_makes_one_bessel_grid_per_order(self, n, monkeypatch):
        calls = []

        def counted(order, x):
            calls.append(order)
            return bessel_i_ln(order, x)

        monkeypatch.setattr(analytic, "bessel_i_ln", counted)
        analytic._wdt_sinr_raw(ctx_from(n_users=n, n_ports=8, fa_size=2.0), 16, 16, (8,))
        assert calls == list(range(n - 1))


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
        # one cell led by the WDT outage and one by the WET outage (the other
        # factor clamps at 0 in each), and the reference cell at 7 dB and
        # 150 mW, where both factors lie inside (0, 1)
        wdt_dom = ctx_from(n_users=6, n_ports=2, fa_size=1.0, sinr_threshold=100.0,
                           ehp_threshold=1e-4)
        wet_dom = ctx_from(n_users=2, n_ports=2, fa_size=1.0, sinr_threshold=0.01,
                           ehp_threshold=0.2)
        assert wdt_sinr_approx(wdt_dom).theorem > wet_ehp_approx(wdt_dom)
        assert wet_ehp_approx(wet_dom) > wdt_sinr_approx(wet_dom).theorem
        for ctx in (wdt_dom, wet_dom,
                    ctx_from(sinr_threshold=10 ** 0.7, ehp_threshold=0.150)):
            assert idet_special_approx(ctx) == (
                wdt_sinr_approx(ctx).theorem * wet_ehp_approx(ctx))

    @pytest.mark.parametrize("n_users", [3, 5])
    def test_special_single_port_matches_quadrature(self, n_users):
        # at K = 1 the event is X < gamma Y and X + Y < t for independent
        # X ~ chi2(2), Y ~ chi2(2(N-1)) in port-power units; N = 2 cannot
        # tell the two conditioners apart, since both are chi2(2) there
        cfg = SystemConfig(n_users=n_users, n_ports=1, fa_size=2.0,
                           sinr_threshold=10 ** 0.3, ehp_threshold=0.030)
        gamma, t = cfg.sinr_threshold, KernelContext.from_config(cfg).q_tilde
        f_y = stats.chi2(2 * (n_users - 1)).pdf

        def integrand(y):
            return f_y(y) * -math.expm1(-0.5 * min(gamma * y, t - y))

        kink = t / (1.0 + gamma)
        want = sum(integrate.quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12)[0]
                   for a, b in ((0.0, kink), (kink, t)))
        assert idet_special_exact(KernelContext.from_config(cfg)) == pytest.approx(
            want, abs=1e-6)

    def test_special_approx_near_exact_when_one_side_dominates(self):
        # WDT_SINR is near 1 at gamma = 100, and the WET factor is inside its
        # first-order regime (K*s = 0.134), so the product tracks the exact joint
        ctx = ctx_from(n_users=6, n_ports=2, fa_size=1.0, sinr_threshold=100.0,
                       ehp_threshold=0.1)
        approx = idet_special_approx(ctx)
        exact = idet_special_exact(ctx)
        assert 0.0 < approx < 1.0 and 0.0 < exact < 1.0
        assert approx == pytest.approx(exact, rel=0.02)


class TestRician:
    def test_kappa_zero_reduces_to_rayleigh(self):
        # kappa = 1e-6 takes the noncentral conditioners, kappa = 0 the
        # central ones; the two must meet as kappa -> 0
        base = dict(n_users=5, n_ports=50, fa_size=1.0, ehp_threshold=0.055)
        k0 = ctx_from(**base, rician_k=0.0)
        tiny = ctx_from(**base, rician_k=1e-6)
        assert abs(wdt_sinr_exact(tiny) - wdt_sinr_exact(k0)) < 1e-4
        assert abs(wet_ehp_exact(tiny) - wet_ehp_exact(k0)) < 1e-4

    def test_los_degrades_both_metrics(self):
        base = dict(n_users=5, n_ports=200, fa_size=1.0, ehp_threshold=0.090)
        k0 = ctx_from(**base, rician_k=0.0)
        k5 = ctx_from(**base, rician_k=5.0)
        assert wdt_sinr_exact(k5) > wdt_sinr_exact(k0)
        assert wet_ehp_exact(k5) > wet_ehp_exact(k0)

    def test_rician_matches_monte_carlo(self):
        cfg = SystemConfig(n_users=3, n_ports=8, fa_size=1.0, rician_k=2.0,
                           ehp_threshold=0.055, sinr_threshold=2.0)
        trials = 150_000
        counts = simulate_outage_counts(cfg, trials, seed=77)["counts"]
        ctx = KernelContext.from_config(cfg)
        for metric, fn in ((Metric.WDT_SINR, wdt_sinr_exact),
                           (Metric.WET_EHP, wet_ehp_exact)):
            lo, hi = wilson_interval(counts[metric], trials, 3.0 * 1.96)
            assert lo <= fn(ctx) <= hi


class TestContext:
    def test_from_config_fields(self):
        cfg = SystemConfig(**SMALL)
        ctx = KernelContext.from_config(cfg)
        assert ctx.mu == cfg.mu
        assert ctx.q_hat == cfg.q_hat
        # q_hat's mu -> 0 limit, d^beta Q_th / ((1 - rho) P)
        assert ctx.q_tilde == pytest.approx(
            cfg.distance ** cfg.pathloss_exp * cfg.ehp_threshold
            / ((1 - cfg.ps_ratio) * cfg.tx_power), rel=1e-12)
        assert ctx.corr_ratio == pytest.approx(
            cfg.mu ** 2 / (1 - cfg.mu ** 2), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelContext(mu=0.5, gamma_th=0.0, q_hat=1.0, n_users=2, n_ports=2)
        with pytest.raises(ValueError):
            KernelContext(mu=0.5, gamma_th=1.0, q_hat=-1.0, n_users=2, n_ports=2)

    @pytest.mark.parametrize("field", ["mu", "gamma_th", "q_hat", "rician_k"])
    def test_nan_rejected(self, field):
        kw = dict(mu=0.5, gamma_th=1.0, q_hat=1.0, n_users=2, n_ports=2, rician_k=0.0)
        with pytest.raises(ValueError, match=field):
            KernelContext(**{**kw, field: math.nan})

    def test_infinite_q_hat_allowed(self):
        # ps_ratio = 1 sends every harvest to the decoder: q_hat = +inf
        ctx = ctx_from(**SMALL, ps_ratio=1.0)
        assert math.isinf(ctx.q_hat) and math.isinf(ctx.q_tilde)
        assert wet_sinr_approx(ctx) == wet_ehp_approx(ctx) == 1.0


class TestPinnedExact:
    """Pinned EXACT values at five cells, the EXACT twin of TestPinnedStream.

    A change of the quadrature or of a special function that moves a value
    by more than 1e-12 relative fails here, down to the 9e-29 WET_EHP and
    the 2.5e-16 IDET_SPECIAL that no Monte-Carlo oracle can resolve.
    """

    # (N, K, W, Q_th) -> WDT_SINR, WET_SINR, WET_EHP, IDET_SPECIAL
    PINNED = {
        (5, 200, 5.0, 0.110): (0.08988908271377039, 0.9854814618946255,
                               0.056168548456402595, 0.0048857773635323665),
        (3, 8, 2.0, 0.030): (0.39924993446036094, 0.5816818202096804,
                             0.015725599813330632, 0.006149846999287868),
        (3, 64, 2.0, 0.030): (0.002101797285288749, 0.5909440190151508,
                              4.562793373668492e-13, 2.493816414534503e-16),
        (3, 16, 2.0, 0.005): (0.16810123255092577, 0.014865982130781608,
                              9.328847379297701e-29, 1.4085013375789918e-29),
        # K = 1: wet_sinr_exact takes the WET_EHP kernel, so the two agree
        (3, 1, 2.0, 0.030): (0.8885371161823135, 0.576809918873158,
                             0.576809918873158, 0.5125170219009074),
    }
    # WDT_SINR alone at N = 8 and 12, where the one-port series has 7 and 11
    # Bessel orders: (N, K, W, gamma_th) -> WDT_SINR
    PINNED_WDT = {
        (8, 16, 2.0, 0.5): 0.403944306064188,
        (8, 200, 5.0, 0.5): 1.5864952182939466e-05,
        (12, 16, 2.0, 0.3): 0.42318222149739054,
        (12, 200, 5.0, 0.3): 2.700946897531155e-05,
    }
    # wdt_sinr_approx(...).theorem at K = 1: (N, gamma_th, mu) -> theorem
    PINNED_THEOREM = {
        (2, 0.5, 0.3): 0.3336190625708654, (2, 0.5, 0.8): 0.34110464626022424,
        (2, 2.0, 0.3): 0.6669018290406867, (2, 2.0, 0.8): 0.6749980789658055,
        (3, 0.5, 0.3): 0.5559707175907633, (3, 0.5, 0.8): 0.5722737014347,
        (3, 2.0, 0.3): 0.8890597073072743, (3, 2.0, 0.8): 0.8976816874840776,
        (5, 0.5, 0.3): 0.8028409827147661, (5, 0.5, 0.8): 0.8227492939477421,
        (5, 2.0, 0.3): 0.9876925584538466, (5, 2.0, 0.8): 0.9902240281589155,
        (8, 0.5, 0.3): 0.9416650225371045, (8, 0.5, 0.8): 0.9529873301520434,
        (8, 2.0, 0.3): 0.9995452282663213, (8, 2.0, 0.8): 0.9997157304311007,
    }
    # TestRician.test_rician_matches_monte_carlo's cell (N=3, K=8, W=1,
    # kappa=2, gamma_th=2, 55 mW): both conditioners noncentral
    RICIAN = {wdt_sinr_exact: 0.5688844338115202, wet_ehp_exact: 0.6607475134463343}

    @pytest.mark.parametrize("cell", list(PINNED), ids=lambda c: "N{}-K{}-W{}-Q{}".format(*c))
    def test_values(self, cell):
        n, k, w, q = cell
        ctx = ctx_from(n_users=n, n_ports=k, fa_size=w, ehp_threshold=q)
        fns = (wdt_sinr_exact, wet_sinr_exact, wet_ehp_exact, idet_special_exact)
        for fn, want in zip(fns, self.PINNED[cell]):
            assert fn(ctx) == pytest.approx(want, rel=1e-12, abs=0.0), fn.__name__

    @pytest.mark.parametrize("cell", list(PINNED_WDT), ids=lambda c: "N{}-K{}-W{}-g{}".format(*c))
    def test_wdt_sinr_many_orders(self, cell):
        n, k, w, g = cell
        ctx = ctx_from(n_users=n, n_ports=k, fa_size=w, sinr_threshold=g)
        assert wdt_sinr_exact(ctx) == pytest.approx(self.PINNED_WDT[cell], rel=1e-12, abs=0.0)

    def test_wdt_sinr_theorem(self):
        for (n, g, mu), want in self.PINNED_THEOREM.items():
            ctx = ctx_from(n_users=n, n_ports=1, mu=mu, sinr_threshold=g)
            got = wdt_sinr_approx(ctx).theorem
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (n, g, mu)

    def test_rician_values(self):
        ctx = ctx_from(n_users=3, n_ports=8, fa_size=1.0, rician_k=2.0,
                       ehp_threshold=0.055, sinr_threshold=2.0)
        for fn, want in self.RICIAN.items():
            assert fn(ctx) == pytest.approx(want, rel=1e-12, abs=0.0), fn.__name__


class TestWetSinrSlabs:
    """wet_sinr_exact evaluates its 3-D kernel in z-slabs on a thread per CPU."""

    REF = dict(n_users=5, n_ports=200, fa_size=5.0, ehp_threshold=0.110)

    @pytest.mark.parametrize("cell, quad, slabs", [
        (REF, DEFAULT_QUAD, 4 + 8),
        (dict(n_users=3, n_ports=64, fa_size=2.0, ehp_threshold=0.030),
         QuadratureSpec(100, 100, richardson_check=False), 13),
    ], ids=["reference", "100x100"])
    def test_same_value_at_any_thread_count(self, cell, quad, slabs, monkeypatch):
        ctx = ctx_from(**cell)
        calls = []

        def counted(*args):
            calls.append(1)
            return marcum_q_outer(*args)

        monkeypatch.setattr(analytic, "marcum_q_outer", counted)
        values = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(channel, "_cpus", lambda: cpus)
            values.append(wet_sinr_exact(ctx, quad))
        assert values[1] == values[0] and values[2] == values[0]
        assert len(calls) == 3 * slabs  # one Marcum grid per slab

    def test_memory_bounded(self, monkeypatch):
        # a whole-grid evaluation peaks near 58 MB; two threads hold two
        # slabs of at most _SLAB_ENTRIES (i, z, p) entries at a time
        monkeypatch.setattr(channel, "_cpus", lambda: 2)
        ctx = ctx_from(**self.REF)
        wet_sinr_exact(ctx)  # node tables are cached
        tracemalloc.start()
        try:
            wet_sinr_exact(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    def test_port_pass_memory_bounded(self, monkeypatch):
        # an n_ports sweep's pass finishes every K inside each slab, so seven
        # K values stay under the bound of one
        monkeypatch.setattr(channel, "_cpus", lambda: 2)
        ctx = ctx_from(**self.REF)
        ks = (2, 4, 8, 16, 64, 128, 200)
        analytic._wet_sinr_ports(ctx, DEFAULT_QUAD, ks)  # node tables are cached
        tracemalloc.start()
        try:
            values = analytic._wet_sinr_ports(ctx, DEFAULT_QUAD, ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values[-1] == wet_sinr_exact(ctx)
        assert peak < 30e6
