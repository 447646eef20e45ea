"""Quadrature of the exact outage expressions, closed forms, Rician cases.

Monte-Carlo on the same scenario acts as the independent oracle for the
exact integrals; the full per-metric grid runs in the acceptance suite.
"""

import dataclasses
import functools
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from fama_idet.specfun import bessel_i_ln, marcum_q_outer, mu_from_w


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

    def test_wet_sinr_not_below_wet_ehp(self):
        # the max-power port harvests at least as much as the max-SIR port;
        # K P(X + Y >= q_hat) = 4.47e-7 here, so the bracket answers both
        # (TestBracket.test_wet_sinr_kernel_within_the_union_bound pins the
        # kernel's own value at this cell)
        ctx = KernelContext(mu=mu_from_w(8.0), gamma_th=2.5, q_hat=45.1, n_users=2,
                            n_ports=50)
        assert wet_sinr_exact(ctx) >= wet_ehp_exact(ctx)

    def test_powers_keep_values_above_the_floor(self):
        # only values below _FLOOR = 1e-300 clamp
        got = next(analytic._powers(np.array([1e-250]), [1]))
        assert got[0] == pytest.approx(1e-250, rel=1e-12, abs=0.0)

    def test_mu_bounds_rejected(self):
        # the mu guard runs before the bracket answers q_hat = 0 and q_hat = inf,
        # so every q_hat must still raise, naming the evaluator
        # (mu = 1e-200 squares to 0, which the conditioners divide by)
        for mu in (0.0, 1e-200, 1.0):
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
            assert abs(fn(ctx, quick) - fn(ctx)) <= analytic._ABS_GAP_GATE, fn.__name__

    @pytest.mark.parametrize("fn", [
        wet_sinr_exact, idet_special_exact, wdt_ehp_exact, wdt_sinr_approx,
        wet_sinr_approx, wdt_ehp_approx, wet_ehp_approx, idet_special_approx,
    ], ids=lambda fn: fn.__name__)
    def test_refuses_rician(self, fn):
        # no Rician expression: a Rayleigh value must not come back in its
        # place (LoS also breaks the isotropy wdt_ehp_exact rests on)
        with pytest.raises(ValueError, match=fn.__name__):
            fn(ctx_from(**SMALL, rician_k=2.0))

    def test_small_aperture_hits_series_cap(self):
        # W = 0.05 needs a Marcum window of about 44k terms (30k for
        # WDT_SINR), past the cap: refused up front instead of building a
        # gamma grid of gigabytes, with the error a failed Richardson gap raises
        ctx = ctx_from(n_users=5, n_ports=200, fa_size=0.05)
        for fn in (wet_sinr_exact, wdt_sinr_exact):
            with pytest.raises(QuadratureConvergenceError, match="terms"):
                fn(ctx)

    def test_richardson_gate_raises_when_unreachable(self, monkeypatch):
        monkeypatch.setattr(analytic, "_NODES", (8, 8))
        monkeypatch.setattr(analytic, "_RECHECK_NODES", (12, 12))
        monkeypatch.setattr(analytic, "_ABS_GAP_GATE", 1e-13)
        with pytest.raises(QuadratureConvergenceError):
            wet_sinr_exact(ctx_from(**SMALL))

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_driver_rejects_non_finite(self, bad, check):
        # NaN fails both the Richardson and the range check, at either node
        # count: a NaN of the first pass must not pass as a gap of NaN; the
        # driver hands the failed K its error in place of a value
        quad = QuadratureSpec(richardson_check=check)
        first = lambda ctx, ns, nf, ks: [bad] * len(ks)
        coarse_only = lambda ctx, ns, nf, ks: [bad if ns == analytic._NODES[0] else 0.5] * len(ks)
        for raw in (first, coarse_only) if check else (first,):
            err, = analytic._with_richardson(raw, ctx_from(**SMALL), quad, "probe", (2,))
            assert isinstance(err, QuadratureConvergenceError) and "probe" in str(err)

    @pytest.mark.parametrize("check", [True, False])
    def test_driver_range_check(self, check):
        # a value further than the gate outside [0, 1] is refused, though
        # both evaluations agree on it; one within the gate is clamped into
        # [0, 1]
        quad = QuadratureSpec(richardson_check=check)
        tol = analytic._ABS_GAP_GATE

        def driven(value):
            nodes = []

            def raw(ctx, ns, nf, ks):
                nodes.append((ns, nf))
                return [value] * len(ks)

            out, = analytic._with_richardson(raw, ctx_from(**SMALL), quad, "probe", (2,))
            assert nodes == [(48, 64), (72, 96)][:2 if check else 1]
            return out

        for bad in (1.5, -0.5):
            err = driven(bad)
            assert isinstance(err, QuadratureConvergenceError)
            assert str(err) == f"probe: value {bad} outside [0, 1]"
        assert driven(1.0 + 0.5 * tol) == 1.0
        assert driven(-0.5 * tol) == 0.0


def _kg(ctx):
    """K P(X + Y >= q_hat) at one port under Rayleigh, from scipy alone."""
    return ctx.n_ports * sp.gammaincc(ctx.n_users, 0.5 * ctx.q_hat * (1.0 - ctx.mu ** 2))


class TestBracket:
    """The driver's certified bracket: under Rayleigh 1 - WET_SINR,
    1 - WET_EHP and WDT_SINR - IDET_SPECIAL each lie in [0, K G], G = P(X + Y
    >= q_hat) at one port.  Where K G is within the gate, the bracket answers
    with no kernel call; elsewhere a kernel value must land inside it."""

    def test_far_cells_read_the_bracket(self):
        # no port reaches q_hat here: the joint outage is the SIR outage and
        # WET_SINR is 1.  The kernels do not resolve this: IDET_SPECIAL's
        # gives 6.7e-19 and 4.7e-250 at 3 and 10 km and fails its check at
        # 1 km, and WET_SINR's fails at 3 and 10 km and at q_hat = 1e6
        cell = dict(n_users=3, n_ports=8, fa_size=2.0, ehp_threshold=0.010)
        wdt = wdt_sinr_exact(ctx_from(**cell))
        for distance in (1000.0, 3000.0, 10_000.0):
            ctx = ctx_from(**cell, distance=distance)
            assert idet_special_exact(ctx) == wdt and wet_sinr_exact(ctx) == 1.0
        assert wet_sinr_exact(KernelContext(mu=mu_from_w(5.0), gamma_th=2.0, q_hat=1e6,
                                            n_users=5, n_ports=200)) == 1.0

    def test_idet_special_reads_wdt_sinr_at_226_m(self):
        # q_hat = 3159 and K G = 5.5e-205: the kernel's Richardson gap is
        # 1.35e-5 here, which refused the value before the bracket rule
        ctx = ctx_from(n_users=8, n_ports=200, fa_size=0.5, sinr_threshold=2.0,
                       ehp_threshold=0.010, distance=226.0)
        assert _kg(ctx) < 1e-204
        assert repr(idet_special_exact(ctx)) == repr(wdt_sinr_exact(ctx))

    @pytest.mark.parametrize("w, k, log_q", [
        (0.5, 50, 2.25), (0.5, 200, 3.0), (1.0, 200, 2.0), (2.0, 200, 1.75),
        (5.0, 200, 1.75), (8.0, 200, 1.75), (8.0, 200, 3.0), (1.0, 200, 2.25)])
    def test_n2_wet_sinr_far_cells_read_one(self, w, k, log_q):
        # N = 2 cells of the WET_SINR grid whose kernels fail the Richardson
        # check (gaps 3e-5 to 7e-4), at K G from 2.5e-7 down to 2e-66
        ctx = KernelContext(mu=mu_from_w(w), gamma_th=2.0, q_hat=10.0 ** log_q, n_users=2,
                            n_ports=k)
        assert _kg(ctx) <= analytic._ABS_GAP_GATE
        assert wet_sinr_exact(ctx) == 1.0

    @pytest.mark.parametrize("fn", [idet_special_exact, wet_ehp_exact],
                             ids=lambda fn: fn.__name__)
    def test_over_ports_straddling_the_gate(self, fn):
        # K G = 1.6e-7 ... 5.1e-6 at K <= 64 and 1.6e-5 at K = 200: the first
        # three read their bracket's top, and the last runs the kernel, as
        # it does alone
        ctx = KernelContext(mu=mu_from_w(2.0), gamma_th=2.0, q_hat=52.0, n_users=3,
                            n_ports=200)
        ks = (2, 16, 64, 200)
        assert _kg(dataclasses.replace(ctx, n_ports=64)) <= analytic._ABS_GAP_GATE < _kg(ctx)
        got = fn.over_ports(ctx, DEFAULT_QUAD, ks)
        tops = (wdt_sinr_exact.over_ports(ctx, DEFAULT_QUAD, ks)
                if fn is idet_special_exact else [1.0] * len(ks))
        assert got[:-1] == tops[:-1] and got[-1] != tops[-1]
        assert repr(got[-1]) == repr(fn(ctx))

    def test_kernel_value_outside_the_bracket_is_refused(self, monkeypatch):
        # K G = 1.5e-3 at K = 200: the bracket is [1 - K G, 1], and a kernel
        # value further than the gate below it is refused, though both
        # rounds agree on it; one within the gate is clamped up to it
        ctx = KernelContext(mu=mu_from_w(2.0), gamma_th=2.0, q_hat=40.0, n_users=3,
                            n_ports=200)
        lo, tol = 1.0 - _kg(ctx), analytic._ABS_GAP_GATE
        for value, want in ((lo - 2.0 * tol, None), (1.0 + 2.0 * tol, None),
                            (lo - 0.5 * tol, lo), (0.5 * (lo + 1.0), 0.5 * (lo + 1.0))):
            monkeypatch.setattr(analytic, "_wet_ehp_raw",
                                lambda ctx, ns, nf, ks, v=value: [v] * len(ks))
            if want is None:
                with pytest.raises(QuadratureConvergenceError, match="wet_ehp_exact: value"):
                    wet_ehp_exact(ctx)
            else:
                assert wet_ehp_exact(ctx) == pytest.approx(want, rel=0.0, abs=1e-15)

    def test_rician_wet_ehp_runs_its_kernel(self, monkeypatch):
        # the Rayleigh law of X + Y does not hold under LoS, so a Rician
        # bracket is [0, 1] at any finite q_hat, and only q_hat in {0, inf}
        # is answered without the kernel
        calls = []
        raw = analytic._wet_ehp_raw
        monkeypatch.setattr(analytic, "_wet_ehp_raw",
                            lambda *args: calls.append(args[1:3]) or raw(*args))
        ctx = KernelContext(mu=mu_from_w(1.0), gamma_th=2.0, q_hat=1e4, n_users=3, n_ports=8,
                            rician_k=2.0)
        assert wet_ehp_exact(ctx) == pytest.approx(1.0, rel=0.0, abs=analytic._ABS_GAP_GATE)
        assert calls == [analytic._NODES, analytic._RECHECK_NODES]
        for q_hat, want in ((math.inf, 1.0), (0.0, 0.0)):
            assert wet_ehp_exact(dataclasses.replace(ctx, q_hat=q_hat)) == want
        assert len(calls) == 2

    @pytest.mark.xfail(strict=True, reason=(
        "the kernel reads 1 - WET_SINR = 6.12e-7 against the bound 4.47e-7: the N = 2 "
        "error floor on the conditional-Y axis (ROADMAP item 19)"))
    def test_wet_sinr_kernel_within_the_union_bound(self):
        # TestEdgeCases.test_wet_sinr_not_below_wet_ehp's cell, at the round
        # the driver returns; the bracket hides this defect from the evaluator
        ctx = KernelContext(mu=mu_from_w(8.0), gamma_th=2.5, q_hat=45.1, n_users=2,
                            n_ports=50)
        value, = analytic._wet_sinr_raw(ctx, *analytic._RECHECK_NODES, (ctx.n_ports,))
        assert 1.0 - value <= _kg(ctx) + 1e-12


class TestFieldsRead:
    """Which threshold each kernel reads: the WET outages are tested against
    q_hat alone (the max-SIR pick does not depend on gamma_th), and the WDT
    outages against gamma_th alone."""

    @pytest.mark.parametrize("fn, field, values", [
        (wet_sinr_exact, "gamma_th", (0.5, 8.0)),
        (wet_ehp_exact, "gamma_th", (0.5, 8.0)),
        (wdt_sinr_exact, "q_hat", (2.0, 20.0)),
        (wdt_ehp_exact, "q_hat", (2.0, 20.0)),
    ], ids=["wet_sinr-gamma", "wet_ehp-gamma", "wdt_sinr-q_hat", "wdt_ehp-q_hat"])
    def test_other_threshold_leaves_value_unchanged(self, fn, field, values):
        base = ctx_from(n_users=3, n_ports=4, fa_size=2.0, ehp_threshold=0.030)
        got = [fn(dataclasses.replace(base, **{field: v})) for v in values]
        assert repr(got[0]) == repr(got[1])


class TestClosedForms:
    def test_wdt_pair_structure(self):
        # the theorem and its corollary 1 - K ((mu^2 / (g + 1))^(N-1) +
        # ((1 - mu^2) / (g + 1))^(N-1)), inside the first-order regime
        # (K*s <= 0.2), so neither clamps; at mu = 0 the theorem's series
        # reduces to the corollary's second term
        def corollary(ctx):
            g, mu2, n = ctx.gamma_th, ctx.mu ** 2, ctx.n_users
            return max(0.0, 1.0 - ctx.n_ports * ((mu2 / (g + 1.0)) ** (n - 1)
                                                 + ((1.0 - mu2) / (g + 1.0)) ** (n - 1)))

        ctx = ctx_from(n_users=3, n_ports=16, fa_size=2.0, sinr_threshold=10.0)
        assert 0.0 < wdt_sinr_approx(ctx) < 1.0
        assert 0.8 <= corollary(ctx) < 1.0
        for n in (3, 5, 8):
            ctx0 = dataclasses.replace(ctx, mu=0.0, n_users=n)
            assert wdt_sinr_approx(ctx0) == pytest.approx(corollary(ctx0), rel=1e-12), n

    @pytest.mark.parametrize("mu", [0.0, 1.0])
    @pytest.mark.parametrize("q_hat", [0.0, math.inf])
    def test_extreme_inputs_give_no_nan(self, mu, q_hat):
        # each closed form returns a finite value or refuses; q_tilde does not
        # depend on mu, so mu = 1 and q_hat = inf give inf, not inf * 0
        ctx = KernelContext(mu=mu, gamma_th=2.0, q_hat=q_hat, n_users=3, n_ports=8)
        for fn in sweep._CLOSED_FORM.values():
            try:
                value = fn(ctx)
            except ValueError:
                continue
            assert math.isfinite(value), fn.__name__

    def test_wdt_approx_tracks_exact_at_high_threshold(self):
        # validity regime: threshold high enough that the per-port success
        # probability is small
        ctx = ctx_from(n_users=2, n_ports=4, fa_size=0.3, sinr_threshold=10 ** 1.5)
        exact = wdt_sinr_exact(ctx)
        assert wdt_sinr_approx(ctx) == pytest.approx(exact, rel=0.10)

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

    @pytest.mark.parametrize("q_hat", [3e4, 1e6])
    def test_wet_ehp_approx_is_one_far_out(self, q_hat):
        # far out e^-h is 0 and M(l+1, N+1, mu^2 h) is inf: Kummer's form
        # keeps both factors finite, so the outage reaches 1 (not NaN, clamped to 0)
        ctx = KernelContext(mu=mu_from_w(2.0), gamma_th=2.0, q_hat=q_hat, n_users=3, n_ports=8)
        assert wet_ehp_approx(ctx) == 1.0

    def test_wdt_sinr_approx_is_one_at_1000_db(self):
        # g^m and d^(m+1) overflow on their own; their ratios stay finite
        ctx = KernelContext(mu=mu_from_w(2.0), gamma_th=1e100, q_hat=3.0, n_users=8, n_ports=8)
        assert wdt_sinr_approx(ctx) == 1.0

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
    """wdt_sinr_approx with its series as the (k, j) double sum."""
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
                assert wdt_sinr_approx(ctx) == pytest.approx(
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
        assert wdt_sinr_approx(wdt_dom) > wet_ehp_approx(wdt_dom)
        assert wet_ehp_approx(wet_dom) > wdt_sinr_approx(wet_dom)
        for ctx in (wdt_dom, wet_dom,
                    ctx_from(sinr_threshold=10 ** 0.7, ehp_threshold=0.150)):
            assert idet_special_approx(ctx) == (
                wdt_sinr_approx(ctx) * wet_ehp_approx(ctx))

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

    @pytest.mark.parametrize("field", ["n_users", "n_ports"])
    def test_counts_must_be_integers(self, field):
        kw = dict(mu=0.5, gamma_th=1.0, q_hat=1.0, n_users=2, n_ports=2)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            KernelContext(**{**kw, field: 3.5})
        assert getattr(KernelContext(**{**kw, field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("field", ["mu", "gamma_th", "q_hat", "rician_k"])
    def test_nan_rejected(self, field):
        kw = dict(mu=0.5, gamma_th=1.0, q_hat=1.0, n_users=2, n_ports=2, rician_k=0.0)
        with pytest.raises(ValueError, match=field):
            KernelContext(**{**kw, field: math.nan})

    @pytest.mark.parametrize("field", ["gamma_th", "rician_k"])
    def test_infinite_rejected(self, field):
        # only q_hat may be +inf; the kernels read inf gamma_th or rician_k as NaN
        kw = dict(mu=0.5, gamma_th=1.0, q_hat=1.0, n_users=2, n_ports=2, rician_k=0.0)
        with pytest.raises(ValueError, match=f"{field} must be .* finite"):
            KernelContext(**{**kw, field: math.inf})

    def test_infinite_q_hat_allowed(self):
        # ps_ratio = 1 sends every harvest to the decoder: q_hat = +inf
        ctx = ctx_from(**SMALL, ps_ratio=1.0)
        assert math.isinf(ctx.q_hat) and math.isinf(ctx.q_tilde)
        assert wet_sinr_approx(ctx) == wet_ehp_approx(ctx) == 1.0


class TestEvaluatorForms:
    """Each EXACT evaluator is written once, over a tuple of port counts; the
    public function runs it at ctx.n_ports and keeps it as .over_ports."""

    @pytest.mark.parametrize("metric", list(EXACTS), ids=lambda m: m.value)
    def test_public_signature_name_and_docstring(self, metric):
        fn, name = EXACTS[metric], f"{metric.value.lower()}_exact"
        params = inspect.signature(fn).parameters
        assert list(params) == ["ctx", "quad"] and params["quad"].default is DEFAULT_QUAD
        assert fn is getattr(analytic, name) and fn.__name__ == fn.__qualname__ == name
        assert fn.__doc__ == fn.over_ports.__doc__ and fn.__doc__.startswith("Probability")
        assert list(inspect.signature(fn.over_ports).parameters) == ["ctx", "quad", "ks"]

    @pytest.mark.parametrize("fn", EXACTS.values(), ids=lambda fn: fn.__name__)
    def test_single_k_is_the_port_form_to_the_bit(self, fn):
        ctx = ctx_from(n_users=5, n_ports=200, fa_size=5.0, ehp_threshold=0.110)
        got, = fn.over_ports(ctx, DEFAULT_QUAD, (ctx.n_ports,))
        assert repr(fn(ctx)) == repr(got)

    def test_q_hat_inf_route_survives_a_wrapped_wdt_sinr(self, monkeypatch):
        # a tracer rebinds the public names to functools.wraps wrappers, which
        # copy .over_ports; IDET_SPECIAL's bracket reads it by name at q_hat = inf
        ctx = ctx_from(n_users=3, n_ports=8, fa_size=2.0, ps_ratio=1.0)
        ks = (1, 2, 8)
        want = wdt_sinr_exact.over_ports(ctx, DEFAULT_QUAD, ks)
        assert all(isinstance(v, float) for v in want)

        @functools.wraps(wdt_sinr_exact)
        def traced(*args, **kwargs):
            return wdt_sinr_exact(*args, **kwargs)

        monkeypatch.setattr(analytic, "wdt_sinr_exact", traced)
        assert traced.over_ports is wdt_sinr_exact.over_ports
        assert idet_special_exact.over_ports(ctx, DEFAULT_QUAD, ks) == want
        assert idet_special_exact(ctx) == want[-1]


class TestPinnedExact:
    """Pinned EXACT values at seven cells, the EXACT twin of TestPinnedStream.

    A change of the quadrature or of a special function that moves a value
    by more than 1e-12 relative fails here, down to the 7.9e-116 WET_EHP and
    the 6.5e-117 IDET_SPECIAL that no Monte-Carlo oracle can resolve.
    """

    # (N, K, W, Q_th) -> WDT_SINR, WET_SINR, WET_EHP, IDET_SPECIAL
    PINNED = {
        (5, 200, 5.0, 0.110): (0.08988908271377039, 0.9854814619032947,
                               0.056168548456402595, 0.0048857773635323665),
        (3, 8, 2.0, 0.030): (0.39924993446036094, 0.5816818488807285,
                             0.015725599813330632, 0.006149846999287868),
        (3, 64, 2.0, 0.030): (0.002101797285288749, 0.590946074813922,
                              4.562793373668492e-13, 2.493816414534503e-16),
        (3, 16, 2.0, 0.005): (0.16810123255092577, 0.014865985427508468,
                              9.328847379297701e-29, 1.4085013375789918e-29),
        # K = 1: wet_sinr_exact takes the WET_EHP kernel, so the two agree
        (3, 1, 2.0, 0.030): (0.8885371161823135, 0.576809918873158,
                             0.576809918873158, 0.5125170219009074),
        # the term tables with the most subnormals, flushed to 0: the pins
        # hold down to 6.5e-117
        (5, 200, 0.3, 0.010): (0.8239990112946709, 0.007186035837334913,
                               6.109949544297333e-25, 8.03905243532513e-27),
        (5, 200, 2.0, 0.030): (0.12400545438299529, 0.19742267696338417,
                               7.9083374942718e-116, 6.505539778455997e-117),
    }
    # WDT_SINR alone at N = 8 and 12, where the one-port series has 7 and 11
    # Bessel orders: (N, K, W, gamma_th) -> WDT_SINR
    PINNED_WDT = {
        (8, 16, 2.0, 0.5): 0.403944306064188,
        (8, 200, 5.0, 0.5): 1.5864952182939466e-05,
        (12, 16, 2.0, 0.3): 0.42318222149739054,
        (12, 200, 5.0, 0.3): 2.700946897531155e-05,
    }
    # wdt_sinr_approx at K = 1: (N, gamma_th, mu) -> value
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
            got = wdt_sinr_approx(ctx)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (n, g, mu)

    def test_rician_values(self):
        ctx = ctx_from(n_users=3, n_ports=8, fa_size=1.0, rician_k=2.0,
                       ehp_threshold=0.055, sinr_threshold=2.0)
        for fn, want in self.RICIAN.items():
            assert fn(ctx) == pytest.approx(want, rel=1e-12, abs=0.0), fn.__name__


def _cancelled(value, error):
    return pytest.mark.xfail(strict=True, reason=(
        f"true value {value}: relative error {error}, from the 1 - marcum_q_outer "
        "cancellation in _wet_ehp_raw (ROADMAP item 3)"))


class TestWetEhpSinglePort:
    """At K = 1 under Rayleigh the WET outage is the one-port total power's
    CDF, gammainc(N, q_tilde / 2), which shares no code with marcum_q_outer.

    Both WET evaluators take the WET_EHP kernel there.  They hold rel 1e-6
    down to 6e-10; at 1.9e-11 (q_hat = 0.05) the error is already 1.5e-6,
    and below that the cancellation takes over.
    """

    @pytest.mark.parametrize("fn", [wet_ehp_exact, wet_sinr_exact], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("q_hat", [
        20.0, 5.0, 1.0, 0.2, 0.1,       # 0.87 down to 6.0e-10
        pytest.param(0.01, marks=_cancelled("6.2e-15", "1.7%")),
        pytest.param(0.001, marks=_cancelled("6.2e-20", "about 1000x: it reads 6.47e-17")),
    ])
    def test_matches_the_one_port_cdf(self, fn, q_hat):
        ctx = KernelContext(mu=0.5, gamma_th=2.0, q_hat=q_hat, n_users=5, n_ports=1)
        want = sp.gammainc(ctx.n_users, ctx.q_tilde / 2.0)
        assert fn(ctx) == pytest.approx(want, rel=1e-6, abs=0.0)


def _wet_ehp_oracle(ctx: KernelContext) -> float:
    """WET_EHP from scipy alone: the 1-D integral over the total-power
    conditioner v ~ chi2(2N) of the all-ports-fail probability
    ncx2.cdf(q_hat, 2N, c v)^K, with no Marcum grid and no Gauss rule."""
    n, c = ctx.n_users, ctx.corr_ratio
    f = lambda v: stats.chi2.pdf(v, 2 * n) * stats.ncx2.cdf(ctx.q_hat, 2 * n, c * v) ** ctx.n_ports
    breaks = (0.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, math.inf)
    return math.fsum(integrate.quad(f, lo, hi, epsrel=1e-10, epsabs=0.0, limit=200)[0]
                     for lo, hi in zip(breaks, breaks[1:]))


# The cells of TestWetEhpOracle that fail today, (q_hat, K): (true value,
# relative error), as measured against _wet_ehp_oracle
_WET_EHP_FAILING = {
    (0.0667, 1): ("7.99e-11", "1.2e-6"), (0.0667, 2): ("8.79e-21", "1.7e-6"),
    (0.0667, 4): ("1.84e-40", "2.2e-6"), (0.0667, 16): ("2.45e-156", "4.2e-6"),
    (0.0133, 1): ("2.56e-14", "0.33%"), (0.0133, 2): ("9.05e-28", "0.52%"),
    (0.0133, 4): ("1.96e-54", "0.66%"), (0.0133, 16): ("3.27e-212", "0.97%"),
}


class TestWetEhpOracle:
    """wet_ehp_exact against _wet_ehp_oracle at N = 5, mu = 0.5, from 1.7e-4
    down to 3e-212.  q_hat >= 0.267 agrees within 3e-9; below, the cells
    that fail are pinned with their measured error."""

    @staticmethod
    def ctx(q_hat, k):
        return KernelContext(mu=0.5, gamma_th=2.0, q_hat=q_hat, n_users=5, n_ports=k)

    @pytest.mark.parametrize("q_hat", [1.33, 0.267, 0.0667, 0.0133])
    def test_oracle_is_the_one_port_cdf_at_k1(self, q_hat):
        ctx = self.ctx(q_hat, 1)
        want = sp.gammainc(ctx.n_users, ctx.q_tilde / 2.0)
        assert _wet_ehp_oracle(ctx) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("q_hat, k", [
        pytest.param(q, k, marks=[_cancelled(*_WET_EHP_FAILING[q, k])]
                     if (q, k) in _WET_EHP_FAILING else [])
        for q in (1.33, 0.267, 0.0667, 0.0133) for k in (1, 2, 4, 16)])
    def test_matches_the_oracle(self, q_hat, k):
        ctx = self.ctx(q_hat, k)
        assert wet_ehp_exact(ctx) == pytest.approx(_wet_ehp_oracle(ctx), rel=1e-6, abs=0.0)


class TestExactOrderings:
    """Orderings every EXACT outage obeys, as they hold on every sample path,
    over random cells where EXACT is meant to work (W >= 0.5).  Each holds to
    the evaluators' own gate; a refused value is no violation."""

    @staticmethod
    def _value(fn, ctx):
        try:
            return fn(ctx)
        except QuadratureConvergenceError:
            return None

    @given(w=st.floats(0.5, 8.0), n=st.integers(2, 8), k=st.integers(1, 200),
           log_gamma=st.floats(-1.0, 2.0), log_q=st.floats(-1.5, 6.0))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_orderings(self, w, n, k, log_gamma, log_q):
        ctx = KernelContext(mu=mu_from_w(w), gamma_th=10.0 ** log_gamma, q_hat=10.0 ** log_q,
                            n_users=n, n_ports=k)
        v = {m: self._value(fn, ctx) for m, fn in EXACTS.items()}
        gate = analytic._ABS_GAP_GATE
        for lower, upper in ((Metric.WET_EHP, Metric.WET_SINR),       # the best harvest
                             (Metric.WDT_SINR, Metric.WDT_EHP),       # the best SIR
                             (Metric.IDET_SPECIAL, Metric.WDT_SINR),  # joint below each
                             (Metric.IDET_SPECIAL, Metric.WET_EHP)):
            if v[lower] is not None and v[upper] is not None:
                assert v[lower] <= v[upper] + gate, (lower, upper, v)
        # the joint outage is no less than the union bound lets it be
        joint = (v[Metric.IDET_SPECIAL], v[Metric.WDT_SINR], v[Metric.WET_EHP])
        if None not in joint:
            assert joint[0] >= joint[1] + joint[2] - 1.0 - gate, v

    @given(w=st.floats(0.5, 8.0), n=st.integers(2, 8), k=st.integers(1, 200),
           log_t=st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=2))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_non_decreasing_in_gamma(self, w, n, k, log_t):
        # a higher SIR threshold fails every port it failed before
        ctx = KernelContext(mu=mu_from_w(w), gamma_th=1.0, q_hat=5.0, n_users=n, n_ports=k)
        self._check_rises(ctx, "gamma_th", log_t,
                          (Metric.WDT_SINR, Metric.WDT_EHP, Metric.IDET_SPECIAL))

    @given(w=st.floats(0.5, 8.0), n=st.integers(2, 8), k=st.integers(1, 200),
           log_t=st.lists(st.floats(-1.5, 6.0), min_size=2, max_size=2))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_non_decreasing_in_q_hat(self, w, n, k, log_t):
        # a higher harvest threshold fails every port it failed before
        ctx = KernelContext(mu=mu_from_w(w), gamma_th=2.0, q_hat=1.0, n_users=n, n_ports=k)
        self._check_rises(ctx, "q_hat", log_t,
                          (Metric.WET_SINR, Metric.WET_EHP, Metric.IDET_SPECIAL))

    @given(w=st.floats(0.5, 8.0), n=st.integers(2, 8),
           log_gamma=st.floats(-1.0, 2.0), log_q=st.floats(-1.5, 1.5))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_non_increasing_in_k(self, w, n, log_gamma, log_q):
        # more ports to choose from never hurts the best one, so these
        # outages never rise with K; each call evaluates every K at once
        ctx = KernelContext(mu=mu_from_w(w), gamma_th=10.0 ** log_gamma, q_hat=10.0 ** log_q,
                            n_users=n, n_ports=200)
        ports = (1, 2, 4, 8, 16, 64, 200)
        for m in (Metric.WDT_SINR, Metric.WET_EHP, Metric.IDET_SPECIAL):
            try:
                got = EXACTS[m].over_ports(ctx, DEFAULT_QUAD, ports)
            except QuadratureConvergenceError:
                continue
            kept = [(k, v) for k, v in zip(ports, got) if not isinstance(v, Exception)]
            for (k, v), (k_next, v_next) in zip(kept, kept[1:]):
                assert v_next <= v + analytic._ABS_GAP_GATE, (m, k, v, k_next, v_next)

    def _check_rises(self, ctx, field, log_t, metrics):
        # the two drawn thresholds and their geometric mean, in order; a
        # refused value is skipped
        lo, hi = sorted(log_t)
        ladder = [dataclasses.replace(ctx, **{field: 10.0 ** e})
                  for e in (lo, 0.5 * (lo + hi), hi)]
        for m in metrics:
            kept = [(c, v) for c in ladder for v in [self._value(EXACTS[m], c)] if v is not None]
            for (c, v), (c_next, v_next) in zip(kept, kept[1:]):
                assert v <= v_next + analytic._ABS_GAP_GATE, (m, c, v, c_next, v_next)


class TestGaussRules:
    """The numpy Gauss rules: Laguerre for the conditioners, the chi rule for
    WET_SINR's conditional-Y axis in u = sqrt(y)."""

    @pytest.mark.parametrize("n", [8, 24, 48, 72])
    def test_laguerre_moments(self, n):
        t, log_w = analytic._laguerre(n)
        for k in range(2 * n):      # exact up to degree 2n - 1
            got = np.exp(log_w + k * np.log(t)).sum()
            assert got == pytest.approx(math.factorial(k), rel=1e-13, abs=0.0), k

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("n", [16, 32, 48])
    def test_chi_rule_moments(self, m, n):
        u, log_w = analytic._chi_rule(m, n)
        for k in range(2 * n):
            # int_0^inf u^k u^(2m-1) e^(-u^2/2) du = 2^((2m+k)/2 - 1) Gamma((2m+k)/2)
            want = math.exp((m + 0.5 * k - 1.0) * math.log(2.0) + math.lgamma(m + 0.5 * k))
            got = np.exp(log_w + k * np.log(u)).sum()
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), k

    @pytest.mark.parametrize("n", [8, 16, 48, 72, 100, 150])
    def test_laguerre_matches_scipy(self, n):
        # most of the gap is scipy's: against 60-digit mpmath rules its
        # log-weights are off by up to 1.7e-12 at n = 150, these by 6.8e-13
        t, log_w = analytic._laguerre(n)
        t_ref, w_ref = sp.roots_laguerre(n)
        assert np.all(np.abs(t / t_ref - 1.0) <= 2e-13)
        assert np.all(np.abs(log_w - np.log(w_ref)) <= 2e-13 * (1.0 + np.abs(np.log(w_ref))))

    def test_exact_route_leaves_scipy_linalg_unloaded(self):
        # scipy.linalg costs 60-90 ms to import; the rules are built in numpy
        src = str(Path(analytic.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys; from fama_idet.analytic import KernelContext, wet_sinr_exact; "
                "wet_sinr_exact(KernelContext(mu=0.5, gamma_th=2.0, q_hat=5.0, "
                "n_users=3, n_ports=4)); print('scipy.linalg' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.strip() == "False"

    def test_refinement_refines_the_y_axis(self, monkeypatch):
        sizes = []
        rule = analytic._chi_rule

        def recorded(m, n):
            sizes.append(n)
            return rule(m, n)

        monkeypatch.setattr(analytic, "_chi_rule", recorded)
        wet_sinr_exact(ctx_from(n_users=3, n_ports=8, fa_size=2.0, ehp_threshold=0.030))
        assert sizes == [32, 48]    # 2/3 of the 48 and the 72 semi-infinite nodes

    def test_n2_inside_ten_to_the_eight_trial_interval(self):
        # 10^8 MC trials (100 seeds x 10^6) at N=2, K=8, W=1, 3 dB, 20 mW
        # read 0.607777, 95% Wilson interval [0.607681, 0.607873]; the
        # 150-node Laguerre y-axis this rule replaced returned 0.6080005
        ctx = ctx_from(n_users=2, n_ports=8, fa_size=1.0, ehp_threshold=0.020)
        assert 0.607681 <= wet_sinr_exact(ctx) <= 0.607873


class TestWetSinrSlabs:
    """wet_sinr_exact evaluates its 3-D kernel in z-slabs on a thread per CPU."""

    REF = dict(n_users=5, n_ports=200, fa_size=5.0, ehp_threshold=0.110)

    @pytest.mark.parametrize("cell, evaluate, slabs", [
        (REF, wet_sinr_exact, 6 + 12),
        (dict(n_users=3, n_ports=64, fa_size=2.0, ehp_threshold=0.030),
         lambda ctx: analytic._wet_sinr_raw(ctx, 100, 100, (ctx.n_ports,)), 15),
    ], ids=["reference", "100x100"])
    def test_same_value_at_any_thread_count(self, cell, evaluate, slabs, monkeypatch):
        ctx = ctx_from(**cell)
        calls = []

        def counted(*args):
            calls.append(1)
            return marcum_q_outer(*args)

        monkeypatch.setattr(analytic, "marcum_q_outer", counted)
        values = []
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(channel, "_cpus", lambda: cpus)
            values.append(evaluate(ctx))
        assert values[1:] == values[:1] * 3
        assert len(calls) == 4 * slabs  # one Marcum grid per slab

    def test_memory_bounded(self, monkeypatch):
        # a whole-grid evaluation peaks near 58 MB; two threads hold two
        # slabs of at most _SLAB_B_VALUES b-values at a time
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

    def test_memory_bounded_at_eight_cpus(self, monkeypatch):
        # eight threads hold up to eight slabs at a time, and still stay
        # under the 58 MB of a whole-grid evaluation
        monkeypatch.setattr(channel, "_cpus", lambda: 8)
        ctx = ctx_from(**self.REF)
        wet_sinr_exact(ctx)  # node tables are cached
        tracemalloc.start()
        try:
            wet_sinr_exact(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 58e6

    def test_port_pass_memory_bounded(self, monkeypatch):
        # an n_ports sweep's pass finishes every K inside each slab, so seven
        # K values stay under the bound of one
        monkeypatch.setattr(channel, "_cpus", lambda: 2)
        ctx = ctx_from(**self.REF)
        ks = (2, 4, 8, 16, 64, 128, 200)
        wet_sinr_exact.over_ports(ctx, DEFAULT_QUAD, ks)  # node tables are cached
        tracemalloc.start()
        try:
            values = wet_sinr_exact.over_ports(ctx, DEFAULT_QUAD, ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values[-1] == wet_sinr_exact(ctx)
        assert peak < 30e6
