"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Lines are written to the real stdout so they appear regardless of pytest
capture settings.
"""

import math
import sys
import time

import conftest
import numpy as np
from scipy import special as sp
from scipy import stats

from fama_idet.analytic import (
    KernelContext,
    idet_general,
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
from fama_idet.cli import main
from fama_idet.montecarlo import (
    Metric,
    independence_diagnostic,
    simulate_outage_counts,
    wilson_interval,
)
from fama_idet.specfun import marcum_q_outer


def report(criterion: str, passed: bool, detail: str) -> None:
    line = f"[acceptance] {'PASS' if passed else 'FAIL'} {criterion}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, line


def mc_cells(cfg, trials, seed, z):
    """Each metric's MC Wilson interval at `z`, which keeps its width at
    counts of 0 and `trials`, where a Wald interval would reject true
    rare-event rates."""
    counts = simulate_outage_counts(cfg, trials, seed=seed)["counts"]
    return {m: wilson_interval(c, trials, z) for m, c in counts.items()}


def test_criterion_1_special_function_identities():
    """Marcum, confluent hypergeometric and gamma identities at 1e-10."""
    t0 = time.perf_counter()
    orders = (1, 2, 3, 5, 8)
    a_grid = np.array([0.0, 0.3, 1.0, 3.0, 8.0])
    b_grid = np.array([0.1, 0.5, 1.0, 2.5, 6.0, 12.0])
    worst = 0.0
    for order in orders:
        worst = max(worst, np.max(np.abs(marcum_q_outer(order, a_grid, [0.0]) - 1.0)))
        # a = 0 is the regularized upper gamma; every (a, b) the noncentral
        # chi-square survival function Q_N(a, b) = sf(b^2; 2N, a^2)
        want = sp.gammaincc(order, b_grid * b_grid / 2.0)
        got = marcum_q_outer(order, [0.0], b_grid)[0]
        worst = max(worst, np.max(np.abs(got - want) / want))
        want = stats.ncx2.sf(b_grid[None, :] ** 2, 2 * order, a_grid[:, None] ** 2)
        got = marcum_q_outer(order, a_grid, b_grid)
        worst = max(worst, np.max(np.abs(got - want) / want))
    for a in (0.5, 1.0, 2.5, 7.0):
        for x in (-4.0, -1.0, 0.5, 3.0, 12.0):
            worst = max(worst, abs(sp.hyp1f1(a, a, x) - math.exp(x)) / math.exp(x))
    for s in (0.5, 1.0, 2.0, 5.0, 9.0):
        for x in (0.0, 0.4, 2.0, 10.0, 40.0):
            worst = max(worst, abs(sp.gammainc(s, x) + sp.gammaincc(s, x) - 1.0))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (special-function identities)",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst deviation {worst:.2e} (gate 1e-10), runtime {elapsed:.2f}s (gate 5s)",
    )


def test_criterion_2_mc_exact_equivalence_rayleigh():
    """Six metrics, two scenarios, five threshold points, each EXACT value
    inside the MC rate's Wilson interval at z = 3 * 1.96."""
    t0 = time.perf_counter()
    scenarios = [
        dict(n_users=2, n_ports=2, fa_size=1.0),
        dict(n_users=3, n_ports=4, fa_size=2.0),
    ]
    thresholds = [(0.0, 0.006), (2.0, 0.008), (3.0, 0.010), (5.0, 0.014),
                  (8.0, 0.020)]
    trials = 150_000
    total = 0
    agree = 0
    failures = []
    for si, base in enumerate(scenarios):
        for ti, (gamma_db, q_th) in enumerate(thresholds):
            cfg = SystemConfig(**base, sinr_threshold=10 ** (gamma_db / 10.0),
                               ehp_threshold=q_th)
            cells = mc_cells(cfg, trials, seed=1000 + 10 * si + ti, z=3.0 * 1.96)
            ctx = KernelContext.from_config(cfg)
            wdt = wdt_sinr_exact(ctx)
            wet = wet_ehp_exact(ctx)
            special = idet_special_exact(ctx)
            exact = {
                Metric.WDT_SINR: wdt,
                Metric.WET_SINR: wet_sinr_exact(ctx),
                Metric.WDT_EHP: wdt_ehp_exact(ctx),
                Metric.WET_EHP: wet,
                Metric.IDET_SPECIAL: special,
                Metric.IDET_GENERAL: idet_general(wdt, wet, special),
            }
            for m, value in exact.items():
                lo, hi = cells[m]
                total += 1
                if lo <= value <= hi:
                    agree += 1
                else:
                    failures.append(f"{m.value}@cfg{si}/{gamma_db}dB")
    elapsed = time.perf_counter() - t0
    frac = agree / total
    report(
        "criterion 2 (MC vs quadrature, Rayleigh)",
        frac >= 0.95 and elapsed < 600.0,
        f"{agree}/{total} cells inside the z=3*1.96 Wilson interval ({frac:.1%}, gate 95%), "
        f"runtime {elapsed:.0f}s (gate 600s)"
        + (f", misses: {failures}" if failures else ""),
    )


# The closed forms are 1 - K*s, the first-order truncation of the K-port
# binomial expansion (s: probability that one port succeeds). They estimate
# the outage only while the first-order term K*s is small; for K*s >~ 1 they
# clamp to 0.
FIRST_ORDER_BOUND = 0.2


def _closed_form_half(label, first_order, approx, exact):
    """Gate one closed form against quadrature; return (passed, detail)."""
    faults = []
    if not 0.0 < exact < 1.0:
        faults.append(f"degenerate exact value {exact:.4g}")
    if not approx > 0.0:
        faults.append("closed form clamped at 0")
    # an exact 0 gives inf, so a 0-vs-0 comparison cannot read as a pass
    err = abs(approx - exact) / abs(exact) if exact != 0.0 else math.inf
    detail = (
        f"{label} K*s {first_order:.3f}, closed form {approx:.4f} vs exact "
        f"{exact:.4f} (rel {err:.1%}, gate 10%)"
    )
    if faults:
        detail += f" [{', '.join(faults)}]"
    return not faults and err <= 0.10, detail


def test_criterion_3_closed_form_accuracy():
    """Closed forms vs exact quadrature in the stated regimes, 10% gates.

    Reference cell (N=5, K=200, W=5); the thresholds sit where the
    first-order term K*s is at most FIRST_ORDER_BOUND.
    """
    ctx_wdt = KernelContext.from_config(SystemConfig(sinr_threshold=10 ** 0.7))
    ctx_wet = KernelContext.from_config(SystemConfig(ehp_threshold=0.15))
    ks_wdt = ctx_wdt.n_ports * (1.0 + ctx_wdt.gamma_th) ** (1 - ctx_wdt.n_users)
    ks_wet = ctx_wet.n_ports * sp.gammaincc(ctx_wet.n_users, ctx_wet.q_hat / 2.0)
    outside = [f"{label} K*s {ks:.3g} > {FIRST_ORDER_BOUND}"
               for label, ks in (("WDT", ks_wdt), ("WET", ks_wet))
               if not ks <= FIRST_ORDER_BOUND]
    if outside:
        report(
            "criterion 3 (closed-form accuracy)",
            False,
            "outside the closed forms' first-order regime: " + "; ".join(outside),
        )

    ok_wdt, detail_wdt = _closed_form_half(
        "WDT", ks_wdt, wdt_sinr_approx(ctx_wdt).theorem, wdt_sinr_exact(ctx_wdt)
    )
    ok_wet, detail_wet = _closed_form_half(
        "WET", ks_wet, wet_ehp_approx(ctx_wet), wet_ehp_exact(ctx_wet)
    )
    report(
        "criterion 3 (closed-form accuracy)",
        ok_wdt and ok_wet,
        f"{detail_wdt}; {detail_wet}",
    )


def test_criterion_4_independence_and_decoupled_forms():
    """Sum/ratio independence at mu=0; decoupled closed forms vs MC at W=5."""
    trials = 100_000
    rep = independence_diagnostic(
        SystemConfig(n_users=5, n_ports=2, fa_size=1.0, mu=0.0), trials, seed=400
    )
    cfg = SystemConfig()  # W = 5 reference scenario
    cells = mc_cells(cfg, trials, seed=401, z=3.0)
    ctx = KernelContext.from_config(cfg)
    checks = []
    for metric, approx in ((Metric.WET_SINR, wet_sinr_approx(ctx)),
                           (Metric.WDT_EHP, wdt_ehp_approx(ctx))):
        lo, hi = cells[metric]
        checks.append(lo <= approx <= hi)
    report(
        "criterion 4 (independence and decoupled closed forms)",
        rep.passed and all(checks),
        f"rank corr {rep.rank_correlation:.2e} (gate {rep.threshold:.2e}); "
        f"closed forms inside the z=3 Wilson interval of MC at W=5: {checks}",
    )


def test_criterion_5_trend_reproduction():
    """Outage and gain trends over N, W, K with common random numbers."""
    trials = 150_000
    cfg = SystemConfig()
    n_values = list(range(2, 9))
    res = simulate_outage_counts(cfg, trials, seed=500, n_values=n_values)
    eps_wdt = [c / trials for c in res["nested"][Metric.WDT_SINR]]
    eps_wet = [c / trials for c in res["nested"][Metric.WET_EHP]]
    m_wdt = [n * (1 - e) for n, e in zip(n_values, eps_wdt)]
    m_wet = [n * (1 - e) for n, e in zip(n_values, eps_wet)]
    wdt_monotone = all(a <= b for a, b in zip(eps_wdt, eps_wdt[1:]))
    wet_monotone = all(a >= b for a, b in zip(eps_wet, eps_wet[1:]))
    peak = m_wdt.index(max(m_wdt))
    unimodal = (
        0 < peak < len(m_wdt) - 1
        and all(a < b for a, b in zip(m_wdt[:peak], m_wdt[1:peak + 1]))
        and all(a > b for a, b in zip(m_wdt[peak:], m_wdt[peak + 1:]))
    )
    wet_gain_monotone = all(a <= b for a, b in zip(m_wet, m_wet[1:]))

    # W trend by deterministic quadrature (no sampling noise)
    w_vals = {}
    for w in (1.0, 2.0, 3.0, 4.0, 5.0):
        ctx = KernelContext.from_config(SystemConfig(fa_size=w))
        wdt = wdt_sinr_exact(ctx)
        wet = wet_ehp_exact(ctx)
        special = idet_special_exact(ctx)
        w_vals[w] = [wdt, wet, wet_sinr_exact(ctx), wdt_ehp_exact(ctx),
                     special, idet_general(wdt, wet, special)]
    series = list(zip(*[w_vals[w] for w in sorted(w_vals)]))
    # tolerance matches the quadrature accuracy target; metrics that are
    # insensitive to W sit flat at the 1e-7 jitter level
    w_monotone = all(
        all(a >= b - 1e-6 for a, b in zip(s, s[1:])) for s in series
    )

    res_k = simulate_outage_counts(cfg, trials, seed=501,
                                   k_values=[1, 2, 5, 10, 50, 100, 200])
    # the max-based metrics only: WET_SINR and WDT_EHP read a port chosen by
    # the other quantity, so they are not pathwise monotone in K
    k_monotone = all(
        all(a >= b for a, b in zip(counts, counts[1:]))
        for counts in (res_k["nested"][m] for m in (Metric.WDT_SINR, Metric.WET_EHP,
                                                    Metric.IDET_SPECIAL, Metric.IDET_GENERAL))
    )
    report(
        "criterion 5 (trend reproduction)",
        wdt_monotone and wet_monotone and unimodal and wet_gain_monotone
        and w_monotone and k_monotone,
        f"N-trends ok={wdt_monotone and wet_monotone}, m_WDT interior peak at "
        f"N={n_values[peak]} (unimodal={unimodal}), m_WET non-decreasing="
        f"{wet_gain_monotone}, W-trend non-increasing={w_monotone}, "
        f"K-trend non-increasing={k_monotone}",
    )


def test_criterion_6_idet_composition():
    """Addition law in counts, analytic Frechet bounds, regime limits."""
    trials = 150_000
    addition_ok = True
    for seed, kw in ((600, {}), (601, dict(n_users=3, n_ports=4, fa_size=2.0)),
                     (602, dict(n_users=2, n_ports=2, fa_size=1.0))):
        c = simulate_outage_counts(SystemConfig(**kw), trials, seed=seed)["counts"]
        addition_ok &= c[Metric.IDET_GENERAL] == (
            c[Metric.WDT_SINR] + c[Metric.WET_EHP] - c[Metric.IDET_SPECIAL]
        )

    ctx = KernelContext.from_config(
        SystemConfig(n_users=2, n_ports=2, fa_size=1.0)
    )
    wdt = wdt_sinr_exact(ctx)
    wet = wet_ehp_exact(ctx)
    special = idet_special_exact(ctx)
    general = idet_general(wdt, wet, special)
    tol = 1e-5
    frechet_ok = (special <= min(wdt, wet) + tol
                  and general >= max(wdt, wet) - tol)

    # limit regimes: the saturated factor makes the joint outage track the
    # binding factor (small N -> WDT binds, large N -> WET binds)
    c_a = simulate_outage_counts(
        SystemConfig(n_users=2, n_ports=8, fa_size=2.0, ehp_threshold=0.100),
        trials, seed=603)["counts"]
    err_a = abs(c_a[Metric.IDET_SPECIAL] - c_a[Metric.WDT_SINR]) / c_a[Metric.WDT_SINR]
    c_b = simulate_outage_counts(
        SystemConfig(n_users=8, n_ports=8, fa_size=2.0, sinr_threshold=1.0,
                     ehp_threshold=0.100),
        trials, seed=604)["counts"]
    err_b = abs(c_b[Metric.IDET_SPECIAL] - c_b[Metric.WET_EHP]) / c_b[Metric.WET_EHP]
    regime_ok = err_a <= 0.15 and err_b <= 0.15
    report(
        "criterion 6 (IDET composition)",
        addition_ok and frechet_ok and regime_ok,
        f"count addition law exact={addition_ok}, analytic Frechet={frechet_ok}, "
        f"regime gaps small-N {err_a:.1%} / large-N {err_b:.1%} (gate 15%)",
    )


def test_criterion_7_rician_reduction_and_ordering():
    """kappa=0 reductions at 1e-4; LoS degrades both outage kinds."""
    base = dict(n_users=5, n_ports=200, fa_size=1.0, ehp_threshold=0.090)
    ctx0, tiny, ctx5 = (KernelContext.from_config(SystemConfig(**base, rician_k=k))
                        for k in (0.0, 1e-6, 5.0))
    # kappa = 1e-6 goes through the noncentral conditioners, kappa = 0
    # through the central ones
    wdt0, wet0 = wdt_sinr_exact(ctx0), wet_ehp_exact(ctx0)
    d_wdt = abs(wdt_sinr_exact(tiny) - wdt0)
    d_wet = abs(wet_ehp_exact(tiny) - wet0)
    reduction_ok = d_wdt <= 1e-4 and d_wet <= 1e-4

    wdt5, wet5 = wdt_sinr_exact(ctx5), wet_ehp_exact(ctx5)
    ordering_ok = wdt5 > wdt0 and wet5 > wet0
    report(
        "criterion 7 (Rician reduction and LoS penalty)",
        reduction_ok and ordering_ok,
        f"kappa=1e-6 vs 0 deviations {d_wdt:.1e}/{d_wet:.1e} (gate 1e-4); "
        f"kappa=5 vs 0: WDT {wdt5:.4f}>{wdt0:.4f}, WET {wet5:.4f}>{wet0:.4f}",
    )


def test_criterion_8_sweep_determinism(tmp_path):
    """Byte-identical sweep CSV across repeated runs and worker counts."""
    cfg_text = """
n_users = 2
n_ports = 2
fa_size = 1
trials = 20000
seed = 11
sweep.axis = sinr_threshold
sweep.values = 0 dB, 3 dB, 6 dB
sweep.metrics = WDT_SINR:MC, WDT_SINR:EXACT, WET_EHP:MC, WET_EHP:EXACT
"""
    cfg = tmp_path / "det.cfg"
    cfg.write_text(cfg_text)
    outputs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / f"{name}.csv"
        code = main(["sweep", str(cfg), "--workers", workers, "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    report(
        "criterion 8 (sweep determinism)",
        identical,
        f"byte-identical across reruns and workers 1/8: {identical}",
    )
