"""Special functions against frozen high-precision oracle values.

Oracle values were computed independently with mpmath at 40 digits (the
mu values at W = 50 and 300 at 50 digits).  The scipy functions that
replaced in-house wrappers (hyp1f1, iv, j1, gammainc, gammaincc) keep the
wrappers' checks.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

from fama_idet import specfun
from fama_idet.specfun import (
    QuadratureConvergenceError,
    bessel_i_ln,
    marcum_q_outer,
    mu_from_w,
)

# (order, a, b, Q_order(a, b)) from mpmath's Poisson-gamma representation
MARCUM_ORACLE = [
    (1, 0.5, 1.0, 0.64271423027254377),
    (1, 2.0, 3.0, 0.21436208816264946),
    (2, 1.5, 0.7, 0.99093907398933029),
    (4, 3.0, 2.5, 0.96387808095274243),
    (5, 0.3, 4.0, 0.10378528201163275),
    (3, 6.0, 5.5, 0.82569955206336653),
    (1, 0.0, 2.0, 0.13533528323661269),
    (2, 10.0, 9.0, 0.87663838145763797),
]

HYP1F1_ORACLE = [
    (2.5, 3.5, 1.2, 2.4296304350551779),
    (1.0, 2.0, -4.0, 0.24542109027781645),
    (0.5, 1.5, 10.0, 1168.2304635794389),
    (3.0, 1.0, -0.5, 0.075816332464079178),
]

BESSEL_I_LN_ORACLE = [
    (0, 0.5, 0.061549719185481304),
    (0, 50.0, 47.127575501871805),
    (1, 700.0, 695.80498520185565),
    (4, 3.0, -1.1217626566701268),
]

MU_ORACLE = [
    (0.1, 0.991822593868641),
    (0.5, 0.82259962358347),
    (1.0, 0.556107207024928),
    (2.0, 0.396664784074122),
    (5.0, 0.251924182354),
    (20.0, 0.126131590659995),
    (50.0, 0.0797844284321922527632887),
    (300.0, 0.03257338857903259707271122),
]


class TestMarcumQ:
    @pytest.mark.parametrize("order,a,b,want", MARCUM_ORACLE)
    def test_oracle_values(self, order, a, b, want):
        got = float(marcum_q_outer(order, [a], [b])[0, 0])
        assert got == pytest.approx(want, rel=1e-10)

    def test_b_zero_is_one(self):
        for order in (1, 2, 5):
            q = marcum_q_outer(order, [0.0, 0.5, 3.0, 20.0], [0.0])
            assert np.allclose(q, 1.0, rtol=0.0, atol=1e-12)

    def test_a_zero_is_upper_gamma(self):
        bs = np.array([0.2, 1.0, 3.0, 8.0])
        for order in (1, 2, 4, 7):
            want = sp.gammaincc(order, bs * bs / 2.0)
            got = marcum_q_outer(order, [0.0], bs)[0]
            assert got == pytest.approx(want, rel=1e-12)

    def test_outer_matches_elementwise(self):
        # Q_N(a, b) is the survival function of a noncentral chi-square with
        # 2N dof and noncentrality a^2, at b^2; scipy computes it elementwise
        a = np.array([0.0, 0.3, 0.7, 2.0, 5.0, 10.0])
        b = np.array([0.1, 0.5, 1.5, 4.0, 9.0, 12.0])
        for order in (1, 2, 3, 5, 8):
            outer = marcum_q_outer(order, a, b)
            assert outer.shape == (6, 6)
            want = stats.ncx2.sf(b[None, :] ** 2, 2 * order, a[:, None] ** 2)
            assert outer == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("b", [
        30.0,   # 9.3e-24, to 1.3e-13
        pytest.param(40.0, marks=pytest.mark.xfail(strict=True, reason=(
            "reads 1.986e-89 against 3.897e-89 (-49%): the Poisson window follows "
            "a alone and drops the terms of the tail far above a (ROADMAP item 13)"))),
        pytest.param(45.0, marks=pytest.mark.xfail(strict=True, reason=(
            "reads 1.750e-141 against 4.588e-138: the Poisson window follows a "
            "alone and drops the terms of the tail far above a (ROADMAP item 13)"))),
    ])
    def test_upper_tail_far_above_a(self, b):
        got = float(marcum_q_outer(1, [20.0], [b])[0, 0])
        assert got == pytest.approx(stats.ncx2.sf(b * b, 2, 400.0), rel=1e-10, abs=0.0)

    def test_series_cap_raises(self, monkeypatch):
        # a^2/2 = 0.5 puts the Poisson window at k = 0..45: a cap of 46 terms
        # admits it, and one of 45 refuses it, naming its width
        monkeypatch.setattr(specfun, "_MAX_TERMS", 46)
        assert specfun._poisson_k_range(0.5, 0.5) == (0, 45)
        marcum_q_outer(1, [1.0], [1.0])
        monkeypatch.setattr(specfun, "_MAX_TERMS", 45)
        with pytest.raises(QuadratureConvergenceError, match="needs 46 terms"):
            marcum_q_outer(1, [1.0], [1.0])

    def test_wide_window_hits_series_cap(self):
        # a^2/2 = 80000 puts the Poisson window at 83,425 terms, past the
        # cap at the default constants
        with pytest.raises(QuadratureConvergenceError, match="83425 terms"):
            marcum_q_outer(1, [0.0, 400.0], [1.0])

    @staticmethod
    def _gamma_table_mixture(orders, a, b):
        # the Poisson-gamma mixture term by term, one gamma per (k, b) over
        # the same window: what the gamma-order recurrence must reproduce.
        # One table of GammaReg(s, x) serves every order.
        lam, x = 0.5 * np.square(a), 0.5 * np.square(b)
        k_lo, k_hi = specfun._poisson_k_range(lam.min(), lam.max())
        ks = np.arange(k_lo, k_hi + 1, dtype=float)
        pmat = specfun._poisson_weights(lam, ks)
        gamma = sp.gammaincc(np.arange(k_lo + 1, k_hi + max(orders) + 1.0)[:, None], x[None, :])
        for order in orders:
            out = pmat @ gamma[order - 1:order + ks.size - 1]
            np.clip(out, 0.0, 1.0, out=out)
            out[:, x == 0.0] = 1.0
            yield order, out

    @pytest.mark.parametrize("a,rel", [
        (np.array([0.0, 0.5, 2.0, 5.0, 9.0, 12.0]), 1e-12),
        (np.array([math.sqrt(2000.0)]), 5e-11),
        (np.array([math.sqrt(8000.0)]), 5e-11),
    ], ids=["a<=12", "a2/2=1000", "a2/2=4000"])
    def test_recurrence_matches_gamma_table(self, a, rel):
        # 5,000 b-values span several term-table chunks at the wide windows
        # and reach below 1e-290 in the upper tail
        b = np.concatenate([[0.0], np.linspace(0.01, 130.0, 4999)])
        for order, want in self._gamma_table_mixture((1, 2, 4, 7), a, b):
            got = marcum_q_outer(order, a, b)
            live = want > 1e-290
            assert np.all(got[:, 0] == 1.0)
            assert np.max(np.abs(got[live] - want[live]) / want[live]) <= rel

    def test_memory_bounded_at_wide_window(self):
        # the a-grid of a W = 0.3 evaluation: a window of 2,221 terms, whose
        # full gamma table over these b-values would take 145 MB
        a = np.sqrt(6.38 * 2.0 * sp.roots_laguerre(72)[0])
        b = np.sqrt(np.linspace(0.0, 4000.0, 8192))
        tracemalloc.start()
        try:
            marcum_q_outer(1, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2 ** 20

    @given(
        a=st.floats(0.0, 15.0),
        b=st.floats(0.0, 15.0),
        order=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_is_probability(self, a, b, order):
        q = float(marcum_q_outer(order, [a], [b])[0, 0])
        assert -1e-12 <= q <= 1.0 + 1e-12

    @given(a=st.floats(0.0, 10.0), order=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_decreasing_in_b(self, a, order):
        bs = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        q = marcum_q_outer(order, [a], bs)[0]
        assert np.all(np.diff(q) <= 1e-12)

    @given(b=st.floats(0.1, 10.0), order=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_increasing_in_a(self, b, order):
        qs = marcum_q_outer(order, [0.0, 0.5, 1.0, 2.0, 5.0], [b])[:, 0]
        assert np.all(np.diff(qs) >= -1e-12)


class TestNcx2Pdf:
    @staticmethod
    def _bessel_form(m, lam, x):
        # 0.5 (x/lam)^((m-1)/2) exp(-(lam + x)/2) I_{m-1}(sqrt(lam x)), with
        # the exponentially scaled Bessel carrying the sqrt(lam x) cross term
        lam, x = lam[:, None], x[None, :]
        return 0.5 * np.exp(np.log(sp.ive(m - 1, np.sqrt(lam * x)))
                            - 0.5 * (np.sqrt(lam) - np.sqrt(x)) ** 2
                            + 0.5 * (m - 1) * (np.log(x) - np.log(lam)))

    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_matches_bessel_form(self, m):
        # scipy.stats.ncx2.pdf is no oracle here: below 1e-30 at lam >= 400
        # it is off by up to 100% relative at some points
        lam = np.array([0.0, 0.5, 3.0, 20.0, 100.0, 400.0, 1500.0, 4000.0])
        x = np.concatenate([[0.0], np.linspace(0.01, 5600.0, 2999)])
        got = specfun._ncx2_pdf_on(m, lam, x.min(), x.max())(x)
        assert got.shape == (8, 3000)
        want = self._bessel_form(m, lam[1:], x[1:])
        live = want > 1e-30
        assert np.max(np.abs(got[1:, 1:][live] - want[live]) / want[live]) <= 1e-11
        assert got[0] == pytest.approx(stats.chi2.pdf(x, 2 * m), rel=1e-12)
        assert np.all(got[:, 0] == 0.0)


def _largest_admitted_lam():
    """The largest Poisson mean, to 1e-3, whose window fits the term cap."""
    lo, hi = 0.0, 1e6
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        try:
            specfun._poisson_k_range(mid, mid)
            lo = mid
        except QuadratureConvergenceError:
            hi = mid
    return lo


class TestPoissonWindow:
    """Every Poisson mixture sums the window lam +- (12 sqrt(lam + 1) + 30),
    which leaves under 1e-30 of the mass out on either side, for each lam of
    its span, at every lam the term cap admits."""

    LAM_CAP = _largest_admitted_lam()
    GRID = np.unique(np.concatenate([[0.0], np.geomspace(1e-6, LAM_CAP, 2000),
                                     np.arange(0.25, 400.0, 0.25)]))

    def test_cap_admits_lam_up_to_171526(self):
        assert 171_525.0 < self.LAM_CAP < 171_527.0
        k_lo, k_hi = specfun._poisson_k_range(self.LAM_CAP, self.LAM_CAP)
        assert k_hi - k_lo + 1 == specfun._MAX_TERMS
        with pytest.raises(QuadratureConvergenceError, match="10001 terms"):
            specfun._poisson_k_range(self.LAM_CAP + 0.01, self.LAM_CAP + 0.01)

    @staticmethod
    def _tails(lo, hi, lam):
        """P(K < k_lo) and P(K > k_hi) at each lam, on the windows of the
        spans [lo, hi]."""
        windows = np.array([specfun._poisson_k_range(a, b) for a, b in zip(lo, hi)], dtype=float)
        k_lo, k_hi = windows.T
        lower = np.where(k_lo > 0, sp.gammaincc(np.maximum(k_lo, 1.0), lam), 0.0)
        return lower, sp.gammainc(k_hi + 1.0, lam)

    def test_tails_below_1e_30(self):
        lower, upper = self._tails(self.GRID, self.GRID, self.GRID)
        assert lower.max() < 1e-30 and upper.max() < 1e-30
        # the lower tail is live: the window starts above 0 from lam = 202 up
        assert np.count_nonzero(lower) > 1000

    def test_span_window_covers_each_lam_of_the_span(self):
        # midway between neighbours (spans at the cap's end would pass it)
        grid = self.GRID[self.GRID < 1e4]
        lower, upper = self._tails(grid[:-1], grid[1:], 0.5 * (grid[:-1] + grid[1:]))
        assert lower.max() < 1e-30 and upper.max() < 1e-30

    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_pdf_terms_outside_window_below_1e_30(self, m):
        # _ncx2_pdf_on's terms pois(k; alpha) pois(m - 1 + k; y) peak near
        # k = sqrt(alpha y), on whose window they are summed; their sum over
        # every k comes from the log-terms directly
        for lam_g in np.geomspace(1e-3, self.LAM_CAP, 40):
            for ratio in (1e-4, 1.0, 1e4):
                alpha, y = lam_g * math.sqrt(ratio), lam_g / math.sqrt(ratio)
                k = np.arange(int(lam_g + 40.0 * math.sqrt(lam_g + 1.0) + 200.0), dtype=float)
                log_terms = (k * math.log(alpha) - sp.gammaln(k + 1.0)
                             + (m - 1 + k) * math.log(y) - sp.gammaln(m + k))
                k_lo, k_hi = specfun._poisson_k_range(lam_g, lam_g)
                outside = np.concatenate([log_terms[:k_lo], log_terms[k_hi + 1:]])
                assert sp.logsumexp(outside) - sp.logsumexp(log_terms) < math.log(1e-30), (
                    lam_g, ratio)


class TestFlushedExp:
    """Exps that feed a contraction flush results below the smallest normal
    double to 0, and keep np.exp's value bit for bit everywhere else."""

    TINY = np.finfo(float).tiny

    def test_poisson_weights_hold_no_subnormal(self):
        x = np.concatenate([[0.0], np.geomspace(1e-3, 800.0, 500)])
        ks = np.arange(201, dtype=float)
        got = specfun._poisson_weights(x, ks)
        assert np.all((got == 0.0) | (got >= self.TINY))
        with np.errstate(divide="ignore"):
            log_terms = ks * np.log(x[1:])[:, None] - x[1:, None] - sp.gammaln(ks + 1.0)
        want = np.exp(log_terms)
        live = got[1:] != 0.0
        assert np.array_equal(got[1:][live], want[live])
        assert np.all(want[~live] < self.TINY)
        assert np.any((want > 0.0) & (want < self.TINY))    # the flush had work to do
        assert np.array_equal(got[0], ks == 0)              # the x = 0 row

    @pytest.mark.parametrize("x", [-708.39, -708.40, -745.2, -np.inf, np.nan, 0.0, -1.0])
    def test_helper_at_the_edge(self, x):
        want = np.exp(x)
        for out in (None, np.full(1, 7.0)):    # a reused buffer is overwritten
            got = specfun._flushed_exp(np.array([x]), out)[0]
            if math.isnan(x):
                assert math.isnan(got)
            elif want < self.TINY:
                assert got == 0.0
            else:
                assert got == want

    def test_cut_follows_np_exp(self):
        cut = specfun._EXP_CUT
        assert np.exp(cut) >= self.TINY > np.exp(np.nextafter(cut, -np.inf))
        assert np.exp(-708.39) >= self.TINY > np.exp(-708.40) > 0.0


class TestHypergeometric:
    @pytest.mark.parametrize("a,b,x,want", HYP1F1_ORACLE)
    def test_1f1_oracle(self, a, b, x, want):
        assert sp.hyp1f1(a, b, x) == pytest.approx(want, rel=1e-10)

    @given(x=st.floats(-5.0, 20.0), a=st.floats(0.3, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_1f1_a_equals_b_is_exp(self, x, a):
        assert sp.hyp1f1(a, a, x) == pytest.approx(math.exp(x), rel=1e-10)


class TestBessel:
    @pytest.mark.parametrize("n,x,want", BESSEL_I_LN_ORACLE)
    def test_i_ln_oracle(self, n, x, want):
        assert float(bessel_i_ln(n, x)) == pytest.approx(want, rel=1e-12)

    def test_i_matches_ln(self):
        for n, x in [(0, 0.5), (2, 4.0), (1, 30.0)]:
            assert sp.iv(n, x) == pytest.approx(
                math.exp(float(bessel_i_ln(n, x))), rel=1e-12
            )

    def test_j1_small_argument(self):
        # J1(x) ~ x/2 for small x
        assert sp.j1(1e-8) == pytest.approx(0.5e-8, rel=1e-6)


class TestGamma:
    @given(s=st.floats(0.5, 20.0), x=st.floats(0.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_complement(self, s, x):
        assert sp.gammainc(s, x) + sp.gammaincc(s, x) == pytest.approx(
            1.0, abs=1e-12
        )


class TestMuFromW:
    @pytest.mark.parametrize("w,want", MU_ORACLE)
    def test_oracle_values(self, w, want):
        assert mu_from_w(w) == pytest.approx(want, rel=1e-10)

    def test_decreasing_in_w(self):
        vals = [mu_from_w(w) for w in (0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_range(self):
        for w in (0.05, 0.3, 1.0, 7.0, 15.0):
            assert 0.0 < mu_from_w(w) < 1.0

    def test_refuses_w_where_it_cancels(self):
        # against a 60-digit mpmath reference, the relative error is 1.5e-11
        # at W = 1e6 and 2.5e-10 at 1e7; at 1e20 the formula read 8e-14 for 5.6e-11
        assert mu_from_w(1e6) == pytest.approx(5.641895835376509e-4, rel=1e-10)
        for w in (1e7, 1e20):
            with pytest.raises(ValueError, match="exceeds 1e\\+06 wavelengths"):
                mu_from_w(w)
