"""Special functions against frozen high-precision oracle values.

Oracle values were computed independently with mpmath at 40 digits (the
mu values at W = 50 and 300 at 50 digits).  The scipy functions that
replaced in-house wrappers (hyp1f1, iv, j1, gammainc, gammaincc) keep the
wrappers' checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

from fama_idet import specfun
from fama_idet.specfun import (
    SeriesConvergenceError,
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

    def test_series_cap_raises(self, monkeypatch):
        # the Poisson window guard: with no tail mass allowed the window
        # keeps growing and must stop at the term cap
        monkeypatch.setattr(specfun, "_REL_TOL", 0.0)
        monkeypatch.setattr(specfun, "_MAX_TERMS", 16)
        with pytest.raises(SeriesConvergenceError):
            marcum_q_outer(1, [1.0], [1.0])

    def test_wide_window_hits_series_cap(self):
        # a^2/2 = 80000 puts the Poisson window at 83,425 terms, past the
        # cap at the default constants
        with pytest.raises(SeriesConvergenceError, match="83425 terms"):
            marcum_q_outer(1, [0.0, 400.0], [1.0])

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
