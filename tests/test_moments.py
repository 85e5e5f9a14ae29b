"""Closed-form population moments against quadrature and finite-difference oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from severfit.dist import ThresholdPair
from severfit.moments import (
    _mcm_slope,
    _mtcm_slope,
    _mtum_slope,
    mcm_second_moment,
    mtcm_w_summary,
    mu_mcm,
    mu_mtcm,
    mu_mtum,
    mu_mtcm_dtheta,
    mu_mtum_dtheta,
    pareto_g_du,
    pareto_g_limits,
    sigma_mcm2,
    sigma_mtcm2,
    tail_quantities,
    truncated_summary,
)

T_MAIN = ThresholdPair(0.51, 29.96)
THETA = 10.0


def exp_pdf(x, theta=THETA):
    return math.exp(-x / theta) / theta


def window_integral(fn, t, theta=THETA):
    value, _ = quad(lambda x: fn(x) * exp_pdf(x, theta), t.d, t.u, epsabs=1e-13, epsrel=1e-13)
    return value


class TestTailQuantities:
    def test_full_line(self):
        q = tail_quantities(THETA, ThresholdPair(0.0, math.inf))
        assert (q.a, q.b, q.tau, q.p) == (0.0, 0.0, 1.0, 1.0)

    def test_main_window(self):
        q = tail_quantities(THETA, T_MAIN)
        assert q.p == pytest.approx(math.exp(-0.051) - math.exp(-2.996), rel=1e-14)
        assert q.p == pytest.approx(0.9002916, abs=1e-6)

    def test_exact_quantile_window(self):
        t = ThresholdPair(-THETA * math.log(0.95), -THETA * math.log(0.05))
        q = tail_quantities(THETA, t)
        assert q.a == pytest.approx(0.05, abs=1e-15)
        assert q.b == pytest.approx(0.05, abs=1e-15)
        assert q.p == pytest.approx(0.90, abs=1e-15)

    def test_identities(self):
        for d, u in [(0.0, 5.0), (1.0, math.inf), (2.5, 7.0)]:
            q = tail_quantities(THETA, ThresholdPair(d, u))
            assert q.p == pytest.approx(q.tau - q.b, abs=1e-15)
            assert q.a + q.b < 1
            assert q.tau == pytest.approx(1.0 - q.a, abs=1e-15)


class TestTruncatedSummary:
    def test_full_exponential(self):
        s = truncated_summary(THETA, ThresholdPair(0.0, math.inf))
        assert s.mu_y == pytest.approx(10.0, rel=1e-14)
        assert s.sigma_y2 == pytest.approx(100.0, rel=1e-13)

    def test_mean_against_quadrature(self):
        s = truncated_summary(THETA, T_MAIN)
        oracle = window_integral(lambda x: x, T_MAIN)
        assert s.mu_y == pytest.approx(oracle, rel=1e-10)
        assert s.mu_y == pytest.approx(7.98996367, abs=1e-7)  # frozen from the oracle

    def test_second_moment_against_quadrature(self):
        s = truncated_summary(THETA, T_MAIN)
        oracle = window_integral(lambda x: x * x, T_MAIN)
        assert s.mu_y2 == pytest.approx(oracle, rel=1e-8)
        assert s.sigma_y2 == pytest.approx(oracle - s.mu_y**2, rel=1e-8)

    def test_variance_nonnegative_and_bounded(self):
        for d, u in [(0.0, 1.0), (0.5, 30.0), (3.0, math.inf), (10.0, 12.0)]:
            t = ThresholdPair(d, u)
            s = truncated_summary(THETA, t)
            q = tail_quantities(THETA, t)
            assert s.sigma_y2 >= 0.0
            if not t.upper_is_infinite:
                assert s.mu_y <= t.u * q.p + t.d  # crude bound


class TestMuMtum:
    def test_full_line(self):
        assert mu_mtum(THETA, ThresholdPair(0.0, math.inf)) == pytest.approx(10.0)

    def test_infinite_theta_limit(self):
        t = ThresholdPair(1.0, 3.0)
        assert mu_mtum(1e9, t) == pytest.approx(2.0, rel=1e-8)

    def test_against_conditional_mean_oracle(self):
        q = tail_quantities(THETA, T_MAIN)
        oracle = window_integral(lambda x: x, T_MAIN) / q.p
        assert mu_mtum(THETA, T_MAIN) == pytest.approx(oracle, rel=1e-12)
        assert mu_mtum(THETA, T_MAIN) == pytest.approx(8.8748575, abs=1e-6)  # frozen

    def test_equals_ratio_form(self):
        for theta in (0.5, 2.0, 10.0, 40.0):
            s = truncated_summary(theta, T_MAIN)
            q = tail_quantities(theta, T_MAIN)
            assert mu_mtum(theta, T_MAIN) == pytest.approx(s.mu_y / q.p, rel=1e-12)

    def test_small_theta_underflow_regime(self):
        # the ratio form underflows here; the stable form must not
        t = ThresholdPair(1.0, 3.0)
        assert mu_mtum(1e-3, t) == pytest.approx(1.0 + 1e-3, rel=1e-12)

    @given(
        theta=st.floats(1e-3, 1e4),
        d=st.floats(0.0, 50.0),
        width=st.floats(1e-3, 100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_range_property(self, theta, d, width):
        t = ThresholdPair(d, d + width)
        value = mu_mtum(theta, t)
        assert t.d < value < 0.5 * (t.d + t.u) + 1e-12 * width

    def test_strictly_increasing_in_theta(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            d = float(rng.uniform(0.0, 5.0))
            u = d + float(rng.uniform(0.1, 40.0))
            t = ThresholdPair(d, u)
            grid = np.geomspace(1e-3, 1e4, 60)
            values = [mu_mtum(float(th), t) for th in grid]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotone_and_bounded_at_large_theta(self):
        # theta/(u-d) up to 1e11: the closed form cancels there, the series does not
        t = ThresholdPair(1.0, 11.0)
        values = [mu_mtum(float(r) * 10.0, t) for r in np.geomspace(1e-2, 1e11, 2000)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.5 * (t.d + t.u)

    def test_series_branch_matches_closed_form_at_switch(self):
        # x = (u-d)/theta = 1e-2 on both sides of the switch to the series
        t = ThresholdPair(1.0, 11.0)
        series, closed = mu_mtum(1000.0 * (1 + 1e-12), t), mu_mtum(1000.0 * (1 - 1e-12), t)
        assert series == pytest.approx(closed, rel=1e-13)


class TestMuMtumDerivative:
    def test_in_unit_interval(self):
        # mathematically in (0, 1); at extreme theta the value rounds to 1.0
        for theta in (0.1, 1.0, 10.0, 500.0):
            value = mu_mtum_dtheta(theta, T_MAIN)
            assert 0.0 < value <= 1.0
        for theta in (1.0, 10.0, 500.0):
            assert mu_mtum_dtheta(theta, T_MAIN) < 1.0

    def test_matches_finite_difference(self):
        for theta in (0.5, 2.0, 10.0, 77.0):
            h = 1e-5 * theta
            fd = (mu_mtum(theta + h, T_MAIN) - mu_mtum(theta - h, T_MAIN)) / (2 * h)
            assert mu_mtum_dtheta(theta, T_MAIN) == pytest.approx(fd, rel=1e-6)

    def test_infinite_u(self):
        assert mu_mtum_dtheta(THETA, ThresholdPair(2.0, math.inf)) == 1.0

    def test_large_theta_limit(self):
        assert mu_mtum_dtheta(1e8, ThresholdPair(1.0, 3.0)) < 1e-15

    def test_series_branch_positive_and_smooth(self):
        # (u - d)/theta = 2e-5 lands deep in the series branch
        t = ThresholdPair(1.0, 1.0 + 2e-4)
        theta = 10.0
        value = mu_mtum_dtheta(theta, t)
        x = (t.u - t.d) / (2 * theta)
        assert value > 0.0
        assert value == pytest.approx(x * x / 3.0, rel=1e-6)
        # series and direct evaluation agree across the seam at x = 0.05
        for x_seam in (0.0499, 0.05, 0.0501):
            t2 = ThresholdPair(0.0, 2.0 * theta * x_seam)
            direct = 1.0 - (x_seam / math.sinh(x_seam)) ** 2
            assert mu_mtum_dtheta(theta, t2) == pytest.approx(direct, rel=1e-9)

    def test_matches_50_digit_form(self):
        # x = (u-d)/theta from 1e-8 to 1400, around x = 0.1, where a three-term
        # series lost digits, and around the Taylor/sinh switch at x = 2
        mp = pytest.importorskip("mpmath")
        t = ThresholdPair(0.0, 1.0)
        xs = [float(x) for x in np.logspace(-8, math.log10(1400.0), 60)]
        xs += [0.0999, 0.1, 0.1001, 2.0 - 1e-12, 2.0, 2.0 + 1e-12]
        with mp.workdps(50):
            for x in xs:
                theta = 1.0 / x
                y = mp.mpf(t.u - t.d) / (2 * mp.mpf(theta))
                oracle = float(1 - (y / mp.sinh(y)) ** 2)
                assert mu_mtum_dtheta(theta, t) == pytest.approx(oracle, rel=1e-14, abs=0.0), x

    def test_two_printed_forms_agree(self):
        # ratio form (p^2 th^2 - e^{-(d+u)/th}(u-d)^2)/(p^2 th^2) vs csch form
        for theta in (1.0, 10.0, 25.0):
            q = tail_quantities(theta, T_MAIN)
            d, u = T_MAIN.d, T_MAIN.u
            ratio = (
                q.p**2 * theta**2 - math.exp(-(d + u) / theta) * (u - d) ** 2
            ) / (q.p**2 * theta**2)
            assert mu_mtum_dtheta(theta, T_MAIN) == pytest.approx(ratio, rel=1e-10)


class TestMuMcm:
    def test_full_line(self):
        t = ThresholdPair(0.0, math.inf)
        assert mu_mcm(THETA, t) == pytest.approx(10.0)
        assert sigma_mcm2(THETA, t) == pytest.approx(100.0, rel=1e-12)

    def test_against_censored_mean_oracle(self):
        oracle, _ = quad(
            lambda x: min(max(T_MAIN.d, x), T_MAIN.u) * exp_pdf(x),
            0.0,
            60 * THETA,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=400,
        )
        assert mu_mcm(THETA, T_MAIN) == pytest.approx(oracle, rel=1e-10)
        assert mu_mcm(THETA, T_MAIN) == pytest.approx(9.5129206, abs=1e-6)  # frozen

    def test_second_moment_against_oracle(self):
        oracle, _ = quad(
            lambda x: min(max(T_MAIN.d, x), T_MAIN.u) ** 2 * exp_pdf(x),
            0.0,
            60 * THETA,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=400,
        )
        assert mcm_second_moment(THETA, T_MAIN) == pytest.approx(oracle, rel=1e-8)
        assert sigma_mcm2(THETA, T_MAIN) == pytest.approx(
            oracle - mu_mcm(THETA, T_MAIN) ** 2, rel=1e-8
        )

    def test_range_and_monotonicity(self):
        # For theta below d/700 the survival e^{-d/theta} underflows, so the
        # true increment over d is not representable; strictness is asserted
        # where doubles can resolve it, monotone non-decrease everywhere.
        t = ThresholdPair(1.0, 7.0)
        grid = np.geomspace(1e-3, 1e4, 60)
        values = [mu_mcm(float(th), t) for th in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(t.d <= v < t.u for v in values)
        fine = np.geomspace(t.d / 25.0, 1e4, 60)
        strict = [mu_mcm(float(th), t) for th in fine]
        assert all(b > a for a, b in zip(strict, strict[1:]))
        assert all(t.d < v < t.u for v in strict)


class TestMuMtcm:
    def test_full_line(self):
        assert mu_mtcm(THETA, ThresholdPair(0.0, math.inf)) == pytest.approx(10.0)

    def test_infinite_u_shift(self):
        assert mu_mtcm(THETA, ThresholdPair(2.88, math.inf)) == pytest.approx(12.88)

    def test_against_payment_mean_oracle(self):
        q = tail_quantities(THETA, T_MAIN)
        e_w = window_integral(lambda x: x, T_MAIN) + T_MAIN.u * q.b
        assert mu_mtcm(THETA, T_MAIN) == pytest.approx(e_w / q.tau, rel=1e-10)
        assert mu_mtcm(THETA, T_MAIN) == pytest.approx(9.9839794, abs=1e-6)  # frozen

    def test_w_summary_against_oracle(self):
        q = tail_quantities(THETA, T_MAIN)
        e_w = window_integral(lambda x: x, T_MAIN) + T_MAIN.u * q.b
        e_w2 = window_integral(lambda x: x * x, T_MAIN) + T_MAIN.u**2 * q.b
        mu_w, got_w2, sigma_w2 = mtcm_w_summary(THETA, T_MAIN)
        assert mu_w == pytest.approx(e_w, rel=1e-10)
        assert got_w2 == pytest.approx(e_w2, rel=1e-8)
        assert sigma_w2 == pytest.approx(e_w2 - e_w**2, rel=1e-8)

    def test_range_and_monotonicity(self):
        t = ThresholdPair(2.0, 9.0)
        grid = np.geomspace(1e-3, 1e4, 60)
        values = [mu_mtcm(float(th), t) for th in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(t.d < v < t.u for v in values)


class TestMtcmSlopeAndVariance:
    def test_slope_matches_finite_difference(self):
        for t in (T_MAIN, ThresholdPair(2.0, 9.0)):
            step = 1e-5 * THETA
            fd = (mu_mtcm(THETA + step, t) - mu_mtcm(THETA - step, t)) / (2.0 * step)
            assert mu_mtcm_dtheta(THETA, t) == pytest.approx(fd, rel=1e-8)
        assert mu_mtcm_dtheta(THETA, ThresholdPair(2.0, math.inf)) == 1.0

    def test_variance_against_payment_oracle(self):
        # Var(min(X, u) | X > d), from the conditional moments by quadrature
        q = tail_quantities(THETA, T_MAIN)
        e_w = (window_integral(lambda x: x, T_MAIN) + T_MAIN.u * q.b) / q.tau
        e_w2 = (window_integral(lambda x: x * x, T_MAIN) + T_MAIN.u**2 * q.b) / q.tau
        assert sigma_mtcm2(THETA, T_MAIN) == pytest.approx(e_w2 - e_w**2, rel=1e-9)
        assert sigma_mtcm2(THETA, ThresholdPair(2.0, math.inf)) == THETA**2

    def test_both_branches_against_50_digit_forms(self):
        # x = (u-d)/theta across the series/closed switch at x = 1 and far beyond
        mp = pytest.importorskip("mpmath")
        t = ThresholdPair(1.0, 2.0)
        xs = [float(x) for x in np.logspace(-12, 2.5, 30)] + [1.0 - 1e-12, 1.0, 1.0 + 1e-12]
        with mp.workdps(50):
            for x in xs:
                theta = 1.0 / x
                xm = mp.mpf(t.u - t.d) / mp.mpf(theta)
                slope = 1 - (1 + xm) * mp.exp(-xm)
                var = 1 - mp.exp(-2 * xm) - 2 * xm * mp.exp(-xm)
                assert mu_mtcm_dtheta(theta, t) == pytest.approx(float(slope), rel=1e-14), x
                assert sigma_mtcm2(theta, t) / theta**2 == pytest.approx(float(var), rel=1e-14), x

    def test_mcm_variance_and_mu_y_at_large_theta(self):
        # to leading order in 1/theta: Var(Z) = (u-d)^2 (d + (u-d)/3) / theta and
        # mu_Y = (u^2 - d^2) / (2 theta); the E[Z^2] - E[Z]^2 form lost every digit
        t = ThresholdPair(1.0, 11.0)
        theta = 1e12
        assert sigma_mcm2(theta, t) == pytest.approx(100.0 * (1.0 + 10.0 / 3.0) / theta, rel=1e-10)
        assert truncated_summary(theta, t).mu_y == pytest.approx(60.0 / theta, rel=1e-10)


def _second_moment_oracle(theta, d, u):
    """E[Y^2], Var(Y), E[Z^2] and the moments of W in 50-digit arithmetic.

    On the window X = d + theta S with S ~ Exp(1) below x = (u-d)/theta
    (memorylessness), so each window moment is one mpmath quadrature with
    no cancellation in its integrand; 50 digits absorb the subtractions
    that follow.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        th, d, u = mp.mpf(theta), mp.mpf(d), mp.mpf(u)
        tau, below = mp.exp(-d / th), -mp.expm1(-d / th)
        x = (u - d) / th
        mu_y, mu_y2 = (
            tau * mp.quad(lambda s, k=k: (d + th * s) ** k * mp.exp(-s), [0, x]) for k in (1, 2)
        )
        # u^n P(X > u) vanishes as u -> inf
        above = 0 if mp.isinf(u) else mp.exp(-u / th)
        u_above, u2_above = (0, 0) if mp.isinf(u) else (u * above, u * u * above)
        mean_w, e_w2 = mu_y + u_above, mu_y2 + u2_above
        return {
            "mu_y2": float(mu_y2),
            "sigma_y2": float(mu_y2 - mu_y**2),
            "mcm_second_moment": float(d * d * below + e_w2),
            "mtcm_w_summary": (float(mean_w), float(e_w2), float(e_w2 - mean_w**2)),
        }


class TestSecondMoments:
    @pytest.mark.parametrize(
        "d,u", [(1.0, 11.0), (0.51, 29.96), (2.0, 2.001), (5.0, 6.0), (0.0, math.inf)]
    )
    def test_match_50_digit_oracle(self, d, u):
        # the difference 2 theta^2 (G3(d/theta) - G3(u/theta)) cancels here: on
        # (1, 11) it gives E[Y^2] = 0.0444 at theta = 1e7 (true 4.43e-5)
        t = ThresholdPair(d, u)
        for theta in np.geomspace(1e-1, 1e12, 14):
            theta = float(theta)
            oracle = _second_moment_oracle(theta, d, u)
            s = truncated_summary(theta, t)
            assert s.mu_y2 == pytest.approx(oracle["mu_y2"], rel=1e-13, abs=0.0), theta
            assert s.sigma_y2 == pytest.approx(oracle["sigma_y2"], rel=1e-13, abs=0.0), theta
            assert mcm_second_moment(theta, t) == pytest.approx(
                oracle["mcm_second_moment"], rel=1e-13, abs=0.0
            ), theta
            assert mtcm_w_summary(theta, t) == pytest.approx(
                oracle["mtcm_w_summary"], rel=1e-13, abs=0.0
            ), theta


class TestQuantileFormEquivalence:
    def test_truncated_mean_via_quantile_domain(self):
        # population moment as an integral of the quantile function
        for d, u in [(0.51, 29.96), (0.0, 5.0), (2.0, 8.0)]:
            t = ThresholdPair(d, u)
            lo = 1.0 - math.exp(-d / THETA)
            hi = 1.0 - math.exp(-u / THETA)
            oracle, _ = quad(
                lambda v: -THETA * math.log1p(-v), lo, hi, epsabs=1e-13, epsrel=1e-13
            )
            q = tail_quantities(THETA, t)
            assert mu_mtum(THETA, t) == pytest.approx(oracle / q.p, rel=1e-8)


class TestParetoG:
    T = ThresholdPair(2.0, 10.0)

    def test_against_conditional_log_mean_oracle(self):
        alpha, x0 = 1.0, 1.0
        pdf = lambda y: alpha * x0**alpha / y ** (alpha + 1)
        num, _ = quad(lambda y: math.log(y / x0) * pdf(y), 2.0, 10.0, epsabs=1e-13)
        p = (x0 / 2.0) ** alpha - (x0 / 10.0) ** alpha
        assert pareto_g_du(alpha, self.T, x0) == pytest.approx(num / p, rel=1e-12)
        assert pareto_g_du(alpha, self.T, x0) == pytest.approx(1.2907877, abs=1e-6)

    def test_limits_closed_forms(self):
        lower, upper = pareto_g_limits(self.T, 1.0)
        assert lower == pytest.approx(math.log(2.0), rel=1e-14)
        log_u, log_d = math.log(10.0), math.log(2.0)
        expected_upper = (
            log_u**2 - log_d**2 - 2 * log_u * math.log(1.0 / 2.0) + 2 * log_d * math.log(1.0 / 10.0)
        ) / (2 * math.log(5.0))
        assert upper == pytest.approx(expected_upper, rel=1e-14)
        assert lower < upper

    def test_lower_limit_zero_at_x0(self):
        lower, _ = pareto_g_limits(ThresholdPair(3.0, 9.0), 3.0)
        assert lower == 0.0

    def test_small_alpha_approaches_upper(self):
        _, upper = pareto_g_limits(self.T, 1.0)
        assert abs(pareto_g_du(1e-6, self.T, 1.0) - upper) < 1e-4

    def test_large_alpha_first_order_gap(self):
        # the approach to the lower limit is first order: g(alpha) - lower = 1/alpha
        # plus an exponentially small remainder, so the gap at alpha = 1e3 is 1e-3
        lower, _ = pareto_g_limits(self.T, 1.0)
        for alpha in (1e3, 1e5):
            gap = pareto_g_du(alpha, self.T, 1.0) - lower
            assert gap == pytest.approx(1.0 / alpha, rel=1e-6)
        assert abs(pareto_g_du(1e7, self.T, 1.0) - lower) < 1.1e-7
        # full identity, remainder included, on a window where alpha*w is O(1):
        # g(alpha) - lower = 1/alpha - w*r/(1-r) with r = (d/u)^alpha = exp(-alpha*w)
        narrow = ThresholdPair(2.0, 2.002)
        lower_n, _ = pareto_g_limits(narrow, 1.0)
        alpha, w = 1e3, math.log(narrow.u / narrow.d)
        r = math.exp(-alpha * w)
        expected = 1.0 / alpha - w * r / (1.0 - r)
        gap = pareto_g_du(alpha, narrow, 1.0) - lower_n
        assert gap == pytest.approx(expected, rel=1e-9)

    def test_strictly_decreasing(self):
        grid = np.geomspace(1e-4, 1e3, 80)
        values = [pareto_g_du(float(a), self.T, 1.0) for a in grid]
        assert all(b < a for a, b in zip(values, values[1:]))
        # down to alpha = 1e-15 the map stays monotone and inside its limits;
        # below about 1e-14 a grid step moves g by less than one rounding unit
        lower, upper = pareto_g_limits(self.T, 1.0)
        grid = np.geomspace(1e-15, 1e3, 200)
        values = [pareto_g_du(float(a), self.T, 1.0) for a in grid]
        assert all(lower < g < upper for g in values)
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(b < a for a, b, al in zip(values, values[1:], grid) if al > 1e-13)

    def test_infinite_u_rejected(self):
        with pytest.raises(ValueError):
            pareto_g_du(1.0, ThresholdPair(2.0, math.inf), 1.0)
        with pytest.raises(ValueError):
            pareto_g_limits(ThresholdPair(2.0, math.inf), 1.0)

    def test_is_mtum_on_the_log_window(self):
        # log(Y/x0) is Exp(1/alpha): the map is mu_mtum(1/alpha) on (log(d/x0), log(u/x0))
        alpha = np.geomspace(1e-15, 1e6, 301)
        for t, x0 in (
            (self.T, 1.0), (ThresholdPair(3.0, 9.0), 3.0), (ThresholdPair(100.0, 100.001), 0.7)
        ):
            t_log = ThresholdPair(math.log(t.d / x0), math.log(t.u / x0))
            assert np.array_equal(pareto_g_du(alpha, t, x0), mu_mtum(1.0 / alpha, t_log))
            assert pareto_g_du(2.0, t, x0) == mu_mtum(0.5, t_log)
            assert pareto_g_limits(t, x0) == (t_log.d, t_log.d + 0.5 * (t_log.u - t_log.d))

    def test_d_below_x0_rejected(self):
        with pytest.raises(ValueError):
            pareto_g_du(1.0, ThresholdPair(0.5, 10.0), 1.0)


class TestThetaValidation:
    def test_nonpositive_theta_rejected(self):
        for fn in (mu_mtum, mu_mcm, mu_mtcm, tail_quantities, truncated_summary):
            with pytest.raises(ValueError):
                fn(0.0, T_MAIN)
            with pytest.raises(ValueError):
                fn(-2.0, T_MAIN)


# The forward maps the estimators solve, with the supremum of each one's
# attainable interval.
FORWARD_MAPS = (
    (mu_mtum, lambda t: 0.5 * (t.d + t.u)),
    (mu_mcm, lambda t: t.u),
    (mu_mtcm, lambda t: t.u),
)
WINDOWS = st.builds(
    lambda d, width, infinite: ThresholdPair(d, math.inf if infinite else d + width),
    st.floats(0.0, 1e3),
    st.floats(1e-6, 1e3),
    st.booleans(),
)


class TestArrayForwardMaps:
    @given(t=WINDOWS)
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_inside_interval(self, t):
        # theta/(u - d) over 24 decades (the scale is max(1, d) for infinite u)
        scale = (t.u - t.d) if not t.upper_is_infinite else max(1.0, t.d)
        theta = scale * np.geomspace(1e-12, 1e12, 2401)
        for forward, sup in FORWARD_MAPS:
            values = forward(theta, t)
            assert np.all(np.diff(values) >= 0.0), forward.__name__
            assert np.all((values >= t.d) & (values <= sup(t))), forward.__name__

    @given(
        d=st.floats(1.0, 1e3),
        ratio=st.floats(1.0 + 1e-6, 1e3),
        x0_share=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_pareto_map_monotone_and_inside_limits(self, d, ratio, x0_share):
        t = ThresholdPair(d, d * ratio)
        x0 = d * x0_share
        assume(t.u > t.d)
        lower, upper = pareto_g_limits(t, x0)
        values = pareto_g_du(np.geomspace(1e-15, 1e6, 2101), t, x0)
        assert np.all(np.diff(values) <= 0.0)
        assert np.all((values >= lower) & (values <= upper))

    @given(
        t=WINDOWS,
        thetas=st.lists(st.floats(1e-6, 1e9), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_array_call_equals_float_calls(self, t, thetas):
        for forward, _ in FORWARD_MAPS:
            batch = forward(np.array(thetas), t)
            singles = [forward(theta, t) for theta in thetas]
            assert all(type(value) is float for value in singles)
            assert np.array_equal(batch, np.array(singles)), forward.__name__
        if not t.upper_is_infinite and t.d > 1e-6:
            batch = pareto_g_du(np.array(thetas), t, t.d / 2.0)
            singles = [pareto_g_du(alpha, t, t.d / 2.0) for alpha in thetas]
            assert np.array_equal(batch, np.array(singles))

    def test_array_rejects_any_bad_element(self):
        for forward, _ in FORWARD_MAPS:
            with pytest.raises(ValueError):
                forward(np.array([1.0, 0.0]), T_MAIN)
            with pytest.raises(ValueError):
                forward(np.array([1.0, math.nan]), T_MAIN)
        with pytest.raises(ValueError):
            pareto_g_du(np.array([1.0, -1.0]), ThresholdPair(2.0, 10.0), 1.0)

    def test_limits_on_a_narrow_window(self):
        # the upper limit is the log-uniform mean; a difference of squares
        # divided by log(u/d) lost it to cancellation on narrow windows
        t, x0 = ThresholdPair(100.0, 100.001), 1.0
        lower, upper = pareto_g_limits(t, x0)
        assert upper == pytest.approx(0.5 * (math.log(100.0) + math.log(100.001)), rel=1e-15)
        assert pareto_g_du(1e-15, t, x0) <= upper


class TestArraySlopes:
    """The root solver's slopes: array versions of the derivatives."""

    @given(t=WINDOWS)
    @settings(max_examples=60, deadline=None)
    def test_match_the_scalar_derivatives(self, t):
        # theta/(u - d) over 16 decades, across both series branches
        scale = (t.u - t.d) if not t.upper_is_infinite else max(1.0, t.d)
        theta = scale * np.geomspace(1e-8, 1e8, 321)
        for array_slope, scalar in ((_mtum_slope, mu_mtum_dtheta), (_mtcm_slope, mu_mtcm_dtheta)):
            expected = np.array([scalar(x, t) for x in theta])
            assert np.allclose(array_slope(theta, t), expected, rtol=1e-14, atol=0.0), scalar

    @pytest.mark.parametrize(
        "t",
        [T_MAIN, ThresholdPair(2.0, math.inf), ThresholdPair(0.0, 5.0),
         ThresholdPair(100.0, 100.001)],
        ids=str,
    )
    def test_mcm_slope_matches_50_digit_oracle(self, t):
        # p + (d/theta) tau - (u/theta) b, with d/theta up to 200
        mp = pytest.importorskip("mpmath")
        theta = np.geomspace(max(t.d, 1.0) / 200.0, 1e8, 181)

        def oracle(x):
            x = mp.mpf(x)
            tau = mp.exp(-mp.mpf(t.d) / x)
            if t.upper_is_infinite:
                return float(tau + t.d / x * tau)
            b = mp.exp(-mp.mpf(t.u) / x)
            return float(tau - b + t.d / x * tau - mp.mpf(t.u) / x * b)

        with mp.workdps(50):
            expected = np.array([oracle(x) for x in theta])
        assert np.allclose(_mcm_slope(theta, t), expected, rtol=1e-12, atol=0.0)
