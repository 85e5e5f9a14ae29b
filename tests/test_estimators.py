"""Sample statistics, solver round trips, existence trichotomy, MLE
benchmarks, and the end-to-end fit orchestration."""

import math
import os
import threading
import urllib.request
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from severfit import cli, estimators
from severfit.dist import (
    ExponentialModel,
    ParetoIModel,
    RandomSource,
    ThresholdPair,
    exp_quantile,
    log_transform_pareto_to_exp,
    sample,
)
from severfit.errors import DegenerateError, EmptyWindowError
from severfit.estimators import (
    _BOUNDARY_GUARD,
    _METHODS,
    ABOVE_UPPER_BOUND,
    BELOW_LOWER_BOUND,
    EMPTY_WINDOW,
    fit,
    mle_exp,
    mle_pareto1,
    read_loss_csv,
    sample_mcm,
    sample_mtcm,
    sample_mtum,
    solve_mcm_exp,
    solve_mtcm_exp,
    solve_mtum_exp,
    solve_mtum_pareto1,
    _root,
    _window,
)
from severfit.moments import (
    mu_mcm,
    mu_mtcm,
    mu_mtum,
    pareto_g_du,
    pareto_g_limits,
)

THETA = 10.0
T_MAIN = ThresholdPair(0.51, 29.96)


def quantile_pair(a, b, theta):
    m = ExponentialModel(theta)
    d = exp_quantile(m, a)
    u = math.inf if b == 0.0 else exp_quantile(m, 1.0 - b)
    return ThresholdPair(d, u)


class TestSampleStatistics:
    def test_mtum_hand_count(self):
        s = sample_mtum([1, 2, 3, 100], ThresholdPair(0.5, 10))
        assert s.mu_hat == pytest.approx(2.0)
        assert s.n_window == 3 and s.n == 4

    def test_mtum_empty_window(self):
        with pytest.raises(EmptyWindowError):
            sample_mtum([1, 2, 3], ThresholdPair(5, 10))

    def test_mtum_tie_handling(self):
        # left-open, right-closed: x == d excluded, x == u included
        s = sample_mtum([0.5, 10.0, 20.0], ThresholdPair(0.5, 10))
        assert s.mu_hat == pytest.approx(10.0)
        assert s.n_window == 1

    def test_mcm_hand_count(self):
        s = sample_mcm([0.1, 5, 50], ThresholdPair(1, 10))
        assert s.mu_hat == pytest.approx(16.0 / 3.0)
        assert sample_mcm([5], ThresholdPair(1, 10)).mu_hat == pytest.approx(5.0)

    def test_mcm_infinite_u(self):
        s = sample_mcm([0.1, 5, 50], ThresholdPair(1, math.inf))
        assert s.mu_hat == pytest.approx((1 + 5 + 50) / 3.0)

    def test_mtcm_hand_count(self):
        s = sample_mtcm([0.1, 5, 50], ThresholdPair(1, 10))
        assert s.mu_hat == pytest.approx(7.5)
        assert s.n_above_d == 2

    def test_mtcm_empty(self):
        with pytest.raises(EmptyWindowError):
            sample_mtcm([0.1], ThresholdPair(1, 10))

    def test_consistency_with_population(self):
        x = sample(ExponentialModel(THETA), 10**6, RandomSource(seed=17))
        assert sample_mtum(x, T_MAIN).mu_hat == pytest.approx(
            mu_mtum(THETA, T_MAIN), abs=0.03
        )
        assert sample_mcm(x, T_MAIN).mu_hat == pytest.approx(
            mu_mcm(THETA, T_MAIN), abs=0.03
        )
        assert sample_mtcm(x, T_MAIN).mu_hat == pytest.approx(
            mu_mtcm(THETA, T_MAIN), abs=0.03
        )


def _masked_statistics(x, t):
    """The row-wise statistics as masked sums (``sum(where=)``), the way they
    were computed before the window triple: the oracle for ``_window``."""
    n = x.shape[1]
    above_d = x > t.d
    inside = above_d if t.upper_is_infinite else above_d & (x <= t.u)
    total = x.sum(axis=1, where=inside)
    n_above, n_inside = np.count_nonzero(above_d, axis=1), np.count_nonzero(inside, axis=1)
    above_u = 0.0 if t.upper_is_infinite else t.u * (n_above - n_inside)
    with np.errstate(invalid="ignore"):
        return {
            "mtum": (total / n_inside, n_inside),
            "mcm": ((t.d * (n - n_above) + total + above_u) / n, np.full(len(x), n)),
            "mtcm": ((total + above_u) / n_above, n_above),
        }


class TestWindowStatistics:
    @given(
        d=st.floats(0.0, 50.0),
        width=st.floats(1e-3, 50.0),
        infinite=st.booleans(),
        rows=st.integers(1, 6),
        n=st.integers(1, 40),
        empty_first_row=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_triple_statistics_match_masked_sums(
        self, d, width, infinite, rows, n, empty_first_row, data
    ):
        t = ThresholdPair(d, math.inf if infinite else d + width)
        # values tied with d and u, zeros, and any value up to well past u
        ties = [0.0, t.d] if infinite else [0.0, t.d, t.u]
        value = st.one_of(st.sampled_from(ties), st.floats(0.0, 200.0))
        x = np.array(data.draw(st.lists(value, min_size=rows * n, max_size=rows * n)))
        x = x.reshape(rows, n)
        if empty_first_row:
            x[0] = np.minimum(x[0], t.d)
        expected = _masked_statistics(x, t)
        window = _window(x, t)
        for method, spec in _METHODS.items():
            mu_hat, count = spec.statistic(window, n, t)
            want_mu, want_count = expected[method]
            assert np.array_equal(count, want_count), method
            assert np.allclose(mu_hat, want_mu, rtol=1e-12, atol=0.0, equal_nan=True), method
        if empty_first_row:
            assert np.isnan(expected["mtum"][0][0]) and np.isnan(expected["mtcm"][0][0])

    @pytest.mark.parametrize(
        "t", [T_MAIN, ThresholdPair(2.0, math.inf), ThresholdPair(9.9, 10.1)], ids=str
    )
    def test_counts_and_fits_as_with_count_nonzero(self, t, monkeypatch):
        # the int32 row counts are count_nonzero's, so every statistic and fit keeps its bits
        def count_nonzero_window(x, t):
            above_d = x > t.d
            inside = above_d if t.upper_is_infinite else above_d & (x <= t.u)
            total = (x * inside).sum(axis=1)
            return np.count_nonzero(above_d, axis=1), np.count_nonzero(inside, axis=1), total

        x = sample(ExponentialModel(THETA), (40, 250), RandomSource(seed=21))
        x[0] = np.minimum(x[0], t.d)  # a row with an empty window
        counts, expected = _window(x, t), count_nonzero_window(x, t)
        assert counts[0].dtype == counts[1].dtype == np.int32
        for got, want in zip(counts, expected, strict=True):
            assert np.array_equal(got, want)
        fits = [fit(method, "exp", row, t) for row in x[:8] for method in _METHODS]
        monkeypatch.setattr(estimators, "_window", count_nonzero_window)
        assert fits == [fit(method, "exp", row, t) for row in x[:8] for method in _METHODS]


class TestMle:
    def test_exp_mean(self):
        r = mle_exp([2, 4, 6])
        assert r.estimate == pytest.approx(4.0)
        assert r.avar == pytest.approx(16.0)
        assert r.exists

    def test_exp_lln(self):
        x = sample(ExponentialModel(THETA), 10**6, RandomSource(seed=21))
        assert mle_exp(x).estimate == pytest.approx(10.0, abs=0.05)

    def test_exp_degenerate(self):
        with pytest.raises(DegenerateError):
            mle_exp([0.0, 0.0])
        with pytest.raises(ValueError):
            mle_exp([-1.0, 2.0])

    def test_pareto_two_point(self):
        x0 = 2.0
        r = mle_pareto1([x0 * math.e, x0 * math.e], x0)
        assert r.estimate == pytest.approx(1.0, rel=1e-14)

    def test_pareto_transform_identity(self):
        y = sample(ParetoIModel(2.0, 1.5), 500, RandomSource(seed=3))
        direct = mle_pareto1(y, 1.5).estimate
        via_exp = 1.0 / mle_exp(np.log(y / 1.5)).estimate
        assert direct == pytest.approx(via_exp, rel=1e-14)

    def test_pareto_lln(self):
        y = sample(ParetoIModel(2.0, 1.0), 10**6, RandomSource(seed=4))
        assert mle_pareto1(y, 1.0).estimate == pytest.approx(2.0, abs=0.01)

    def test_pareto_domain(self):
        with pytest.raises(ValueError):
            mle_pareto1([0.5, 3.0], 1.0)


class TestSolverRoundTrips:
    @pytest.mark.parametrize("theta", [0.1, 1.0, 10.0, 100.0])
    def test_all_methods(self, theta):
        t = quantile_pair(0.05, 0.05, theta)
        assert solve_mtum_exp(mu_mtum(theta, t), t).estimate == pytest.approx(
            theta, rel=1e-8
        )
        assert solve_mcm_exp(mu_mcm(theta, t), t).estimate == pytest.approx(
            theta, rel=1e-8
        )
        assert solve_mtcm_exp(mu_mtcm(theta, t), t).estimate == pytest.approx(
            theta, rel=1e-8
        )

    def test_reference_window_round_trip(self):
        for solver, forward in (
            (solve_mtum_exp, mu_mtum),
            (solve_mcm_exp, mu_mcm),
            (solve_mtcm_exp, mu_mtcm),
        ):
            r = solver(forward(10.0, T_MAIN), T_MAIN)
            assert r.exists and r.estimate == pytest.approx(10.0, rel=1e-8)
            assert r.avar is not None and r.avar > 0

    @given(
        theta=st.floats(0.05, 500.0),
        d=st.floats(0.0, 5.0),
        width=st.floats(0.5, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_inverse_property(self, theta, d, width):
        from hypothesis import assume

        from severfit.moments import tail_quantities

        t = ThresholdPair(d, d + width)
        # When the window mass underflows (d >> theta), one representable
        # mu value covers a wide theta interval and no solver can invert to
        # 1e-8; restrict to windows the float forward map can resolve.
        assume(tail_quantities(theta, t).p > 1e-6)
        for solver, forward in (
            (solve_mtum_exp, mu_mtum),
            (solve_mcm_exp, mu_mcm),
            (solve_mtcm_exp, mu_mtcm),
        ):
            r = solver(forward(theta, t), t)
            assert r.exists
            assert r.estimate == pytest.approx(theta, rel=1e-8)


    @pytest.mark.parametrize("gap", [1e-9, 5e-10])
    def test_mtum_large_theta(self, gap):
        # the truncated mean sits just below (d+u)/2 = 6: theta ~ (u-d)^2 / (12 gap)
        t = ThresholdPair(1.0, 11.0)
        mu_hat = 6.0 - gap
        r = solve_mtum_exp(mu_hat, t)
        assert r.exists
        assert r.estimate == pytest.approx(100.0 / (12.0 * (6.0 - mu_hat)), rel=1e-6)
        assert abs(mu_mtum(r.estimate, t) - mu_hat) <= 1e-15 * 6.0


class TestExistenceTrichotomy:
    def test_mtum_boundaries(self):
        t = ThresholdPair(1.0, 3.0)
        assert solve_mtum_exp(1.0, t).reason == BELOW_LOWER_BOUND
        assert solve_mtum_exp(0.2, t).reason == BELOW_LOWER_BOUND
        assert solve_mtum_exp(2.0, t).reason == ABOVE_UPPER_BOUND  # (d+u)/2
        assert solve_mtum_exp(2.5, t).reason == ABOVE_UPPER_BOUND
        assert solve_mtum_exp(1.5, t).exists

    def test_mcm_boundaries(self):
        t = ThresholdPair(1.0, 3.0)
        assert solve_mcm_exp(1.0, t).reason == BELOW_LOWER_BOUND
        assert solve_mcm_exp(3.0, t).reason == ABOVE_UPPER_BOUND
        assert solve_mcm_exp(2.9, t).exists

    def test_mtcm_boundaries(self):
        t = ThresholdPair(1.0, 3.0)
        assert solve_mtcm_exp(1.0, t).reason == BELOW_LOWER_BOUND
        assert solve_mtcm_exp(3.0, t).reason == ABOVE_UPPER_BOUND
        assert solve_mtcm_exp(2.0, t).exists

    def test_infinite_u_closed_forms(self):
        t = ThresholdPair(2.88, math.inf)
        assert solve_mtum_exp(12.88, t).estimate == pytest.approx(10.0, rel=1e-14)
        assert solve_mtcm_exp(12.88, t).estimate == pytest.approx(10.0, rel=1e-14)
        assert solve_mtum_exp(2.88, t).reason == BELOW_LOWER_BOUND
        # censored map with u = inf still needs the root solve
        r = solve_mcm_exp(mu_mcm(10.0, t), t)
        assert r.estimate == pytest.approx(10.0, rel=1e-8)

    def test_near_boundary_guard(self):
        t = ThresholdPair(1.0, 3.0)
        eps = 1e-14  # within the 1e-12 * (u - d) guard band
        assert not solve_mtum_exp(1.0 + eps, t).exists
        assert not solve_mtum_exp(2.0 - eps, t).exists

    def test_non_finite_mu_hat(self):
        with pytest.raises(ValueError):
            solve_mtum_exp(math.nan, ThresholdPair(1.0, 3.0))
        with pytest.raises(ValueError):
            solve_mcm_exp(math.inf, ThresholdPair(1.0, 3.0))


class TestInfiniteUpperGuard:
    """With u infinite the guard band is relative to d, so it scales with the data."""

    def test_tiny_scale_on_the_whole_half_line(self):
        # a band of 1e-12 * max(1, d) would put every statistic of these draws in it
        x = sample(ExponentialModel(1e-15), 2000, RandomSource(seed=1))
        mle = fit("mle", "exp", x).estimate
        for method in _METHODS:
            r = fit(method, "exp", x, ThresholdPair(0.0, math.inf))
            assert r.exists and r.estimate == pytest.approx(mle, rel=1e-12), method

    def test_fit_is_equivariant_under_powers_of_two(self):
        x = sample(ExponentialModel(1.0), 2000, RandomSource(seed=2))
        for method in _METHODS:
            base = fit(method, "exp", x, ThresholdPair(0.51, math.inf))
            for k in range(-1000, 1001, 50):
                c = 2.0**k
                r = fit(method, "exp", c * x, ThresholdPair(0.51 * c, math.inf))
                assert r.estimate == c * base.estimate, (method, k)
                assert r.bracket == (c * base.bracket[0], c * base.bracket[1]), (method, k)
                assert r.iterations == base.iterations, (method, k)


class TestParetoSolver:
    T = ThresholdPair(2.0, 10.0)

    def test_round_trip(self):
        target = pareto_g_du(1.0, self.T, 1.0)
        assert target == pytest.approx(1.2907877, abs=1e-6)
        r = solve_mtum_pareto1(target, self.T, 1.0)
        assert r.estimate == pytest.approx(1.0, rel=1e-8)

    def test_boundaries(self):
        lower, upper = pareto_g_limits(self.T, 1.0)
        assert solve_mtum_pareto1(lower, self.T, 1.0).reason == BELOW_LOWER_BOUND
        assert solve_mtum_pareto1(math.log(2.0), self.T, 1.0).reason == BELOW_LOWER_BOUND
        assert solve_mtum_pareto1(upper, self.T, 1.0).reason == ABOVE_UPPER_BOUND

    def test_round_trip_near_upper_limit(self):
        # g(alpha) = upper - alpha w^2/12 + O(alpha^3), w = log(u/d)
        lower, upper = pareto_g_limits(self.T, 1.0)
        r = solve_mtum_pareto1(upper - 1e-7 * (upper - lower), self.T, 1.0)
        assert r.exists
        assert r.estimate == pytest.approx(6e-7 / math.log(5.0), rel=1e-6)

    def test_matches_exp_route(self):
        for alpha in (0.25, 1.0, 4.0):
            target = pareto_g_du(alpha, self.T, 1.0)
            direct = solve_mtum_pareto1(target, self.T, 1.0).estimate
            t_exp = ThresholdPair(math.log(2.0), math.log(10.0))
            via_exp = 1.0 / solve_mtum_exp(target, t_exp).estimate
            assert direct == pytest.approx(via_exp, rel=1e-10)

    def test_same_result_as_fit_route(self):
        # both public Pareto solvers are fit's log-scale route, field for field
        x0 = 1.5
        y = sample(ParetoIModel(1.0, x0), 2000, RandomSource(seed=8))
        t_log = log_transform_pareto_to_exp(ParetoIModel(1.0, x0), self.T)[1]
        mu_hat = sample_mtum(np.log(y / x0), t_log).mu_hat
        via_fit = fit("mtum", "pareto1", y, self.T, x0=x0)
        assert via_fit.exists
        assert solve_mtum_pareto1(mu_hat, self.T, x0) == via_fit
        assert mle_pareto1(y, x0) == fit("mle", "pareto1", y, x0=x0)


class TestDegenerateReductions:
    def test_all_methods_reduce_to_mle(self):
        # with no truncation or censoring every estimate is the sample mean
        x = sample(ExponentialModel(THETA), 500, RandomSource(seed=6))
        t = ThresholdPair(0.0, math.inf)
        mean = float(x.mean())
        for method in ("mtum", "mcm", "mtcm"):
            r = fit(method, "exp", x, t)
            assert r.estimate == mean  # exact equality of formulas


class TestFit:
    def test_mle_shortcut(self):
        assert fit("mle", "exp", [2, 4, 6]).estimate == pytest.approx(4.0)

    def test_mtum_end_to_end(self):
        x = sample(ExponentialModel(THETA), 10**5, RandomSource(seed=77))
        r = fit("mtum", "exp", x, T_MAIN)
        assert r.exists
        assert abs(r.estimate - 10.0) < 0.2

    def test_pareto_transform_equivalence(self):
        y = sample(ParetoIModel(2.0, 1.5), 5000, RandomSource(seed=31))
        t_y = ThresholdPair(1.6, 20.0)
        _, t_x = (
            ExponentialModel(0.5),
            ThresholdPair(math.log(1.6 / 1.5), math.log(20.0 / 1.5)),
        )
        for method in ("mtum", "mcm", "mtcm", "mle"):
            r_pareto = fit(method, "pareto1", y, t_y, x0=1.5)
            r_exp = fit(method, "exp", np.log(y / 1.5), t_x)
            assert r_pareto.estimate == pytest.approx(1.0 / r_exp.estimate, rel=1e-10)
            assert r_pareto.avar == pytest.approx(
                r_exp.avar * r_pareto.estimate**4, rel=1e-10
            )

    def test_propagates_nonexistence(self):
        r = fit("mtum", "exp", [2.0, 2.0, 2.0], ThresholdPair(1.0, 3.0))
        assert not r.exists and r.reason == ABOVE_UPPER_BOUND

    def test_propagates_empty_window(self):
        # an empty window is a nonexistent estimate, reported like a boundary
        r = fit("mtum", "exp", [1.0, 2.0], ThresholdPair(5.0, 9.0))
        assert not r.exists and r.reason == EMPTY_WINDOW and r.model == "exp"
        r = fit("mtcm", "pareto1", [1.5, 2.0], ThresholdPair(5.0, 9.0), x0=1.0)
        assert not r.exists and r.reason == EMPTY_WINDOW and r.model == "pareto1"

    def test_validation(self):
        with pytest.raises(ValueError):
            fit("mom", "exp", [1.0])
        with pytest.raises(ValueError):
            fit("mle", "weibull", [1.0])
        with pytest.raises(ValueError):
            fit("mtum", "exp", [1.0], None)  # thresholds required
        with pytest.raises(ValueError):
            fit("mle", "pareto1", [2.0])  # x0 required
        with pytest.raises(ValueError):
            fit("mle", "exp", [-1.0, 2.0])
        with pytest.raises(ValueError):
            fit("mle", "pareto1", [0.5, 2.0], x0=1.0)

    def test_avar_attached_at_estimate(self):
        from severfit.asymptotics import avar

        x = sample(ExponentialModel(THETA), 2000, RandomSource(seed=50))
        r = fit("mcm", "exp", x, T_MAIN)
        assert r.avar == pytest.approx(avar("mcm", r.estimate, T_MAIN), rel=1e-12)


class TestStrongConsistency:
    def test_mean_estimates_near_truth(self):
        # 200 samples of n = 10^4: each method's average sits within 3 se
        n, reps = 10**4, 200
        estimates = {m: [] for m in ("mle", "mtum", "mcm", "mtcm")}
        for rep in range(reps):
            x = sample(ExponentialModel(THETA), n, RandomSource(seed=900, stream=rep))
            estimates["mle"].append(float(x.mean()))
            estimates["mtum"].append(
                solve_mtum_exp(sample_mtum(x, T_MAIN).mu_hat, T_MAIN).estimate
            )
            estimates["mcm"].append(
                solve_mcm_exp(sample_mcm(x, T_MAIN).mu_hat, T_MAIN).estimate
            )
            estimates["mtcm"].append(
                solve_mtcm_exp(sample_mtcm(x, T_MAIN).mu_hat, T_MAIN).estimate
            )
        for method, values in estimates.items():
            arr = np.asarray(values)
            se = arr.std(ddof=1) / math.sqrt(reps)
            assert abs(arr.mean() - THETA) < 3.0 * se, method


def _bisect(forward, target, lo=1e-9, hi=1e9):
    """Plain bisection of an increasing map down to adjacent doubles."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if forward(mid) < target:
            lo = mid
        else:
            hi = mid


# The benchmark's Monte Carlo windows at theta = 10 (u = inf included) and
# its histogram window.
BENCH_WINDOWS = [quantile_pair(a, b, THETA) for a, b in
                 ((0.05, 0.05), (0.10, 0.10), (0.25, 0.00), (0.10, 0.70))]
BENCH_WINDOWS.append(ThresholdPair(0.50, 23.00))


@st.composite
def guarded_statistics(draw):
    """(method, window, statistics strictly inside its guard band): uniform
    shares of the interval, and shares geometrically close to either guard
    end; the statistics may be empty."""
    method = draw(st.sampled_from(sorted(_METHODS)))
    d, width = draw(st.floats(0.0, 1e3)), draw(st.floats(1e-6, 1e3))
    infinite = draw(st.booleans())
    shares = draw(st.lists(
        st.one_of(
            st.floats(0.0, 1.0),
            st.integers(1, 12).map(lambda k: 10.0**-k),
            st.integers(1, 12).map(lambda k: 1.0 - 10.0**-k),
        ),
        min_size=1, max_size=20,
    ))
    t = ThresholdPair(d, math.inf if infinite else d + width)
    guard = _BOUNDARY_GUARD * (width if not infinite else d)
    low = t.d + guard
    high = _METHODS[method].sup(t) - guard if not infinite else t.d + 1e6 * max(1.0, d)
    mus = np.array([low + share * (high - low) for share in shares])
    return method, t, mus[(mus > low) & (mus < high)]


class TestBatchRoots:
    """``_root`` solves a batch of statistics the way it solves each one alone."""

    def test_non_finite_statistics_refused_in_one_line(self):
        mus = np.array([2.0, np.inf, 3.0, np.nan] * 1000)
        with pytest.raises(ValueError) as info:
            _root("mtum", mus, ThresholdPair(0.5, 20.0))
        assert str(info.value) == (
            "mu_hat must be finite: 2000 of 4000 values are not, the first inf"
        )

    @staticmethod
    def _statistics(t, sup):
        top = sup if math.isfinite(sup) else t.d + 50.0
        inside = t.d + (top - t.d) * np.linspace(0.0, 1.0, 41)[1:-1]
        edges = [t.d - 1.0, t.d, t.d + 1e-14, top - 1e-14, top, top + 1.0]
        return np.concatenate([inside, edges])

    @pytest.mark.parametrize("t", BENCH_WINDOWS + [ThresholdPair(1.0, 3.0)], ids=str)
    def test_batch_equals_size_one_calls(self, t):
        for method, spec in _METHODS.items():
            mus = self._statistics(t, spec.sup(t))
            batch = _root(method, mus, t)
            for i, mu in enumerate(mus):
                one = _root(method, float(mu), t)
                assert one.reason[0] == batch.reason[i]
                assert one.iterations[0] == batch.iterations[i]
                for name in ("estimate", "lo", "hi"):
                    assert np.array_equal(
                        getattr(one, name)[:1], getattr(batch, name)[i:i + 1], equal_nan=True
                    ), (method, mu, name)
                assert batch.result(method, i) == one.result(method)

    def test_batch_equals_size_one_calls_pareto_map(self):
        # the Pareto solver is the MTuM root on the log window, alpha = 1/theta
        t, x0 = ThresholdPair(2.0, 10.0), 1.0
        t_log = ThresholdPair(math.log(2.0), math.log(10.0))
        mus = self._statistics(t_log, 0.5 * (t_log.d + t_log.u))
        batch = _root("mtum", mus, t_log)
        for i, mu in enumerate(mus):
            one = solve_mtum_pareto1(float(mu), t, x0)
            assert one.reason == batch.reason[i]
            assert one.iterations == batch.iterations[i]
            if one.exists:
                assert one.estimate == 1.0 / batch.estimate[i]
                assert one.bracket == (batch.lo[i], batch.hi[i])

    @pytest.mark.parametrize("t", BENCH_WINDOWS, ids=str)
    def test_roots_match_bisection(self, t):
        thetas = np.geomspace(0.2, 300.0, 30)
        for method, spec in _METHODS.items():
            forward = spec.forward
            targets = forward(thetas, t)
            roots = _root(method, targets, t)
            assert np.all(roots.reason == None), method  # noqa: E711
            for target, root in zip(targets, roots.estimate):
                reference = _bisect(lambda theta: forward(theta, t), target)
                assert root == pytest.approx(reference, rel=1e-10), (method, target)

    @pytest.mark.parametrize(
        "method,t,mu",
        [
            # one rounding step above d: mu_mtum(theta) = d + theta rounds to
            # a staircase in theta, with steps 1e12 bracket tolerances wide
            ("mtum", ThresholdPair(853.2353412984122, 853.2353412984122 + 1e-6),
             853.2353412984123),
            ("mtum", ThresholdPair(32.0, 32.0 + 1e-6), 32.0000000000005),
            # one rounding step of mu (1.2e-10) exceeds resid_tol: only
            # f == 0 meets it, so the bracket must close on adjacent doubles
            ("mcm", ThresholdPair(1.0, math.inf), 750001.0),
            # a statistic 3.8e-8 above d: over half of the bracket
            # (1e-6, 8.4) the map rounds to d, its slope down to 7e-321
            ("mcm", ThresholdPair(126.7402152401278, 140.54398431143798), 126.74021527786581),
            # a statistic near d on a window narrow against d: the computed
            # map is a staircase at the bracket tolerance
            ("mtcm", ThresholdPair(29.39463711882543, 29.42995080171072), 29.394817419173908),
            # near the supremum, where the computed map at the closed-form
            # upper bound can equal the statistic exactly
            ("mtum", ThresholdPair(1.0, 11.0), 6.0 - 1e-6),
            ("mtum", ThresholdPair(1.0, 11.0), 6.0 - 1e-9),
        ],
    )
    def test_root_where_the_map_rounds_to_plateaus(self, method, t, mu):
        # where the far bracket end's computed f is 0, interpolation gives
        # t = 1, and minimum steps along the plateau would take over 50
        # iterations; bisecting there takes about 42
        forward = _METHODS[method].forward
        roots = _root(method, np.array([mu]), t)
        assert roots.reason[0] is None
        assert roots.iterations[0] < 50
        reference = _bisect(lambda theta: forward(theta, t), mu, lo=1e-300, hi=1e12)
        assert roots.estimate[0] == pytest.approx(reference, rel=1e-10)

    @given(seed=st.integers(0, 2**63), n=st.sampled_from([30, 100, 500]))
    @settings(max_examples=10, deadline=None)
    def test_few_iterations_per_root_on_bench_windows(self, seed, n):
        # statistics of Exp(THETA) and Exp(10 THETA) samples, the evaluation
        # at the upper bound counted as one: about 6 and 7.5 on average, while
        # bisecting every step takes about 41, so the bounds fail a refinement
        # whose interpolation steps stop being taken.  At 10 THETA the roots
        # lie far above the windows, so the second bound also fails a bracket
        # search that doubles up from mu_hat - d (over 10 on average there).
        for theta, bound in ((THETA, 9.0), (10.0 * THETA, 9.5)):
            x = sample(ExponentialModel(theta), (200, n), RandomSource(seed=seed))
            iterations = []
            for t in BENCH_WINDOWS:
                window = _window(x, t)
                for method, spec in _METHODS.items():
                    mu_hat, count = spec.statistic(window, n, t)
                    roots = _root(method, mu_hat[count > 0], t)
                    iterations.append(roots.iterations[~np.isnan(roots.lo)])
            assert np.concatenate(iterations).mean() <= bound, theta

    @given(
        method=st.sampled_from(sorted(_METHODS)),
        d=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
        log_width=st.floats(-3.0, 3.0),
        infinite=st.booleans(),
        # theta over many decades relative to the window width, or to
        # max(1, d) when u is infinite
        log_ratio=st.floats(-6.0, 6.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_root_within_closed_form_bracket(self, method, d, log_width, infinite, log_ratio):
        spec = _METHODS[method]
        t = ThresholdPair(d, math.inf if infinite else d + 10.0**log_width)
        theta = 10.0**log_ratio * (max(1.0, d) if infinite else t.u - t.d)
        mu = spec.forward(theta, t)
        roots = _root(method, mu, t)
        if roots.reason[0] is not None:  # within the guard band
            return
        # mu is forward(theta) rounded: widen both bounds by a few of its ulps
        slack = 4.0 * np.spacing(mu)
        with np.errstate(divide="ignore"):
            upper = spec.upper(np.array([mu + slack]), t)[0]
        if not upper > 0:  # mu + slack reaches the map's supremum
            upper = math.inf
        assert (mu - slack) - t.d <= theta * (1.0 + 1e-12)
        assert theta <= upper * (1.0 + 1e-12)
        assert roots.lo[0] <= roots.estimate[0] <= roots.hi[0]
        # where the map is flat, every theta over which it moves by less than
        # the slack is a root of the rounded statistic
        h = 1e-3
        rise = spec.forward(theta * (1 + h), t) - spec.forward(theta * (1 - h), t)
        slope = rise / (2 * h * theta)
        spread = slack / slope if slope > 0 else math.inf
        assert abs(roots.estimate[0] - theta) <= 1e-10 * theta + spread

    @given(case=guarded_statistics())
    @settings(max_examples=150, deadline=None)
    def test_statistic_inside_guard_has_root(self, case):
        method, t, mus = case
        if mus.size == 0:
            return
        roots = _root(method, mus, t)
        assert np.all(roots.reason == None)  # noqa: E711
        assert np.all(np.isfinite(roots.estimate) & (roots.estimate > 0))

    @given(case=guarded_statistics())
    @settings(max_examples=150, deadline=None)
    def test_root_depends_on_its_statistic_alone(self, case):
        # what lets the Monte Carlo engine solve a whole block as one batch:
        # an element's root, iterations and bracket are the same bits alone,
        # in the batch and in the reversed batch
        method, t, mus = case
        if mus.size == 0:
            return
        batch, reverse = _root(method, mus, t), _root(method, mus[::-1], t)

        def element(roots, i):
            return (roots.estimate[i].tobytes(), int(roots.iterations[i]),
                    roots.lo[i].tobytes(), roots.hi[i].tobytes(), roots.reason[i])

        for i in range(mus.size):
            expected = element(batch, i)
            assert element(_root(method, mus[i:i + 1], t), 0) == expected, (method, t, mus[i])
            assert element(reverse, mus.size - 1 - i) == expected, (method, t, mus[i])

    @given(case=guarded_statistics())
    @settings(max_examples=100, deadline=None)
    def test_iterations_bounded_inside_guard(self, case):
        # 12,000 random windows of this kind took at most 51 iterations
        # (about 15.5 on average); taking interpolation steps where
        # f(b) == 0 walks plateaus of computed zeros in minimum steps, and
        # took up to 80
        method, t, mus = case
        if mus.size == 0:
            return
        forward = _METHODS[method].forward
        roots = _root(method, mus, t)
        assert roots.iterations.max() <= 60, (method, t, mus[roots.iterations.argmax()])
        for mu, root, hi in zip(mus, roots.estimate, roots.hi):
            reference = _bisect(lambda theta: forward(theta, t), mu, lo=1e-300, hi=2.0 * hi)
            # where the computed map is flat to rounding it meets mu at many
            # thetas, and bisection may stop at another of them
            close = root == pytest.approx(reference, rel=1e-10, abs=0.0)
            assert close or abs(forward(root, t) - mu) <= 4.0 * np.spacing(mu), (method, t, mu)


class TestReadLossCsv(object):
    def test_single_column_no_header(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("# comment\n1.5\n2.5\n\n3.5\n", encoding="utf-8")
        assert read_loss_csv(path).tolist() == [1.5, 2.5, 3.5]

    def test_named_column(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("id,loss,year\n1,10.5,2020\n2,7.25,2021\n", encoding="utf-8")
        assert read_loss_csv(path).tolist() == [10.5, 7.25]

    def test_loss_header_single(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("loss\n4\n5\n", encoding="utf-8")
        assert read_loss_csv(path).tolist() == [4.0, 5.0]

    def test_malformed_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("loss\n4\nnot-a-number\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3"):
            read_loss_csv(path)

    def test_header_without_loss(self, tmp_path):
        path = tmp_path / "noloss.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="loss"):
            read_loss_csv(path)

    def test_multi_column_without_header(self, tmp_path):
        path = tmp_path / "twocol.csv"
        path.write_text("1,2\n3,4\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_loss_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_loss_csv(path)


def oracle_read_loss_csv(path):
    """The line-by-line reader that preceded the loadtxt fast path, verbatim."""
    rows: list[tuple[int, list[str]]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            rows.append((lineno, [cell.strip() for cell in line.split(",")]))
    if not rows:
        raise ValueError(f"{path}: no data rows")

    first_lineno, first = rows[0]
    column = 0
    start = 0

    def is_number(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return True

    if not all(is_number(cell) for cell in first):
        header = [cell.lower() for cell in first]
        if "loss" not in header:
            raise ValueError(
                f"{path}: line {first_lineno}: header has no 'loss' column"
            )
        column = header.index("loss")
        start = 1
    elif len(first) > 1:
        raise ValueError(
            f"{path}: line {first_lineno}: multiple columns need a header naming 'loss'"
        )

    values = []
    for lineno, cells in rows[start:]:
        if column >= len(cells):
            raise ValueError(f"{path}: line {lineno}: missing 'loss' column")
        token = cells[column]
        try:
            values.append(float(token))
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: not a number: {token!r}"
            ) from None
    if not values:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(values, dtype=float)


def read_both(path):
    """Each reader's outcome: ("ok", shape, bit pattern) or (type, message)."""
    outcomes = []
    for reader in (oracle_read_loss_csv, read_loss_csv):
        try:
            values = reader(path)
        except Exception as exc:  # the outcome is what is compared
            outcomes.append((type(exc), str(exc)))
        else:
            assert values.dtype == np.float64
            outcomes.append(("ok", values.shape, values.view(np.uint64).tolist()))
    return outcomes


@contextmanager
def reader_spies():
    """Count the C-parser calls and the line-parser calls of read_loss_csv."""
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as fast, mock.patch.object(
        estimators, "_read_loss_lines", wraps=estimators._read_loss_lines
    ) as lines:
        yield fast, lines


ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(
        ["inf", "-inf", "+Inf", "INFINITY", "-Infinity", "nan", "-nan", "+NaN", "NAN",
         ".5", "5.", "-0.0", "1E+05", "1e-400", "1e999", "007"]
    ),
)
MALFORMED = st.sampled_from(
    ["", "1e", ".", "+", "1 2", "abc", "1_0", "1__0", "٣", "1.5 # x", "#", "--1",
     "infinit", "nan(1)", "0x10", "1,5", " 1"]
)
PLAIN_PADS = st.sampled_from(["", " ", "\t", " \t "])
PADS = st.sampled_from(["", " ", "\t", " \t ", "\x0b", "\x0c"])


@st.composite
def loss_files(draw):
    """Files mixing every line shape the line parser reads or rejects."""
    pads = draw(st.sampled_from([PLAIN_PADS, PLAIN_PADS, PADS]))
    lines = draw(st.lists(
        st.sampled_from(["", "# note", "#", "   ", "\t", "# x,loss", "# a\u2028b\x85c"]), max_size=3
    ))
    width = draw(st.integers(1, 4))
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(["id", "year", "amount", "", "x1"]),
                              min_size=width, max_size=width))
        if draw(st.integers(0, 9)) > 0:
            names[draw(st.integers(0, width - 1))] = draw(st.sampled_from(["loss", "Loss", "LOSS"]))
        lines.append(",".join(draw(pads) + name + draw(pads) for name in names))
    else:
        width = draw(st.sampled_from([1, 1, 1, 2]))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", "# c", "\x0b", "  # c"])))
            continue
        cells = draw(st.integers(1, width + 1)) if kind == 1 else width
        tokens = draw(st.lists(MALFORMED if kind == 2 else NUMBERS,
                               min_size=cells, max_size=cells))
        lines.append(",".join(draw(pads) + token + draw(pads) for token in tokens))
    endings = draw(st.lists(ENDINGS, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@st.composite
def plain_loss_lines(draw):
    """Well-formed files whose body uses only the fast path's bytes.

    Returns the head (comments and header), the body lines, the line ending
    and whether the last line is terminated.
    """
    head = draw(st.lists(st.sampled_from(["", "# note", "# x,loss"]), max_size=2))
    width = draw(st.integers(1, 3))
    column = 0
    if draw(st.booleans()) or width > 1:
        column = draw(st.integers(0, width - 1))
        names = ["id"] * width
        names[column] = draw(st.sampled_from(["loss", "Loss"]))
        head.append(",".join(names))
    rows = draw(st.lists(
        st.lists(NUMBERS, min_size=width, max_size=width), min_size=1, max_size=8
    ))
    body = []
    for i, row in enumerate(rows):
        if i and draw(st.integers(0, 4)) == 0:
            body.append("")
        if draw(st.booleans()):
            row = row[: column + 1]
        body.append(",".join(draw(PLAIN_PADS) + token + draw(PLAIN_PADS) for token in row))
    return head, body, draw(ENDINGS), draw(st.booleans())


def join_lines(head, body, ending, terminated):
    return ending.join(head + body) + (ending if terminated else "")


class TestLossReaderOracle:
    @given(text=loss_files())
    @settings(max_examples=400, deadline=None)
    def test_matches_oracle(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        path.write_bytes(text.encode("utf-8"))
        expected, actual = read_both(path)
        assert actual == expected

    @given(parts=plain_loss_lines())
    @settings(max_examples=200, deadline=None)
    def test_plain_files_take_the_c_parser(self, tmp_path_factory, parts):
        path = tmp_path_factory.getbasetemp() / "plain.csv"
        path.write_bytes(join_lines(*parts).encode("utf-8"))
        with reader_spies() as (fast, lines):
            expected, actual = read_both(path)
        assert expected[0] == "ok"
        assert actual == expected
        assert fast.call_count == 1 and lines.call_count == 0

    @given(
        parts=plain_loss_lines(),
        intruder=st.sampled_from(["#", "_", "٣", "\xa0", "\x0b", "é"]),
        where=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_other_bytes_take_the_line_parser(self, tmp_path_factory, parts, intruder, where):
        head, body, ending, terminated = parts
        i = int(where[0] * (len(body) - 1))
        line = body[i]
        # after the first visible character, so that no data line turns
        # into a comment and hides the intruder from the reader
        first = len(line) - len(line.lstrip())
        lo = min(first + 1, len(line))
        at = lo + int(where[1] * (len(line) - lo))
        body = body[:i] + [line[:at] + intruder + line[at:]] + body[i + 1 :]
        path = tmp_path_factory.getbasetemp() / "other.csv"
        path.write_bytes(join_lines(head, body, ending, terminated).encode("utf-8"))
        with reader_spies() as (fast, lines):
            expected, actual = read_both(path)
        assert actual == expected
        assert fast.call_count == 0 and lines.call_count == 1


class TestLossReaderValues:
    def test_repr_of_random_bit_doubles(self, tmp_path):
        bits = np.random.default_rng(7).integers(0, 2**64, 100_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        path = tmp_path / "bits.csv"
        path.write_text("loss\n" + "\n".join(map(repr, values.tolist())) + "\n", encoding="utf-8")
        with reader_spies() as (fast, lines):
            got = read_loss_csv(path)
        assert fast.call_count == 1 and lines.call_count == 0
        assert np.array_equal(got.view(np.uint64), values.view(np.uint64))

    def test_long_decimal_strings(self, tmp_path):
        gen = np.random.default_rng(8)
        rows = 100_000
        # 17 to 25 significant digits, exponents from subnormal to overflow
        heads = gen.integers(10**16, 10**17, rows).tolist()
        tails = gen.integers(0, 10**8, rows).tolist()
        lengths = gen.integers(17, 26, rows).tolist()
        exponents = gen.integers(-330, 310, rows).tolist()
        digits = [f"{h}{t:08d}"[:k] for h, t, k in zip(heads, tails, lengths)]
        tokens = [f"{d[0]}.{d[1:]}e{e}" for d, e in zip(digits, exponents)]
        path = tmp_path / "digits.csv"
        path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
        expected = np.array([float(token) for token in tokens])
        with reader_spies() as (fast, lines):
            got = read_loss_csv(path)
        assert fast.call_count == 1 and lines.call_count == 0
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_single_row_is_one_dimensional(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("loss\n4\n", encoding="utf-8")
        assert read_loss_csv(path).shape == (1,)

    @pytest.mark.parametrize("text", ["loss\n", "loss\r\n\r\n", "# only\n\n# comments\n", ""])
    def test_no_data_rows_without_warning(self, tmp_path, text):
        path = tmp_path / "nodata.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no data rows"):
                read_loss_csv(path)
        assert caught == []

    def test_compressed_suffix_read_as_text(self, tmp_path):
        # np.loadtxt would try to decompress a path ending in .gz
        path = tmp_path / "losses.csv.gz"
        path.write_text("loss\n1.5\n2.5\n", encoding="utf-8")
        assert read_loss_csv(path).tolist() == [1.5, 2.5]

    @pytest.mark.parametrize("tail", ["", "# end\n"])
    def test_pipe_is_read_once_by_the_line_parser(self, tmp_path, tail):
        # as `--data <(zcat losses.csv.gz)`: the body spans several gate chunks,
        # and a late `#` line would fail the gate after its first chunk
        text = "loss\n" + "12.3456789\n" * 150_000 + tail
        regular = tmp_path / "losses.csv"
        regular.write_text(text, encoding="utf-8")
        expected = oracle_read_loss_csv(regular)
        read_end, write_end = os.pipe()

        def write():
            try:
                with open(write_end, "w", encoding="utf-8") as sink:
                    sink.write(text)
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            with reader_spies() as (fast, lines):
                got = read_loss_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
            writer.join()
        assert fast.call_count == 0 and lines.call_count == 1
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_url_shaped_path_read_as_local_file(self, tmp_path, monkeypatch):
        # "http://host/x.csv" names the local file http:/host/x.csv; numpy's
        # DataSource would take it for a URL and read ./host/x.csv instead
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "x.csv").write_text("loss\n1.5\n2.5\n", encoding="utf-8")
        (tmp_path / "host").mkdir()
        (tmp_path / "host" / "x.csv").write_text("loss\n7\n", encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("a loss path was fetched as a URL")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        with reader_spies() as (fast, lines):
            got = read_loss_csv("http://host/x.csv")
        assert fast.call_count == 1 and lines.call_count == 0
        assert got.tolist() == [1.5, 2.5]


class TestFitOutputUnchanged:
    @pytest.mark.parametrize(
        "model, argv",
        [
            ("exp", ["--method", "mtum", "--model", "exp", "--d", "0.51", "--u", "29.96"]),
            ("pareto1", ["--method", "mtcm", "--model", "pareto1", "--d", "1.6", "--u", "20",
                         "--x0", "1.5"]),
        ],
    )
    def test_stdout_and_csv_bytes_match_oracle(self, tmp_path, capsys, model, argv):
        # the benchmark's fit_file shape, small: equal arrays give equal bytes
        draws = np.random.default_rng(9).standard_exponential(2_000)
        if model == "exp":
            data = 10.0 * draws
        else:
            data = np.maximum(1.5 * np.exp(draws / 2.0), np.nextafter(1.5, 2.0))
        path = tmp_path / "losses.csv"
        path.write_text("loss\n" + "\n".join(map(repr, data.tolist())) + "\n", encoding="utf-8")
        outputs = []
        for reader in (read_loss_csv, oracle_read_loss_csv):
            out = tmp_path / f"{reader.__name__}.csv"
            with mock.patch.object(estimators, "read_loss_csv", reader):
                code = cli.main(["fit", "--data", str(path), "--out", str(out)] + argv)
            outputs.append((code, capsys.readouterr(), out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == cli.EXIT_OK
