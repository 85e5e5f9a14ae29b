"""Efficiency formulas, the trimmed-moment integral cross-checks, and
influence functions, pinned against independently known values."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from severfit import asymptotics
from severfit.dist import ExponentialModel, ParetoIModel, ThresholdPair, exp_quantile
from severfit.errors import DegenerateError, QuadratureError
from severfit.framework import DistributionAdapter, _quantile_thresholds, adapter_from_model
from severfit.asymptotics import (
    METHODS,
    IFCurve,
    are,
    are_mcm,
    are_mtcm,
    are_mtm,
    are_mtum,
    are_table,
    are_table_csv,
    avar,
    influence_curve,
    influence_mcm,
    influence_mtm,
    mtm_integral_I,
    mtm_integral_J,
    default_grid,
)
from severfit.moments import sigma_mcm2, tail_quantities, truncated_summary

THETA = 10.0
EXP10 = ExponentialModel(THETA)
ADAPTER = adapter_from_model(EXP10)


def quantile_pair(a, b, theta=THETA):
    d = exp_quantile(ExponentialModel(theta), a)
    u = math.inf if b == 0.0 else exp_quantile(ExponentialModel(theta), 1.0 - b)
    return ThresholdPair(d, u)


class TestAreClosedForms:
    def test_boxed_reference_cells(self):
        t = quantile_pair(0.05, 0.05)
        assert are_mtum(THETA, t) == pytest.approx(0.443, abs=1e-3)
        assert are_mcm(THETA, t) == pytest.approx(0.918, abs=1e-3)
        assert are_mtcm(THETA, t) == pytest.approx(0.868, abs=1e-3)

    def test_untruncated_is_fully_efficient(self):
        t = ThresholdPair(0.0, math.inf)
        for fn in (are_mtum, are_mcm, are_mtcm):
            assert fn(THETA, t) == pytest.approx(1.0, abs=1e-14)

    def test_mtum_infinite_u_is_survival(self):
        for d in (0.5, 2.88, 12.04):
            t = ThresholdPair(d, math.inf)
            assert are_mtum(THETA, t) == pytest.approx(math.exp(-d / THETA), abs=1e-12)
            assert are_mtcm(THETA, t) == pytest.approx(math.exp(-d / THETA), abs=1e-12)

    def test_mtum_printed_form_identity(self):
        # product form equals the printed ratio form
        for t in (ThresholdPair(0.51, 29.96), ThresholdPair(2.0, 8.0)):
            q = tail_quantities(THETA, t)
            printed = (
                q.p**2 * THETA**2 - math.exp(-(t.d + t.u) / THETA) * (t.u - t.d) ** 2
            ) / (q.p * THETA**2)
            assert are_mtum(THETA, t) == pytest.approx(printed, rel=1e-12)

    def test_mcm_as_moment_ratio(self):
        t = ThresholdPair(2.88, 13.86)
        mu_y = truncated_summary(THETA, t).mu_y
        assert are_mcm(THETA, t) == pytest.approx(mu_y**2 / sigma_mcm2(THETA, t), rel=1e-14)
        assert are_mcm(THETA, t) == pytest.approx(0.679, abs=1e-3)

    def test_mtcm_asymmetric_cell(self):
        assert are_mtcm(THETA, quantile_pair(0.10, 0.70)) == pytest.approx(0.156, abs=1e-3)

    def test_d0_collapse_mtcm_equals_mcm(self):
        for b in (0.05, 0.10, 0.25, 0.49, 0.85):
            t = quantile_pair(0.0, b)
            assert are_mtcm(THETA, t) == pytest.approx(are_mcm(THETA, t), abs=1e-10)

    def test_ordering_across_grid(self):
        for a in (0.0, 0.05, 0.15, 0.25):
            for b in (0.05, 0.10, 0.25):
                t = quantile_pair(a, b)
                v_mtum, v_mtcm, v_mcm = (
                    are_mtum(THETA, t),
                    are_mtcm(THETA, t),
                    are_mcm(THETA, t),
                )
                assert v_mtum <= v_mtcm + 1e-12
                assert v_mtcm <= v_mcm + 1e-12
                assert 0.0 < v_mtum <= 1.0 and v_mcm <= 1.0

    def test_dispatch(self):
        t = quantile_pair(0.05, 0.05)
        assert are("mtum", THETA, t) == are_mtum(THETA, t)
        with pytest.raises(ValueError):
            are("winsorized", THETA, t)


class TestAvar:
    def test_mle_reduction(self):
        assert avar("mle", THETA) == pytest.approx(100.0)
        assert avar("mcm", THETA, ThresholdPair(0.0, math.inf)) == pytest.approx(100.0)

    def test_theta2_over_are_identity(self):
        t = ThresholdPair(0.51, 29.96)
        for method in ("mtum", "mcm", "mtcm"):
            value = avar(method, THETA, t)
            assert value * are(method, THETA, t) == pytest.approx(THETA**2, abs=1e-12)

    def test_mtum_equals_printed_variance_display(self):
        t = ThresholdPair(0.51, 29.96)
        q = tail_quantities(THETA, t)
        printed = (THETA**2) * (q.p * THETA**2) / (
            q.p**2 * THETA**2 - math.exp(-(t.d + t.u) / THETA) * (t.u - t.d) ** 2
        )
        assert avar("mtum", THETA, t) == pytest.approx(printed, rel=1e-12)

    def test_degenerate_window(self):
        # survival at d underflows: the efficiency is a true machine zero
        with pytest.raises(DegenerateError):
            avar("mtum", 1e-3, ThresholdPair(5.0, 6.0))

    def test_missing_thresholds(self):
        with pytest.raises(ValueError):
            avar("mtum", THETA)

    def test_unevaluable_efficiency(self):
        # survival at d underflows, so mu_Y and the censored variance are both 0:
        # the MCM ratio is 0/0, and avar reports it as degenerate
        with pytest.raises(DegenerateError):
            avar("mcm", 1e-3, ThresholdPair(5.0, 6.0))

    @given(
        method=st.sampled_from(("mle", *METHODS)),
        theta=st.floats(0.5, 50.0),
        a=st.one_of(st.just(0.0), st.floats(1e-6, 0.6)),
        b=st.one_of(st.just(0.0), st.floats(1e-6, 0.35)),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_scales_with_theta_squared_bit_for_bit(self, method, theta, a, b, data):
        # c = 2^k scales theta and the thresholds exactly and leaves the ARE
        # unchanged, so the avar scales by c^2 exactly, for any k in [-1000, 1000]
        # that keeps theta, the thresholds, theta^2 and the avar normal and finite
        t = quantile_pair(a, b, theta)
        base = avar(method, theta, t)
        # x 2^(m k) is normal and finite for -1022 <= e - 1 + m k < 1024, x = f 2^e
        powers = [(theta, 1), (t.d, 1), (t.u, 1), (theta * theta, 2), (base, 2)]
        exponents = [(math.frexp(x)[1], m) for x, m in powers if 0.0 < x < math.inf]
        lo = max([-1000] + [-((1021 + e) // m) for e, m in exponents])
        hi = min([1000] + [(1024 - e) // m for e, m in exponents])
        k = data.draw(st.integers(lo, hi), label="k")
        c = 2.0**k
        scaled = avar(method, c * theta, ThresholdPair(c * t.d, c * t.u))
        assert scaled == math.ldexp(base, 2 * k)

    def test_lower_threshold_beyond_the_float_range_of_theta(self):
        # d / theta overflows: the survival at d is 0 and so is every ARE
        for method in METHODS:
            assert are(method, 1e-310, ThresholdPair(1.0, 2.0)) == 0.0
            with pytest.raises(DegenerateError):
                avar(method, 1e-310, ThresholdPair(1.0, math.inf))


def _are_oracle(theta, d, u):
    """MCM and MTCM efficiencies from their definitions in 50-digit arithmetic.

    mu_Y and E[X^2 1{d < X <= u}] come from mpmath quadrature, the variance
    from E[Z^2] - E[Z]^2 and MTCM from the printed closed form; 50 digits
    absorb the cancellations that ruin them in double precision.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        th, d, u = mp.mpf(theta), mp.mpf(d), mp.mpf(u)
        pdf = lambda x: mp.exp(-x / th) / th  # noqa: E731
        below, above = -mp.expm1(-d / th), mp.exp(-u / th)
        # u^n P(X > u) vanishes as u -> inf
        u_above, u2_above = (0, 0) if mp.isinf(u) else (u * above, u * u * above)
        mu_y = mp.quad(lambda x: x * pdf(x), [d, u])
        mu_y2 = mp.quad(lambda x: x * x * pdf(x), [d, u])
        mean_z = d * below + mu_y + u_above
        var_z = d * d * below + mu_y2 + u2_above - mean_z**2
        tau = mp.exp(-d / th)
        p, b_w = tau - above, u_above / th - d * above / th
        mtcm = (p - b_w) ** 2 / (p * (1 + above / tau) - 2 * b_w)
        return {"mcm": float(mu_y**2 / var_z), "mtcm": float(mtcm)}


class TestLargeTheta:
    def test_are_matches_50_digit_oracle(self):
        # the closed forms cancelled here: MCM wrong from 1e7 and negative
        # from 1e8, MTCM off at 1e8, 0/0 at 1e10 and negative at 1e12
        t = ThresholdPair(1.0, 11.0)
        for theta in np.logspace(3, 12, 19):
            theta = float(theta)
            oracle = _are_oracle(theta, t.d, t.u)
            for method in ("mcm", "mtcm"):
                value = are(method, theta, t)
                assert value == pytest.approx(oracle[method], rel=1e-9, abs=0.0), (method, theta)
                assert avar(method, theta, t) == pytest.approx(
                    theta**2 / oracle[method], rel=1e-9, abs=0.0
                )

    def test_default_table_cells_match_oracle(self):
        for r in are_table(THETA, methods=("mcm", "mtcm")):
            if r.are is not None:
                assert r.are == pytest.approx(
                    _are_oracle(THETA, r.d, r.u)[r.method], rel=1e-13, abs=0.0
                )


def _winsorized_exp1_variance(a, b):
    """Variance of Exp(1) winsorized at (-log(1-a), -log(b)), in closed log form.

    With r = b/(1-a): (1-a) (1 - r^2 + 2 r log r) + a (1-a) (1-r)^2.
    """
    r = b / (1.0 - a)
    r_log_r = r * math.log(r) if r > 0 else 0.0
    return (1.0 - a) * (1.0 - r * r + 2.0 * r_log_r) + a * (1.0 - a) * (1.0 - r) ** 2


def _j_oracle(a, b):
    """J(a, 1-b) from its closed log form in 50-digit arithmetic, at the exact a and b."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        a, b = mp.mpf(a), mp.mpf(b)
        r = b / (1 - a)
        r_log_r = r * mp.log(r) if r > 0 else 0
        return float((1 - a) * (1 - r * r + 2 * r_log_r) + a * (1 - a) * (1 - r) ** 2)


class TestTrimmedIntegrals:
    def test_closed_form_j_matches_50_digit_oracle_on_default_grid(self):
        grid = default_grid()
        for a in grid:
            for b in grid:
                if a + b < 1.0:
                    assert asymptotics._mtm_j(a, b) == pytest.approx(
                        _j_oracle(a, b), rel=1e-13, abs=0.0
                    ), (a, b)

    @pytest.mark.parametrize("a", [0.0, 0.05, 0.3, 0.49, 0.85])
    def test_closed_form_j_keeps_its_digits_as_r_tends_to_one(self, a):
        # r = b/(1-a) -> 1 is where 1 - r^2 + 2 r log r cancels, and where
        # 1 - r must come from 1 - a - b without the rounding of 1 - a
        for one_minus_r in np.logspace(-8.0, 0.0, 81):
            b = (1.0 - a) * (1.0 - one_minus_r)
            assert asymptotics._mtm_j(a, b) == pytest.approx(
                _j_oracle(a, b), rel=1e-13, abs=0.0
            ), (a, b)

    def test_are_mtm_makes_no_quadrature_call(self, monkeypatch):
        grid = default_grid()
        pairs = [(a, b) for a in grid for b in grid if a + b < 1.0]
        cross_check = {
            (a, b): mtm_integral_I(a, 1.0 - b) ** 2 / mtm_integral_J(a, 1.0 - b) for a, b in pairs
        }

        def refuse(*args, **kwargs):
            raise AssertionError("are_mtm took J by quadrature")

        monkeypatch.setattr(asymptotics, "mtm_integral_J", refuse)
        monkeypatch.setattr(asymptotics, "_integrate", refuse)
        for a, b in pairs:
            # criterion 02's tolerance on the J quadrature
            assert are_mtm(a, b) == pytest.approx(cross_check[a, b], abs=1e-6)

    def test_j_is_winsorized_exp1_variance(self):
        grid = default_grid()
        for a in grid:
            for b in grid:
                if a + b < 1.0:
                    assert mtm_integral_J(a, 1.0 - b) == pytest.approx(
                        _winsorized_exp1_variance(a, b), abs=1e-9
                    ), (a, b)

    def test_j_quadrature_agrees_with_closed_form(self):
        # two routes that share no code: the mean squared influence curve
        # by quadrature, and the closed form that are_mtm uses
        grid = default_grid()
        for a in grid:
            for b in grid:
                if a + b < 1.0:
                    assert mtm_integral_J(a, 1.0 - b) == pytest.approx(
                        asymptotics._mtm_j(a, b), rel=1e-12, abs=0.0
                    ), (a, b)

    def test_i_closed_form_against_quadrature(self):
        for a, ub in [(0.0, 1.0), (0.05, 0.95), (0.25, 0.75), (0.1, 0.3)]:
            oracle, _ = quad(lambda v: math.log1p(-v), a, ub, epsabs=1e-13, limit=300)
            assert mtm_integral_I(a, ub) == pytest.approx(oracle, abs=1e-10)

    def test_j_untrimmed_is_one(self):
        assert mtm_integral_J(0.0, 1.0) == pytest.approx(1.0, abs=1e-8)
        assert are_mtm(0.0, 0.0) == pytest.approx(1.0, abs=1e-7)

    def test_j_matches_censored_variance_ratio(self):
        for a, b in [(0.05, 0.05), (0.10, 0.10), (0.25, 0.0), (0.0, 0.49)]:
            t = quantile_pair(a, b)
            assert mtm_integral_J(a, 1.0 - b) == pytest.approx(
                sigma_mcm2(THETA, t) / THETA**2, abs=1e-6
            )

    def test_trimmed_equals_censored_efficiency(self):
        assert are_mtm(0.05, 0.05) == pytest.approx(0.918, abs=1e-3)
        assert are_mtm(0.05, 0.05) == pytest.approx(
            are_mcm(THETA, quantile_pair(0.05, 0.05)), abs=1e-6
        )

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            mtm_integral_I(0.5, 0.4)
        with pytest.raises(ValueError):
            mtm_integral_J(-0.1, 0.9)

    @pytest.mark.parametrize("a,b", [(0.15, 0.85), (0.49, 0.51), (0.7, 0.3), (-0.1, 0.0)])
    def test_are_mtm_refuses_what_the_threshold_rule_refuses(self, a, b):
        # one (a, b) rule and message for are_mtm and every threshold pair
        message = f"need a >= 0, b >= 0 and a + b < 1 - 1e-15, got a={a!r}, b={b!r}"
        with pytest.raises(ValueError) as refused:
            are_mtm(a, b)
        assert str(refused.value) == message
        with pytest.raises(ValueError) as thresholds:
            _quantile_thresholds(adapter_from_model(ExponentialModel(1.0)), a, b)
        assert str(thresholds.value) == message

    def test_integrals_keep_their_domain_check(self):
        # I and J take 1-b and need only 0 <= a < 1-b <= 1: (0.15, 1 - 0.85)
        # is a window of one rounding error, which are_mtm refuses
        assert abs(mtm_integral_I(0.15, 1.0 - 0.85)) < 1e-15
        with pytest.raises(ValueError, match="need 0 <= a < 1-b <= 1"):
            mtm_integral_I(0.7, 0.3)

    def test_j_where_one_minus_b_is_below_the_spacing_of_one(self):
        # 1 - (1-b) rounds to b = 1 here, so u must come from 1-b itself;
        # J = (1-b)^3/3 + O((1-b)^4) at a = 0
        for one_minus_b in (1e-300, 1e-17):
            j = mtm_integral_J(0.0, one_minus_b)
            assert math.isfinite(j) and 0.0 <= j <= one_minus_b**3
            assert j == pytest.approx(one_minus_b**3 / 3.0, rel=1e-12, abs=0.0)
        with pytest.raises(ValueError):
            mtm_integral_J(0.3, 1e-17)


def _split_quadrature_influence(F, a, b, x):
    """Trimmed-mean influence (without the 1/(1-a-b)) from its integral definition.

    The integral of (v - 1{F(x) <= v}) / f(F^{-1}(v)) over (a, 1-b), split at
    the jump and taken per point: the reference for the winsorized identity.
    """
    lo, hi, fx = a, 1.0 - b, F.cdf(x)

    def piece(indicator, left, right):
        if right <= left:
            return 0.0
        value, _ = quad(
            lambda v: (v - indicator) / F.pdf(F.quantile(v)),
            left, right, epsabs=1e-11, epsrel=1e-11, limit=200,
        )
        return value

    if fx <= lo:
        return piece(1.0, lo, hi)
    if fx >= hi:
        return piece(0.0, lo, hi)
    return piece(0.0, lo, fx) + piece(1.0, fx, hi)


def _normal_adapter(m, scale):
    return DistributionAdapter(
        cdf=lambda x: 1.0 if math.isinf(x) else float(ndtr((x - m) / scale)),
        pdf=lambda x: math.exp(-0.5 * ((x - m) / scale) ** 2) / (scale * math.sqrt(2 * math.pi)),
        quantile=lambda v: m + scale * float(ndtri(v)),
        support=(-math.inf, math.inf),
    )


class TestInfluenceOracle:
    CASES = (
        ("exp", ADAPTER, 0.05, 0.05, np.linspace(0.0, 40.0, 41)),
        ("pareto1", adapter_from_model(ParetoIModel(2.0, 1.5)), 0.05, 0.05, np.linspace(1.5, 12.0, 41)),
        ("exp b=0", ADAPTER, 0.25, 0.0, np.linspace(0.0, 60.0, 41)),
        ("normal", _normal_adapter(4.0, 2.0), 0.05, 0.05, np.linspace(-2.0, 10.0, 41)),
    )

    @pytest.mark.parametrize("label,F,a,b,grid", CASES, ids=[c[0] for c in CASES])
    def test_curve_matches_split_quadrature(self, label, F, a, b, grid):
        oracle = np.array([_split_quadrature_influence(F, a, b, float(x)) for x in grid])
        mtm = influence_curve(F, "mtm", a, b, grid).values
        mcm = influence_curve(F, "mcm", a, b, grid).values
        assert np.max(np.abs(mtm - oracle / (1.0 - a - b))) < 1e-9
        assert np.max(np.abs(mcm - oracle)) < 1e-9

    def test_one_quadrature_per_curve(self, monkeypatch):
        calls = []
        real_integrate = asymptotics._integrate

        def counting_integrate(*args, **kwargs):
            calls.append(args[1:3])
            return real_integrate(*args, **kwargs)

        monkeypatch.setattr(asymptotics, "_integrate", counting_integrate)
        grid = np.linspace(0.0, ADAPTER.quantile(0.999), 1001)
        influence_curve(ADAPTER, "mtm", 0.05, 0.05, grid)
        assert len(calls) == 1

    def test_infinite_point_without_upper_trimming(self):
        assert influence_mtm(ADAPTER, 0.25, 0.0, math.inf) == math.inf
        assert influence_mtm(ADAPTER, 0.25, 0.05, math.inf) == pytest.approx(
            influence_mtm(ADAPTER, 0.25, 0.05, 1e6), abs=1e-12
        )


class TestInfluenceClosedForm:
    """W in closed form: a d + b u - theta I(a, 1-b) for Exp(theta), and
    a d + x0 (1-a)^k / k with k = 1 - 1/alpha for Pareto I with b = 0."""

    @pytest.mark.parametrize("theta", [1e-3, 1.0, 1e6, 1e9, 1e12])
    @pytest.mark.parametrize(
        "a,b", [(0.05, 0.05), (0.0, 0.0), (0.25, 0.0), (0.0, 0.3), (0.1, 0.7)]
    )
    def test_exponential_at_any_scale(self, theta, a, b):
        F = adapter_from_model(ExponentialModel(theta))
        t = quantile_pair(a, b, theta)
        w = a * t.d + (b * t.u if b > 0.0 else 0.0) - theta * mtm_integral_I(a, 1.0 - b)
        xs = np.array([0.0, theta, 3.0 * theta])
        centred = np.clip(xs, t.d, t.u) - w
        mtm = [influence_mtm(F, a, b, float(x)) for x in xs]
        assert np.max(np.abs(mtm - centred / (1.0 - a - b))) <= 1e-13 * theta
        mcm = influence_curve(F, "mcm", a, b, xs).values
        assert np.max(np.abs(mcm - centred)) <= 1e-13 * theta

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    def test_infinite_mean_raises(self, alpha):
        F = adapter_from_model(ParetoIModel(alpha, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError):
                influence_mtm(F, 0.05, 0.0, 3.0)

    @pytest.mark.parametrize("a", [0.0, 0.05, 0.25])
    def test_heavy_pareto_tail(self, a):
        alpha, x0 = 1.05, 2.0
        k = 1.0 - 1.0 / alpha
        F = adapter_from_model(ParetoIModel(alpha, x0))
        d = F.quantile(a)
        w = a * d + x0 * (1.0 - a) ** k / k
        for x in (3.0, 1e3):
            expected = (max(x, d) - w) / (1.0 - a)
            assert influence_mtm(F, a, 0.0, x) == pytest.approx(expected, rel=1e-12, abs=0)


class TestInfluence:
    def test_untrimmed_is_influence_of_mean(self):
        for x in (0.0, 3.0, 10.0, 42.0):
            assert influence_mtm(ADAPTER, 0.0, 0.0, x) == pytest.approx(x - THETA, abs=1e-8)
            t = ThresholdPair(0.0, math.inf)
            assert influence_mcm(ADAPTER, t, x) == pytest.approx(x - THETA, abs=1e-8)

    def test_zero_mean_under_model(self):
        # E_F[IF(X)] = 0, integrated in the quantile domain
        value, _ = quad(
            lambda v: influence_mtm(ADAPTER, 0.05, 0.05, ADAPTER.quantile(v)),
            0.0,
            1.0,
            epsabs=1e-10,
            limit=300,
        )
        assert abs(value) < 1e-8

    def test_contraction_identity(self):
        a = b = 0.05
        t = quantile_pair(a, b)
        for x in np.linspace(0.0, 40.0, 21):
            lhs = influence_mcm(ADAPTER, t, float(x))
            rhs = (1.0 - a - b) * influence_mtm(ADAPTER, a, b, float(x))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_monotone_then_flat_shape(self):
        a = b = 0.05
        t = quantile_pair(a, b)
        xs = np.linspace(0.0, 50.0, 41)
        values = [influence_mtm(ADAPTER, a, b, float(x)) for x in xs]
        assert all(later >= earlier - 1e-10 for earlier, later in zip(values, values[1:]))
        # constant below the lower and above the upper threshold
        low = [influence_mtm(ADAPTER, a, b, x) for x in (0.0, 0.2, t.d * 0.99)]
        high = [influence_mtm(ADAPTER, a, b, x) for x in (t.u * 1.01, t.u * 2, t.u * 5)]
        assert max(low) - min(low) < 1e-9
        assert max(high) - min(high) < 1e-9
        # linear with slope 1/(1-a-b) inside the window
        inside = [influence_mtm(ADAPTER, a, b, x) for x in (5.0, 6.0)]
        assert inside[1] - inside[0] == pytest.approx(1.0 / (1 - a - b), abs=1e-7)

    def test_curve_container(self):
        curve = influence_curve(ADAPTER, "mtm", 0.05, 0.05, np.linspace(0, 30, 7))
        assert curve.values.shape == (7,)
        with pytest.raises(ValueError):
            influence_curve(ADAPTER, "trimmed", 0.05, 0.05, [0.0, 1.0])

    def test_curve_grid_validation(self):
        with pytest.raises(ValueError, match="matching shapes"):
            IFCurve("mtm", 0.05, 0.05, np.array([0.0, 1.0]), np.array([0.0]))
        for grid in ([0.0, 0.0], [1.0, 0.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                influence_curve(ADAPTER, "mcm", 0.05, 0.05, grid)

    def test_invalid_mass(self):
        with pytest.raises(ValueError):
            influence_mtm(ADAPTER, 0.6, 0.5, 1.0)


class TestAreTable:
    def test_shape_and_absent_cells(self):
        reports = are_table(THETA)
        grid = default_grid()
        assert len(reports) == 3 * len(grid) * len(grid)
        absent = [(r.a, r.b) for r in reports if r.are is None and r.method == "mcm"]
        expected_absent = [(a, b) for a in grid for b in grid if a + b >= 1.0 - 1e-15]
        assert sorted(absent) == sorted(expected_absent)

    def test_avar_consistency(self):
        for r in are_table(THETA, (0.0, 0.05), (0.0, 0.05)):
            if r.are is not None:
                assert 0.0 < r.are <= 1.0

    def test_quantile_thresholds_are_exact(self):
        reports = are_table(THETA, (0.05,), (0.10,), methods=("mtum",))
        r = reports[0]
        assert r.d == pytest.approx(exp_quantile(EXP10, 0.05), rel=1e-14)
        assert r.u == pytest.approx(exp_quantile(EXP10, 0.90), rel=1e-14)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            are_table(THETA, (0.1, 0.05), (0.0,))

    def test_csv_round_trip(self):
        reports = are_table(THETA, (0.0, 0.85), (0.0, 0.05, 0.85), methods=("mcm",))
        text = are_table_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == "method,a,b,d,u,are,reason"
        assert len(lines) == 1 + len(reports)
        # absent cell carries the reason and an empty are field
        absent_rows = [ln for ln in lines[1:] if ln.endswith("d>=u")]
        assert len(absent_rows) == 1  # only (0.85, 0.85) has a + b >= 1
        parsed = [ln.split(",") for ln in lines[1:]]
        for row in parsed:
            if row[5]:
                assert float(row[5]) > 0
        # re-serializing parsed floats reproduces the text exactly
        rebuilt = ["method,a,b,d,u,are,reason"]
        for row in parsed:
            rebuilt.append(
                ",".join(
                    [
                        row[0],
                        repr(float(row[1])),
                        repr(float(row[2])),
                        repr(float(row[3])),
                        "inf" if row[4] == "inf" else repr(float(row[4])),
                        "" if row[5] == "" else repr(float(row[5])),
                        row[6],
                    ]
                )
            )
        assert "\n".join(rebuilt) + "\n" == text


class TestStability:
    def test_are_invariant_under_rescaling(self):
        # fixed tail probabilities, any scale: identical efficiencies
        for a, b in [(0.05, 0.05), (0.10, 0.25), (0.25, 0.0)]:
            reference = {
                m: are(m, 1.0, quantile_pair(a, b, 1.0)) for m in ("mtum", "mcm", "mtcm")
            }
            for theta in (0.1, 10.0, 250.0):
                t = quantile_pair(a, b, theta)
                for m, ref in reference.items():
                    assert are(m, theta, t) == pytest.approx(ref, abs=1e-10)

    @given(
        method=st.sampled_from(METHODS),
        theta=st.floats(0.5, 50.0),
        a=st.one_of(st.just(0.0), st.floats(1e-6, 0.6)),
        b=st.one_of(st.just(0.0), st.floats(1e-6, 0.35)),
        k=st.integers(-1000, 1000),
    )
    @settings(max_examples=300, deadline=None)
    def test_are_is_scale_free_bit_for_bit(self, method, theta, a, b, k):
        # c = 2^k scales theta and both thresholds exactly, and are() takes
        # every scale to the same unit-scale arguments
        t, c = quantile_pair(a, b, theta), 2.0**k
        assert are(method, c * theta, ThresholdPair(c * t.d, c * t.u)) == are(method, theta, t)

    @pytest.mark.parametrize("theta", [1e300, 1e-310, 1e-320, 2.0**600, 2.0**-600])
    def test_are_finite_at_extreme_scales(self, theta):
        for a, b in [(0.0, 0.0), (0.05, 0.05), (0.10, 0.70), (0.25, 0.0), (0.49, 0.49)]:
            t = quantile_pair(a, b, theta)
            for m in METHODS:
                assert 0.0 < are(m, theta, t) <= 1.0, (m, a, b)
