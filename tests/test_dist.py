"""Distribution primitives: cdf/quantile/pdf contracts, the shape-3 incomplete
gamma, the Pareto-to-exponential transform, and reproducible sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from severfit.dist import (
    ExponentialModel,
    ParetoIModel,
    RandomSource,
    ThresholdPair,
    _loss_at,
    exp_cdf,
    exp_pdf,
    exp_quantile,
    log_transform_pareto_to_exp,
    pareto1_cdf,
    pareto1_pdf,
    pareto1_quantile,
    regularized_incomplete_gamma3,
    sample,
)
from severfit.framework import adapter_from_model

EXP10 = ExponentialModel(10.0)


class TestExponential:
    def test_cdf_at_zero(self):
        assert exp_cdf(EXP10, 0.0) == 0.0

    def test_cdf_direct_value(self):
        # oracle: direct evaluation of 1 - e^{-0.051}
        assert exp_cdf(EXP10, 0.51) == pytest.approx(1.0 - math.exp(-0.051), abs=1e-15)
        assert round(exp_cdf(EXP10, 0.51), 4) == 0.0497

    def test_cdf_at_infinity(self):
        for theta in (1e-300, 10.0, 1e300):
            assert exp_cdf(ExponentialModel(theta), math.inf) == 1.0
            assert exp_pdf(ExponentialModel(theta), math.inf) == 0.0

    def test_cdf_negative_rejected(self):
        with pytest.raises(ValueError):
            exp_cdf(EXP10, -0.1)

    def test_quantile_05(self):
        # 0.51 is the two-decimal rounding of the exact 5% quantile
        q = exp_quantile(EXP10, 0.05)
        assert q == pytest.approx(0.512932943875505, rel=1e-12)
        assert round(q, 2) == 0.51

    def test_quantile_zero_and_90(self):
        assert exp_quantile(EXP10, 0.0) == 0.0
        assert exp_quantile(EXP10, 0.90) == pytest.approx(23.0258509299405, rel=1e-12)

    def test_quantile_domain(self):
        for v in (-0.01, 1.0, 1.5):
            with pytest.raises(ValueError):
                exp_quantile(EXP10, v)

    def test_quantile_inverts_cdf(self):
        for v in np.linspace(0.0, 0.999, 57):
            assert exp_cdf(EXP10, exp_quantile(EXP10, v)) == pytest.approx(v, abs=1e-12)

    def test_cdf_inverts_quantile_on_log_grid(self):
        for x in np.geomspace(1e-6, 10 * EXP10.theta, 80):
            x = float(x)
            assert exp_quantile(EXP10, exp_cdf(EXP10, x)) == pytest.approx(x, rel=1e-10)

    def test_pdf(self):
        assert exp_pdf(EXP10, 0.0) == pytest.approx(0.1)
        # derivative of the cdf by central differences
        h = 1e-6
        fd = (exp_cdf(EXP10, 3.0 + h) - exp_cdf(EXP10, 3.0 - h)) / (2 * h)
        assert exp_pdf(EXP10, 3.0) == pytest.approx(fd, rel=1e-8)

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            ExponentialModel(0.0)
        with pytest.raises(ValueError):
            ExponentialModel(-1.0)


class TestParetoI:
    def test_cdf_left_endpoint(self):
        assert pareto1_cdf(ParetoIModel(1.0, 1.0), 1.0) == 0.0

    def test_cdf_analytic(self):
        assert pareto1_cdf(ParetoIModel(1.0, 1.0), 2.0) == pytest.approx(0.5)
        assert pareto1_cdf(ParetoIModel(2.0, 3.0), 6.0) == pytest.approx(0.75)

    def test_quantile_half(self):
        assert pareto1_quantile(ParetoIModel(1.0, 1.0), 0.5) == pytest.approx(2.0)

    def test_pdf_from_cdf_derivative(self):
        m = ParetoIModel(2.0, 3.0)
        assert pareto1_pdf(m, 6.0) == pytest.approx(1.0 / 12.0, rel=1e-12)
        h = 1e-6
        fd = (pareto1_cdf(m, 6.0 + h) - pareto1_cdf(m, 6.0 - h)) / (2 * h)
        assert pareto1_pdf(m, 6.0) == pytest.approx(fd, rel=1e-8)

    def test_matches_exp_through_log(self):
        m = ParetoIModel(0.5, 2.0)
        twin = ExponentialModel(2.0)
        for y in np.geomspace(2.0 + 1e-9, 2e4, 41):
            assert pareto1_cdf(m, y) == pytest.approx(
                exp_cdf(twin, math.log(y / 2.0)), abs=1e-12
            )

    def test_ratio_below_the_normal_floats(self):
        # x0/y underflows to 0 (1e-328) or falls below the normal floats (1e-400 -> 0);
        # the log ratio comes from log(x0) - log(y)
        m = ParetoIModel(1.0, 1e-20)
        assert pareto1_cdf(m, 1e308) == 1.0
        assert pareto1_pdf(m, 1e308) == 0.0
        m = ParetoIModel(0.001, 1e-300)
        survival = 10.0 ** -0.4  # (x0/y)^alpha at y = 1e100
        assert pareto1_cdf(m, 1e100) == pytest.approx(1.0 - survival, rel=1e-14)
        assert pareto1_pdf(m, 1e100) == pytest.approx(0.001 / 1e100 * survival, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.001, 1.0, 2.5])
    def test_bits_kept_where_the_ratio_is_normal(self, alpha):
        m = ParetoIModel(alpha, 1.5)
        for y in 1.5 * np.geomspace(1.0 + 1e-9, 1e307, 301):
            log_ratio = math.log(m.x0 / y)
            assert pareto1_cdf(m, y) == -math.expm1(alpha * log_ratio)
            assert pareto1_pdf(m, y) == (alpha / y) * math.exp(alpha * log_ratio)

    @given(
        alpha=st.floats(0.05, 50.0),
        x0=st.floats(0.01, 100.0),
        v=st.floats(0.0, 0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantile_roundtrip(self, alpha, x0, v):
        m = ParetoIModel(alpha, x0)
        assert pareto1_cdf(m, pareto1_quantile(m, v)) == pytest.approx(v, abs=1e-10)


class TestIncompleteGamma3:
    def test_endpoints(self):
        assert regularized_incomplete_gamma3(0.0) == 0.0
        assert regularized_incomplete_gamma3(math.inf) == 1.0

    def test_at_one_against_quadrature(self):
        oracle, _ = quad(lambda t: t * t * math.exp(-t) / 2.0, 0.0, 1.0, epsabs=1e-14)
        assert regularized_incomplete_gamma3(1.0) == pytest.approx(oracle, abs=1e-13)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            regularized_incomplete_gamma3(-1e-9)

    def test_quadrature_agreement_on_grid(self):
        for x in np.linspace(0.0, 50.0, 26):
            oracle, _ = quad(
                lambda t: t * t * math.exp(-t) / 2.0, 0.0, x, epsabs=1e-13, limit=200
            )
            assert abs(regularized_incomplete_gamma3(float(x)) - oracle) < 1e-10

    def test_nondecreasing(self):
        grid = np.linspace(0.0, 50.0, 501)
        values = [regularized_incomplete_gamma3(float(x)) for x in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_series_branch_matches_closed_form(self):
        # the two branches meet at x = 1; compare them across the seam
        for x in (0.5, 0.9, 0.999, 1.0, 1.001, 1.5):
            closed = 1.0 - math.exp(-x) * (1.0 + x + 0.5 * x * x)
            assert regularized_incomplete_gamma3(x) == pytest.approx(closed, rel=1e-12)


class TestLogTransform:
    def test_identity_thresholds(self):
        m, t = log_transform_pareto_to_exp(
            ParetoIModel(0.1, 1.0), ThresholdPair(1.0, math.inf)
        )
        assert m.theta == pytest.approx(10.0)
        assert t.d == 0.0 and math.isinf(t.u)
        assert math.copysign(1.0, t.d) == 1.0

    def test_exact_logs(self):
        m, t = log_transform_pareto_to_exp(
            ParetoIModel(1.0, 1.0), ThresholdPair(math.e, math.e**2)
        )
        assert (m.theta, t.d, t.u) == pytest.approx((1.0, 1.0, 2.0), rel=1e-14)

    def test_direct_logs(self):
        m, t = log_transform_pareto_to_exp(
            ParetoIModel(2.0, 3.0), ThresholdPair(6.0, 12.0)
        )
        assert m.theta == pytest.approx(0.5)
        assert t.d == pytest.approx(math.log(2.0), rel=1e-14)
        assert t.u == pytest.approx(math.log(4.0), rel=1e-14)

    def test_d_below_x0_rejected(self):
        with pytest.raises(ValueError):
            log_transform_pareto_to_exp(ParetoIModel(1.0, 2.0), ThresholdPair(1.0, 5.0))


class TestThresholdPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdPair(-0.1, 1.0)
        with pytest.raises(ValueError):
            ThresholdPair(2.0, 2.0)
        with pytest.raises(ValueError):
            ThresholdPair(3.0, 1.0)
        assert ThresholdPair(0.0, math.inf).upper_is_infinite


class TestSampling:
    def test_determinism(self):
        a = sample(EXP10, 100, RandomSource(seed=7, stream=3))
        b = sample(EXP10, 100, RandomSource(seed=7, stream=3))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample(EXP10, 100, RandomSource(seed=7, stream=3))
        b = sample(EXP10, 100, RandomSource(seed=7, stream=4))
        assert not np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        x = sample(EXP10, 10**6, RandomSource(seed=123))
        # sd of the mean is 0.01, so 0.05 is a five-sigma band
        assert abs(x.mean() - 10.0) < 0.05

    def test_kolmogorov_distance(self):
        x = np.sort(sample(EXP10, 10**5, RandomSource(seed=99)))
        n = x.size
        cdf_vals = np.array([exp_cdf(EXP10, float(v)) for v in x])
        upper = np.abs(cdf_vals - np.arange(1, n + 1) / n).max()
        lower = np.abs(cdf_vals - np.arange(0, n) / n).max()
        assert max(upper, lower) < 0.01

    def test_pareto_sampling_consistent_with_exp(self):
        m = ParetoIModel(2.0, 1.5)
        y = sample(m, 1000, RandomSource(seed=5))
        x = sample(ExponentialModel(0.5), 1000, RandomSource(seed=5))
        assert np.allclose(np.log(y / 1.5), x, rtol=1e-12)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            sample(EXP10, 0, RandomSource(seed=1))

    def test_stream_continues(self):
        rs = RandomSource(seed=11)
        first = sample(EXP10, 50, rs)
        second = sample(EXP10, 50, rs)
        both = sample(EXP10, 100, RandomSource(seed=11))
        assert np.allclose(np.concatenate([first, second]), both)

    def test_shape_fills_rows_from_one_stream(self):
        # chunks of rows drawn one after another equal one flat draw, bit for bit
        rs = RandomSource(seed=11)
        chunks = [sample(EXP10, (rows, 40), rs) for rows in (3, 7, 1)]
        flat = sample(EXP10, 11 * 40, RandomSource(seed=11))
        assert all(c.shape[1] == 40 for c in chunks)
        assert np.array_equal(np.concatenate(chunks).ravel(), flat)
        with pytest.raises(ValueError):
            sample(EXP10, (3, 0), RandomSource(seed=1))


MODELS = st.one_of(
    st.builds(ExponentialModel, st.floats(1e-300, 1e300)),
    st.builds(ParetoIModel, st.floats(1e-3, 1e3), st.floats(1e-300, 1e300)),
)


def explicit_loss(m, log_survival):
    """Each model's inverse cdf as written out, on an array of log(1 - v)."""
    if isinstance(m, ExponentialModel):
        return -m.theta * log_survival
    return m.x0 * np.exp(-log_survival / m.alpha)


class TestOneInverseCdf:
    """The float quantiles, the adapters' quantiles and the sampler take one
    inverse-cdf formula per model, so a float gives an array element's bits."""

    @given(m=MODELS, vs=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_float_quantiles_are_the_array_bits(self, m, vs):
        F = adapter_from_model(m)
        quantile = exp_quantile if isinstance(m, ExponentialModel) else pareto1_quantile
        with np.errstate(over="ignore"):
            batch = F.quantile(np.array(vs))
            assert batch.tobytes() == explicit_loss(m, np.log1p(-np.array(vs))).tobytes()
            for v, element in zip(vs, batch):
                value = quantile(m, v)
                assert type(value) is float
                assert np.float64(value).tobytes() == element.tobytes(), v
                assert np.float64(F.quantile(v)).tobytes() == element.tobytes(), v

    @given(m=MODELS, cs=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_complement_quantile_floats_are_the_array_bits(self, m, cs):
        F = adapter_from_model(m)
        with np.errstate(over="ignore"):
            batch = F.complement_quantile(np.array(cs))
            assert batch.tobytes() == explicit_loss(m, np.log(np.array(cs))).tobytes()
            for c, element in zip(cs, batch):
                assert np.float64(F.complement_quantile(c)).tobytes() == element.tobytes(), c

    @given(m=MODELS, seed=st.integers(0, 2**64 - 1), n=st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_sample_is_the_formula_on_the_uniforms(self, m, seed, n):
        with np.errstate(over="ignore"):
            drawn = sample(m, n, RandomSource(seed=seed, stream=2))
            log_survival = np.log1p(-RandomSource(seed=seed, stream=2).uniform(n))
            assert drawn.tobytes() == _loss_at(m, log_survival).tobytes()
            assert drawn.tobytes() == explicit_loss(m, log_survival).tobytes()

    def test_loss_beyond_the_float_range_is_inf_without_a_warning(self):
        # warnings are errors in this suite
        m = ParetoIModel(alpha=1e-3, x0=1.0)
        assert pareto1_quantile(m, 0.5) == pytest.approx(2.0**1000, rel=1e-12)
        assert pareto1_quantile(m, 0.9) == math.inf  # 10^1000
        assert exp_quantile(ExponentialModel(1e308), 0.999) == math.inf
