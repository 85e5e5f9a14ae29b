"""General k-equation machinery: overlap windows, covariance assembly, the
two covariance routes, delta-method propagation, and the system solver."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from severfit import framework
from severfit.dist import (
    ExponentialModel,
    ParetoIModel,
    RandomSource,
    ThresholdPair,
    exp_quantile,
    sample,
)
from severfit.errors import DegenerateError, EmptyWindowError, NoSolutionError, QuadratureError
from severfit.framework import (
    DistributionAdapter,
    MomentEquation,
    TruncatedSpec,
    adapter_from_model,
    asymptotic_report,
    d_v_jacobian,
    finite_difference_jacobian,
    overlap_window,
    population_moment_vector,
    population_quantities,
    propagate_theta,
    sample_moment_vector,
    sigma_mu,
    sigma_mu_explicit,
    sigma_v,
    solve_moment_system,
)
from severfit.moments import (
    mu_mtum,
    mu_mtum_dtheta,
    tail_quantities,
    truncated_summary,
)

THETA = 10.0
EXP_ADAPTER = adapter_from_model(ExponentialModel(THETA))
T_MAIN = ThresholdPair(0.51, 29.96)


def spec_of(*eqs):
    return TruncatedSpec(tuple(MomentEquation(h=h, window=w) for h, w in eqs))


def identity(x):
    return x


def square(x):
    return x * x


def _exp_family(theta_vec):
    return adapter_from_model(ExponentialModel(float(theta_vec[0])))


class TestOverlapWindow:
    def test_four_scenarios(self):
        # windows chosen to realize each ordering of the four endpoints
        cases = [
            ((1.0, 5.0), (2.0, 8.0), (2.0, 5.0)),  # d_j <= d_j' < u_j <= u_j'
            ((1.0, 9.0), (2.0, 8.0), (2.0, 8.0)),  # d_j <= d_j' < u_j' <= u_j
            ((3.0, 6.0), (2.0, 8.0), (3.0, 6.0)),  # d_j' <= d_j < u_j <= u_j'
            ((3.0, 9.0), (2.0, 8.0), (3.0, 8.0)),  # d_j' <= d_j < u_j' <= u_j
        ]
        for (d1, u1), (d2, u2), (de, ue) in cases:
            s = spec_of((identity, ThresholdPair(d1, u1)), (identity, ThresholdPair(d2, u2)))
            w = overlap_window(s, 0, 1)
            assert (w.d, w.u) == (de, ue)
            w_sym = overlap_window(s, 1, 0)
            assert (w_sym.d, w_sym.u) == (de, ue)

    def test_disjoint(self):
        s = spec_of((identity, ThresholdPair(1.0, 2.0)), (identity, ThresholdPair(3.0, 4.0)))
        assert overlap_window(s, 0, 1) is None

    def test_self_overlap(self):
        s = spec_of((identity, ThresholdPair(1.0, 2.0)))
        w = overlap_window(s, 0, 0)
        assert (w.d, w.u) == (1.0, 2.0)


class TestPopulationQuantities:
    def test_k1_matches_closed_forms(self):
        s = spec_of((identity, T_MAIN))
        q = population_quantities(EXP_ADAPTER, s)
        summary = truncated_summary(THETA, T_MAIN)
        tails = tail_quantities(THETA, T_MAIN)
        assert q.p[0] == pytest.approx(tails.p, abs=1e-14)
        assert q.mu_y[0] == pytest.approx(summary.mu_y, abs=1e-11)
        assert q.mu_y_pair[0, 0] == pytest.approx(summary.mu_y2, abs=1e-9)
        assert q.mu_w_pair[0, 0] == q.mu_y[0]

    def test_k1_population_moment(self):
        s = spec_of((identity, T_MAIN))
        mu = population_moment_vector(EXP_ADAPTER, s)
        assert mu[0] == pytest.approx(mu_mtum(THETA, T_MAIN), abs=1e-11)

    def test_nested_windows_share_inner_mass(self):
        inner = ThresholdPair(2.0, 8.0)
        outer = ThresholdPair(1.0, 9.0)
        s = spec_of((identity, outer), (square, inner))
        q = population_quantities(EXP_ADAPTER, s)
        inner_p = EXP_ADAPTER.cdf(8.0) - EXP_ADAPTER.cdf(2.0)
        assert q.p_pair[0, 1] == pytest.approx(inner_p, abs=1e-14)
        assert q.p_pair[1, 0] == pytest.approx(inner_p, abs=1e-14)

    def test_constant_statistic_integrates_the_same_alone_and_squared(self):
        # h = 1 squared is h = 1, so both expectations come from the same integrand
        s = spec_of(
            (lambda x: x, ThresholdPair(0.0, math.inf)),
            (np.log1p, ThresholdPair(2.0, math.inf)),
            (lambda _: 1.0, ThresholdPair(1.0, 5.0)),
        )
        q = population_quantities(EXP_ADAPTER, s)
        assert q.mu_y_pair[2, 2] == q.mu_w_pair[2, 2]

    def test_w_pair_uses_own_statistic(self):
        # h_2 over the overlap differs from h_1 over the overlap
        s = spec_of((identity, ThresholdPair(1.0, 9.0)), (square, ThresholdPair(2.0, 8.0)))
        q = population_quantities(EXP_ADAPTER, s)
        assert q.mu_w_pair[0, 1] != pytest.approx(q.mu_w_pair[1, 0], rel=1e-3)


class TestPopulationMomentVector:
    def test_zero_mass_window_raises(self):
        # F(100) and F(200) of Exp(1) both round to 1, so the quantile-domain
        # mass F(u) - F(d) is 0 (the true mass is about e^-100)
        s = spec_of((identity, ThresholdPair(100.0, 200.0)))
        with pytest.raises(DegenerateError, match="zero probability mass"):
            population_moment_vector(adapter_from_model(ExponentialModel(1.0)), s)
        with pytest.raises(DegenerateError, match="zero probability mass"):
            asymptotic_report(adapter_from_model(ExponentialModel(1.0)), s)

    def test_equals_quantities_ratio_bit_for_bit(self):
        # the criterion-06 spec; only the k window integrals are computed
        s = spec_of((identity, ThresholdPair(0.51, 29.96)), (square, ThresholdPair(1.05, 23.03)))
        q = population_quantities(EXP_ADAPTER, s)
        assert np.array_equal(population_moment_vector(EXP_ADAPTER, s), q.mu_y / q.p)


def _normal_adapter(m, scale, quantile):
    from scipy.special import ndtr

    return DistributionAdapter(
        cdf=lambda x: 1.0 if math.isinf(x) else float(ndtr((x - m) / scale)),
        pdf=lambda x: math.exp(-0.5 * ((x - m) / scale) ** 2) / (scale * math.sqrt(2 * math.pi)),
        quantile=quantile,
        support=(-math.inf, math.inf),
    )


class TestHeavyTailOracle:
    """u = inf windows against closed forms, at 1e-12 relative: the nodes
    near v = 1 go through the complement quantile, so no tail mass is lost."""

    X0, D = 1.5, 1.6

    @pytest.mark.parametrize("alpha", [1.1, 2.0, 3.0, 5.0])
    def test_pareto_mean_excess(self, alpha):
        F = adapter_from_model(ParetoIModel(alpha, self.X0))
        mu = population_moment_vector(F, spec_of((identity, ThresholdPair(self.D, math.inf))))
        assert mu[0] == pytest.approx(alpha * self.D / (alpha - 1.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [3.0, 5.0])
    def test_pareto_second_moment(self, alpha):
        F = adapter_from_model(ParetoIModel(alpha, self.X0))
        mu = population_moment_vector(F, spec_of((square, ThresholdPair(self.D, math.inf))))
        assert mu[0] == pytest.approx(alpha * self.D**2 / (alpha - 2.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("theta", [1e-3, 10.0, 1e6])
    def test_exponential_moments(self, theta):
        F = adapter_from_model(ExponentialModel(theta))
        d = 0.2877 * theta
        s = spec_of((identity, ThresholdPair(d, math.inf)), (square, ThresholdPair(d, math.inf)))
        mu = population_moment_vector(F, s)
        assert mu[0] == pytest.approx(d + theta, rel=1e-12, abs=0.0)
        assert mu[1] == pytest.approx((d + theta) ** 2 + theta**2, rel=1e-12, abs=0.0)
        assert F.cdf(math.inf) == 1.0

    def test_window_ending_next_to_v_one(self):
        theta, d, u = 1.0, 1.0, 35.0
        F = adapter_from_model(ExponentialModel(theta))
        assert 0.0 < 1.0 - F.cdf(u) < 1e-15
        w = u - d
        mu = population_moment_vector(F, spec_of((identity, ThresholdPair(d, u))))
        assert mu[0] == pytest.approx(d + theta - w / math.expm1(w / theta), rel=1e-12, abs=0.0)


class TestDivergentMoments:
    @pytest.mark.parametrize("alpha", [1.5, 1.9, 2.0])
    def test_infinite_variance_raises(self, alpha):
        # E[X^2 | X > 1.6] is infinite for alpha <= 2, so Sigma_mu is too
        F = adapter_from_model(ParetoIModel(alpha, 1.5))
        s = spec_of((identity, ThresholdPair(1.6, math.inf)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError):
                asymptotic_report(F, s)

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_infinite_variance_raises_on_a_small_scale(self, alpha):
        # every integral is far below the absolute error cap here, so only
        # the tail mass measured against the integral itself can tell
        x0 = 1e-100
        F = adapter_from_model(ParetoIModel(alpha, x0))
        s = spec_of((identity, ThresholdPair(1.1 * x0, math.inf)))
        with pytest.raises(QuadratureError):
            asymptotic_report(F, s)

    @pytest.mark.parametrize("alpha", [1.1, 2.0])
    def test_tail_lost_without_complement_quantile_raises(self, alpha):
        # forming v = 1 - c rounds away the nodes that carry a heavy tail;
        # their mass enters the error estimate instead of vanishing
        F = dataclasses.replace(
            adapter_from_model(ParetoIModel(alpha, 1.5)), complement_quantile=None
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError) as err:
                population_moment_vector(F, spec_of((identity, ThresholdPair(1.6, math.inf))))
        assert err.value.achieved > framework._QUAD_ERR_CAP

    def test_non_finite_integrand_raises(self):
        s = spec_of((lambda x: np.where(x > 20.0, np.nan, x), T_MAIN))
        with pytest.raises(QuadratureError):
            population_moment_vector(EXP_ADAPTER, s)


class TestArrayQuadrature:
    def test_one_array_call_per_level(self):
        # as test_one_quadrature_per_curve counts quad calls: h sees whole
        # arrays of nodes, at most one call per level of each integral
        calls = []

        def counted(h):
            def inner(x):
                calls.append(x)
                return h(x)

            return inner

        per_integral = framework._LAST_LEVEL - framework._FIRST_LEVEL + 1
        population_moment_vector(EXP_ADAPTER, spec_of((counted(identity), T_MAIN)))
        assert len(calls) == 1  # the benchmark residual takes one call
        calls.clear()
        pareto = adapter_from_model(ParetoIModel(1.1, 1.5))
        population_moment_vector(pareto, spec_of((counted(identity), ThresholdPair(1.6, math.inf))))
        assert 1 <= len(calls) <= per_integral
        calls.clear()
        # k = 2: mu_y, the square and mu_w for each h, and one cross product
        s = spec_of((counted(identity), T_MAIN), (counted(square), ThresholdPair(1.05, 23.03)))
        population_quantities(EXP_ADAPTER, s)
        assert 8 <= len(calls) <= 8 * per_integral
        assert all(isinstance(x, np.ndarray) and x.size > 1 for x in calls)

    @pytest.mark.parametrize("window", [ThresholdPair(0.0, 10.0), ThresholdPair(1.0, math.inf)])
    def test_node_by_node_matches_array_path(self, window):
        from scipy.special import ndtri

        # math.log1p and float(ndtri(v)) take one float at a time
        scalar = _normal_adapter(4.0, 2.0, lambda v: 4.0 + 2.0 * float(ndtri(v)))
        array = _normal_adapter(4.0, 2.0, lambda v: 4.0 + 2.0 * ndtri(v))
        by_node = population_quantities(scalar, spec_of((math.log1p, window)))
        by_array = population_quantities(array, spec_of((np.log1p, window)))
        assert by_node.mu_y[0] == pytest.approx(by_array.mu_y[0], rel=1e-14, abs=0.0)
        assert by_node.mu_y_pair[0, 0] == pytest.approx(
            by_array.mu_y_pair[0, 0], rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize(
        "fn",
        [
            lambda v: -np.log1p(-v),
            lambda v: exp_quantile(ExponentialModel(1.0), v),
            lambda v: 2.0,
        ],
        ids=["array", "scalar-only", "constant"],
    )
    def test_no_nodes_give_an_empty_array(self, fn):
        out = framework._on_nodes(fn, np.empty(0))
        assert isinstance(out, np.ndarray)
        assert out.shape == (0,) and out.dtype == float


class TestSigmaV:
    def test_k1_analytic_entries(self):
        s = spec_of((identity, T_MAIN))
        q = population_quantities(EXP_ADAPTER, s)
        cov = sigma_v(q)
        summary = truncated_summary(THETA, T_MAIN)
        p = tail_quantities(THETA, T_MAIN).p
        assert cov[0, 0] == pytest.approx(summary.sigma_y2, rel=1e-9)
        assert cov[0, 1] == pytest.approx(summary.mu_y * (1 - p), rel=1e-10)
        assert cov[1, 0] == cov[0, 1]
        assert cov[1, 1] == pytest.approx(p * (1 - p), rel=1e-12)

    def test_constant_statistic_bernoulli_scaling(self):
        c = 3.7
        t = ThresholdPair(1.0, 5.0)
        s = spec_of((lambda x: c, t))
        q = population_quantities(EXP_ADAPTER, s)
        p = tail_quantities(THETA, t).p
        cov = sigma_v(q)
        assert cov[0, 0] == pytest.approx(c * c * p * (1 - p), rel=1e-9)

    def test_against_simulation_oracle(self):
        # empirical covariance of (Y1, Y2, ind1, ind2) over 10^6 draws
        w1, w2 = ThresholdPair(0.51, 29.96), ThresholdPair(1.05, 23.03)
        s = spec_of((identity, w1), (square, w2))
        q = population_quantities(EXP_ADAPTER, s)
        theo = sigma_v(q)
        x = sample(ExponentialModel(THETA), 10**6, RandomSource(seed=314159))
        in1 = (x > w1.d) & (x <= w1.u)
        in2 = (x > w2.d) & (x <= w2.u)
        v = np.stack([x * in1, x * x * in2, in1.astype(float), in2.astype(float)])
        emp = np.cov(v, ddof=1)
        centered = v - v.mean(axis=1, keepdims=True)
        n = x.size
        for i in range(4):
            for j in range(4):
                prod = centered[i] * centered[j]
                se = prod.std(ddof=1) / math.sqrt(n)
                assert abs(emp[i, j] - theo[i, j]) < 3.5 * se + 1e-12


class TestSigmaMu:
    def test_k1_closed_form(self):
        s = spec_of((identity, T_MAIN))
        q = population_quantities(EXP_ADAPTER, s)
        sig = sigma_mu(q)
        summary = truncated_summary(THETA, T_MAIN)
        p = tail_quantities(THETA, T_MAIN).p
        closed = summary.sigma_y2 / p**2 - (1 - p) * summary.mu_y**2 / p**3
        assert sig[0, 0] == pytest.approx(closed, abs=1e-10)

    def test_two_routes_agree_on_random_specs(self):
        rng = np.random.default_rng(7)
        hs = [identity, square, lambda x: math.log1p(x)]
        for _ in range(10):
            k = int(rng.integers(1, 4))
            eqs = []
            for j in range(k):
                d = float(rng.uniform(0.0, 6.0))
                u = d + float(rng.uniform(0.5, 30.0))
                eqs.append((hs[j % 3], ThresholdPair(d, u)))
            q = population_quantities(EXP_ADAPTER, spec_of(*eqs))
            explicit = sigma_mu_explicit(q)
            d_v = d_v_jacobian(q)
            sandwich = d_v @ sigma_v(q) @ d_v.T
            scale = max(1.0, np.abs(sandwich).max())
            assert np.abs(explicit - sandwich).max() < 1e-10 * scale

    def test_positive_semidefinite_on_random_specs(self):
        rng = np.random.default_rng(40)
        hs = [identity, square, lambda x: math.log1p(x)]
        for _ in range(8):
            k = int(rng.integers(2, 4))
            eqs = []
            for j in range(k):
                d = float(rng.uniform(0.0, 4.0))
                u = d + float(rng.uniform(1.0, 25.0))
                eqs.append((hs[j % 3], ThresholdPair(d, u)))
            q = population_quantities(EXP_ADAPTER, spec_of(*eqs))
            big = sigma_v(q)
            small = sigma_mu(q)
            for matrix in (big, small):
                eigenvalues = np.linalg.eigvalsh(matrix)
                assert eigenvalues.min() > -1e-9 * max(1.0, np.abs(matrix).max())


class TestPropagation:
    def test_identity_jacobian(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(propagate_theta(sigma, np.eye(2)), sigma)

    def test_scaling_bilinearity(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        d = np.array([[0.5, 1.0], [0.0, 2.0]])
        assert np.allclose(propagate_theta(sigma, 3.0 * d), 9.0 * propagate_theta(sigma, d))

    def test_reproduces_estimator_variance(self):
        # chain rule: theta variance = (d theta/d mu)^2 * mu variance
        s = spec_of((identity, T_MAIN))
        q = population_quantities(EXP_ADAPTER, s)
        sig = sigma_mu(q)
        jac = np.array([[1.0 / mu_mtum_dtheta(THETA, T_MAIN)]])
        out = propagate_theta(sig, jac)
        summary = truncated_summary(THETA, T_MAIN)
        p = tail_quantities(THETA, T_MAIN).p
        d, u = T_MAIN.d, T_MAIN.u
        printed = (THETA**2) * (p * THETA**2) / (
            p**2 * THETA**2 - math.exp(-(d + u) / THETA) * (u - d) ** 2
        )
        assert out[0, 0] == pytest.approx(printed, rel=1e-10)


class TestSampleMomentVector:
    def test_matches_k1_sample_statistic(self):
        from severfit.estimators import sample_mtum

        x = sample(ExponentialModel(THETA), 5000, RandomSource(seed=8))
        s = spec_of((identity, T_MAIN))
        vec = sample_moment_vector(x, s)
        assert vec[0] == pytest.approx(sample_mtum(x, T_MAIN).mu_hat, rel=1e-14)

    def test_array_statistic_equals_direct_masked_sum(self):
        # h is called once on the window's ndarray
        x = sample(ExponentialModel(THETA), 100_000, RandomSource(seed=11))
        in_window = x[(x > T_MAIN.d) & (x <= T_MAIN.u)]
        for h in (np.log1p, square):
            vec = sample_moment_vector(x, spec_of((h, T_MAIN)))
            assert vec[0] == h(in_window).sum() / in_window.size

    def test_indicator_statistic_gives_one(self):
        x = sample(ExponentialModel(THETA), 1000, RandomSource(seed=9))
        s = spec_of((lambda _: 1.0, T_MAIN))
        assert sample_moment_vector(x, s)[0] == pytest.approx(1.0)

    def test_empty_window(self):
        s = spec_of((identity, ThresholdPair(50.0, 60.0)))
        with pytest.raises(EmptyWindowError):
            sample_moment_vector([1.0, 2.0], s)

    def test_consistency_with_population(self):
        x = sample(ExponentialModel(THETA), 10**6, RandomSource(seed=10))
        s = spec_of((identity, T_MAIN), (square, ThresholdPair(1.05, 23.03)))
        vec = sample_moment_vector(x, s)
        mu = population_moment_vector(EXP_ADAPTER, s)
        q = population_quantities(EXP_ADAPTER, s)
        sig = sigma_mu(q)
        for j in range(2):
            se = math.sqrt(sig[j, j] / x.size)
            assert abs(vec[j] - mu[j]) < 4.0 * se


class TestQuantileDomainIdentity:
    def test_x_domain_equals_v_domain(self):
        from scipy.integrate import quad

        for d, u in [(0.51, 29.96), (2.0, 8.0)]:
            x_dom, _ = quad(
                lambda x: x * math.exp(-x / THETA) / THETA, d, u, epsabs=1e-12, epsrel=1e-12
            )
            lo, hi = EXP_ADAPTER.cdf(d), EXP_ADAPTER.cdf(u)
            v_dom, _ = quad(
                lambda v: EXP_ADAPTER.quantile(v), lo, hi, epsabs=1e-12, epsrel=1e-12
            )
            assert x_dom == pytest.approx(v_dom, abs=1e-8)


class TestMomentSystemSolver:
    def test_k1_recovers_theta(self):
        s = spec_of((identity, T_MAIN))

        def family(theta_vec):
            return adapter_from_model(ExponentialModel(float(theta_vec[0])))

        target = population_moment_vector(EXP_ADAPTER, s)
        root = solve_moment_system(family, s, target, [4.0])
        assert root[0] == pytest.approx(THETA, rel=1e-8)

    def test_k2_two_parameter_family(self):
        # normal location-scale: windowed first and second moments pin both
        # parameters (an exponential shift would cancel out of the window
        # conditional by memorylessness)
        from scipy.special import ndtri

        def family(theta_vec):
            m, scale = float(theta_vec[0]), float(theta_vec[1])
            return _normal_adapter(m, scale, lambda v: m + scale * float(ndtri(v)))

        s = spec_of((identity, ThresholdPair(0.0, 10.0)), (square, ThresholdPair(0.0, 10.0)))
        truth = np.array([4.0, 2.0])
        target = population_moment_vector(family(truth), s)
        root = solve_moment_system(family, s, target, [3.0, 1.5])
        assert np.allclose(root, truth, rtol=1e-7)

    def test_unsolvable_target_raises(self):
        s = spec_of((identity, ThresholdPair(1.0, 3.0)))

        def family(theta_vec):
            return adapter_from_model(ExponentialModel(float(theta_vec[0])))

        # the truncated mean can never exceed (d + u)/2 = 2
        with pytest.raises(NoSolutionError) as err:
            solve_moment_system(family, s, [2.5], [1.0])
        assert err.value.residual is not None

    def test_bad_inputs_name_the_argument(self):
        s = spec_of((identity, T_MAIN))
        with pytest.raises(ValueError, match="^theta0 must have at least one entry$"):
            solve_moment_system(_exp_family, s, [3.0], [])
        with pytest.raises(ValueError, match="^mu_hat must have one entry per equation$"):
            solve_moment_system(_exp_family, s, [3.0, 4.0], [THETA])

    def test_unattainable_target_reports_its_residual(self):
        # the truncated mean on (0.51, 29.96) stays below (d + u)/2 = 15.235
        s = spec_of((identity, T_MAIN))
        with pytest.raises(NoSolutionError) as err:
            solve_moment_system(_exp_family, s, [40.0], [THETA])
        assert err.value.residual == pytest.approx(40.0 - 0.5 * (T_MAIN.d + T_MAIN.u), rel=1e-9)

    def test_over_identified_system_takes_least_squares_steps(self, monkeypatch):
        # two windowed means and one parameter: a non-square Jacobian
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        s = spec_of((identity, T_MAIN), (identity, ThresholdPair(1.05, 23.03)))
        target = population_moment_vector(EXP_ADAPTER, s)
        root = solve_moment_system(_exp_family, s, target, [4.0])
        assert root.shape == (1,)
        assert root[0] == pytest.approx(THETA, rel=1e-8)
        assert calls

    def test_finite_difference_jacobian(self):
        jac = finite_difference_jacobian(
            lambda v: np.array([v[0] ** 2 + v[1], 3.0 * v[1]]), [2.0, 5.0]
        )
        assert np.allclose(jac, [[4.0, 1.0], [0.0, 3.0]], atol=1e-6)

    def test_finite_difference_jacobian_calls_g_twice_per_coordinate(self):
        points = []

        def g(v):
            points.append(v.copy())
            return np.array([v[0] * v[1], v[0] - v[1], v[1] ** 2])

        jac = finite_difference_jacobian(g, [2.0, 5.0])
        assert jac.shape == (3, 2)
        assert np.allclose(jac, [[5.0, 2.0], [1.0, -1.0], [0.0, 10.0]], atol=1e-6)
        assert len(points) == 4
        assert not any(np.array_equal(p, [2.0, 5.0]) for p in points)

    def test_benchmark_shaped_roots_take_few_residuals(self, monkeypatch):
        # Broyden updates replace the per-step finite-difference Jacobian:
        # one Jacobian (2 residuals) and then one residual per accepted step
        calls = []

        def counted(F, spec):
            calls.append(1)
            return population_moment_vector(F, spec)

        monkeypatch.setattr(framework, "population_moment_vector", counted)
        s = spec_of((identity, T_MAIN))
        thetas = 5.0 + 15.0 * np.random.default_rng(7).random(25)
        for theta in thetas:
            target = mu_mtum(theta, T_MAIN)
            root = solve_moment_system(_exp_family, s, [target], [target - T_MAIN.d])
            assert root[0] == pytest.approx(theta, rel=1e-10, abs=0.0)
        assert len(calls) / thetas.size <= 10.0

    def test_refresh_rescues_a_failed_updated_step(self, monkeypatch):
        # the window mean is hump(theta) + 1/2, with hump rising to 4 at
        # theta = 2 and falling after it; from 0.05 the first step jumps the
        # hump, so the secant slope keeps the sign of the rising side and
        # every damped step on it climbs back up the hump
        def hump(theta):
            return theta * theta * math.exp(2.0 - theta)

        def family(theta_vec):
            m = hump(float(theta_vec[0]))
            return DistributionAdapter(
                cdf=lambda x: min(max(x - m, 0.0), 1.0),
                pdf=lambda x: 1.0 if m <= x <= m + 1.0 else 0.0,
                quantile=lambda v: m + v,
                support=(m, m + 1.0),
            )

        jacobians = []
        residuals = []

        def counted(g, theta, rel_step=1e-6):
            jacobians.append(float(theta[0]))
            return finite_difference_jacobian(g, theta, rel_step)

        def counted_residual(F, spec):
            residuals.append(1)
            return population_moment_vector(F, spec)

        monkeypatch.setattr(framework, "finite_difference_jacobian", counted)
        monkeypatch.setattr(framework, "population_moment_vector", counted_residual)
        s = spec_of((identity, ThresholdPair(0.0, 100.0)))
        root = solve_moment_system(family, s, [2.5], [0.05])
        assert len(jacobians) == 2
        assert jacobians[0] == 0.05 and 2.0 < jacobians[1] < root[0]
        assert hump(root[0]) == pytest.approx(2.0, abs=1e-10)
        # the failed search on the updated Jacobian gives up after a few
        # halvings (15 residuals in all), not the 30 of a fresh one (41)
        assert len(residuals) <= 20


class TestAsymptoticReport:
    def test_report_shape_and_psd(self):
        s = spec_of((identity, T_MAIN), (square, ThresholdPair(1.05, 23.03)))
        report = asymptotic_report(EXP_ADAPTER, s)
        assert report.mu.shape == (2,)
        assert report.sigma_mu.shape == (2, 2)
        assert report.sigma_theta is None
        assert np.linalg.eigvalsh(report.sigma_mu).min() > -1e-9
        with_jac = asymptotic_report(EXP_ADAPTER, s, jacobian=np.eye(2))
        assert np.allclose(with_jac.sigma_theta, report.sigma_mu)
