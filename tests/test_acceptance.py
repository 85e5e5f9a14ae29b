"""Acceptance suite: end-to-end checks at pinned tolerances.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The pinned three-decimal efficiency tables and finite-sample targets are
regression references for the closed forms and the simulation engine.
"""

import math
import time

import numpy as np

from severfit.dist import (
    ExponentialModel,
    ParetoIModel,
    RandomSource,
    ThresholdPair,
    exp_quantile,
    sample,
)
from severfit.estimators import (
    fit,
    sample_mtum,
    solve_mcm_exp,
    solve_mtcm_exp,
    solve_mtum_exp,
    solve_mtum_pareto1,
)
from severfit.framework import (
    MomentEquation,
    TruncatedSpec,
    adapter_from_model,
    d_v_jacobian,
    population_quantities,
    sigma_mu,
    sigma_mu_explicit,
    sigma_v,
)
from severfit.moments import (
    mu_mcm,
    mu_mtcm,
    mu_mtum,
    pareto_g_du,
    pareto_g_limits,
    sigma_mcm2,
    tail_quantities,
    truncated_summary,
)
from severfit import asymptotics, mc

THETA = 10.0
GRID = (0.0, 0.05, 0.10, 0.15, 0.25, 0.49, 0.70, 0.85)

# Reference efficiency values at theta = 10 on the tail-probability grid
# above (rows: lower tail a, columns: upper tail b).  None marks cells whose
# thresholds satisfy d >= u.  Entries are rounded to three decimals; the
# acceptance tolerance of +/-0.002 also covers evaluating them at exact
# rather than two-decimal-rounded threshold quantiles.
X = None
EXPECTED_ARE = {
    "mtum": [
        [1.000, 0.478, 0.311, 0.215, 0.109, 0.021, 0.003, 0.000],
        [0.950, 0.443, 0.284, 0.193, 0.095, 0.016, 0.002, 0.000],
        [0.900, 0.408, 0.257, 0.172, 0.082, 0.012, 0.001, 0.000],
        [0.850, 0.373, 0.231, 0.152, 0.069, 0.009, 0.000, X],
        [0.750, 0.307, 0.182, 0.114, 0.047, 0.004, 0.000, X],
        [0.510, 0.161, 0.080, 0.042, 0.011, 0.000, X, X],
        [0.300, 0.057, 0.019, 0.006, 0.000, X, X, X],
        [0.150, 0.009, 0.001, X, X, X, X, X],
    ],
    "mcm": [
        [1.000, 0.918, 0.847, 0.783, 0.666, 0.423, 0.238, 0.116],
        [1.000, 0.918, 0.848, 0.783, 0.667, 0.425, 0.242, 0.122],
        [1.000, 0.918, 0.848, 0.785, 0.669, 0.430, 0.250, 0.135],
        [0.999, 0.918, 0.850, 0.787, 0.672, 0.436, 0.261, X],
        [0.995, 0.918, 0.851, 0.790, 0.679, 0.452, 0.285, X],
        [0.958, 0.897, 0.839, 0.786, 0.688, 0.487, X, X],
        [0.857, 0.824, 0.781, 0.738, 0.659, X, X, X],
        [0.681, 0.688, 0.663, X, X, X, X, X],
    ],
    "mtcm": [
        [1.000, 0.918, 0.847, 0.783, 0.666, 0.423, 0.238, 0.116],
        [0.950, 0.868, 0.798, 0.735, 0.619, 0.380, 0.197, 0.077],
        [0.900, 0.819, 0.750, 0.687, 0.572, 0.336, 0.157, 0.038],
        [0.850, 0.768, 0.700, 0.638, 0.525, 0.292, 0.116, X],
        [0.750, 0.670, 0.603, 0.542, 0.432, 0.208, 0.038, X],
        [0.510, 0.434, 0.371, 0.315, 0.216, 0.015, X, X],
        [0.300, 0.229, 0.173, 0.124, 0.039, X, X, X],
        [0.150, 0.087, 0.040, X, X, X, X, X],
    ],
}

# Finite-sample relative-efficiency references (desk-scale targets) and the
# matching large-n analytic values, keyed by (n, a, b).
EXPECTED_RE = {
    (250, 0.05, 0.05): {"mtum": 0.42, "mcm": 0.92, "mtcm": 0.86},
    (250, 0.10, 0.10): {"mtum": 0.23, "mcm": 0.85, "mtcm": 0.74},
    (250, 0.25, 0.00): {"mtum": 0.75, "mcm": 1.00, "mtcm": 0.75},
    (1000, 0.05, 0.05): {"mtum": 0.44, "mcm": 0.91, "mtcm": 0.86},
    (1000, 0.10, 0.10): {"mtum": 0.25, "mcm": 0.84, "mtcm": 0.74},
    (1000, 0.25, 0.00): {"mtum": 0.75, "mcm": 0.99, "mtcm": 0.75},
}


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def quantile_pair(a: float, b: float, theta: float = THETA) -> ThresholdPair:
    m = ExponentialModel(theta)
    d = exp_quantile(m, a)
    u = math.inf if b == 0.0 else exp_quantile(m, 1.0 - b)
    return ThresholdPair(d, u)


def test_criterion_01_efficiency_table():
    start = time.perf_counter()
    reports = asymptotics.are_table(THETA, GRID, GRID)
    elapsed = time.perf_counter() - start
    by_key = {(r.method, r.a, r.b): r for r in reports}
    worst = 0.0
    for method, rows in EXPECTED_ARE.items():
        for i, a in enumerate(GRID):
            for j, b in enumerate(GRID):
                expected = rows[i][j]
                got = by_key[(method, a, b)].are
                if expected is None:
                    assert got is None, f"{method} ({a}, {b}) should be absent"
                    continue
                assert got is not None, f"{method} ({a}, {b}) should be present"
                worst = max(worst, abs(got - expected))
    _criterion(
        1,
        worst < 0.002 and elapsed < 1.0,
        f"max |table deviation| = {worst:.5f} (tol 0.002), runtime {elapsed:.3f}s (cap 1s)",
    )


def test_criterion_02_censored_equals_trimmed_efficiency():
    start = time.perf_counter()
    worst_are = 0.0
    worst_j = 0.0
    for a in GRID:
        for b in GRID:
            if a + b >= 1.0 - 1e-15:
                continue
            t = quantile_pair(a, b)
            j_quad = asymptotics.mtm_integral_J(a, 1.0 - b)
            i_val = asymptotics.mtm_integral_I(a, 1.0 - b)
            worst_are = max(worst_are, abs(asymptotics.are_mcm(THETA, t) - i_val**2 / j_quad))
            worst_j = max(worst_j, abs(sigma_mcm2(THETA, t) / THETA**2 - j_quad))
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        worst_are < 1e-6 and worst_j < 1e-6 and elapsed < 10.0,
        f"max |ARE gap| = {worst_are:.2e}, max |J gap| = {worst_j:.2e} (tol 1e-6), "
        f"runtime {elapsed:.2f}s (cap 10s)",
    )


def test_criterion_03_influence_contraction_identity():
    adapter = adapter_from_model(ExponentialModel(THETA))
    grid = np.linspace(0.0, 40.0, 101)
    worst = 0.0
    for a, b in ((0.05, 0.05), (0.10, 0.10), (0.25, 0.0)):
        t = quantile_pair(a, b)
        for x in grid:
            lhs = asymptotics.influence_mcm(adapter, t, float(x))
            rhs = (1.0 - a - b) * asymptotics.influence_mtm(adapter, a, b, float(x))
            worst = max(worst, abs(lhs - rhs))
    _criterion(3, worst < 1e-8, f"max |identity gap| = {worst:.2e} (tol 1e-8)")


def test_criterion_04_round_trips_and_existence():
    worst = 0.0
    for theta in (0.1, 1.0, 10.0, 100.0):
        t = quantile_pair(0.05, 0.05, theta)
        for solver, forward in (
            (solve_mtum_exp, mu_mtum),
            (solve_mcm_exp, mu_mcm),
            (solve_mtcm_exp, mu_mtcm),
        ):
            r = solver(forward(theta, t), t)
            assert r.exists
            worst = max(worst, abs(r.estimate - theta) / theta)
        # boundary values must be reported as nonexistent, never solved
        assert not solve_mtum_exp(t.d, t).exists
        assert not solve_mtum_exp(0.5 * (t.d + t.u), t).exists
        assert not solve_mcm_exp(t.d, t).exists
        assert not solve_mcm_exp(t.u, t).exists
        assert not solve_mtcm_exp(t.d, t).exists
        assert not solve_mtcm_exp(t.u, t).exists
    tp = ThresholdPair(2.0, 10.0)
    lower, upper = pareto_g_limits(tp, 1.0)
    for alpha in (0.1, 1.0, 10.0, 100.0):
        r = solve_mtum_pareto1(pareto_g_du(alpha, tp, 1.0), tp, 1.0)
        assert r.exists
        worst = max(worst, abs(r.estimate - alpha) / alpha)
    assert not solve_mtum_pareto1(lower, tp, 1.0).exists
    assert not solve_mtum_pareto1(upper, tp, 1.0).exists
    _criterion(4, worst < 1e-8, f"max relative round-trip error = {worst:.2e} (tol 1e-8)")


def test_criterion_05_framework_reduction():
    t = ThresholdPair(0.51, 29.96)
    adapter = adapter_from_model(ExponentialModel(THETA))
    spec = TruncatedSpec((MomentEquation(h=lambda x: x, window=t),))
    q = population_quantities(adapter, spec)
    sigma = sigma_mu(q)
    summary = truncated_summary(THETA, t)
    p = tail_quantities(THETA, t).p
    closed = summary.sigma_y2 / p**2 - (1 - p) * summary.mu_y**2 / p**3
    gap = abs(sigma[0, 0] - closed)

    rng = np.random.default_rng(123)
    hs = [lambda x: x, lambda x: x * x, lambda x: math.log1p(x)]
    worst_route = 0.0
    min_eig = math.inf
    for _ in range(6):
        k = int(rng.integers(1, 4))
        eqs = []
        for j in range(k):
            d = float(rng.uniform(0.0, 5.0))
            u = d + float(rng.uniform(0.5, 30.0))
            eqs.append(MomentEquation(h=hs[j % 3], window=ThresholdPair(d, u)))
        qq = population_quantities(adapter, TruncatedSpec(tuple(eqs)))
        explicit = sigma_mu_explicit(qq)
        jac = d_v_jacobian(qq)
        sandwich = jac @ sigma_v(qq) @ jac.T
        scale = max(1.0, float(np.abs(sandwich).max()))
        worst_route = max(worst_route, float(np.abs(explicit - sandwich).max()) / scale)
        eig = np.linalg.eigvalsh(sigma_v(qq))
        min_eig = min(min_eig, float(eig.min()) / max(1.0, float(np.abs(sigma_v(qq)).max())))
    _criterion(
        5,
        gap < 1e-10 and worst_route < 1e-10 and min_eig > -1e-9,
        f"closed-form gap = {gap:.2e} (tol 1e-10), route gap = {worst_route:.2e}, "
        f"min scaled eigenvalue = {min_eig:.2e}",
    )


def test_criterion_06_framework_simulation_oracle():
    start = time.perf_counter()
    w1, w2 = ThresholdPair(0.51, 29.96), ThresholdPair(1.05, 23.03)
    adapter = adapter_from_model(ExponentialModel(THETA))
    spec = TruncatedSpec(
        (
            MomentEquation(h=lambda x: x, window=w1),
            MomentEquation(h=lambda x: x * x, window=w2),
        )
    )
    theo = sigma_mu(population_quantities(adapter, spec))
    n, n_samples, chunk = 1000, 100_000, 2000
    gen = RandomSource(seed=20260808).generator()
    mu1 = np.empty(n_samples)
    mu2 = np.empty(n_samples)
    for lo in range(0, n_samples, chunk):
        draws = -THETA * np.log1p(-gen.random((chunk, n)))
        in1 = (draws > w1.d) & (draws <= w1.u)
        in2 = (draws > w2.d) & (draws <= w2.u)
        mu1[lo : lo + chunk] = (draws * in1).sum(axis=1) / in1.sum(axis=1)
        sq = draws * draws
        mu2[lo : lo + chunk] = (sq * in2).sum(axis=1) / in2.sum(axis=1)
    emp = np.cov(np.stack([mu1, mu2]), ddof=1)
    rel = np.abs(emp - theo / n) / np.abs(theo / n)
    elapsed = time.perf_counter() - start
    _criterion(
        6,
        float(rel.max()) < 0.05 and elapsed < 120.0,
        f"max relative covariance error = {rel.max():.3f} (tol 0.05), "
        f"runtime {elapsed:.1f}s (cap 120s)",
    )


def test_criterion_07_simulation_study():
    start = time.perf_counter()
    design = ((0.05, 0.05), (0.10, 0.10), (0.25, 0.00))
    methods = ("mtum", "mcm", "mtcm")
    cells = []
    index = 0
    for a, b in design:
        for n in (250, 1000):
            for method in methods:
                cells.append(
                    mc.cell_from_quantiles(
                        a, b, THETA, n, method,
                        replications_per_block=2000, blocks=10,
                        seed=mc.DEFAULT_SEED, cell_index=index,
                    )
                )
                index += 1
    results = mc.run_table(cells, workers=mc.worker_count())
    worst_paper = 0.0
    worst_analytic = 0.0
    worst_ratio = 0.0
    for cell, report in results:
        assert report.failure_count == 0, (cell.method, cell.a, cell.b, cell.n)
        expected = EXPECTED_RE[(cell.n, cell.a, cell.b)][cell.method]
        tol = max(0.02, 4.0 * report.se_re)
        gap = abs(report.re - expected)
        assert gap < tol, (cell.method, cell.a, cell.b, cell.n, report.re, expected)
        worst_paper = max(worst_paper, gap)
        if cell.n == 1000:
            analytic = asymptotics.are(cell.method, THETA, cell.thresholds)
            gap_a = abs(report.re - analytic)
            assert gap_a < tol, (cell.method, cell.a, cell.b, report.re, analytic)
            worst_analytic = max(worst_analytic, gap_a)
            worst_ratio = max(worst_ratio, abs(report.mean_ratio - 1.0))
    assert worst_ratio <= 0.01
    # the narrow asymmetric window must report failures at every finite n
    for n in (250, 1000):
        blocked = mc.run_cell(
            mc.cell_from_quantiles(
                0.10, 0.70, THETA, n, "mtum",
                replications_per_block=2000, blocks=10,
                seed=mc.DEFAULT_SEED, cell_index=500 + n,
            ),
            workers=mc.worker_count(),
        )
        assert blocked.failure_count > 0 and blocked.re is None
    elapsed = time.perf_counter() - start
    _criterion(
        7,
        elapsed < 300.0,
        f"max gap to reference RE = {worst_paper:.3f}, to analytic (n=1000) = "
        f"{worst_analytic:.3f}, max |ratio - 1| = {worst_ratio:.3f}, "
        f"runtime {elapsed:.0f}s (cap 300s)",
    )


def test_criterion_08_small_sample_normality():
    # The claim under test is a property of the estimator's sampling
    # distribution: strongly right-skewed at n=30, skewness below 0.5 at
    # n=500 (measured true value about 0.46 for this window).  The per-study
    # estimate count is chosen large enough that the sample skewness
    # resolves that property instead of its own noise: at 100 estimates the
    # statistic has sd about 0.28 and the n=500 check would mostly measure
    # noise, while at 25,000 the sd is about 0.017.
    positive_at_30 = 0
    symmetric_at_500 = 0
    studies = 20
    for study in range(studies):
        panels = mc.histogram_study(
            [30, 500], 25000, methods=("mtum",),
            thresholds=ThresholdPair(0.50, 23.00), seed=7000 + study,
        )
        by_n = {p.n: p for p in panels}
        if by_n[30].skewness > 0:
            positive_at_30 += 1
        if abs(by_n[500].skewness) < 0.5:
            symmetric_at_500 += 1
    _criterion(
        8,
        positive_at_30 >= 19 and symmetric_at_500 >= 18,
        f"skewness > 0 at n=30 in {positive_at_30}/20 studies (need >= 19); "
        f"|skewness| < 0.5 at n=500 in {symmetric_at_500}/20 (need >= 18)",
    )


def test_criterion_09_scale_stability():
    worst = 0.0
    for a, b in ((0.05, 0.05), (0.10, 0.25), (0.25, 0.00)):
        reference = {
            m: asymptotics.are(m, 1.0, quantile_pair(a, b, 1.0))
            for m in ("mtum", "mcm", "mtcm")
        }
        for theta in (0.1, 10.0, 100.0):
            t = quantile_pair(a, b, theta)
            for m, ref in reference.items():
                worst = max(worst, abs(asymptotics.are(m, theta, t) - ref))
    _criterion(9, worst < 1e-10, f"max efficiency drift under rescaling = {worst:.2e} (tol 1e-10)")


def test_criterion_10_transform_equivalence():
    x0 = 1.5
    y = sample(ParetoIModel(2.0, x0), 5000, RandomSource(seed=424242))
    t_y = ThresholdPair(1.6, 20.0)
    t_x = ThresholdPair(math.log(1.6 / x0), math.log(20.0 / x0))
    log_data = np.log(y / x0)
    worst = 0.0
    for method in ("mle", "mtum", "mcm", "mtcm"):
        alpha_hat = fit(method, "pareto1", y, t_y, x0=x0).estimate
        theta_hat = fit(method, "exp", log_data, t_x).estimate
        worst = max(worst, abs(alpha_hat - 1.0 / theta_hat) / alpha_hat)
    # the solver through the Pareto map must agree with the log-scale route
    target = sample_mtum(log_data, t_x).mu_hat
    direct = solve_mtum_pareto1(target, t_y, x0).estimate
    via_exp = 1.0 / solve_mtum_exp(target, t_x).estimate
    worst = max(worst, abs(direct - via_exp) / direct)
    _criterion(10, worst < 1e-10, f"max relative alpha mismatch = {worst:.2e} (tol 1e-10)")


def test_criterion_10_g_limit_convergence():
    # Both attainable-mean limits checked by evaluating the population map at
    # extreme tail-parameter values.  For d < Y <= u, log(Y/d) is exponential
    # with rate alpha truncated at w = log(u/d), so exactly
    #     g(alpha) - lower = 1/alpha - w*r/(1-r),   r = (d/u)^alpha.
    # The approach to the lower (alpha -> inf) limit is first order: at
    # alpha = 1e3 the raw gap is about 1/alpha = 1e-3 for this pair.  So the
    # large-alpha gap is compared with that known approach term, not with 0;
    # a lower limit off by 2e-4, or by exactly 1/alpha, still fails.  The
    # small-alpha gap (O(alpha)) is compared with 0 directly.
    t = ThresholdPair(2.0, 10.0)
    lower, upper = pareto_g_limits(t, 1.0)
    alpha = 1e3
    w = math.log(t.u / t.d)
    approach = 1.0 / alpha - w * math.exp(-alpha * w) / -math.expm1(-alpha * w)
    gap_small_alpha = abs(pareto_g_du(1e-6, t, 1.0) - upper)
    gap_large_alpha = abs(pareto_g_du(alpha, t, 1.0) - lower - approach)
    ok = gap_small_alpha < 1e-4 and gap_large_alpha < 1e-4
    _criterion(
        10,
        ok,
        f"limit gaps: |g(1e-6) - upper| = {gap_small_alpha:.2e}, "
        f"|g(1e3) - lower - (1/alpha - w*r/(1-r))| = {gap_large_alpha:.2e} (tol 1e-4)",
    )
