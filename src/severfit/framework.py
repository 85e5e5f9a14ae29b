"""General k-equation truncated-moment machinery.

Given a parametric cdf (wrapped in a :class:`DistributionAdapter`) and k
window/statistic pairs, this module computes the population quantities by
quadrature in the quantile domain, assembles the 2k x 2k covariance of the
underlying sums-and-counts vector, reduces it to the k x k covariance of the
moment ratios, and propagates through a parameter Jacobian.  The matching
system is solved by damped Broyden with finite-difference refresh: one
finite-difference Jacobian at the start, rank-one secant updates after each
step, and a fresh finite-difference Jacobian whenever an updated one fails.
The solver needs a starting point and offers no global guarantee, because
the system may simply have no solution.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .dist import (
    ExponentialModel,
    ParetoIModel,
    ThresholdPair,
    exp_pdf,
    exp_quantile,
    pareto1_cdf,
    pareto1_pdf,
    pareto1_quantile,
)
from .errors import (
    DegenerateError,
    EmptyWindowError,
    NoSolutionError,
    QuadratureError,
    SeverfitError,
)

__all__ = [
    "DistributionAdapter",
    "MomentEquation",
    "TruncatedSpec",
    "PopulationQuantities",
    "AsymptoticReport",
    "adapter_from_model",
    "overlap_window",
    "population_quantities",
    "population_moment_vector",
    "sigma_v",
    "d_v_jacobian",
    "sigma_mu",
    "sigma_mu_explicit",
    "propagate_theta",
    "sample_moment_vector",
    "finite_difference_jacobian",
    "solve_moment_system",
    "asymptotic_report",
]

_QUAD_OPTS = {"epsabs": 1e-12, "epsrel": 1e-12, "limit": 300}
_QUAD_ERR_CAP = 1e-9


@dataclass(frozen=True)
class DistributionAdapter:
    """Minimal continuous-distribution interface: cdf, pdf, quantile, support.

    The cdf must accept any real (clamping to 0/1 outside the support) and
    ``+inf``; the quantile must invert the cdf on the support interior.
    """

    cdf: Callable[[float], float]
    pdf: Callable[[float], float]
    quantile: Callable[[float], float]
    support: tuple[float, float] = (0.0, math.inf)


def adapter_from_model(model: ExponentialModel | ParetoIModel) -> DistributionAdapter:
    """Adapter for the built-in models, with the cdf clamped outside the support."""
    if isinstance(model, ExponentialModel):
        theta = model.theta

        def cdf(x: float) -> float:
            if x <= 0:
                return 0.0
            return 1.0 if math.isinf(x) else -math.expm1(-x / theta)

        return DistributionAdapter(
            cdf=cdf,
            pdf=lambda x: exp_pdf(model, x) if x >= 0 else 0.0,
            quantile=lambda v: exp_quantile(model, v),
            support=(0.0, math.inf),
        )
    if isinstance(model, ParetoIModel):
        return DistributionAdapter(
            cdf=lambda y: pareto1_cdf(model, y),
            pdf=lambda y: pareto1_pdf(model, y),
            quantile=lambda v: pareto1_quantile(model, v),
            support=(model.x0, math.inf),
        )
    raise TypeError(f"unsupported model type {type(model).__name__}")


@dataclass(frozen=True)
class MomentEquation:
    """One matching equation: statistic ``h`` restricted to ``window``.

    The population side calls ``h`` with one float at a time;
    :func:`sample_moment_vector` calls it once with the ndarray of the
    window's observations, so there it must accept an ndarray (NumPy
    ufuncs and arithmetic do; ``math`` functions do not).  A constant,
    such as ``lambda _: 1.0``, is broadcast to the window.
    """

    h: Callable[[float | np.ndarray], float | np.ndarray]
    window: ThresholdPair


@dataclass(frozen=True)
class TruncatedSpec:
    """An ordered collection of k >= 1 moment equations."""

    equations: tuple[MomentEquation, ...]

    def __post_init__(self):
        if len(self.equations) < 1:
            raise ValueError("a truncated-moment spec needs at least one equation")

    @property
    def k(self) -> int:
        return len(self.equations)


@dataclass(frozen=True)
class PopulationQuantities:
    """Window probabilities and expectations feeding the covariance assembly.

    ``mu_y[j]`` is E[h_j(X) 1{window j}], ``mu_y_pair[j, j']`` is
    E[h_j h_j' over the overlap window] (symmetric), and
    ``mu_w_pair[j, j']`` is E[h_j over the overlap window], which is not
    symmetric because the statistic index and the window pair play
    different roles.
    """

    p: np.ndarray
    p_pair: np.ndarray
    mu_y: np.ndarray
    mu_y_pair: np.ndarray
    mu_w_pair: np.ndarray

    @property
    def k(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class AsymptoticReport:
    """Population moment vector with its covariance, optionally propagated to parameters."""

    mu: np.ndarray
    sigma_mu: np.ndarray
    sigma_theta: np.ndarray | None = None


def overlap_window(spec: TruncatedSpec, j: int, jp: int) -> ThresholdPair | None:
    """Intersection of windows j and j' (0-based); ``None`` when they are disjoint."""
    wj, wjp = spec.equations[j].window, spec.equations[jp].window
    d = max(wj.d, wjp.d)
    u = min(wj.u, wjp.u)
    if d >= u:
        return None
    return ThresholdPair(d, u)


def _integrate(fn: Callable[[float], float], lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    # imported here: scipy.integrate costs about 50 MB of resident memory, and
    # nothing on the fit or Monte Carlo path integrates
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        value, abserr = integrate.quad(fn, lo, hi, **_QUAD_OPTS)
    # large integrals cannot reach the absolute cap in double precision,
    # so the acceptable estimate scales with the magnitude
    cap = max(_QUAD_ERR_CAP, 1e-10 * abs(value))
    if abserr > cap:
        raise QuadratureError(
            f"quadrature error estimate {abserr:.3e} exceeds {cap:.3e}",
            achieved=abserr,
        )
    return value


def _window_moments(F: DistributionAdapter, spec: TruncatedSpec) -> tuple[np.ndarray, np.ndarray]:
    """p[j] = P(window j) and mu_y[j] = E[h_j(X) 1{window j}]: k quadratures."""
    k = spec.k
    p = np.zeros(k)
    mu_y = np.zeros(k)
    for j, eq in enumerate(spec.equations):
        lo, hi = F.cdf(eq.window.d), F.cdf(eq.window.u)
        p[j] = hi - lo
        mu_y[j] = _integrate(lambda v, h=eq.h: h(F.quantile(v)), lo, hi)
    return p, mu_y


def population_quantities(F: DistributionAdapter, spec: TruncatedSpec) -> PopulationQuantities:
    """All expectations by adaptive quadrature in the quantile (v) domain.

    Integrating h(F^{-1}(v)) over (F(d), F(u)) keeps every integration range
    finite regardless of tail heaviness.
    """
    k = spec.k
    p, mu_y = _window_moments(F, spec)

    p_pair = np.zeros((k, k))
    mu_y_pair = np.zeros((k, k))
    mu_w_pair = np.zeros((k, k))
    for j in range(k):
        mu_w_pair[j, j] = mu_y[j]
        p_pair[j, j] = p[j]
        hj = spec.equations[j].h
        mu_y_pair[j, j] = _integrate(
            lambda v, h=hj: h(F.quantile(v)) ** 2,
            F.cdf(spec.equations[j].window.d),
            F.cdf(spec.equations[j].window.u),
        )
    for j in range(k):
        for jp in range(k):
            if j == jp:
                continue
            window = overlap_window(spec, j, jp)
            if window is None:
                continue
            lo, hi = F.cdf(window.d), F.cdf(window.u)
            p_pair[j, jp] = hi - lo
            hj = spec.equations[j].h
            mu_w_pair[j, jp] = _integrate(lambda v, h=hj: h(F.quantile(v)), lo, hi)
            if jp > j:
                hjp = spec.equations[jp].h
                mu_y_pair[j, jp] = _integrate(
                    lambda v: hj(F.quantile(v)) * hjp(F.quantile(v)), lo, hi
                )
                mu_y_pair[jp, j] = mu_y_pair[j, jp]
    return PopulationQuantities(
        p=p, p_pair=p_pair, mu_y=mu_y, mu_y_pair=mu_y_pair, mu_w_pair=mu_w_pair
    )


def population_moment_vector(F: DistributionAdapter, spec: TruncatedSpec) -> np.ndarray:
    """The k population truncated moments E[h_j(X) | d_j < X <= u_j].

    Only the k window integrals; the second moments of
    :func:`population_quantities` are not needed here.
    """
    p, mu_y = _window_moments(F, spec)
    if np.any(p <= 0):
        raise DegenerateError("a window has zero probability mass")
    return mu_y / p


def sigma_v(q: PopulationQuantities) -> np.ndarray:
    """Covariance of the 2k-vector (Y_1..Y_k, 1{window 1}..1{window k}).

    Blocks: Cov(Y_j, Y_j') = mu_y_pair - mu_y mu_y';
    Cov(Y_j, count j') = mu_w_pair[j, j'] - mu_y[j] p[j'] (lower-left is its
    transpose, as symmetry of a covariance matrix requires);
    Cov(count j, count j') = p_pair - p p'.
    """
    k = q.k
    out = np.zeros((2 * k, 2 * k))
    yy = q.mu_y_pair - np.outer(q.mu_y, q.mu_y)
    yp = q.mu_w_pair - np.outer(q.mu_y, q.p)
    pp = q.p_pair - np.outer(q.p, q.p)
    out[:k, :k] = yy
    out[:k, k:] = yp
    out[k:, :k] = yp.T
    out[k:, k:] = pp
    return out


def d_v_jacobian(q: PopulationQuantities) -> np.ndarray:
    """Jacobian of the ratio map (y_j / p_j)_j at the mean of the 2k-vector."""
    if np.any(q.p <= 0):
        raise DegenerateError("a window has zero probability mass")
    k = q.k
    d = np.zeros((k, 2 * k))
    for j in range(k):
        d[j, j] = 1.0 / q.p[j]
        d[j, k + j] = -q.mu_y[j] / q.p[j] ** 2
    return d


def sigma_mu_explicit(q: PopulationQuantities) -> np.ndarray:
    """Entrywise covariance of the moment ratios, expanded term by term.

    Entry (j, j') combines the four covariances with weights 1/p and
    -mu_y/p^2; the cross term paired with mu_y[j']p[j] is Cov(Y_j', count j),
    whose expectation uses h_j' over the overlap window.
    """
    if np.any(q.p <= 0):
        raise DegenerateError("a window has zero probability mass")
    k = q.k
    out = np.zeros((k, k))
    for j in range(k):
        for jp in range(k):
            pj, pjp = q.p[j], q.p[jp]
            cov_yy = q.mu_y_pair[j, jp] - q.mu_y[j] * q.mu_y[jp]
            cov_yj_pjp = q.mu_w_pair[j, jp] - q.mu_y[j] * pjp
            cov_yjp_pj = q.mu_w_pair[jp, j] - q.mu_y[jp] * pj
            cov_pp = q.p_pair[j, jp] - pj * pjp
            out[j, jp] = (1.0 / pjp) * (
                cov_yy / pj - q.mu_y[j] * cov_yjp_pj / pj**2
            ) - (q.mu_y[jp] / pjp**2) * (
                cov_yj_pjp / pj - q.mu_y[j] * cov_pp / pj**2
            )
    return out


def sigma_mu(q: PopulationQuantities) -> np.ndarray:
    """Covariance (times n) of the truncated sample moment vector.

    Computed both as the explicit entrywise formula and as the Jacobian
    sandwich D_V Sigma_V D_V'; the two must agree, which guards the block
    assembly against index mistakes.
    """
    explicit = sigma_mu_explicit(q)
    d = d_v_jacobian(q)
    sandwich = d @ sigma_v(q) @ d.T
    scale = max(1.0, float(np.max(np.abs(sandwich))))
    if np.max(np.abs(explicit - sandwich)) > 1e-10 * scale:
        raise SeverfitError("explicit and Jacobian covariance routes disagree")
    return 0.5 * (sandwich + sandwich.T)


def propagate_theta(sigma: np.ndarray, jacobian: np.ndarray) -> np.ndarray:
    """Delta-method propagation D Sigma D' to the parameter scale."""
    d = np.asarray(jacobian, dtype=float)
    s = np.asarray(sigma, dtype=float)
    return d @ s @ d.T


def sample_moment_vector(data: Sequence[float], spec: TruncatedSpec) -> np.ndarray:
    """Empirical ratios sum h_j(x) 1{window} / count{window}, one per equation.

    Each ``h_j`` is called once, on the ndarray of the observations in its
    window (see :class:`MomentEquation`); a scalar result is broadcast.
    """
    x = np.asarray(data, dtype=float)
    if x.size == 0:
        raise ValueError("data must be non-empty")
    out = np.zeros(spec.k)
    for j, eq in enumerate(spec.equations):
        xm = x[(x > eq.window.d) & (x <= eq.window.u)]
        if xm.size == 0:
            raise EmptyWindowError(f"no observations in window {j}", index=j)
        out[j] = np.broadcast_to(eq.h(xm), xm.shape).sum() / xm.size
    return out


def finite_difference_jacobian(
    g: Callable[[np.ndarray], np.ndarray], theta: Sequence[float], rel_step: float = 1e-6
) -> np.ndarray:
    """Central-difference Jacobian of g at theta with per-coordinate relative steps."""
    theta = np.asarray(theta, dtype=float)
    jac = None
    for i in range(theta.size):
        h = rel_step * max(1.0, abs(theta[i]))
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        column = (np.asarray(g(up), dtype=float) - np.asarray(g(down), dtype=float)) / (2.0 * h)
        if jac is None:  # the output size, from the first difference
            jac = np.zeros((column.size, theta.size))
        jac[:, i] = column
    if jac is None:  # no coordinates, so no difference tells the output size
        return np.zeros((np.asarray(g(theta)).size, 0))
    return jac


# The damped search tries the steps above these fractions: 30 on a fresh
# finite-difference Jacobian, and 4 on a Broyden-updated one, whose bad
# direction a refresh (2k residuals) mends sooner than more halvings (one
# residual each) would.
_MIN_LAM_FRESH = 2.0**-30
_MIN_LAM_UPDATED = 2.0**-4


def _damped_step(
    residual: Callable[[np.ndarray], np.ndarray],
    theta: np.ndarray,
    r: np.ndarray,
    jac: np.ndarray,
    min_lam: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The first of the steps 1, 1/2, 1/4, ... above ``min_lam`` along the
    Newton direction that lowers the largest residual, as ``(theta, residual)``;
    None if none does."""
    norm = np.max(np.abs(r))
    if jac.shape[0] == jac.shape[1]:
        step = np.linalg.solve(jac, -r)
    else:
        step = np.linalg.lstsq(jac, -r, rcond=None)[0]
    lam = 1.0
    while lam > min_lam:
        candidate = theta + lam * step
        try:
            r_new = residual(candidate)
        except (ValueError, DegenerateError):
            lam *= 0.5
            continue
        if np.max(np.abs(r_new)) < norm:
            return candidate, r_new
        lam *= 0.5
    return None


def solve_moment_system(
    family: Callable[[np.ndarray], DistributionAdapter],
    spec: TruncatedSpec,
    mu_hat: Sequence[float],
    theta0: Sequence[float],
    *,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> np.ndarray:
    """Damped Broyden iteration, with finite-difference refresh, on mu(theta) = mu_hat.

    ``family`` maps a parameter vector to an adapter.  The Jacobian is taken
    by finite differences at the start and then carried by Broyden's (1965)
    rank-one secant update after each accepted step.  When the damped search
    (4 steps on an updated Jacobian, 30 on a fresh one) finds no step, or the
    Jacobian is singular, on an updated Jacobian, a fresh finite-difference
    Jacobian is taken and the step retried; only a
    fresh Jacobian's failure ends the iteration.  Requires a usable starting
    point; the system may have no root at all, in which case the iteration
    surfaces a :class:`NoSolutionError` carrying the final residual.
    """
    target = np.asarray(mu_hat, dtype=float)
    theta = np.asarray(theta0, dtype=float).copy()
    if target.size != spec.k or theta.size == 0:
        raise ValueError("mu_hat must have one entry per equation")

    def residual(th: np.ndarray) -> np.ndarray:
        return population_moment_vector(family(th), spec) - target

    r = residual(theta)
    jac = None  # None: take a fresh finite-difference Jacobian before the next step
    for _ in range(max_iter):
        norm = float(np.max(np.abs(r)))
        if norm <= tol:
            return theta
        fresh = jac is None
        if fresh:
            jac = finite_difference_jacobian(residual, theta)
        try:
            accepted = _damped_step(
                residual, theta, r, jac, _MIN_LAM_FRESH if fresh else _MIN_LAM_UPDATED
            )
        except np.linalg.LinAlgError as exc:
            if fresh:
                raise NoSolutionError(f"singular Jacobian: {exc}", residual=norm) from exc
            accepted = None
        if accepted is None:
            if fresh:
                raise NoSolutionError("damped Newton made no progress", residual=norm)
            jac = None
            continue
        theta_new, r_new = accepted
        s = theta_new - theta
        jac = jac + np.outer(r_new - r - jac @ s, s) / (s @ s)
        theta, r = theta_new, r_new
    raise NoSolutionError(
        "iteration cap reached", residual=float(np.max(np.abs(r)))
    )


def asymptotic_report(
    F: DistributionAdapter, spec: TruncatedSpec, jacobian: np.ndarray | None = None
) -> AsymptoticReport:
    """Population moments, their covariance, and (optionally) the parameter covariance."""
    q = population_quantities(F, spec)
    if np.any(q.p <= 0):
        raise DegenerateError("a window has zero probability mass")
    mu = q.mu_y / q.p
    sigma = sigma_mu(q)
    sigma_theta = None if jacobian is None else propagate_theta(sigma, jacobian)
    return AsymptoticReport(mu=mu, sigma_mu=sigma, sigma_theta=sigma_theta)
