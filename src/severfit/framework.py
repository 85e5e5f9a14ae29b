"""General k-equation truncated-moment machinery.

Given a parametric cdf (wrapped in a :class:`DistributionAdapter`) and k
window/statistic pairs, this module computes the population quantities by
tanh-sinh quadrature in the quantile domain, calling ``h`` and the quantile
on arrays of nodes (a scalar-only callable is evaluated node by node).  It
assembles the 2k x 2k covariance of the underlying sums-and-counts vector,
reduces it to the k x k covariance of the moment ratios, and propagates
through a parameter Jacobian.  The matching system is solved by damped
Broyden with finite-difference refresh: one finite-difference Jacobian at
the start, rank-one secant updates after each step, and a fresh
finite-difference Jacobian whenever an updated one fails.  The solver needs
a starting point and offers no global guarantee, because the system may
simply have no solution.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .dist import (
    ExponentialModel,
    ParetoIModel,
    ThresholdPair,
    _loss_at,
    exp_cdf,
    exp_pdf,
    pareto1_cdf,
    pareto1_pdf,
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

_QUAD_ERR_CAP = 1e-9
_QUAD_REL_CAP = 1e-10


@dataclass(frozen=True)
class DistributionAdapter:
    """Minimal continuous-distribution interface: cdf, pdf, quantile, support.

    The cdf must accept any real (clamping to 0/1 outside the support) and
    ``+inf``; the quantile must invert the cdf on the support interior.
    Quadrature calls the quantile once with an ndarray of nodes strictly
    inside (0, 1); a scalar-only quantile (one that raises ``TypeError`` or
    ``ValueError`` on an array) is called node by node on the same nodes.
    The optional ``complement_quantile`` maps ``c = 1 - v``, a float or an
    ndarray, to ``F^{-1}(1 - c)``; with it, nodes near ``v = 1`` keep the
    digits that forming ``v`` would round away, which heavy upper tails need.
    On a float either may return a NumPy float; a threshold beyond the float
    range, inf or ``OverflowError``, is refused.
    """

    cdf: Callable[[float], float]
    pdf: Callable[[float], float]
    quantile: Callable[[float], float]
    support: tuple[float, float] = (0.0, math.inf)
    complement_quantile: Callable[[float | np.ndarray], float | np.ndarray] | None = None


def adapter_from_model(model: ExponentialModel | ParetoIModel) -> DistributionAdapter:
    """Adapter for the built-in models, with the cdf clamped outside the support;
    the quantiles are the model's one inverse-cdf formula at log(1 - v) and at
    log(c), on a float or an ndarray alike, and inf beyond the float range."""
    quantiles = {
        "quantile": lambda v: _loss_at(model, np.log1p(-v)),
        "complement_quantile": lambda c: _loss_at(model, np.log(c)),
    }
    if isinstance(model, ExponentialModel):
        return DistributionAdapter(
            cdf=lambda x: exp_cdf(model, x) if x > 0 else 0.0,
            pdf=lambda x: exp_pdf(model, x) if x >= 0 else 0.0,
            support=(0.0, math.inf),
            **quantiles,
        )
    if isinstance(model, ParetoIModel):
        return DistributionAdapter(
            cdf=lambda y: pareto1_cdf(model, y),
            pdf=lambda y: pareto1_pdf(model, y),
            support=(model.x0, math.inf),
            **quantiles,
        )
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _check_tail_probabilities(a: float, b: float) -> None:
    """The one rule for a pair of tail probabilities (a, b): a >= 0, b >= 0, a + b < 1 - 1e-15."""
    if not (a >= 0 and b >= 0 and a + b < 1.0 - 1e-15):
        raise ValueError(f"need a >= 0, b >= 0 and a + b < 1 - 1e-15, got a={a!r}, b={b!r}")


def _quantile_thresholds(F: DistributionAdapter, a: float, b: float) -> tuple[float, float]:
    """d = F^{-1}(a) and u = F^{-1}(1-b) for a >= 0, b >= 0 and a + b < 1 - 1e-15.

    u is infinite when b = 0, and otherwise comes from b itself through
    ``F.complement_quantile`` (``F.quantile(1 - b)`` without one), so a b
    below the spacing of floats near 1 still gives a finite u.  A d, or a u
    for b > 0, beyond the float range raises ``ValueError``.
    """
    _check_tail_probabilities(a, b)
    complement = F.complement_quantile or (lambda c: F.quantile(1.0 - c))
    try:
        with np.errstate(over="ignore"):  # a threshold beyond the float range is inf
            d, u = float(F.quantile(a)), math.inf if b == 0.0 else float(complement(b))
    except OverflowError:  # an adapter on math.exp
        d = u = math.inf
    if d == math.inf or (u == math.inf and b > 0.0):
        raise ValueError(f"the thresholds at a={a!r}, b={b!r} lie beyond the float range")
    return d, u


@dataclass(frozen=True)
class MomentEquation:
    """One matching equation: statistic ``h`` restricted to ``window``.

    ``h`` is called with ndarrays: by quadrature on the population side,
    with the array of quantiles at the nodes, and by
    :func:`sample_moment_vector` once with the window's observations.
    NumPy ufuncs and arithmetic accept arrays; a scalar-only ``h`` (such as
    ``math.log1p``) is evaluated node by node on the population side but
    fails on the sample side.  A constant, such as ``lambda _: 1.0``, is
    broadcast.
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


# Tanh-sinh quadrature (H. Takahasi and M. Mori, Publ. RIMS 9, 1974) on
# (lo, hi) = (mid - r, mid + r): the nodes are v = mid -+ r tanh(pi/2 sinh t)
# at t = j 2^-L, with weights r (pi/2) cosh t / cosh^2(pi/2 sinh t) times the
# step 2^-L.  Level 0 holds t = 0, 1, 2, ...; level L > 0 adds the odd
# multiples of 2^-L.  A node t stands for the pair v = lo + r e and
# v = hi - r e, kept as its distance e = 1 - tanh(pi/2 sinh t) from the ends
# (t = 0 is a pair at half weight).  e is formed without tanh, so nodes near
# an end keep their digits, and the table runs out to where e underflows.
_FIRST_LEVEL = 4  # levels 0.._FIRST_LEVEL are evaluated in one call
_LAST_LEVEL = 8
_AGREE = 1e-13  # successive levels agreeing to this, relative, end the refinement


def _nodes(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, weight) at the increasing t >= 0, up to where e underflows."""
    with np.errstate(under="ignore"):
        q = np.exp(-np.pi * np.sinh(t))  # exp(-2 s) with s = pi/2 sinh t
        e = 2.0 * q / (1.0 + q)
        w = 0.5 * np.pi * np.cosh(t) * e * (2.0 - e)  # (pi/2) cosh t (1 - tanh^2 s)
    w[t == 0.0] *= 0.5
    return e[e > 0.0], w[e > 0.0]


def _first_block() -> tuple[np.ndarray, np.ndarray]:
    """Levels 0.._FIRST_LEVEL: e, and the weight rows (times the step) of the
    estimates at levels _FIRST_LEVEL and _FIRST_LEVEL - 1."""
    step = 2.0**-_FIRST_LEVEL
    e, w = _nodes(np.arange(0.0, 7.0, step))
    coarser = np.arange(e.size) % 2 == 0  # every other node: the coarser level's
    return e, np.stack([step * w, 2.0 * step * w * coarser])


def _refinement(level: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes a later level adds: e, and its weight row times the step."""
    step = 2.0**-level
    e, w = _nodes(np.arange(step, 7.0, 2.0 * step))
    return e, step * w[None, :]


_FIRST = _first_block()
_LATER = [_refinement(k) for k in range(_FIRST_LEVEL + 1, _LAST_LEVEL + 1)]


def _on_nodes(fn: Callable, a: np.ndarray) -> np.ndarray:
    """``fn`` called once on the ndarray ``a``; a scalar-only ``fn``, which
    raises ``TypeError`` or ``ValueError`` on an array, node by node."""
    try:
        out = fn(a)
    except (TypeError, ValueError):
        out = [fn(v) for v in a.tolist()]
    out = np.asarray(out, dtype=float)
    return out if out.shape == a.shape else np.broadcast_to(out, a.shape)


def _integrate(F: DistributionAdapter, lo: float, hi: float, h: Callable) -> float:
    """Integral over (lo, hi) of one integrand, h(F^{-1}(v)).

    Levels 0.._FIRST_LEVEL take one call of the quantile and of ``h``; each
    further level one more, until two successive estimates agree.  Nodes
    that round onto an end are dropped.  When hi >= 1/2, the nodes at the
    upper end go through ``F.complement_quantile`` (when given) on
    c = 1 - v, formed exactly from 1 - hi.  At an end v = 0 or v = 1, where
    the integrand may be unbounded, the mass left beyond the first block's
    outermost node is taken as |integrand| there times its distance from
    the end.  The estimate raises when it is not finite, when the last
    change plus that mass exceeds the cap, or when that mass is not
    negligible against the integral of |integrand|.
    """
    if hi <= lo:
        return 0.0
    r = 0.5 * (hi - lo)
    complement = F.complement_quantile is not None and hi >= 0.5
    top = 1.0 - hi if complement else hi  # exact for hi >= 1/2

    def integrand(e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distances r e, and the integrand at the nodes r e inside each end
        that do not round onto it (a prefix, as nodes run in increasing t)."""
        dist = r * e
        v_lo = lo + dist
        n_lo = np.count_nonzero(v_lo > lo)
        if complement:
            c = top + dist
            x_hi = F.complement_quantile(c[: np.count_nonzero(c > top)])
        else:
            v_hi = hi - dist
            x_hi = _on_nodes(F.quantile, v_hi[: np.count_nonzero(v_hi < hi)])
        x = np.concatenate([_on_nodes(F.quantile, v_lo[:n_lo]), x_hi])
        g = _on_nodes(h, x)
        return dist, g[:n_lo], g[n_lo:]

    def weighted(weights: np.ndarray, g_lo: np.ndarray, g_hi: np.ndarray) -> np.ndarray:
        return r * (weights[:, : g_lo.size] @ g_lo + weights[:, : g_hi.size] @ g_hi)

    with np.errstate(all="ignore"):
        e, weights = _FIRST
        dist, g_lo, g_hi = integrand(e)
        value, previous = weighted(weights, g_lo, g_hi)
        beyond = sum(
            dist[g.size - 1] * abs(g[-1])
            for g, open_end in ((g_lo, lo == 0.0), (g_hi, hi == 1.0))
            if open_end and g.size
        )
        magnitude = weighted(weights[:1], np.abs(g_lo), np.abs(g_hi))[0] if beyond else 0.0
        for e, weights in _LATER:
            if not abs(value - previous) > _AGREE * abs(value):
                break
            previous, value = value, 0.5 * value + weighted(weights, *integrand(e)[1:])[0]
        abserr = abs(value - previous) + beyond
    if not math.isfinite(value):
        raise QuadratureError(f"quadrature estimate {value} is not finite", achieved=abserr)
    # large integrals cannot reach the absolute cap in double precision,
    # so the acceptable estimate scales with the magnitude
    cap = max(_QUAD_ERR_CAP, _QUAD_REL_CAP * abs(value))
    if not abserr <= cap:
        raise QuadratureError(
            f"quadrature error estimate {abserr:.3e} exceeds {cap:.3e}", achieved=abserr
        )
    # scale-free: a divergent moment on a small scale stays under the cap
    if not beyond <= _QUAD_REL_CAP * magnitude:
        raise QuadratureError(
            f"mass {beyond:.3e} beyond the outermost nodes is not negligible "
            f"against {magnitude:.3e}",
            achieved=abserr,
        )
    return float(value)


def population_quantities(F: DistributionAdapter, spec: TruncatedSpec) -> PopulationQuantities:
    """All expectations by tanh-sinh quadrature in the quantile (v) domain.

    Integrating h(F^{-1}(v)) over (F(d), F(u)) keeps every integration range
    finite regardless of tail heaviness; ``h`` and the quantile are called
    on arrays of nodes (see :class:`MomentEquation`).
    """
    k = spec.k
    p_pair = np.zeros((k, k))
    mu_y_pair = np.zeros((k, k))
    mu_w_pair = np.zeros((k, k))
    for j in range(k):
        hj = spec.equations[j].h
        for jp in range(j, k):
            window = overlap_window(spec, j, jp)  # window j itself when jp == j
            if window is None:
                continue
            lo, hi = F.cdf(window.d), F.cdf(window.u)
            hjp = spec.equations[jp].h
            p_pair[j, jp] = p_pair[jp, j] = hi - lo
            mu_w_pair[j, jp] = _integrate(F, lo, hi, hj)
            if jp > j:
                mu_w_pair[jp, j] = _integrate(F, lo, hi, hjp)
            mu_y_pair[j, jp] = mu_y_pair[jp, j] = _integrate(F, lo, hi, lambda x: hj(x) * hjp(x))
    p, mu_y = np.diag(p_pair).copy(), np.diag(mu_w_pair).copy()
    return PopulationQuantities(
        p=p, p_pair=p_pair, mu_y=mu_y, mu_y_pair=mu_y_pair, mu_w_pair=mu_w_pair
    )


def population_moment_vector(F: DistributionAdapter, spec: TruncatedSpec) -> np.ndarray:
    """The k population truncated moments E[h_j(X) | d_j < X <= u_j].

    Only the k window integrals; the second moments of
    :func:`population_quantities` are not needed here.
    """
    p = np.zeros(spec.k)
    mu_y = np.zeros(spec.k)
    for j, eq in enumerate(spec.equations):
        lo, hi = F.cdf(eq.window.d), F.cdf(eq.window.u)
        p[j] = hi - lo
        mu_y[j] = _integrate(F, lo, hi, eq.h)
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
_RESIDUAL_TOL = 1e-10  # the largest residual accepted at a root
_MAX_ITER = 100


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
    surfaces a :class:`NoSolutionError` carrying the final residual.  The
    iteration ends once the largest residual is at most 1e-10, and gives up
    after 100 steps.
    """
    target = np.asarray(mu_hat, dtype=float)
    theta = np.asarray(theta0, dtype=float).copy()
    if target.size != spec.k:
        raise ValueError("mu_hat must have one entry per equation")
    if theta.size == 0:
        raise ValueError("theta0 must have at least one entry")

    def residual(th: np.ndarray) -> np.ndarray:
        return population_moment_vector(family(th), spec) - target

    r = residual(theta)
    jac = None  # None: take a fresh finite-difference Jacobian before the next step
    for _ in range(_MAX_ITER):
        norm = float(np.max(np.abs(r)))
        if norm <= _RESIDUAL_TOL:
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
    sigma = sigma_mu(q)  # raises DegenerateError on a window of zero mass
    mu = q.mu_y / q.p
    sigma_theta = None if jacobian is None else propagate_theta(sigma, jacobian)
    return AsymptoticReport(mu=mu, sigma_mu=sigma, sigma_theta=sigma_theta)
