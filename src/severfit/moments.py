"""Closed-form population moments for the three estimation schemes.

The finite formulas take u = inf to its limit through exp(-inf) = 0 and
expm1(-inf) = -1, bit for bit, with no branch on u; a function that keeps one
would form inf * 0 (x e^{-x} at x = inf) or, in ``mu_mtum``, inf / inf.
Differences of exponentials go through ``expm1``: no overflow at extreme theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import (
    ParetoIModel,
    ThresholdPair,
    _taylor_tail,
    log_transform_pareto_to_exp,
    regularized_incomplete_gamma3,
)

__all__ = [
    "TailQuantities",
    "TruncatedSummary",
    "ThresholdPair",
    "tail_quantities",
    "truncated_summary",
    "mu_mtum",
    "mu_mtum_dtheta",
    "mu_mcm",
    "mu_mcm_dtheta",
    "mcm_second_moment",
    "sigma_mcm2",
    "mu_mtcm",
    "mu_mtcm_dtheta",
    "sigma_mtcm2",
    "mtcm_w_summary",
    "pareto_g_du",
    "pareto_g_limits",
]


@dataclass(frozen=True)
class TailQuantities:
    """Window probabilities for Exp(theta) and thresholds (d, u).

    ``a`` is the mass below d, ``b`` the mass above u, ``tau = 1 - a``
    the survival at d, and ``p = tau - b`` the in-window probability.
    """

    a: float
    b: float
    tau: float
    p: float


@dataclass(frozen=True)
class TruncatedSummary:
    """Moments of Y = X 1{d < X <= u}: mean, raw second moment, variance."""

    mu_y: float
    mu_y2: float
    sigma_y2: float


def _check_theta(theta: float) -> None:
    if not (theta > 0 and math.isfinite(theta)):
        raise ValueError(f"theta must be a positive finite real, got {theta!r}")


def _positive_array(value, name: str) -> np.ndarray:
    """``value`` (a float or an array) as a float array of positive finite reals."""
    array = np.asarray(value, dtype=float)
    if not ((array > 0) & np.isfinite(array)).all():
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")
    return array


def _like(arg, value: np.ndarray):
    """A forward map's result: a float for a scalar argument, else the array."""
    return float(value) if np.ndim(arg) == 0 else value


def tail_quantities(theta: float, t: ThresholdPair) -> TailQuantities:
    _check_theta(theta)
    w = (t.u - t.d) / theta
    tau = math.exp(-t.d / theta)
    a = -math.expm1(-t.d / theta)
    b = tau * math.exp(-w)
    p = -tau * math.expm1(-w)
    return TailQuantities(a=a, b=b, tau=tau, p=p)


def _censored_slope(x: float) -> float:
    """1 - (1 + x) e^{-x} = e^{-x} (e^x - 1 - x), for x = (u-d)/theta in [0, inf]."""
    if x <= 1.0:  # the closed form loses about log10(1/x) digits here
        return math.exp(-x) * _taylor_tail(x, 2, 1)
    if math.isinf(x):
        return 1.0
    return -math.expm1(-x) - x * math.exp(-x)


def _censored_var(x: float) -> float:
    """1 - e^{-2x} - 2x e^{-x} = 2 e^{-x} (sinh x - x), for x = (u-d)/theta in [0, inf]."""
    if x <= 1.0:  # the closed form loses about 2 log10(1/x) digits here
        return 2.0 * math.exp(-x) * _taylor_tail(x, 3, 2)
    if math.isinf(x):
        return 1.0
    return -math.expm1(-2.0 * x) - 2.0 * x * math.exp(-x)


def truncated_summary(theta: float, t: ThresholdPair) -> TruncatedSummary:
    """mu_Y = theta p + d e^{-d/theta} - u e^{-u/theta} and the matching moments.

    By memorylessness X = d + E on the window, E ~ Exp(theta) below
    u - d, so with x = (u-d)/theta, h(x) = 1 - (1 + x) e^{-x} and G3 the
    regularized incomplete gamma of shape 3, every moment is a sum of
    positive terms that keeps its digits when the window is narrow relative
    to theta:

        mu_Y     = d p + theta tau h(x)
        E[Y^2]   = tau (d^2 (1 - e^{-x}) + 2 d theta h(x) + 2 theta^2 G3(x))
        Var(Y)   = p theta^2 mu_MTuM'(theta) + p (1 - p) mu_MTuM^2

    (Var(X | d < X <= u) = theta^2 d mu_MTuM / d theta, and 1 - p = a + b.)
    """
    _check_theta(theta)
    q = tail_quantities(theta, t)
    x = (t.u - t.d) / theta
    h = _censored_slope(x)
    inside = -math.expm1(-x)  # P(E <= u - d)
    mu_y = t.d * q.p + theta * q.tau * h
    mu_y2 = q.tau * (
        t.d * t.d * inside
        + 2.0 * t.d * theta * h
        + 2.0 * theta * theta * regularized_incomplete_gamma3(x)
    )
    m = t.d + theta * h / inside
    sigma_y2 = q.p * theta * theta * mu_mtum_dtheta(theta, t) + q.p * (q.a + q.b) * m * m
    return TruncatedSummary(mu_y=mu_y, mu_y2=mu_y2, sigma_y2=sigma_y2)


def mu_mtum(theta, t: ThresholdPair):
    """Truncated mean E[X | d < X <= u] = mu_Y / p, for a float or an array of theta.

    Uses the equivalent form d + theta - (u - d)/(e^{(u-d)/theta} - 1), which
    survives theta -> 0 (underflow of both mu_Y and p) and u -> inf; a series
    branch avoids its cancellation when the window is narrow relative to
    theta.
    """
    th = _positive_array(theta, "theta")
    if t.upper_is_infinite:
        return _like(theta, t.d + th)
    width = t.u - t.d
    w = width / th
    with np.errstate(over="ignore", divide="ignore"):
        value = np.asarray(t.d + th - width / np.expm1(w))
    small = w < 1e-2
    if small.any():
        w = w[small]
        value[small] = t.d + width * (0.5 - w / 12.0 + w * w * w / 720.0)
    return _like(theta, value)


def mu_mtum_dtheta(theta, t: ThresholdPair):
    """d mu_MTuM / d theta = 1 - y^2 csch^2 y with y = (u-d)/(2 theta), for a
    float or an array of theta.

    Strictly inside (0, 1) for finite u, approaching 1 as u -> inf.  A float
    is evaluated as ((sinh y - y)/sinh y) ((sinh y + y)/sinh y), with
    sinh y - y from its Taylor tail for y <= 1, so no difference of nearly
    equal terms is formed when the window is narrow relative to theta.  An
    array takes 1 - (y/sinh y)^2 and, below y = 5e-3, where that loses about
    log10(3/y^2) digits, the series y^2/3 - y^4/15 + 2 y^6/189.
    """
    if isinstance(theta, np.ndarray):
        th = _positive_array(theta, "theta")
        if t.upper_is_infinite:
            return np.ones_like(th)
        # y/sinh y underflows to 0 long before y = 700, past which sinh overflows
        y = np.minimum((0.5 * (t.u - t.d)) / th, 700.0)
        q = y / np.sinh(y)
        value = np.asarray(1.0 - q * q)
        small = y < 5e-3
        if small.any():
            y2 = y[small] ** 2
            value[small] = y2 * (1.0 / 3.0 - y2 * (1.0 / 15.0 - y2 * (2.0 / 189.0)))
        return value
    _check_theta(theta)
    y = (t.u - t.d) / (2.0 * theta)
    if y > 350.0:
        return 1.0
    s = math.sinh(y)
    excess = _taylor_tail(y, 3, 2) if y <= 1.0 else s - y
    return (excess / s) * ((s + y) / s)


def mu_mcm(theta, t: ThresholdPair):
    """Censored mean E[min(max(d, X), u)] = d + theta p, for a float or an array of theta."""
    th = _positive_array(theta, "theta")
    tau = np.exp(-t.d / th)
    p = -tau * np.expm1(-(t.u - t.d) / th)
    return _like(theta, t.d + th * p)


def mu_mcm_dtheta(theta, t: ThresholdPair):
    """d mu_MCM / d theta = e^{-d/theta} (h(x) + (d/theta)(1 - e^{-x})), for a
    float or an array of theta, with x = (u-d)/theta and h(x) = 1 - (1 + x)
    e^{-x} the MTCM slope; (1 + d/theta) e^{-d/theta} when u is infinite.

    Both terms are non-negative, so no digits cancel; the slope underflows
    to 0 where e^{-d/theta} does.
    """
    th = _positive_array(theta, "theta")
    r = -t.d / th
    if t.upper_is_infinite:
        return _like(theta, np.exp(r) * (1.0 - r))
    m = -(t.u - t.d) / th
    return _like(theta, np.exp(r) * (_censored_slope_array(m) + r * np.expm1(m)))


def mcm_second_moment(theta: float, t: ThresholdPair) -> float:
    """E[Z^2] = d^2 (1 - e^{-d/theta}) + E[Y^2] + u^2 e^{-u/theta} = sigma_MCM^2 + mu_MCM^2."""
    mean = mu_mcm(theta, t)
    return sigma_mcm2(theta, t) + mean * mean


def sigma_mcm2(theta: float, t: ThresholdPair) -> float:
    """Var(min(max(d, X), u)) = e^{-d/theta} (sigma_MTCM^2 + a (theta (1 - e^{-(u-d)/theta}))^2).

    The law of total variance split at d (mass a at d, the payment-type
    variable above it) leaves only positive terms, so the variance keeps its
    digits where E[Z^2] - E[Z]^2 cancels: narrow windows and large theta.
    """
    q = tail_quantities(theta, t)
    gain = -theta * math.expm1(-(t.u - t.d) / theta)  # E[min(X, u) | X > d] - d
    return q.tau * (sigma_mtcm2(theta, t) + q.a * gain * gain)


def mu_mtcm(theta, t: ThresholdPair):
    """Left-truncated right-censored mean d + theta p / tau = d + theta (1 - e^{-(u-d)/theta}),
    for a float or an array of theta."""
    th = _positive_array(theta, "theta")
    return _like(theta, t.d - th * np.expm1(-(t.u - t.d) / th))


def mu_mtcm_dtheta(theta, t: ThresholdPair):
    """d mu_MTCM / d theta = 1 - (1 + x) e^{-x} with x = (u-d)/theta, for a
    float or an array of theta; 1 when u is infinite.

    A series branch keeps its digits when the window is narrow relative to
    theta, where it tends to x^2/2.
    """
    if isinstance(theta, np.ndarray):
        th = _positive_array(theta, "theta")
        if t.upper_is_infinite:
            return np.ones_like(th)
        return _censored_slope_array(-(t.u - t.d) / th)
    _check_theta(theta)
    return _censored_slope((t.u - t.d) / theta)


def _censored_slope_array(m: np.ndarray) -> np.ndarray:
    """1 - (1 + x) e^{-x} on an array of m = -x <= 0 (finite).

    Below x = 1e-2, where the closed form loses about log10(2/x^2) digits,
    the series sum of (-1)^n (n - 1) x^n / n! for n = 2 to 7.
    """
    value = np.asarray(1.0 - (1.0 - m) * np.exp(m))
    small = m > -1e-2
    if small.any():
        x = -m[small]
        value[small] = x * x * (
            0.5 - x * (1.0 / 3.0 - x * (1.0 / 8.0 - x * (1.0 / 30.0 - x * (1.0 / 144.0 - x / 840.0))))
        )
    return value


def sigma_mtcm2(theta: float, t: ThresholdPair) -> float:
    """Var(min(X, u) | X > d) = theta^2 (1 - e^{-2x} - 2x e^{-x}) with x = (u-d)/theta.

    By memorylessness it is the variance of Exp(theta) censored at u - d;
    theta^2 when u is infinite, and about theta^2 x^3/3 (series branch)
    when the window is narrow relative to theta.
    """
    _check_theta(theta)
    return theta * (theta * _censored_var((t.u - t.d) / theta))


def mtcm_w_summary(theta: float, t: ThresholdPair) -> tuple[float, float, float]:
    """Moments of W = X 1{d < X <= u} + u 1{X > u}: (mean, raw second moment, variance).

    W = 1{X > d} min(X, u), so with c = mu_MTCM its mean is tau c and, by the
    law of total variance, Var(W) = tau sigma_MTCM^2 + tau a c^2 (a = 1 - tau).
    """
    q = tail_quantities(theta, t)
    c = mu_mtcm(theta, t)
    mean = q.tau * c
    var = q.tau * sigma_mtcm2(theta, t) + q.tau * q.a * c * c
    return mean, var + mean * mean, var


def _log_thresholds(t: ThresholdPair, x0: float) -> ThresholdPair:
    """Pareto I thresholds (d, u) on the exponential scale: (log(d/x0), log(u/x0))."""
    return log_transform_pareto_to_exp(ParetoIModel(alpha=1.0, x0=x0), t)[1]


def pareto_g_du(alpha, t: ThresholdPair, x0: float):
    """E[log(Y/x0) | d < Y <= u] for Pareto I, strictly decreasing in alpha
    (a float or an array).

    log(Y/x0) is Exp(1/alpha), so this is mu_mtum(1/alpha) on the log window
    (log(d/x0), log(u/x0)); requires a finite upper threshold (use the
    log-transform route when u is infinite).
    """
    al = _positive_array(alpha, "alpha")
    if t.upper_is_infinite:
        raise ValueError("pareto_g_du requires a finite upper threshold")
    return mu_mtum(1.0 / al, _log_thresholds(t, x0))


def pareto_g_limits(t: ThresholdPair, x0: float) -> tuple[float, float]:
    """Limits of pareto_g_du: (alpha -> inf, alpha -> 0+); the interval of attainable means.

    On the log window (d', u') = (log(d/x0), log(u/x0)) they are mu_mtum's
    limits as theta = 1/alpha -> 0 and -> inf: d' and the window midpoint
    d' + (u' - d')/2, the mean of a log-uniform on (d, u).  With
    w = log(u/d) and r = (d/u)^alpha, the map approaches them as
    g(alpha) = lower + 1/alpha - w*r/(1-r) (exact; first order as alpha -> inf)
    and g(alpha) = upper - alpha*w^2/12 + O(alpha^3) as alpha -> 0+.
    """
    if t.upper_is_infinite:
        raise ValueError("pareto_g_limits requires a finite upper threshold")
    t_log = _log_thresholds(t, x0)
    return t_log.d, t_log.d + 0.5 * (t_log.u - t_log.d)
