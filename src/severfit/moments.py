"""Closed-form population moments for the three estimation schemes.

All exponential-scale quantities are written so that an infinite upper
threshold and extreme theta values propagate through limits rather than
overflowing: differences of exponentials go through ``expm1`` and the terms
``u * exp(-u/theta)`` vanish analytically when ``u`` is infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import ThresholdPair

__all__ = [
    "TailQuantities",
    "TruncatedSummary",
    "ThresholdPair",
    "tail_quantities",
    "truncated_summary",
    "mu_mtum",
    "mu_mtum_dtheta",
    "mu_mcm",
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
    s = 0.0 if math.isinf(w) else math.exp(-w)
    b = tau * s
    p = -tau * math.expm1(-w) if not math.isinf(w) else tau
    return TailQuantities(a=a, b=b, tau=tau, p=p)


def _taylor_tail(x: float, first: int, step: int) -> float:
    """Sum of x^n / n! over n = first, first + step, ... for 0 <= x <= 1.

    These are the leading terms the closed forms below cancel away:
    expm1(x) - x is the tail from n = 2, sinh(x) - x the odd tail from n = 3.
    """
    total, term, n = 0.0, x**first / math.factorial(first), first
    while total + term != total:
        total += term
        for _ in range(step):
            n += 1
            term *= x / n
    return total


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


def _gamma3_tail(x: float) -> float:
    # 1 - Gamma(3; x): accurate complementary form for differences at large x.
    if math.isinf(x):
        return 0.0
    return math.exp(-x) * (1.0 + x + 0.5 * x * x)


def truncated_summary(theta: float, t: ThresholdPair) -> TruncatedSummary:
    """mu_Y = theta p + d e^{-d/theta} - u e^{-u/theta} and the matching variance.

    mu_Y is evaluated as d p + theta e^{-d/theta} (1 - (1 + x) e^{-x}) with
    x = (u-d)/theta, a sum of positive terms that keeps its digits when the
    window is narrow relative to theta.
    """
    _check_theta(theta)
    q = tail_quantities(theta, t)
    mu_y = t.d * q.p + theta * q.tau * _censored_slope((t.u - t.d) / theta)
    mu_y2 = 2.0 * theta * theta * (_gamma3_tail(t.d / theta) - _gamma3_tail(t.u / theta))
    return TruncatedSummary(mu_y=mu_y, mu_y2=mu_y2, sigma_y2=mu_y2 - mu_y * mu_y)


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
        closed = t.d + th - width / np.expm1(w)
        series = t.d + width * (0.5 - w / 12.0 + w * w * w / 720.0)
    value = np.where(w < 1e-2, series, np.where(w > 700.0, t.d + th, closed))
    return _like(theta, value)


def mu_mtum_dtheta(theta: float, t: ThresholdPair) -> float:
    """d mu_MTuM / d theta = 1 - ((u-d)/(2 theta))^2 csch^2((u-d)/(2 theta)).

    Strictly inside (0, 1) for finite u, approaching 1 as u -> inf; a series
    branch avoids the 1 - c^2 cancellation when the window is narrow
    relative to theta.
    """
    _check_theta(theta)
    if t.upper_is_infinite:
        return 1.0
    x = (t.u - t.d) / (2.0 * theta)
    if x < 0.05:
        x2 = x * x
        return x2 / 3.0 - x2 * x2 / 15.0 + 2.0 * x2 * x2 * x2 / 189.0
    if x > 350.0:
        return 1.0
    c = x / math.sinh(x)
    return 1.0 - c * c


def mu_mcm(theta, t: ThresholdPair):
    """Censored mean E[min(max(d, X), u)] = d + theta p, for a float or an array of theta."""
    th = _positive_array(theta, "theta")
    tau = np.exp(-t.d / th)
    p = tau if t.upper_is_infinite else -tau * np.expm1(-(t.u - t.d) / th)
    return _like(theta, t.d + th * p)


def mcm_second_moment(theta: float, t: ThresholdPair) -> float:
    """E[Z^2] = d^2 (1 - e^{-d/theta}) + E[Y^2] + u^2 e^{-u/theta}."""
    _check_theta(theta)
    q = tail_quantities(theta, t)
    s = truncated_summary(theta, t)
    u2b = 0.0 if q.b == 0.0 else t.u * t.u * q.b
    return t.d * t.d * q.a + s.mu_y2 + u2b


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
    if t.upper_is_infinite:
        return _like(theta, t.d + th)
    return _like(theta, t.d - th * np.expm1(-(t.u - t.d) / th))


def mu_mtcm_dtheta(theta: float, t: ThresholdPair) -> float:
    """d mu_MTCM / d theta = 1 - (1 + x) e^{-x} with x = (u-d)/theta; 1 when u is infinite.

    A series branch keeps its digits when the window is narrow relative to
    theta, where it tends to x^2/2.
    """
    _check_theta(theta)
    return _censored_slope((t.u - t.d) / theta)


def sigma_mtcm2(theta: float, t: ThresholdPair) -> float:
    """Var(min(X, u) | X > d) = theta^2 (1 - e^{-2x} - 2x e^{-x}) with x = (u-d)/theta.

    By memorylessness it is the variance of Exp(theta) censored at u - d;
    theta^2 when u is infinite, and about theta^2 x^3/3 (series branch)
    when the window is narrow relative to theta.
    """
    _check_theta(theta)
    return theta * (theta * _censored_var((t.u - t.d) / theta))


def mtcm_w_summary(theta: float, t: ThresholdPair) -> tuple[float, float, float]:
    """Moments of W = X 1{d < X <= u} + u 1{X > u}: (mean, raw second moment, variance)."""
    _check_theta(theta)
    q = tail_quantities(theta, t)
    s = truncated_summary(theta, t)
    if q.b == 0.0:
        mu_w = s.mu_y
        e_w2 = s.mu_y2
    else:
        mu_w = s.mu_y + t.u * q.b
        e_w2 = s.mu_y2 + t.u * t.u * q.b
    return mu_w, e_w2, e_w2 - mu_w * mu_w


def pareto_g_du(alpha, t: ThresholdPair, x0: float):
    """E[log(Y/x0) | d < Y <= u] for Pareto I, strictly decreasing in alpha
    (a float or an array).

    Evaluated with numerator and denominator divided by u^alpha so large
    alpha cannot overflow, and by its series in alpha*log(u/d) when that is
    small, where the closed form cancels; requires a finite upper threshold
    (use the log-transform route when u is infinite).
    """
    al = _positive_array(alpha, "alpha")
    if not (x0 > 0 and math.isfinite(x0)):
        raise ValueError(f"x0 must be a positive finite real, got {x0!r}")
    if t.upper_is_infinite:
        raise ValueError("pareto_g_du requires a finite upper threshold")
    if t.d < x0:
        raise ValueError(f"thresholds must satisfy x0 <= d, got d={t.d!r}, x0={x0!r}")
    log_dx0 = math.log(t.d / x0)
    w = math.log(t.u / t.d)
    v = al * w
    log_ux0 = math.log(t.u / x0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r = np.exp(al * math.log(t.d / t.u))  # (d/u)^alpha, underflows safely
        one_minus_r = -np.expm1(al * math.log(t.d / t.u))
        numerator = one_minus_r - al * (-log_dx0 + r * log_ux0)
        closed = numerator / (al * one_minus_r)
        series = log_dx0 + w * (0.5 - v / 12.0 + v * v * v / 720.0)
    return _like(alpha, np.where(v < 1e-2, series, closed))


def pareto_g_limits(t: ThresholdPair, x0: float) -> tuple[float, float]:
    """Limits of pareto_g_du: (alpha -> inf, alpha -> 0+); the interval of attainable means.

    With w = log(u/d) and r = (d/u)^alpha, the map approaches them as
    g(alpha) = lower + 1/alpha - w*r/(1-r) (exact; first order as alpha -> inf)
    and g(alpha) = upper - alpha*w^2/12 + O(alpha^3) as alpha -> 0+.
    """
    if not (x0 > 0 and math.isfinite(x0)):
        raise ValueError(f"x0 must be a positive finite real, got {x0!r}")
    if t.upper_is_infinite:
        raise ValueError("pareto_g_limits requires a finite upper threshold")
    if t.d < x0:
        raise ValueError(f"thresholds must satisfy x0 <= d, got d={t.d!r}, x0={x0!r}")
    lower = math.log(t.d / x0)
    # the mean of a log-uniform on (d, u): (log(d/x0) + log(u/x0)) / 2
    upper = lower + 0.5 * math.log(t.u / t.d)
    return lower, upper
