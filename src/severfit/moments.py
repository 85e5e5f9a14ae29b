"""Closed-form population moments for the three estimation schemes.

All exponential-scale quantities are written so that an infinite upper
threshold and extreme theta values propagate through limits rather than
overflowing: differences of exponentials go through ``expm1`` and the terms
``u * exp(-u/theta)`` vanish analytically when ``u`` is infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def tail_quantities(theta: float, t: ThresholdPair) -> TailQuantities:
    _check_theta(theta)
    w = (t.u - t.d) / theta
    tau = math.exp(-t.d / theta)
    a = -math.expm1(-t.d / theta)
    s = 0.0 if math.isinf(w) else math.exp(-w)
    b = tau * s
    p = -tau * math.expm1(-w) if not math.isinf(w) else tau
    return TailQuantities(a=a, b=b, tau=tau, p=p)


def _gamma3_tail(x: float) -> float:
    # 1 - Gamma(3; x): accurate complementary form for differences at large x.
    if math.isinf(x):
        return 0.0
    return math.exp(-x) * (1.0 + x + 0.5 * x * x)


def truncated_summary(theta: float, t: ThresholdPair) -> TruncatedSummary:
    """mu_Y = theta p + d e^{-d/theta} - u e^{-u/theta} and the matching variance."""
    _check_theta(theta)
    q = tail_quantities(theta, t)
    ub = 0.0 if q.b == 0.0 else t.u * q.b
    mu_y = theta * q.p + t.d * q.tau - ub
    mu_y2 = 2.0 * theta * theta * (_gamma3_tail(t.d / theta) - _gamma3_tail(t.u / theta))
    return TruncatedSummary(mu_y=mu_y, mu_y2=mu_y2, sigma_y2=mu_y2 - mu_y * mu_y)


def mu_mtum(theta: float, t: ThresholdPair) -> float:
    """Truncated mean E[X | d < X <= u] = mu_Y / p.

    Uses the equivalent form d + theta - (u - d)/(e^{(u-d)/theta} - 1), which
    survives theta -> 0 (underflow of both mu_Y and p) and u -> inf; a series
    branch avoids its cancellation when the window is narrow relative to
    theta.
    """
    _check_theta(theta)
    if t.upper_is_infinite:
        return t.d + theta
    w = (t.u - t.d) / theta
    if w < 1e-2:
        return t.d + (t.u - t.d) * (0.5 - w / 12.0 + w**3 / 720.0)
    if w > 700.0:
        return t.d + theta
    return t.d + theta - (t.u - t.d) / math.expm1(w)


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


def mu_mcm(theta: float, t: ThresholdPair) -> float:
    """Censored mean E[min(max(d, X), u)] = d + theta p."""
    _check_theta(theta)
    return t.d + theta * tail_quantities(theta, t).p


def mcm_second_moment(theta: float, t: ThresholdPair) -> float:
    """E[Z^2] = d^2 (1 - e^{-d/theta}) + E[Y^2] + u^2 e^{-u/theta}."""
    _check_theta(theta)
    q = tail_quantities(theta, t)
    s = truncated_summary(theta, t)
    u2b = 0.0 if q.b == 0.0 else t.u * t.u * q.b
    return t.d * t.d * q.a + s.mu_y2 + u2b


def sigma_mcm2(theta: float, t: ThresholdPair) -> float:
    m1 = mu_mcm(theta, t)
    return mcm_second_moment(theta, t) - m1 * m1


def mu_mtcm(theta: float, t: ThresholdPair) -> float:
    """Left-truncated right-censored mean d + theta p / tau = d + theta (1 - e^{-(u-d)/theta})."""
    _check_theta(theta)
    if t.upper_is_infinite:
        return t.d + theta
    return t.d - theta * math.expm1(-(t.u - t.d) / theta)


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


def pareto_g_du(alpha: float, t: ThresholdPair, x0: float) -> float:
    """E[log(Y/x0) | d < Y <= u] for Pareto I, strictly decreasing in alpha.

    Evaluated with numerator and denominator divided by u^alpha so large
    alpha cannot overflow, and by its series in alpha*log(u/d) when that is
    small, where the closed form cancels; requires a finite upper threshold
    (use the log-transform route when u is infinite).
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be a positive finite real, got {alpha!r}")
    if not (x0 > 0 and math.isfinite(x0)):
        raise ValueError(f"x0 must be a positive finite real, got {x0!r}")
    if t.upper_is_infinite:
        raise ValueError("pareto_g_du requires a finite upper threshold")
    if t.d < x0:
        raise ValueError(f"thresholds must satisfy x0 <= d, got d={t.d!r}, x0={x0!r}")
    log_dx0 = math.log(t.d / x0)
    w = math.log(t.u / t.d)
    v = alpha * w
    if v < 1e-2:
        return log_dx0 + w * (0.5 - v / 12.0 + v**3 / 720.0)
    log_ux0 = math.log(t.u / x0)
    r = math.exp(alpha * math.log(t.d / t.u))  # (d/u)^alpha, underflows safely
    one_minus_r = -math.expm1(alpha * math.log(t.d / t.u))
    numerator = one_minus_r - alpha * (-log_dx0 + r * log_ux0)
    return numerator / (alpha * one_minus_r)


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
    log_u, log_d = math.log(t.u), math.log(t.d)
    upper = (
        log_u * log_u
        - log_d * log_d
        - 2.0 * log_u * math.log(x0 / t.d)
        + 2.0 * log_d * math.log(x0 / t.u)
    ) / (2.0 * math.log(t.u / t.d))
    return lower, upper
