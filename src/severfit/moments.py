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
    _horner,
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
    "sigma_mcm2",
    "mu_mtcm",
    "mu_mtcm_dtheta",
    "sigma_mtcm2",
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


def _positive_array(value, name: str) -> np.ndarray:
    """``value`` (a float or an array) as a float array of positive finite reals."""
    array = np.asarray(value, dtype=float)
    if isinstance(value, float):  # checked in Python, about 8x faster than the reductions
        positive = 0.0 < value < math.inf
    else:
        positive = ((array > 0) & np.isfinite(array)).all()
    if not positive:
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")
    return array


def _over_theta(length: float, th: np.ndarray) -> np.ndarray:
    """length / theta, inf where theta lies so far below length that it overflows."""
    with np.errstate(over="ignore"):
        return length / th


def _like(arg, value: np.ndarray):
    """A forward map's result: a float for a scalar argument, else the array."""
    return float(value) if np.ndim(arg) == 0 else value


def tail_quantities(theta: float, t: ThresholdPair) -> TailQuantities:
    _positive_array(theta, "theta")
    w = (t.u - t.d) / theta
    tau = math.exp(-t.d / theta)
    a = -math.expm1(-t.d / theta)
    b = tau * math.exp(-w)
    p = -tau * math.expm1(-w)
    return TailQuantities(a=a, b=b, tau=tau, p=p)


# Taylor coefficients of the series branches, which Horner's rule sums where
# a closed form loses more than 1e-15 of its value to cancellation.
# (sinh y - y) / y^3 = sum of y^(2n) / (2n + 3)!, to 1e-17 for y <= 1
_SINH_TAIL = tuple(1.0 / math.factorial(2 * n + 3) for n in range(9))
# (e^x - 1 - x) / x^2 = sum of x^n / (n + 2)!, to 1e-17 for x <= 0.4
_EXP_TAIL = tuple(1.0 / math.factorial(n + 2) for n in range(14))
# (1/2 - 1/x + 1/(e^x - 1)) / x = sum of B_2n x^(2n-2) / (2n)! over n >= 1, with
# the Bernoulli numbers B_2n = 1/6, -1/30, 1/42, ...; to 1e-17 for x <= 0.6
_BERNOULLI_TAIL = tuple(
    p / (q * math.factorial(2 * n + 2))
    for n, (p, q) in enumerate(((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6)))
)


def _piecewise(x, switch: float, series, closed, *args) -> np.ndarray:
    """series(x, *args) where x <= switch and closed(x, *args) elsewhere, for a
    float or an array x and arrays ``args`` of its shape; each form is
    evaluated on its own elements only."""
    x = np.asarray(x)
    small = x <= switch
    if small.all():
        return series(x, *args)
    if not small.any():
        return closed(x, *args)
    value = np.empty_like(x)
    value[small] = series(x[small], *(a[small] for a in args))
    value[~small] = closed(x[~small], *(a[~small] for a in args))
    return value


def _censored_slope(x, scale: float = 1.0) -> np.ndarray:
    """h(x) / scale^2 with h(x) = 1 - (1 + x) e^{-x} = e^{-x} (e^x - 1 - x),
    for a float or an array of x = (u-d)/theta in [0, inf].

    Taken as (1 - e^{-x}) - x e^{-x}, and for x <= 0.4, where that loses
    more than 1e-15 of h, as e^{-x} x^2 times the Taylor tail of e^x from
    n = 2.  ``scale`` = min(x, 1) keeps the digits of h ~ x^2/2 where h
    itself underflows.
    """
    def series(x):
        r = x / scale
        return np.exp(-x) * r * r * _horner(x, _EXP_TAIL)

    def closed(x):
        return (-np.expm1(-x) - x * np.exp(-x)) / (scale * scale)

    # past x = 800 h is 1 to the last bit, and inf * 0 is not formed
    return _piecewise(np.minimum(x, 800.0), 0.4, series, closed)


def _censored_var(x, scale: float = 1.0) -> np.ndarray:
    """v(x) / scale^3 with v(x) = 1 - e^{-2x} - 2x e^{-x} = 2 e^{-x} (sinh x - x),
    for a float or an array of x = (u-d)/theta in [0, inf].

    For x <= 1, where the closed form loses more than 1e-15 of v, it is
    2 e^{-x} x^3 times the Taylor tail of sinh from n = 3.  ``scale`` =
    min(x, 1) keeps the digits of v ~ x^3/3 where v itself underflows.
    """
    def series(x):
        r = x / scale
        return 2.0 * np.exp(-x) * r * r * r * _horner(x * x, _SINH_TAIL)

    def closed(x):
        return (-np.expm1(-2.0 * x) - 2.0 * x * np.exp(-x)) / (scale * scale * scale)

    return _piecewise(np.minimum(x, 800.0), 1.0, series, closed)


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
    q = tail_quantities(theta, t)
    x = (t.u - t.d) / theta
    h = float(_censored_slope(x))
    inside = -math.expm1(-x)  # P(E <= u - d)
    mu_y = t.d * q.p + theta * q.tau * h
    mu_y2 = q.tau * (
        t.d * t.d * inside
        + 2.0 * t.d * theta * h
        + 2.0 * theta * theta * regularized_incomplete_gamma3(x)
    )
    m = mu_mtum(theta, t)
    sigma_y2 = q.p * theta * theta * mu_mtum_dtheta(theta, t) + q.p * (q.a + q.b) * m * m
    return TruncatedSummary(mu_y=mu_y, mu_y2=mu_y2, sigma_y2=sigma_y2)


def mu_mtum(theta, t: ThresholdPair):
    """Truncated mean E[X | d < X <= u] = mu_Y / p, for a float or an array of theta.

    Uses the equivalent form d + theta - w/(e^x - 1), w = u - d and x = w/theta,
    which survives theta -> 0 (underflow of both mu_Y and p) and u -> inf.  For
    x <= 0.6, where its terms cancel, it is d + w (1/x - 1/(e^x - 1)) by the
    Bernoulli series, so the mean keeps its digits on narrow windows.
    """
    th = _positive_array(theta, "theta")
    if t.upper_is_infinite:
        return _like(theta, t.d + th)
    width = t.u - t.d

    def series(x, th):
        return t.d + width * (0.5 - x * _horner(x * x, _BERNOULLI_TAIL))

    def closed(x, th):
        return t.d + th - width / np.expm1(x)

    with np.errstate(over="ignore"):  # e^x, and x itself at theta far below the window
        return _like(theta, _piecewise(width / th, 0.6, series, closed, th))


def mu_mtum_dtheta(theta, t: ThresholdPair):
    """d mu_MTuM / d theta = 1 - q^2 with q = y/sinh y and y = (u-d)/(2 theta),
    for a float or an array of theta.

    Strictly inside (0, 1) for finite u, approaching 1 as u -> inf.  It is
    taken as ((sinh y - y)/sinh y) ((sinh y + y)/sinh y), and for y <= 0.7,
    where sinh y - y loses more than 1e-15 of its value, as a q (1 + q) with
    a = y^2 (sinh y - y)/y^3 from the Taylor tail of sinh and q = 1/(1 + a),
    so the slope keeps its digits when the window is narrow relative to theta.
    """
    th = _positive_array(theta, "theta")
    # past y = 700, where sinh nears overflow, the slope is 1 to the last bit
    y = np.minimum(_over_theta(0.5 * (t.u - t.d), th), 700.0)
    return _like(theta, _piecewise(y, 0.7, _mtum_slope_series, _mtum_slope_closed))


def _mtum_slope_series(y: np.ndarray) -> np.ndarray:
    a = y * y * _horner(y * y, _SINH_TAIL)
    q = 1.0 / (1.0 + a)
    return a * q * (1.0 + q)


def _mtum_slope_closed(y: np.ndarray) -> np.ndarray:
    s = np.sinh(y)
    return ((s - y) / s) * ((s + y) / s)


def mu_mcm(theta, t: ThresholdPair):
    """Censored mean E[min(max(d, X), u)] = d + theta p, for a float or an array of theta."""
    th = _positive_array(theta, "theta")
    tau = np.exp(-_over_theta(t.d, th))
    p = -tau * np.expm1(-_over_theta(t.u - t.d, th))
    return _like(theta, t.d + th * p)


def mu_mcm_dtheta(theta, t: ThresholdPair):
    """d mu_MCM / d theta = e^{-d/theta} (h(x) + (d/theta)(1 - e^{-x})), for a
    float or an array of theta, with x = (u-d)/theta and h(x) = 1 - (1 + x)
    e^{-x} the MTCM slope; (1 + d/theta) e^{-d/theta} when u is infinite.

    Both terms are non-negative, so no digits cancel; h takes the MTCM
    slope's series branch below x = 0.4, and the slope underflows to 0
    where e^{-d/theta} does.
    """
    th = _positive_array(theta, "theta")
    # past d/theta = 800 the slope is 0 to the last bit, and inf * 0 is not formed
    r, x = np.minimum(_over_theta(t.d, th), 800.0), _over_theta(t.u - t.d, th)
    return _like(theta, np.exp(-r) * (_censored_slope(x) - r * np.expm1(-x)))


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
    return _like(theta, t.d - th * np.expm1(-_over_theta(t.u - t.d, th)))


def mu_mtcm_dtheta(theta, t: ThresholdPair):
    """d mu_MTCM / d theta = h(x) = 1 - (1 + x) e^{-x} with x = (u-d)/theta,
    for a float or an array of theta; 1 when u is infinite.

    Below x = 0.4 h comes from the Taylor tail of e^x, so it keeps its digits
    when the window is narrow relative to theta, where it tends to x^2/2.
    """
    th = _positive_array(theta, "theta")
    return _like(theta, _censored_slope(_over_theta(t.u - t.d, th)))


def sigma_mtcm2(theta: float, t: ThresholdPair) -> float:
    """Var(min(X, u) | X > d) = theta^2 (1 - e^{-2x} - 2x e^{-x}) with x = (u-d)/theta.

    By memorylessness it is the variance of Exp(theta) censored at u - d;
    theta^2 when u is infinite, and about theta^2 x^3/3 (series branch)
    when the window is narrow relative to theta.
    """
    _positive_array(theta, "theta")
    return theta * (theta * float(_censored_var((t.u - t.d) / theta)))


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
