"""Asymptotic variances, relative efficiencies, and influence functions.

Efficiency is always quoted relative to the maximum-likelihood benchmark:
ARE = (avar of MLE) / (avar of the competing estimator), so every value lies
in (0, 1] with equality exactly when nothing is truncated or censored.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .dist import ExponentialModel, ThresholdPair, exp_quantile
from .errors import DegenerateError, QuadratureError
from .framework import DistributionAdapter
from .moments import (
    mu_mtcm_dtheta,
    mu_mtum_dtheta,
    sigma_mcm2,
    sigma_mtcm2,
    tail_quantities,
    truncated_summary,
)

__all__ = [
    "AREReport",
    "IFCurve",
    "METHODS",
    "are",
    "are_mtum",
    "are_mcm",
    "are_mtcm",
    "avar",
    "mtm_integral_I",
    "mtm_integral_J",
    "are_mtm",
    "influence_mtm",
    "influence_mcm",
    "influence_curve",
    "are_table",
    "are_table_csv",
    "default_grid",
]

METHODS = ("mtum", "mcm", "mtcm")

_IF_QUAD_OPTS = {"epsabs": 1e-11, "epsrel": 1e-11, "limit": 200}


def are_mtum(theta: float, t: ThresholdPair) -> float:
    """ARE of the truncated-moment estimator: p * d mu_MTuM / d theta.

    Equal to (p^2 theta^2 - e^{-(d+u)/theta} (u-d)^2) / (p theta^2); the
    hyperbolic product form stays accurate for narrow windows and gives
    exp(-d/theta) in the u -> inf limit.
    """
    return tail_quantities(theta, t).p * mu_mtum_dtheta(theta, t)


def are_mcm(theta: float, t: ThresholdPair) -> float:
    """ARE of the censored-moment estimator: mu_Y^2 / sigma_MCM^2.

    Both moments are sums of positive terms, so the ratio stays accurate
    (about 3 x e^{-d/theta} / 4 to leading order) as x = (u-d)/theta -> 0.
    """
    mu_y = truncated_summary(theta, t).mu_y
    return mu_y * mu_y / sigma_mcm2(theta, t)


def are_mtcm(theta: float, t: ThresholdPair) -> float:
    """ARE of the payment-type estimator: tau (theta d mu_MTCM/d theta)^2 / sigma_MTCM^2.

    Equal to the printed [p - b (u-d)/theta]^2 / (p (1 + b/tau) - 2 b (u-d)/theta),
    written as tau (1 - (1+x) e^{-x})^2 / (1 - e^{-2x} - 2x e^{-x}) with
    x = (u-d)/theta, whose series branches keep the digits the printed form
    cancels at large theta; reduces to exp(-d/theta) when u is infinite.
    """
    slope = theta * mu_mtcm_dtheta(theta, t)
    return tail_quantities(theta, t).tau * slope * slope / sigma_mtcm2(theta, t)


_ARE_DISPATCH = {"mtum": are_mtum, "mcm": are_mcm, "mtcm": are_mtcm}


def are(method: str, theta: float, t: ThresholdPair) -> float:
    """Dispatch to the method's ARE formula."""
    if method not in _ARE_DISPATCH:
        raise ValueError(f"unknown method {method!r}")
    return _ARE_DISPATCH[method](theta, t)


def avar(method: str, theta: float, t: ThresholdPair | None = None) -> float:
    """Per-observation asymptotic variance: theta^2 / ARE (theta^2 for MLE)."""
    if method == "mle":
        return theta * theta
    if method not in _ARE_DISPATCH:
        raise ValueError(f"unknown method {method!r}")
    if t is None:
        raise ValueError(f"method {method!r} needs thresholds")
    try:
        efficiency = _ARE_DISPATCH[method](theta, t)
    except ZeroDivisionError:  # the variance underflows to 0, e.g. with the survival at d
        efficiency = math.nan
    if not efficiency > 0:
        raise DegenerateError(
            f"window ({t.d}, {t.u}) is degenerate for {method}: ARE = {efficiency!r}"
        )
    return theta * theta / efficiency


def mtm_integral_I(a: float, one_minus_b: float) -> float:
    """I(a, 1-b) = integral of log(1-v) dv from a to 1-b, in closed form."""
    if not (0 <= a < one_minus_b <= 1):
        raise ValueError(f"need 0 <= a < 1-b <= 1, got a={a!r}, 1-b={one_minus_b!r}")

    def antiderivative(v: float) -> float:
        if v == 1.0:
            return -1.0
        return -(1.0 - v) * math.log1p(-v) - v

    return antiderivative(one_minus_b) - antiderivative(a)


def mtm_integral_J(a: float, one_minus_b: float) -> float:
    """J(a, 1-b) = double integral of (min(v,w) - vw)/((1-v)(1-w)) over the square.

    Evaluated by adaptive 2-D quadrature as twice the integral over the
    triangle v <= w, which keeps the integrand bounded even when the upper
    limit is 1 (the diagonal kink becomes a boundary and the inner
    integration cancels the 1/(1-w) growth).  This is the cross-check
    integral; :func:`are_mtm` uses J in closed form.
    """
    if not (0 <= a < one_minus_b <= 1):
        raise ValueError(f"need 0 <= a < 1-b <= 1, got a={a!r}, 1-b={one_minus_b!r}")

    def integrand(w: float, v: float) -> float:
        return (min(v, w) - v * w) / ((1.0 - v) * (1.0 - w))

    from scipy import integrate  # imported on first use, as in framework._integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        value, abserr = integrate.dblquad(
            integrand, a, one_minus_b, lambda v: v, lambda v: one_minus_b, epsabs=1e-9
        )
    if abserr > 1e-6:
        raise QuadratureError(
            f"J quadrature error estimate {abserr:.3e} exceeds 1e-6", achieved=abserr
        )
    return 2.0 * value


# 1 - r^2 + 2 r log r = e^3 sum_m c_m e^m with e = 1 - r and c_m = 2/((m+2)(m+3));
# at e <= 1/2 the terms left out are below 1e-18 of the sum
_J_SERIES = tuple(2.0 / ((m + 2) * (m + 3)) for m in range(52))


def _mtm_j(a: float, b: float) -> float:
    """J(a, 1-b) in closed form, the variance of Exp(1) winsorized at its a and 1-b quantiles.

    With r = b/(1-a) and e = 1 - r: J = (1-a) (1 - r^2 + 2 r log r + a e^2).
    The first part cancels as r -> 1, so for e <= 1/2 it is the series of
    positive terms 2 sum_{n>=3} e^n / (n (n-1)).  e is taken from 1 - a - b
    with the rounding error of 1 - a put back, so it keeps its digits when
    a + b is close to 1.
    """
    one_minus_a = 1.0 - a
    lost = -a - (one_minus_a - 1.0)  # 1 - a == one_minus_a + lost exactly
    e = ((one_minus_a - b) + lost) / one_minus_a
    r = b / one_minus_a
    if e <= 0.5:
        g = 0.0
        for c in reversed(_J_SERIES):
            g = g * e + c
        g *= e * e * e
    else:
        g = e * (1.0 + r) + (2.0 * r * math.log(r) if r > 0.0 else 0.0)
    return one_minus_a * (g + a * e * e)


def are_mtm(a: float, b: float) -> float:
    """ARE of the fixed-proportion trimmed mean: I^2 / J, with J in closed form.

    :func:`mtm_integral_J` keeps the ``dblquad`` of J as the cross-check.
    """
    i_val = mtm_integral_I(a, 1.0 - b)
    return i_val * i_val / _mtm_j(a, b)


def _quantile_thresholds(F: DistributionAdapter, a: float, b: float) -> tuple[float, float]:
    """d = F^{-1}(a) and u = F^{-1}(1-b), infinite when b = 0."""
    if not (a >= 0 and b >= 0 and a + b < 1):
        raise ValueError(f"need a >= 0, b >= 0, a + b < 1, got a={a!r}, b={b!r}")
    return F.quantile(a), math.inf if b == 0.0 else F.quantile(1.0 - b)


def _centred_winsorized(F: DistributionAdapter, a: float, b: float, d: float, u: float, x):
    """clip(x, d, u) - W, W = a d + b u + integral of F^{-1} over (a, 1-b), for any x."""
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        integral, abserr = integrate.quad(F.quantile, a, 1.0 - b, **_IF_QUAD_OPTS)
    if abserr > 1e-8:
        raise QuadratureError(
            f"influence quadrature error {abserr:.3e} exceeds 1e-8", achieved=abserr
        )
    tails = (a * d if a > 0.0 else 0.0) + (b * u if b > 0.0 else 0.0)
    return np.clip(x, d, u) - (tails + integral)


def influence_mtm(F: DistributionAdapter, a: float, b: float, x: float) -> float:
    """Influence function of the (a, b) trimmed mean at contamination point x.

    It is the centred winsorized variable (clip(x, d, u) - W) / (1 - a - b):
    d = F^{-1}(a), u = F^{-1}(1-b) (infinite when b = 0) and the winsorized
    mean W = a d + b u + integral of F^{-1}(v) over (a, 1-b).  With b = 0 the
    model needs a finite mean; x = inf then gives inf.
    """
    d, u = _quantile_thresholds(F, a, b)
    return float(_centred_winsorized(F, a, b, d, u, x)) / (1.0 - a - b)


def influence_mcm(F: DistributionAdapter, t: ThresholdPair, x: float) -> float:
    """Influence function of the interval-censored mean at contamination point x.

    The thresholds map to tail probabilities a = F(d), b = 1 - F(u); the
    value is clip(x, d, u) - W, the censored variable minus its mean W, which
    is (1 - a - b) times the trimmed-mean influence at the same x.
    """
    a = F.cdf(t.d)
    b = 1.0 - F.cdf(t.u)
    if not a + b < 1:
        raise ValueError(f"window ({t.d}, {t.u}) carries no probability mass")
    return float(_centred_winsorized(F, a, b, t.d, t.u, x))


@dataclass(frozen=True)
class IFCurve:
    """An influence function sampled on a strictly increasing grid."""

    method: str
    a: float
    b: float
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.grid.shape != self.values.shape:
            raise ValueError("grid and values must have matching shapes")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")


def influence_curve(
    F: DistributionAdapter, method: str, a: float, b: float, grid: Sequence[float]
) -> IFCurve:
    """Evaluate the MTM or MCM influence function on a grid of x values, in one quadrature."""
    if method not in ("mtm", "mcm"):
        raise ValueError(f"unknown influence method {method!r}")
    xs = np.asarray(grid, dtype=float)
    d, u = _quantile_thresholds(F, a, b)
    values = _centred_winsorized(F, a, b, d, u, xs)
    if method == "mtm":
        values = values / (1.0 - a - b)
    return IFCurve(method=method, a=a, b=b, grid=xs, values=values)


@dataclass(frozen=True)
class AREReport:
    """One efficiency cell: method, tail probabilities, thresholds, ARE."""

    method: str
    theta: float
    a: float
    b: float
    d: float
    u: float
    are: float | None
    avar_per_obs: float | None

    @property
    def thresholds(self) -> ThresholdPair | None:
        if self.are is None:
            return None
        return ThresholdPair(self.d, self.u)


def default_grid() -> tuple[float, ...]:
    """Default tail-probability grid for the bundled efficiency table."""
    return (0.0, 0.05, 0.10, 0.15, 0.25, 0.49, 0.70, 0.85)


def are_table(
    theta: float,
    a_grid: Iterable[float] | None = None,
    b_grid: Iterable[float] | None = None,
    methods: Iterable[str] = METHODS,
) -> list[AREReport]:
    """Efficiency matrix over a grid of lower/upper tail probabilities.

    Thresholds are exact quantiles of Exp(theta): d = F^{-1}(a) and
    u = F^{-1}(1-b), infinite when b = 0.  Cells with d >= u (a + b >= 1)
    are reported with ``are=None``.
    """
    a_values = tuple(a_grid) if a_grid is not None else default_grid()
    b_values = tuple(b_grid) if b_grid is not None else default_grid()
    for grid, name in ((a_values, "a_grid"), (b_values, "b_grid")):
        if any(not 0 <= g < 1 for g in grid):
            raise ValueError(f"{name} entries must lie in [0, 1)")
        if list(grid) != sorted(grid):
            raise ValueError(f"{name} must be sorted ascending")
    model = ExponentialModel(theta)
    out: list[AREReport] = []
    for method in methods:
        if method not in _ARE_DISPATCH:
            raise ValueError(f"unknown method {method!r}")
        for a in a_values:
            d = exp_quantile(model, a)
            for b in b_values:
                u = math.inf if b == 0.0 else exp_quantile(model, 1.0 - b)
                if a + b >= 1.0 - 1e-15:
                    out.append(
                        AREReport(method, theta, a, b, d, u, are=None, avar_per_obs=None)
                    )
                    continue
                t = ThresholdPair(d, u)
                efficiency = _ARE_DISPATCH[method](theta, t)
                out.append(
                    AREReport(
                        method,
                        theta,
                        a,
                        b,
                        d,
                        u,
                        are=efficiency,
                        avar_per_obs=theta * theta / efficiency,
                    )
                )
    return out


def _fmt(value: float | None) -> str:
    """CSV number: shortest round-trip repr, ``inf`` for infinity, empty for None."""
    if value is None:
        return ""
    if math.isinf(value):
        return "inf"
    return repr(float(value))


def are_table_csv(reports: Iterable[AREReport]) -> str:
    """Serialize an efficiency table; absent cells have an empty are and a reason."""
    lines = ["method,a,b,d,u,are,reason"]
    for r in reports:
        if r.are is None:
            lines.append(f"{r.method},{_fmt(r.a)},{_fmt(r.b)},{_fmt(r.d)},{_fmt(r.u)},,d>=u")
        else:
            lines.append(
                f"{r.method},{_fmt(r.a)},{_fmt(r.b)},{_fmt(r.d)},{_fmt(r.u)},{_fmt(r.are)},"
            )
    return "\n".join(lines) + "\n"
