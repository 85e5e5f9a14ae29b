"""Asymptotic variances, relative efficiencies, and influence functions.

Efficiency is always quoted relative to the maximum-likelihood benchmark:
ARE = (avar of MLE) / (avar of the competing estimator), so every value lies
in (0, 1] with equality exactly when nothing is truncated or censored.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .dist import ExponentialModel, ThresholdPair
from .errors import DegenerateError
from .framework import (
    DistributionAdapter,
    _check_tail_probabilities,
    _integrate,
    _quantile_thresholds,
    adapter_from_model,
)
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
    mu_Y^2 is never formed: it underflows on windows where the ratio does not.
    """
    mu_y = truncated_summary(theta, t).mu_y
    return mu_y * (mu_y / sigma_mcm2(theta, t))


def are_mtcm(theta: float, t: ThresholdPair) -> float:
    """ARE of the payment-type estimator: tau (theta d mu_MTCM/d theta)^2 / sigma_MTCM^2.

    Equal to the printed [p - b (u-d)/theta]^2 / (p (1 + b/tau) - 2 b (u-d)/theta),
    written as tau (1 - (1+x) e^{-x})^2 / (1 - e^{-2x} - 2x e^{-x}) with
    x = (u-d)/theta, whose series branches keep the digits the printed form
    cancels at large theta; reduces to exp(-d/theta) when u is infinite.  The
    slope is divided before it is squared, which would underflow first.
    """
    slope = theta * mu_mtcm_dtheta(theta, t)
    return tail_quantities(theta, t).tau * slope * (slope / sigma_mtcm2(theta, t))


_ARE_DISPATCH = {"mtum": are_mtum, "mcm": are_mcm, "mtcm": are_mtcm}


def are(method: str, theta: float, t: ThresholdPair) -> float:
    """The method's ARE formula, evaluated on the unit scale.

    The ARE is scale-free, so it is taken at theta / s on (d / s, u / s),
    with s = 2^(e-1) for theta = m 2^e, 1/2 <= m < 1: the rescaling is exact,
    because s is a power of two, and theta / s lies in [1, 2) at any theta.
    The ``- 1`` keeps s finite near the largest float.  Where d / s
    overflows, exp(-d/theta) is 0 and so is the ARE.  Where a variance in
    the formula underflows to 0, as on (800, 900) or (0, 1e-110) at
    theta = 1, every method answers 0.0, as MTuM's product does there, and
    ``avar`` refuses the window, although MCM's and MTCM's ARE on the latter
    is about 7.5e-111.
    """
    if method not in _ARE_DISPATCH:
        raise ValueError(f"unknown method {method!r}")
    s = math.ldexp(1.0, math.frexp(theta)[1] - 1)
    d = t.d / s
    if math.isinf(d):
        return 0.0
    try:
        return _ARE_DISPATCH[method](theta / s, ThresholdPair(d, t.u / s))
    except ZeroDivisionError:  # the variance underflows to 0
        return 0.0


def avar(method: str, theta: float, t: ThresholdPair | None = None) -> float:
    """Per-observation asymptotic variance: theta^2 / ARE (theta^2 for MLE)."""
    if method == "mle":
        return theta * theta
    if method not in _ARE_DISPATCH:
        raise ValueError(f"unknown method {method!r}")
    if t is None:
        raise ValueError(f"method {method!r} needs thresholds")
    efficiency = are(method, theta, t)
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
    """J(a, 1-b), the variance of Exp(1) winsorized at its a and 1-b quantiles.

    An asymptotic variance is the mean square of the influence curve
    (F. R. Hampel, *JASA* 69, 1974), so J = E[(clip(X, d, u) - W)^2] with
    d = Q(a), u = Q(1-b) and W the winsorized mean:
    a (d - W)^2 + b (u - W)^2 + integral of (Q(v) - W)^2 over (a, 1-b).
    W comes from the influence curve's centred winsorized variable and the
    integral from the same tanh-sinh rule.  This is the cross-check;
    :func:`are_mtm` uses J in closed form.
    """
    if not (0 <= a < one_minus_b <= 1):
        raise ValueError(f"need 0 <= a < 1-b <= 1, got a={a!r}, 1-b={one_minus_b!r}")
    b = 1.0 - one_minus_b  # 1 when 1-b is below about 1e-16: u comes from 1-b itself
    F = adapter_from_model(ExponentialModel(1.0))
    d, u = F.quantile(a), math.inf if b == 0.0 else F.quantile(one_minus_b)
    d_w, u_w = _centred_winsorized(F, a, b, d, u, np.array([d, u])).tolist()
    w = d - d_w

    def centred_square(x):
        c = x - w
        return c * c

    tails = a * d_w * d_w + (b * u_w * u_w if b > 0.0 else 0.0)
    return tails + _integrate(F, a, one_minus_b, centred_square)


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

    :func:`mtm_integral_J` is the cross-check: J as the mean squared
    influence curve, by quadrature.  (a, b) must pass the rule that forms
    thresholds from tail probabilities everywhere else.
    """
    _check_tail_probabilities(a, b)
    i_val = mtm_integral_I(a, 1.0 - b)
    return i_val * i_val / _mtm_j(a, b)


def _centred_winsorized(F: DistributionAdapter, a: float, b: float, d: float, u: float, x):
    """clip(x, d, u) - W, W = a d + b u + integral of F^{-1} over (a, 1-b), for any x.

    The integral is the framework's tanh-sinh quadrature, which calls the
    quantile on arrays of nodes (see :class:`DistributionAdapter`); with
    b = 0 and an infinite mean it raises :class:`QuadratureError`.
    """
    integral = _integrate(F, a, 1.0 - b, lambda x: x)
    tails = (a * d if a > 0.0 else 0.0) + (b * u if b > 0.0 else 0.0)
    return np.clip(x, d, u) - (tails + integral)


def influence_mtm(F: DistributionAdapter, a: float, b: float, x: float) -> float:
    """Influence function of the (a, b) trimmed mean at contamination point x.

    It is the centred winsorized variable (clip(x, d, u) - W) / (1 - a - b):
    d = F^{-1}(a), u = F^{-1}(1-b) (infinite when b = 0) and the winsorized
    mean W = a d + b u + integral of F^{-1}(v) over (a, 1-b).  The integral
    calls the quantile on arrays of nodes, as :class:`DistributionAdapter`
    describes.  With b = 0 the model needs a finite mean, and an infinite
    one raises :class:`QuadratureError`; x = inf then gives inf.
    """
    d, u = _quantile_thresholds(F, a, b)
    return float(_centred_winsorized(F, a, b, d, u, x)) / (1.0 - a - b)


def influence_mcm(F: DistributionAdapter, t: ThresholdPair, x: float) -> float:
    """Influence function of the interval-censored mean at contamination point x.

    The thresholds map to tail probabilities a = F(d), b = 1 - F(u); the
    value is clip(x, d, u) - W, the censored variable minus its mean W, which
    is (1 - a - b) times the trimmed-mean influence at the same x.
    """
    a, below_u = F.cdf(t.d), F.cdf(t.u)
    if not a < below_u:
        raise ValueError(f"window ({t.d}, {t.u}) carries no probability mass")
    return float(_centred_winsorized(F, a, 1.0 - below_u, t.d, t.u, x))


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
    a: float
    b: float
    d: float
    u: float
    are: float | None


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

    Thresholds are the quantiles of Exp(theta) that
    :func:`~severfit.framework._quantile_thresholds` forms, once per (a, b).
    A pair it refuses (a + b too close to 1) is reported with ``are=None``,
    and with d from (a, 0) and u from (0, b).
    """
    a_values = tuple(a_grid) if a_grid is not None else default_grid()
    b_values = tuple(b_grid) if b_grid is not None else default_grid()
    for grid, name in ((a_values, "a_grid"), (b_values, "b_grid")):
        if list(grid) != sorted(grid):
            raise ValueError(f"{name} must be sorted ascending")
    methods = tuple(methods)
    for method in methods:
        if method not in _ARE_DISPATCH:
            raise ValueError(f"unknown method {method!r}")
    F = adapter_from_model(ExponentialModel(theta))
    cells = []
    for a in a_values:
        for b in b_values:
            try:
                d, u = _quantile_thresholds(F, a, b)
            except ValueError as refused:
                try:
                    d, u = _quantile_thresholds(F, a, 0.0)[0], _quantile_thresholds(F, 0.0, b)[1]
                except ValueError:  # an a or b that no pair admits: name the grid's pair
                    raise refused from None
                cells.append((a, b, d, u, None))
            else:
                cells.append((a, b, d, u, ThresholdPair(d, u)))
    out: list[AREReport] = []
    for method in methods:
        for a, b, d, u, t in cells:
            out.append(AREReport(method, a, b, d, u, None if t is None else are(method, theta, t)))
    return out


def _fmt(value: float | None) -> str:
    """CSV number: shortest round-trip repr (``inf``, ``-inf``), empty for None."""
    if value is None:
        return ""
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
