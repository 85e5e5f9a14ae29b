"""Parametric loss models (exponential, Pareto I), transforms, and sampling.

The exponential model is parameterized by its mean ``theta``; the Pareto I
model by the tail parameter ``alpha`` and a known left endpoint ``x0``.
``log(Y / x0)`` of a Pareto I variable is exponential with mean ``1 / alpha``,
and every routine downstream relies on that transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExponentialModel",
    "ParetoIModel",
    "RandomSource",
    "ThresholdPair",
    "exp_cdf",
    "exp_pdf",
    "exp_quantile",
    "pareto1_cdf",
    "pareto1_pdf",
    "pareto1_quantile",
    "regularized_incomplete_gamma3",
    "log_transform_pareto_to_exp",
    "sample",
]


@dataclass(frozen=True)
class ExponentialModel:
    """Exponential distribution with mean (scale) ``theta > 0``."""

    theta: float

    def __post_init__(self):
        if not (self.theta > 0 and math.isfinite(self.theta)):
            raise ValueError(f"theta must be a positive finite real, got {self.theta!r}")


@dataclass(frozen=True)
class ParetoIModel:
    """Single-parameter Pareto: cdf 1 - (x0/y)^alpha for y > x0, with x0 known and fixed."""

    alpha: float
    x0: float

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be a positive finite real, got {self.alpha!r}")
        if not (self.x0 > 0 and math.isfinite(self.x0)):
            raise ValueError(f"x0 must be a positive finite real, got {self.x0!r}")


@dataclass(frozen=True)
class ThresholdPair:
    """Lower/upper threshold pair ``0 <= d < u``; ``u`` may be ``math.inf``."""

    d: float
    u: float

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d >= 0):
            raise ValueError(f"lower threshold d must be finite and >= 0, got {self.d!r}")
        if not self.u > self.d:
            raise ValueError(f"thresholds must satisfy d < u, got d={self.d!r}, u={self.u!r}")

    @property
    def upper_is_infinite(self) -> bool:
        return math.isinf(self.u)


@dataclass
class RandomSource:
    """Deterministic uniform stream.

    Identical ``(seed, stream)`` pairs reproduce identical draw sequences;
    distinct stream indices give statistically independent streams that are
    safe to consume in parallel.  A source is single-owner: do not share one
    instance across workers.
    """

    seed: int
    stream: int = 0
    _generator: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if int(self.stream) < 0:
            raise ValueError(f"stream index must be non-negative, got {self.stream!r}")

    def generator(self) -> np.random.Generator:
        if self._generator is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
            self._generator = np.random.default_rng(ss)
        return self._generator

    def uniform(self, n: int | tuple[int, ...]) -> np.ndarray:
        """Next ``n`` uniforms on [0, 1), or an array of shape ``n`` filled row by row."""
        return self.generator().random(n)


def exp_cdf(m: ExponentialModel, x: float) -> float:
    """F(x) = 1 - exp(-x/theta) for x >= 0; accepts x = +inf."""
    if math.isnan(x) or x < 0:
        raise ValueError(f"exp_cdf requires x >= 0, got {x!r}")
    return -math.expm1(-x / m.theta)


def exp_pdf(m: ExponentialModel, x: float) -> float:
    if math.isnan(x) or x < 0:
        raise ValueError(f"exp_pdf requires x >= 0, got {x!r}")
    return math.exp(-x / m.theta) / m.theta


def exp_quantile(m: ExponentialModel, v: float) -> float:
    """Inverse cdf: -theta * log(1 - v) for 0 <= v < 1."""
    if not 0 <= v < 1:
        raise ValueError(f"exp_quantile requires 0 <= v < 1, got {v!r}")
    return -m.theta * math.log1p(-v)


def pareto1_cdf(m: ParetoIModel, y: float) -> float:
    """F(y) = 1 - (x0/y)^alpha for y > x0, zero at or below x0."""
    if math.isnan(y):
        raise ValueError("pareto1_cdf received NaN")
    if y <= m.x0:
        return 0.0
    if math.isinf(y):
        return 1.0
    return -math.expm1(m.alpha * math.log(m.x0 / y))


def pareto1_pdf(m: ParetoIModel, y: float) -> float:
    if math.isnan(y):
        raise ValueError("pareto1_pdf received NaN")
    if y <= m.x0 or math.isinf(y):
        return 0.0
    return (m.alpha / y) * math.exp(m.alpha * math.log(m.x0 / y))


def pareto1_quantile(m: ParetoIModel, v: float) -> float:
    if not 0 <= v < 1:
        raise ValueError(f"pareto1_quantile requires 0 <= v < 1, got {v!r}")
    return m.x0 * math.exp(-math.log1p(-v) / m.alpha)


def _taylor_tail(x: float, first: int, step: int) -> float:
    """Sum of x^n / n! over n = first, first + step, ... for 0 <= x <= 1.

    These are the leading terms closed forms in e^x cancel away:
    expm1(x) - x is the tail from n = 2, sinh(x) - x the odd tail from n = 3.
    """
    total, term, n = 0.0, x**first / math.factorial(first), first
    while total + term != total:
        total += term
        for _ in range(step):
            n += 1
            term *= x / n
    return total


def regularized_incomplete_gamma3(x: float) -> float:
    """Regularized lower incomplete gamma with shape 3.

    Closed form 1 - exp(-x) (1 + x + x^2/2); below x = 1, where the
    subtraction would lose relative precision, exp(-x) times the Taylor tail
    of e^x from n = 3.
    """
    if math.isnan(x) or x < 0:
        raise ValueError(f"incomplete gamma requires x >= 0, got {x!r}")
    if math.isinf(x):
        return 1.0
    if x < 1.0:
        return math.exp(-x) * _taylor_tail(x, 3, 1)
    return 1.0 - math.exp(-x) * (1.0 + x + 0.5 * x * x)


def log_transform_pareto_to_exp(
    m: ParetoIModel, thresholds: ThresholdPair
) -> tuple[ExponentialModel, ThresholdPair]:
    """Map a Pareto I problem (thresholds on the Y scale) to its exponential twin.

    Returns ``Exp(theta = 1/alpha)`` together with thresholds
    ``(log(d/x0), log(u/x0))``; ``d = x0`` maps to 0 and ``u = +inf`` stays infinite.
    """
    if thresholds.d < m.x0:
        raise ValueError(
            f"Pareto thresholds must satisfy d >= x0, got d={thresholds.d!r}, x0={m.x0!r}"
        )
    d2, u2 = _log_ratio(thresholds.d, m.x0), _log_ratio(thresholds.u, m.x0)
    return ExponentialModel(theta=1.0 / m.alpha), ThresholdPair(d2, u2)


def _log_ratio(y: float, x0: float) -> float:
    """log(y / x0), also where y / x0 overflows and log(y / x0) is still finite."""
    return math.log(y / x0) if y / x0 < math.inf else math.log(y) - math.log(x0)


def sample(
    m: ExponentialModel | ParetoIModel, n: int | tuple[int, ...], rng: RandomSource
) -> np.ndarray:
    """Draw ``n`` i.i.d. values, or an array of shape ``n`` such as ``(rows, size)``,
    by inverse cdf applied to the source's uniforms."""
    if np.any(np.asarray(n) < 1):
        raise ValueError(f"sample size must be >= 1, got {n!r}")
    v = rng.uniform(n)
    # Transformed in place: every fresh array of a large draw costs page faults.
    log_survival = np.log1p(np.negative(v, out=v), out=v)  # log(1 - v)
    if isinstance(m, ExponentialModel):
        return np.multiply(log_survival, -m.theta, out=log_survival)
    if isinstance(m, ParetoIModel):
        tail = np.divide(np.negative(log_survival, out=log_survival), m.alpha, out=log_survival)
        return np.multiply(np.exp(tail, out=tail), m.x0, out=tail)
    raise TypeError(f"unsupported model type {type(m).__name__}")
