"""Sample moment statistics and the moment-matching solvers.

Each solver matches a sample statistic to its strictly monotone population
counterpart and refuses to report a point estimate when the statistic falls
outside the open interval the matching equation can reach.  Window
indicators are left-open right-closed throughout: a value equal to the lower
threshold is excluded, one equal to the upper threshold included.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import asymptotics
from .dist import ParetoIModel, ThresholdPair, log_transform_pareto_to_exp
from .errors import DegenerateError, EmptyWindowError, SolverStallError
from .moments import mu_mcm, mu_mtcm, mu_mtum, pareto_g_du

__all__ = [
    "SampleMoments",
    "EstimateResult",
    "BELOW_LOWER_BOUND",
    "ABOVE_UPPER_BOUND",
    "EMPTY_WINDOW",
    "sample_mtum",
    "sample_mcm",
    "sample_mtcm",
    "mle_exp",
    "mle_pareto1",
    "solve_mtum_exp",
    "solve_mcm_exp",
    "solve_mtcm_exp",
    "solve_mtum_pareto1",
    "fit",
    "read_loss_csv",
]

BELOW_LOWER_BOUND = "BelowLowerBound"
ABOVE_UPPER_BOUND = "AboveUpperBound"
EMPTY_WINDOW = "EmptyWindow"

_BOUNDARY_GUARD = 1e-12
_MAX_SOLVER_ITER = 200


@dataclass(frozen=True)
class SampleMoments:
    """A method's sample statistic together with the counts behind it."""

    mu_hat: float
    n: int
    n_window: int | None = None
    n_above_d: int | None = None


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of a fit: point estimate when the matching equation has a root.

    ``estimate`` is theta for exponential fits and alpha for Pareto fits;
    ``avar`` is the per-observation asymptotic variance at the estimate
    (n times the estimator variance).  ``reason`` explains a missing
    estimate: a statistic outside the attainable interval
    (``BELOW_LOWER_BOUND``, ``ABOVE_UPPER_BOUND``) or an empty window
    (``EMPTY_WINDOW``).  ``bracket`` is the theta interval that enclosed the
    root before it was refined (on the log scale for Pareto fits).
    """

    method: str
    model: str
    exists: bool
    estimate: float | None
    avar: float | None
    reason: str | None = None
    iterations: int = 0
    bracket: tuple[float, float] | None = None


def _as_data(data: Sequence[float]) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.size == 0:
        raise ValueError("data must be non-empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("data must be finite")
    return x


def sample_mtum(data: Sequence[float], t: ThresholdPair) -> SampleMoments:
    """Mean of the observations inside (d, u]."""
    x = _as_data(data)
    mask = (x > t.d) & (x <= t.u)
    count = int(mask.sum())
    if count == 0:
        raise EmptyWindowError(f"no observations in ({t.d}, {t.u}]")
    return SampleMoments(mu_hat=float(x[mask].sum() / count), n=x.size, n_window=count)


def sample_mcm(data: Sequence[float], t: ThresholdPair) -> SampleMoments:
    """Mean over all n observations with values clamped to the thresholds."""
    x = _as_data(data)
    total = (
        t.d * int((x <= t.d).sum())
        + float(x[(x > t.d) & (x <= t.u)].sum())
        + (t.u * int((x > t.u).sum()) if not t.upper_is_infinite else 0.0)
    )
    return SampleMoments(mu_hat=total / x.size, n=x.size)


def sample_mtcm(data: Sequence[float], t: ThresholdPair) -> SampleMoments:
    """Payment-type statistic: censored-above sum over the count above d."""
    x = _as_data(data)
    above_d = int((x > t.d).sum())
    if above_d == 0:
        raise EmptyWindowError(f"no observations above {t.d}")
    total = float(x[(x > t.d) & (x <= t.u)].sum())
    if not t.upper_is_infinite:
        total += t.u * int((x > t.u).sum())
    return SampleMoments(mu_hat=total / above_d, n=x.size, n_above_d=above_d)


def mle_exp(data: Sequence[float]) -> EstimateResult:
    """Maximum likelihood for Exp(theta): the sample mean, avar theta^2."""
    x = _as_data(data)
    if np.any(x < 0):
        raise ValueError("exponential data must be non-negative")
    theta_hat = float(x.mean())
    if theta_hat == 0.0:
        raise DegenerateError("all observations are zero")
    return EstimateResult(
        method="mle", model="exp", exists=True, estimate=theta_hat, avar=theta_hat**2
    )


def mle_pareto1(data: Sequence[float], x0: float) -> EstimateResult:
    """Maximum likelihood for Pareto I via the log transform: 1 / mean(log(y/x0))."""
    x = _as_data(data)
    if np.any(x <= x0):
        raise ValueError(f"Pareto data must exceed x0 = {x0!r}")
    alpha_hat = 1.0 / float(np.log(x / x0).mean())
    return EstimateResult(
        method="mle", model="pareto1", exists=True, estimate=alpha_hat, avar=alpha_hat**2
    )


def _solve_increasing(
    forward,
    target: float,
    theta0: float,
    *,
    resid_tol: float,
    max_iter: int = _MAX_SOLVER_ITER,
) -> tuple[float, int, tuple[float, float]]:
    """Root of forward(theta) = target for a strictly increasing forward map.

    Brackets by doubling/halving from theta0, then runs a safeguarded
    secant/bisection hybrid until the theta bracket is relatively tight and
    the residual is below resid_tol.
    """
    iterations = 0
    lo = hi = max(theta0, 1e-6)
    f_lo = f_hi = forward(lo) - target
    while f_lo > 0.0:
        lo *= 0.5
        f_lo = forward(lo) - target
        iterations += 1
        if iterations > max_iter:
            raise SolverStallError("bracketing below failed")
    while f_hi < 0.0:
        hi *= 2.0
        f_hi = forward(hi) - target
        iterations += 1
        if iterations > max_iter:
            raise SolverStallError("bracketing above failed")
    bracket = (lo, hi)
    if f_lo == 0.0:
        return lo, iterations, bracket
    if f_hi == 0.0:
        return hi, iterations, bracket

    use_secant = True
    while iterations < max_iter:
        iterations += 1
        x = None
        if use_secant and f_hi != f_lo:
            secant = lo - f_lo * (hi - lo) / (f_hi - f_lo)
            if lo < secant < hi:
                x = secant
        if x is None:
            x = 0.5 * (lo + hi)
        use_secant = not use_secant  # alternate so the bracket provably shrinks
        fx = forward(x) - target
        if fx == 0.0:
            return x, iterations, bracket
        if fx < 0.0:
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
        if hi - lo <= 1e-12 * lo and abs(fx) <= resid_tol:
            return 0.5 * (lo + hi), iterations, bracket
    raise SolverStallError(f"no convergence after {max_iter} iterations")


def _nonexistent(method: str, reason: str) -> EstimateResult:
    return EstimateResult(
        method=method, model="exp", exists=False, estimate=None, avar=None, reason=reason
    )


@dataclass(frozen=True)
class _Method:
    """A window statistic, its population map (increasing in theta from d up to
    ``sup(t)``) and theta in closed form when u is infinite (None: solve)."""

    sample: Callable[[np.ndarray, ThresholdPair], SampleMoments]
    forward: Callable[[float, ThresholdPair], float]
    sup: Callable[[ThresholdPair], float]
    closed: Callable[[float, ThresholdPair], float | None]


# Rows reach the samplers and maps through their module names, so a wrapper
# installed on ``estimators.sample_*`` or ``estimators.mu_*`` sees every call.
_METHODS = {
    "mtum": _Method(
        lambda x, t: sample_mtum(x, t), lambda theta, t: mu_mtum(theta, t),
        sup=lambda t: 0.5 * (t.d + t.u), closed=lambda mu_hat, t: mu_hat - t.d,
    ),
    "mcm": _Method(
        lambda x, t: sample_mcm(x, t), lambda theta, t: mu_mcm(theta, t),
        sup=lambda t: t.u, closed=lambda mu_hat, t: mu_hat if t.d == 0.0 else None,
    ),
    "mtcm": _Method(
        lambda x, t: sample_mtcm(x, t), lambda theta, t: mu_mtcm(theta, t),
        sup=lambda t: t.u, closed=lambda mu_hat, t: mu_hat - t.d,
    ),
}


def _root(method: str, mu_hat: float, t: ThresholdPair, forward=None) -> EstimateResult:
    """Theta matching ``mu_hat``, without avar.

    A statistic within a guard band (relative to the window width) of the
    attainable interval's ends has no root.  ``forward`` replaces the
    method's population map; the Pareto solver passes its own.
    """
    if not math.isfinite(mu_hat):
        raise ValueError(f"mu_hat must be finite, got {mu_hat!r}")
    spec = _METHODS[method]
    scale = (t.u - t.d) if not t.upper_is_infinite else max(1.0, t.d)
    guard = _BOUNDARY_GUARD * scale
    if mu_hat <= t.d + guard:
        return _nonexistent(method, BELOW_LOWER_BOUND)
    if mu_hat >= spec.sup(t) - guard:
        return _nonexistent(method, ABOVE_UPPER_BOUND)
    closed = spec.closed(mu_hat, t) if t.upper_is_infinite else None
    if closed is not None:
        return EstimateResult(method, "exp", True, closed, None)
    forward = forward or spec.forward
    theta_hat, iters, bracket = _solve_increasing(
        lambda theta: forward(theta, t), mu_hat, mu_hat - t.d, resid_tol=1e-10 * max(1.0, scale)
    )
    return EstimateResult(method, "exp", True, theta_hat, None, iterations=iters, bracket=bracket)


def _with_avar(result: EstimateResult, t: ThresholdPair) -> EstimateResult:
    """Attach the asymptotic variance at the estimate to an existing root."""
    if not result.exists:
        return result
    return replace(result, avar=asymptotics.avar(result.method, result.estimate, t))


def _estimate(method: str, x: np.ndarray, t: ThresholdPair | None, solve=None) -> EstimateResult:
    """Window statistic, then ``solve(mu_hat, t)`` (default: the root without
    avar); an empty window has no estimate.  The MLE is the sample mean."""
    if method == "mle":
        return EstimateResult("mle", "exp", True, float(x.mean()), None)
    try:
        mu_hat = _METHODS[method].sample(x, t).mu_hat
    except EmptyWindowError:
        return _nonexistent(method, EMPTY_WINDOW)
    return solve(mu_hat, t) if solve else _root(method, mu_hat, t)


def _on_pareto_scale(result: EstimateResult) -> EstimateResult:
    """A fit to log(y/x0) as a Pareto I fit: alpha = 1/theta, avar * alpha^4."""
    if not result.exists:
        return replace(result, model="pareto1")
    alpha_hat = 1.0 / result.estimate
    return replace(result, model="pareto1", estimate=alpha_hat, avar=result.avar * alpha_hat**4)


def _log_thresholds(t: ThresholdPair, x0: float) -> ThresholdPair:
    return log_transform_pareto_to_exp(ParetoIModel(alpha=1.0, x0=x0), t)[1]


def solve_mtum_exp(mu_hat: float, t: ThresholdPair) -> EstimateResult:
    """Match the truncated mean; a root exists only for d < mu_hat < (d+u)/2."""
    return _with_avar(_root("mtum", mu_hat, t), t)


def solve_mcm_exp(mu_hat: float, t: ThresholdPair) -> EstimateResult:
    """Match the censored mean; a root exists only for d < mu_hat < u."""
    return _with_avar(_root("mcm", mu_hat, t), t)


def solve_mtcm_exp(mu_hat: float, t: ThresholdPair) -> EstimateResult:
    """Match the payment-type mean; a root exists only for d < mu_hat < u."""
    return _with_avar(_root("mtcm", mu_hat, t), t)


def solve_mtum_pareto1(mu_hat: float, t: ThresholdPair, x0: float) -> EstimateResult:
    """Match the truncated log-mean of Pareto I data through the Pareto map.

    ``mu_hat`` is the truncated sample mean of log(y/x0) over d < y <= u
    (finite u); the root is found in theta = 1/alpha on the log scale.
    """
    if t.upper_is_infinite:
        raise ValueError("solve_mtum_pareto1 requires a finite upper threshold")
    t_log = _log_thresholds(t, x0)
    result = _root("mtum", mu_hat, t_log, lambda theta, _: pareto_g_du(1.0 / theta, t, x0))
    return _on_pareto_scale(_with_avar(result, t_log))


# Public samplers and solvers by method name; ``fit`` solves through ``_EXP_SOLVERS``.
_SAMPLERS = {"mtum": sample_mtum, "mcm": sample_mcm, "mtcm": sample_mtcm}
_EXP_SOLVERS = {"mtum": solve_mtum_exp, "mcm": solve_mcm_exp, "mtcm": solve_mtcm_exp}


def fit(
    method: str,
    model: str,
    data: Sequence[float],
    t: ThresholdPair | None = None,
    x0: float | None = None,
) -> EstimateResult:
    """End-to-end estimate: sample statistic, existence check, root solve, avar.

    Pareto fits run on the log scale and report alpha = 1/theta with the
    delta-method variance alpha^4 * avar(theta).  The MLE path ignores
    thresholds.  An empty window gives ``exists=False``.
    """
    if method not in ("mle", "mtum", "mcm", "mtcm"):
        raise ValueError(f"unknown method {method!r}")
    if model not in ("exp", "pareto1"):
        raise ValueError(f"unknown model {model!r}")
    x = _as_data(data)

    if model == "pareto1":
        if x0 is None:
            raise ValueError("Pareto fits need x0")
        if np.any(x <= x0):
            raise ValueError(f"Pareto data must exceed x0 = {x0!r}")
        t_log = None if t is None or method == "mle" else _log_thresholds(t, x0)
        return _on_pareto_scale(fit(method, "exp", np.log(x / x0), t_log))

    if np.any(x < 0):
        raise ValueError("exponential data must be non-negative")
    if method == "mle":
        return mle_exp(x)
    if t is None:
        raise ValueError(f"method {method!r} needs thresholds")
    return _estimate(method, x, t, _EXP_SOLVERS[method])


def read_loss_csv(path: str | Path) -> np.ndarray:
    """Read loss data from a CSV file.

    Accepts a single unnamed column, or any number of named columns of
    which one is ``loss``.  Lines starting with ``#`` and blank lines are
    skipped.  Malformed rows raise ValueError naming the line number.
    """
    rows: list[tuple[int, list[str]]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            rows.append((lineno, [cell.strip() for cell in line.split(",")]))
    if not rows:
        raise ValueError(f"{path}: no data rows")

    first_lineno, first = rows[0]
    column = 0
    start = 0

    def is_number(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return True

    if not all(is_number(cell) for cell in first):
        header = [cell.lower() for cell in first]
        if "loss" not in header:
            raise ValueError(
                f"{path}: line {first_lineno}: header has no 'loss' column"
            )
        column = header.index("loss")
        start = 1
    elif len(first) > 1:
        raise ValueError(
            f"{path}: line {first_lineno}: multiple columns need a header naming 'loss'"
        )

    values = []
    for lineno, cells in rows[start:]:
        if column >= len(cells):
            raise ValueError(f"{path}: line {lineno}: missing 'loss' column")
        token = cells[column]
        try:
            values.append(float(token))
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: not a number: {token!r}"
            ) from None
    if not values:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(values, dtype=float)
