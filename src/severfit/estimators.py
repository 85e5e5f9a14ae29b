"""Sample moment statistics and the moment-matching solvers.

Each solver matches a sample statistic to its strictly monotone population
counterpart and refuses to report a point estimate when the statistic falls
outside the open interval the matching equation can reach.  Window
indicators are left-open right-closed throughout: a value equal to the lower
threshold is excluded, one equal to the upper threshold included.
"""

from __future__ import annotations

import math
import mmap
import os
import sys
import warnings
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import asymptotics
from .dist import ThresholdPair
from .errors import DegenerateError, EmptyWindowError, SolverStallError
from .moments import (
    _log_thresholds,
    mu_mcm,
    mu_mcm_dtheta,
    mu_mtcm,
    mu_mtcm_dtheta,
    mu_mtum,
    mu_mtum_dtheta,
)

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
_EPS = math.ulp(1.0)


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


def _window(x: np.ndarray, t: ThresholdPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one pass over the data: per row of ``x``, the count above d, the
    count inside (d, u] and the sum inside.

    The sum adds every value times its 0/1 indicator, so it adds the same
    non-negative terms as a masked sum, plus zeros.  The counts are summed in
    int32 where a row is shorter than 2^31 (``count_nonzero`` sums in int64,
    about twice as slow); they are exact either way.
    """
    above_d = x > t.d
    inside = above_d & (x <= t.u)
    total = (x * inside).sum(axis=1)
    count = np.int32 if x.shape[1] < 2**31 else np.intp
    return above_d.sum(axis=1, dtype=count), inside.sum(axis=1, dtype=count), total


# Row-wise statistics from a ``_window`` triple of rows of n values:
# (mu_hat, count of observations averaged); mu_hat is NaN where the count is 0.


def _mtum_statistic(window, n: int, t: ThresholdPair) -> tuple[np.ndarray, np.ndarray]:
    """Mean of the observations inside (d, u]."""
    _, count, total = window
    with np.errstate(invalid="ignore"):
        return total / count, count


def _mcm_statistic(window, n: int, t: ThresholdPair) -> tuple[np.ndarray, np.ndarray]:
    """Mean over all n observations with values clamped to the thresholds."""
    above_d, inside, total = window
    above_u = 0.0 if t.upper_is_infinite else t.u * (above_d - inside)
    return (t.d * (n - above_d) + total + above_u) / n, np.full(len(total), n)


def _mtcm_statistic(window, n: int, t: ThresholdPair) -> tuple[np.ndarray, np.ndarray]:
    """Payment-type statistic: censored-above sum over the count above d."""
    above_d, inside, total = window
    if not t.upper_is_infinite:
        total = total + t.u * (above_d - inside)
    with np.errstate(invalid="ignore"):
        return total / above_d, above_d


def _sample_statistic(
    method: str, data: Sequence[float], t: ThresholdPair
) -> tuple[float, int, int]:
    """(mu_hat, count averaged, n) of one sample by ``method``'s statistic."""
    x = _as_data(data).reshape(1, -1)
    with np.errstate(over="ignore"):
        mu_hat, count = _METHODS[method].statistic(_window(x, t), x.shape[1], t)
    if np.isinf(mu_hat[0]):
        raise ValueError(f"the {method} statistic of the data overflows the float range")
    return float(mu_hat[0]), int(count[0]), x.shape[1]


def sample_mtum(data: Sequence[float], t: ThresholdPair) -> SampleMoments:
    """Mean of the observations inside (d, u]."""
    mu_hat, count, n = _sample_statistic("mtum", data, t)
    if count == 0:
        raise EmptyWindowError(f"no observations in ({t.d}, {t.u}]")
    return SampleMoments(mu_hat=mu_hat, n=n, n_window=count)


def sample_mcm(data: Sequence[float], t: ThresholdPair) -> SampleMoments:
    """Mean over all n observations with values clamped to the thresholds."""
    mu_hat, _, n = _sample_statistic("mcm", data, t)
    return SampleMoments(mu_hat=mu_hat, n=n)


def sample_mtcm(data: Sequence[float], t: ThresholdPair) -> SampleMoments:
    """Payment-type statistic: censored-above sum over the count above d."""
    mu_hat, above_d, n = _sample_statistic("mtcm", data, t)
    if above_d == 0:
        raise EmptyWindowError(f"no observations above {t.d}")
    return SampleMoments(mu_hat=mu_hat, n=n, n_above_d=above_d)


def mle_exp(data: Sequence[float]) -> EstimateResult:
    """Maximum likelihood for Exp(theta): the sample mean, avar theta^2.

    A mean of zero is at the lower end of the attainable interval (0, inf), so
    all-zero data have no estimate (``BELOW_LOWER_BOUND``).
    """
    x = _as_data(data)
    if np.any(x < 0):
        raise ValueError("exponential data must be non-negative")
    with np.errstate(over="ignore"):
        theta_hat = float(x.mean())
    if theta_hat == math.inf:
        raise ValueError("the sum of the data overflows the float range")
    if theta_hat == 0.0:
        return _nonexistent("mle", BELOW_LOWER_BOUND)
    avar = theta_hat * theta_hat  # inf beyond the float range, as _with_avar reports it
    return EstimateResult(method="mle", model="exp", exists=True, estimate=theta_hat, avar=avar)


def mle_pareto1(data: Sequence[float], x0: float) -> EstimateResult:
    """Maximum likelihood for Pareto I via the log transform: 1 / mean(log(y/x0))."""
    return fit("mle", "pareto1", data, x0=x0)


def _solve_increasing(
    forward,
    slope,
    target: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    floor: float,
    *,
    resid_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Roots of forward(theta) = target, elementwise, for a strictly increasing
    forward map and its derivative ``slope``, both on arrays, where the map
    tends to ``floor`` as theta -> 0, given brackets lo <= root <= hi in exact
    arithmetic.

    With f = forward - target, rounding can put a bracket end's computed f on
    the root's side of zero.  Where f(hi) < 0, or lo == hi, the root is hi;
    where f(lo) >= 0 the bracket is (0, lo) with f(0) = floor - target, and
    theta = 0 is never evaluated.  Refinement evaluates one point x per
    iteration, and x replaces the bracket end a (f < 0) or b (f >= 0) on its
    side: f == 0 counts as the upper side, as in plain bisection, so on a
    plateau of computed zeros the bracket closes on the plateau's lower edge.
    The first point is the bracket's secant point, or, where f(hi) == 0, hi
    less the theta over which the map moves by one rounding step of the
    target; each later one is the Newton point x - f/f' kept inside the
    bracket ("rtsafe", Press et al., *Numerical Recipes*, 3rd ed., sec. 9.4):
    it is taken where it lands strictly inside (a, b) and its step is at
    most half the last one, else the element bisects.  A Newton step is at
    least a quarter of the bracket tolerance 1e-12 x, and at least one
    rounding step of the target, toward the root's side, so where Newton
    closes in from one side the next point crosses the root and the bracket
    closes from both sides; an exact hit (f == 0) takes that minimum step
    down.  Where f(b) was already 0 the element bisects instead: Newton and
    minimum steps would walk a plateau of computed zeros.
    An element stops when b - a <= 1e-12 a and |f| <= resid_tol at the
    latest point, or when a and b are adjacent doubles; its root is the
    bracket midpoint.

    Returns the roots, the iterations of each (the evaluation at hi counts as
    the first) and the bracket (lo, hi) that enclosed each root before it was
    refined; raises ``SolverStallError`` when any element stalls.
    """
    f_lo, f_hi = forward(lo) - target, forward(hi) - target
    at_hi = (f_hi < 0.0) | (lo == hi)
    theta = np.where(at_hi, hi, np.nan)
    iterations = np.ones(target.shape, dtype=int)
    swap = ~at_hi & (f_lo >= 0.0)
    lo, hi = np.where(swap, 0.0, lo), np.where(swap, lo, hi)
    f_lo, f_hi = np.where(swap, floor - target, f_lo), np.where(swap, f_lo, f_hi)

    # Refine on compacted copies; ``idx`` maps them back.  Every element
    # enters the loop at once, so one count serves them all.
    idx = np.flatnonzero(~at_hi)
    a, b, target = lo[idx], hi[idx], target[idx]
    fa, fb = f_lo[idx], f_hi[idx]
    fb_nonzero = fb != 0.0
    count = 1
    # x/0, 0/0 and overflow where the slope underflows: the Newton step is
    # then infinite or NaN, fails the tests and the element bisects
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = a - fa / (fb - fa) * (b - a)
        hit = np.flatnonzero(fb == 0.0)  # the secant point is hi itself there
        x[hit] = b[hit] - _EPS * target[hit] / slope(b[hit])
        x = np.where((a < x) & (x < b), x, 0.5 * a + 0.5 * b)  # a + b may overflow
        reach = 0.5 * (b - a)  # half the last step
        while idx.size:
            if count >= _MAX_SOLVER_ITER:
                raise SolverStallError(f"no convergence after {_MAX_SOLVER_ITER} iterations")
            count += 1
            fx = forward(x) - target
            below = fx < 0.0
            np.copyto(a, x, where=below)
            np.copyto(b, x, where=~below)
            free = fb_nonzero
            fb_nonzero = (fx > 0.0) | (below & fb_nonzero)
            width = b - a
            size = np.abs(fx)  # |f|, then the length of the step from x
            # a and b adjacent doubles (or, below 1e-292, two apart): the
            # bracket cannot shrink further
            finished = (((width <= 1e-12 * a) & (size <= resid_tol))
                        | (width <= _EPS * a + 5e-324))
            fprime = slope(x)
            size /= fprime
            newton = (size <= reach) & free
            # eps target is one to two rounding steps of the target; x is a or
            # b, so the step lands inside (a, b) where it is shorter than b - a
            size = np.maximum(size, np.maximum(2.5e-13 * x, _EPS * target / fprime))
            newton &= size < width
            size = np.where(newton, size, 0.5 * width)
            x = x - np.copysign(size, fx)  # toward the root's side; down from f == 0
            reach = 0.5 * size
            if finished.any():
                done = np.flatnonzero(finished)
                theta[idx[done]] = 0.5 * a[done] + 0.5 * b[done]
                iterations[idx[done]] = count
                keep = np.flatnonzero(~finished)
                idx, a, b, x, fb_nonzero, reach, target = (
                    v[keep] for v in (idx, a, b, x, fb_nonzero, reach, target)
                )
    return theta, iterations, lo, hi


def _nonexistent(method: str, reason: str) -> EstimateResult:
    return EstimateResult(
        method=method, model="exp", exists=False, estimate=None, avar=None, reason=reason
    )


@dataclass(frozen=True)
class _Method:
    """A row-wise statistic of the ``_window`` triple, its population map
    (increasing in theta from d up to ``sup(t)``), the map's closed-form
    slope d map / d theta (one formula, with a series branch below its
    switch), both on floats or arrays, and an upper bound on the root of map = d + m."""

    statistic: Callable[[tuple, int, ThresholdPair], tuple[np.ndarray, np.ndarray]]
    forward: Callable[[np.ndarray, ThresholdPair], np.ndarray]
    slope: Callable[[np.ndarray, ThresholdPair], np.ndarray]
    sup: Callable[[ThresholdPair], float]
    upper: Callable[[np.ndarray, ThresholdPair], np.ndarray]


# Rows reach the maps through their module names, so a wrapper installed on
# ``estimators.mu_*`` sees every call.  Each map is at most d + theta, so
# m = mu_hat - d bounds its root below.  ``upper`` inverts a lower bound on
# the map (w = u - d, x = w/theta); with u infinite it is the root in closed
# form, m for MTuM and MTCM and mu_hat for MCM with d = 0:
#   MTuM  (mu - d)/w = 1/x - 1/(e^x - 1) >= max(1/(x + 2), 1/2 - x/12)
#   MCM   mu - d = theta p >= (theta - d) x/(1 + x)
#   MTCM  (mu - d)/theta = 1 - e^-x >= max(x/(1 + x), x - x^2/2)
_METHODS = {
    "mtum": _Method(
        _mtum_statistic, lambda theta, t: mu_mtum(theta, t), mu_mtum_dtheta,
        sup=lambda t: 0.5 * (t.d + t.u),
        upper=lambda m, t: np.minimum(m, (t.u - t.d) / 6.0) / (1.0 - 2.0 * m / (t.u - t.d)),
    ),
    "mcm": _Method(
        _mcm_statistic, lambda theta, t: mu_mcm(theta, t), mu_mcm_dtheta, sup=lambda t: t.u,
        upper=lambda m, t: (m + t.d) / (1.0 - m / (t.u - t.d)),
    ),
    "mtcm": _Method(
        _mtcm_statistic, lambda theta, t: mu_mtcm(theta, t), mu_mtcm_dtheta, sup=lambda t: t.u,
        upper=lambda m, t: np.minimum(m, (t.u - t.d) / 2.0) / (1.0 - m / (t.u - t.d)),
    ),
}
FIT_METHODS = ("mle", *_METHODS)


@dataclass(frozen=True)
class _Roots:
    """Thetas matching a batch of statistics: ``estimate`` and the bracket
    are NaN where ``reason`` names why there is none."""

    estimate: np.ndarray
    reason: np.ndarray
    iterations: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def result(self, method: str, i: int = 0) -> EstimateResult:
        """Element ``i`` as an ``EstimateResult`` without avar."""
        if self.reason[i] is not None:
            return _nonexistent(method, self.reason[i])
        return EstimateResult(
            method, "exp", True, float(self.estimate[i]), None,
            iterations=int(self.iterations[i]), bracket=(float(self.lo[i]), float(self.hi[i])),
        )


def _root(method: str, mu_hat, t: ThresholdPair) -> _Roots:
    """Thetas matching each of ``mu_hat`` (a float or an array), without avar.

    A statistic within a guard band (relative to the window width, or to d
    when u is infinite) of the attainable interval's ends has no root.  Every
    other one is bracketed by [mu_hat - d, upper] before its first
    refinement step.
    """
    mu = np.atleast_1d(np.asarray(mu_hat, dtype=float))
    finite = np.isfinite(mu)
    if not np.all(finite):
        raise ValueError(
            f"mu_hat must be finite: {mu.size - np.count_nonzero(finite)} of {mu.size} "
            f"values are not, the first {float(mu[~finite][0])!r}"
        )
    spec = _METHODS[method]
    scale = (t.u - t.d) if not t.upper_is_infinite else t.d
    guard = _BOUNDARY_GUARD * scale
    below = mu <= t.d + guard
    above = ~below & (mu >= spec.sup(t) - guard)
    inside = ~(below | above)
    with np.errstate(over="ignore"):
        upper = spec.upper(mu[inside] - t.d, t)
    if np.isinf(upper).any():  # a bound beyond the float range, and maybe the root too
        if np.max(mu[inside]) > spec.forward(sys.float_info.max, t):
            raise ValueError(f"the {method} estimate lies beyond the float range")
        upper = np.minimum(upper, sys.float_info.max)
    estimate = np.full(mu.shape, np.nan)
    iterations = np.zeros(mu.shape, dtype=int)
    lo, hi = estimate.copy(), estimate.copy()
    estimate[inside], iterations[inside], lo[inside], hi[inside] = _solve_increasing(
        lambda theta: spec.forward(theta, t), lambda theta: spec.slope(theta, t),
        mu[inside], mu[inside] - t.d, upper, t.d, resid_tol=1e-10 * max(1.0, scale),
    )
    reason = np.where(below, BELOW_LOWER_BOUND, np.where(above, ABOVE_UPPER_BOUND, None))
    return _Roots(estimate, reason, iterations, lo, hi)


def _with_avar(result: EstimateResult, t: ThresholdPair) -> EstimateResult:
    """Attach the asymptotic variance at the estimate to an existing root."""
    if not result.exists:
        return result
    try:
        avar = asymptotics.avar(result.method, result.estimate, t)
    except DegenerateError:  # the window's mass underflows: beyond the float range
        avar = math.inf
    return replace(result, avar=avar)


def _estimates(
    methods: Sequence[str], stats: tuple, n: int, t: ThresholdPair
) -> dict[str, np.ndarray]:
    """Theta for each row of samples of size n by each of ``methods``, without
    avar, from one ``_root`` batch per method; NaN where a row has none (an empty
    window or a statistic outside the attainable interval).  ``stats`` holds one
    array per statistic, taken on the thresholds ``t``: the ``_window`` triple,
    then the row sums if "mle" is among ``methods``.  The Monte Carlo engine
    passes statistics drawn on unit thresholds (``mc._ratios``), so its
    estimates are the ratios theta_hat/theta."""
    estimates = {}
    for method in methods:
        if method == "mle":
            estimates[method] = stats[-1] / n
            continue
        mu_hat, count = _METHODS[method].statistic(stats[:3], n, t)
        estimates[method] = estimate = np.full(len(count), np.nan)
        filled = count > 0
        estimate[filled] = _root(method, mu_hat[filled], t).estimate
    return estimates


def _on_pareto_scale(result: EstimateResult) -> EstimateResult:
    """A fit to log(y/x0) as a Pareto I fit: alpha = 1/theta, avar * alpha^4."""
    if not result.exists:
        return replace(result, model="pareto1")
    alpha_hat = 1.0 / result.estimate
    return replace(result, model="pareto1", estimate=alpha_hat, avar=result.avar * alpha_hat**4)


def solve_mtum_exp(mu_hat: float, t: ThresholdPair) -> EstimateResult:
    """Match the truncated mean; a root exists only for d < mu_hat < (d+u)/2."""
    return _with_avar(_root("mtum", mu_hat, t).result("mtum"), t)


def solve_mcm_exp(mu_hat: float, t: ThresholdPair) -> EstimateResult:
    """Match the censored mean; a root exists only for d < mu_hat < u."""
    return _with_avar(_root("mcm", mu_hat, t).result("mcm"), t)


def solve_mtcm_exp(mu_hat: float, t: ThresholdPair) -> EstimateResult:
    """Match the payment-type mean; a root exists only for d < mu_hat < u."""
    return _with_avar(_root("mtcm", mu_hat, t).result("mtcm"), t)


def solve_mtum_pareto1(mu_hat: float, t: ThresholdPair, x0: float) -> EstimateResult:
    """Match the truncated log-mean of Pareto I data: the exponential MTuM fit
    on the log window, reported as alpha = 1/theta.

    ``mu_hat`` is the truncated sample mean of log(y/x0) over d < y <= u
    (finite u); the root is found in theta = 1/alpha on the log scale.
    """
    if t.upper_is_infinite:
        raise ValueError("solve_mtum_pareto1 requires a finite upper threshold")
    return _on_pareto_scale(solve_mtum_exp(mu_hat, _log_thresholds(t, x0)))


# Public samplers and solvers by method name, through which ``fit`` estimates.
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
    thresholds.  An empty window, or all-zero data under the MLE, gives
    ``exists=False``.
    """
    if method not in FIT_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if model not in ("exp", "pareto1"):
        raise ValueError(f"unknown model {model!r}")
    x = _as_data(data)

    if model == "pareto1":
        if x0 is None:
            raise ValueError("Pareto fits need x0")
        if not 0 < x0 < math.inf:
            raise ValueError(f"x0 must be a positive finite real, got {x0!r}")
        if np.any(x <= x0):
            raise ValueError(f"Pareto data must exceed x0 = {x0!r}")
        t_log = None if t is None or method == "mle" else _log_thresholds(t, x0)
        # y / x0 overflows where log(y / x0) is still finite
        logs = np.log(x / x0) if float(x.max()) / x0 < math.inf else np.log(x) - math.log(x0)
        return _on_pareto_scale(fit(method, "exp", logs, t_log))

    if np.any(x < 0):
        raise ValueError("exponential data must be non-negative")
    if method == "mle":
        return mle_exp(x)
    if t is None:
        raise ValueError(f"method {method!r} needs thresholds")
    try:
        mu_hat = _SAMPLERS[method](x, t).mu_hat
    except EmptyWindowError:
        return _nonexistent(method, EMPTY_WINDOW)
    return _EXP_SOLVERS[method](mu_hat, t)


# np.loadtxt decompresses a path by these suffixes; the line parser does not
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")
# A regular file is parsed in line ranges on the pool, one per worker, each of about this
# many bytes or more.  On 2 vCPUs (Xeon under KVM), where the pool starts in about 9 ms, a
# one-shot `severfit fit` was 0.89x as fast with two ranges of 1.5 MiB and 1.08x with two
# of 2 MiB; reads in a process that has started the pool stop losing near 1 MiB a range.
_RANGE_BYTES = 1 << 21
# newlines are counted in pieces of this many bytes, not in one copy of a range
_COUNT_BYTES = 1 << 20


def read_loss_csv(path: str | Path) -> np.ndarray:
    """Read loss data from a CSV file.

    Accepts a single unnamed column, or any number of named columns of
    which one is ``loss``.  Lines starting with ``#`` and blank lines are
    skipped.  Malformed rows raise ValueError naming the line number.

    The file is opened once, and its first row, the first line that is
    neither blank nor a comment, is read once (``_first_row``).  The rest of
    a regular file goes to ``np.loadtxt``'s C parser (``_parse``): a large
    file in contiguous line ranges (``_line_ranges``) of ``_RANGE_BYTES`` or
    more, one per worker of the process pool ``simulate`` keeps, capped by
    ``SEVERFIT_THREADS``, and joined in order.  A range that warns (a blank
    line), or a broken pool, sends the file to the parser in one piece, so
    the array is the same at any worker count.  A file that parser refuses,
    in a range or in one piece, or would misread (``_comment_after``), and
    any other file or stream, goes on to the line parser,
    ``_read_loss_lines``, right after the first row.  Every token the C
    parser accepts gets ``float``'s value, so both routes give the same
    array, and ``_first_row`` and the line parser alone decide every error
    message.
    """
    with open(path, encoding="utf-8") as handle:
        rows = enumerate(handle, start=1)
        lineno, column, first = _first_row(path, rows)
        # a pipe or FIFO is read once, by the line parser
        if os.path.isfile(path) and not str(path).endswith(_COMPRESSED_SUFFIXES):
            source = os.path.abspath(path)  # so numpy's DataSource sees no URL scheme
            skip = lineno if first is None else lineno - 1
            ranges = _line_ranges(handle, skip)
            try:  # a UnicodeDecodeError is a ValueError
                values = _parse_ranges(source, column, ranges)
                if values is None:
                    values = _parse(source, column, skip)
                if not (column and _comment_after(handle, lineno)):
                    return values
            except (ValueError, UserWarning):
                pass
        return _read_loss_lines(path, rows, column, first)


def _parse(path: str, column: int, skiprows: int, max_rows: int | None = None) -> np.ndarray:
    """``np.loadtxt`` on the lines of ``path`` past the first ``skiprows``,
    ``max_rows`` of them when given, with a ``UserWarning`` raised."""
    with warnings.catch_warnings():
        # an empty body warns "input contained no data", and a blank line
        # "contained no data and will not be counted towards max_rows"
        warnings.simplefilter("error", UserWarning)
        return np.loadtxt(
            path, dtype=float, delimiter=",", comments=None, skiprows=skiprows,
            max_rows=max_rows, usecols=column, ndmin=1, encoding="utf-8",
        )


def _line_ranges(handle, skip: int) -> list[tuple[int, int | None]]:
    """The lines of the open file past the first ``skip`` as contiguous
    ``(skiprows, max_rows)`` ranges of near-equal bytes, the last to the end:
    one per worker (``SEVERFIT_THREADS`` or the CPU count), and no more than
    the file's size holds ``_RANGE_BYTES``.  None where they are parsed in
    one piece: where that allows one range, or in a file holding a carriage
    return, which ends lines as a newline does, but the ranges are cut and
    counted at newlines alone.
    """
    most = os.fstat(handle.fileno()).st_size // _RANGE_BYTES
    if most < 2:
        return []
    from . import mc  # mc imports this module

    workers = min(mc.worker_count(), os.cpu_count() or 1, most)
    if workers < 2:
        return []
    with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as data:
        if data.find(b"\r") >= 0:
            return []
        start = 0
        for _ in range(skip):
            start = data.find(b"\n", start) + 1
            if not start:
                return []
        size, cuts = len(data), [start]
        for k in range(1, workers):
            cut = data.find(b"\n", max(cuts[-1], start + (size - start) * k // workers)) + 1
            if 0 < cut < size:
                cuts.append(cut)
        ranges = []
        for lo, hi in zip(cuts, cuts[1:]):
            lines = sum(
                data[at : min(at + _COUNT_BYTES, hi)].count(b"\n")
                for at in range(lo, hi, _COUNT_BYTES)
            )
            ranges.append((skip, lines))
            skip += lines
    return ranges + [(skip, None)] if ranges else []


def _parse_ranges(path: str, column: int, ranges) -> np.ndarray | None:
    """``_parse`` on each line range on mc's kept pool (``mc._pool_map``),
    joined in order; None where there are no ranges, where a range warns (a
    blank line under ``max_rows``, which the parse in one piece skips), or
    where the pool is found broken.  A range that raises does so on a row the
    parse in one piece refuses too, as the parser reads each row alone
    (``usecols``), so its ValueError is raised here.
    """
    if not ranges:
        return None
    from concurrent.futures.process import BrokenProcessPool

    from . import mc  # mc imports this module

    n = len(ranges)
    try:
        parts = mc._pool_map(n, _parse, [path] * n, [column] * n, *zip(*ranges))
    except (UserWarning, BrokenProcessPool):
        return None
    return np.concatenate(parts)


def _comment_after(handle, lineno: int) -> bool:
    """Whether a line past line ``lineno`` of the open file starts with '#'.

    np.loadtxt reads such a line as a row (``comments=None``, so that a '#'
    inside a row stays an error), which it refuses where the '#' lies in the
    loss column, but not where the loss column is past column 0.
    """
    with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as data:
        start = 0
        for _ in range(lineno):  # a line ends at \n, \r or \r\n, as for the text reader
            end = data.find(b"\n", start)
            end = len(data) if end < 0 else end
            cr = data.find(b"\r", start, end)
            start = end + 1 if cr < 0 else cr + 1 + (data[cr + 1 : cr + 2] == b"\n")
        at = data.find(b"#", start)
        while at >= 0:
            begin = max(data.rfind(b"\n", start, at), data.rfind(b"\r", start, at)) + 1
            if not data[max(begin, start) : at].decode("utf-8", "replace").strip():
                return True
            at = data.find(b"#", at + 1)
    return False


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.split(",")]


def _loss_column(path: str | Path, lineno: int, first: list[str]) -> tuple[int, bool]:
    """The ``loss`` column's index, and whether the first row is a header."""

    def is_number(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return True

    if not all(is_number(cell) for cell in first):
        header = [cell.lower() for cell in first]
        if "loss" not in header:
            raise ValueError(f"{path}: line {lineno}: header has no 'loss' column")
        return header.index("loss"), True
    if len(first) > 1:
        raise ValueError(
            f"{path}: line {lineno}: multiple columns need a header naming 'loss'"
        )
    return 0, False


def _first_row(path: str | Path, rows) -> tuple[int, int, float | None]:
    """The first of ``rows`` (``(lineno, text)`` pairs) that is neither blank
    nor a comment, under the header rules: its line number, the ``loss``
    column, and its value when it is data rather than a header."""
    for lineno, raw in rows:
        line = raw.strip()
        if line and not line.startswith("#"):
            cells = _cells(line)
            column, has_header = _loss_column(path, lineno, cells)
            return lineno, column, None if has_header else float(cells[0])
    raise ValueError(f"{path}: no data rows")


def _read_loss_lines(path: str | Path, rows, column: int, first: float | None) -> np.ndarray:
    """The line parser: the rows after ``_first_row``'s, in one pass that keeps
    only the floats, after ``first`` when the first row is data.  The first
    fault read is the one reported."""
    values = array("d", () if first is None else (first,))
    for lineno, raw in rows:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = _cells(line)
        if column >= len(cells):
            raise ValueError(f"{path}: line {lineno}: missing 'loss' column")
        token = cells[column]
        try:
            values.append(float(token))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: not a number: {token!r}") from None
    if not values:
        raise ValueError(f"{path}: no data rows")
    return np.frombuffer(values, dtype=float)
