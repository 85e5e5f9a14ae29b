"""Deterministic, parallel Monte Carlo engine for the simulation study.

Every (cell, block) owns one random stream derived from (master seed, cell,
block), and draws its replications from it as rows of a (reps, n) matrix, in
chunks that the estimators solve as one batch.  A block's result depends on
nothing else, so results are bit-identical regardless of execution order,
chunk size or worker count.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import asymptotics, estimators
from .asymptotics import _fmt
from .dist import ExponentialModel, RandomSource, ThresholdPair, sample
from .errors import ConfigError

__all__ = [
    "SimCell",
    "SimReport",
    "SimConfig",
    "HistogramPanel",
    "DEFAULT_SEED",
    "DESIGN_POINTS",
    "derive_stream",
    "cell_from_quantiles",
    "run_cell",
    "run_table",
    "sim_table_csv",
    "parse_sim_config",
    "build_cells",
    "histogram_study",
    "worker_count",
]

DEFAULT_SEED = 20201012
_INDEX_BITS = 21
_INDEX_CAP = 1 << _INDEX_BITS

# The study's default design: symmetric truncation levels plus two
# asymmetric points, applied at exact quantiles of the true model.
DESIGN_POINTS = (
    (0.00, 0.00),
    (0.05, 0.05),
    (0.10, 0.10),
    (0.15, 0.15),
    (0.25, 0.25),
    (0.10, 0.70),
    (0.25, 0.00),
)
DEFAULT_N_LIST = (50, 100, 250, 500, 1000)


def _check_method(method: str) -> None:
    if method not in ("mle", "mtum", "mcm", "mtcm"):
        raise ConfigError("methods", f"unknown method {method!r}")


@dataclass(frozen=True)
class SimCell:
    """One simulation configuration: a (sample size, method, design) cell."""

    n: int
    method: str
    theta_true: float
    thresholds: ThresholdPair
    replications_per_block: int = 2000
    blocks: int = 10
    seed: int = DEFAULT_SEED
    cell_index: int = 0
    a: float | None = None
    b: float | None = None
    model: str = "exp"
    x0: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n", f"sample size must be >= 1, got {self.n}")
        if self.replications_per_block < 1:
            raise ConfigError("reps", "replications_per_block must be >= 1")
        if self.blocks < 1:
            raise ConfigError("blocks", "blocks must be >= 1")
        _check_method(self.method)
        if self.model not in ("exp", "pareto1"):
            raise ConfigError("model", f"unknown model {self.model!r}")
        if not self.theta_true > 0:
            raise ConfigError("theta", "theta must be positive")


@dataclass(frozen=True)
class SimReport:
    """Aggregated cell statistics; ratio and RE are withheld when any
    replication failed its existence condition (mirroring how unreliable
    cells are left blank in reported tables) unless conditional reporting
    was requested."""

    mean_ratio: float | None
    se_mean_ratio: float | None
    re: float | None
    se_re: float | None
    failure_count: int
    total_samples: int


def derive_stream(master_seed: int, cell_index: int, block_index: int) -> RandomSource:
    """Collision-free stream for one (cell, block) pair; the engine draws a
    whole block from it.

    The two indices are packed into disjoint bit ranges (each must be below
    2^21) of the stream index ``(cell << 42) | (block << 21)``, so distinct
    pairs can never share a stream and the derivation is independent of
    execution order.
    """
    for name, idx in (("cell_index", cell_index), ("block_index", block_index)):
        if not 0 <= idx < _INDEX_CAP:
            raise ValueError(f"{name} must be in [0, {_INDEX_CAP}), got {idx}")
    stream = (cell_index << (2 * _INDEX_BITS)) | (block_index << _INDEX_BITS)
    return RandomSource(seed=master_seed, stream=stream)


def cell_from_quantiles(
    a: float, b: float, theta: float, n: int, method: str, **kwargs
) -> SimCell:
    """Build a cell whose thresholds are the exact (a, 1-b) quantiles."""
    d = -theta * math.log1p(-a)
    u = math.inf if b == 0.0 else -theta * math.log(b)
    return SimCell(
        n=n, method=method, theta_true=theta, thresholds=ThresholdPair(d, u),
        a=a, b=b, **kwargs,
    )


# A chunk holds about this many draws.  The generator continues one stream
# across calls, so the chunking changes no value.
_CHUNK_VALUES = 1 << 18


def _chunks(rows: int, n: int) -> list[int]:
    """Row counts of the consecutive chunks that cover ``rows`` rows of ``n`` values."""
    step = max(1, _CHUNK_VALUES // n)
    return [min(step, rows - start) for start in range(0, rows, step)]


def _run_block(cell: SimCell, block_index: int) -> tuple[int, int, float, float]:
    """(successes, failures, sum of theta_hat/theta, sum of squared errors)."""
    # A Pareto I(1/theta, x0) cell is fitted on log(y/x0), which is
    # Exp(theta) on the log-scale thresholds: it draws its exponential twin.
    model = ExponentialModel(cell.theta_true)
    theta = cell.theta_true
    rs = derive_stream(cell.seed, cell.cell_index, block_index)
    parts = []
    for rows in _chunks(cell.replications_per_block, cell.n):
        draws = sample(model, (rows, cell.n), rs)
        parts.append(estimators._estimates((cell.method,), draws, cell.thresholds)[cell.method])
    estimates = np.concatenate(parts)
    found = estimates[~np.isnan(estimates)]
    return (
        found.size, estimates.size - found.size,
        float(np.sum(found / theta)), float(np.sum((found - theta) ** 2)),
    )


def worker_count(requested: int | None = None) -> int:
    """Worker pool size: explicit argument, then SEVERFIT_THREADS, then CPU count."""
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("SEVERFIT_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _task_results(
    tasks: Sequence[tuple[SimCell, int]], workers: int | None
) -> list[tuple[int, int, float, float]]:
    """``_run_block`` on every (cell, block) task, through one process pool of
    at most one worker per task and per CPU, or in process when that is one."""
    size = min(worker_count(workers), len(tasks), os.cpu_count() or 1)
    if size <= 1:
        return [_run_block(cell, block) for cell, block in tasks]
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(_run_block, *zip(*tasks)))


def _mean_se(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def _report(
    cell: SimCell, results: Sequence[tuple[int, int, float, float]], conditional: bool
) -> SimReport:
    """The cell's report from its per-block results (see ``run_cell``)."""
    theta = cell.theta_true
    total = cell.blocks * cell.replications_per_block
    failure_count = sum(r[1] for r in results)
    if failure_count > 0 and not conditional:
        return SimReport(
            mean_ratio=None, se_mean_ratio=None, re=None, se_re=None,
            failure_count=failure_count, total_samples=total,
        )
    ratios = []
    res = []
    for successes, _, sum_ratio, sum_sq in results:
        if successes == 0:
            return SimReport(
                mean_ratio=None, se_mean_ratio=None, re=None, se_re=None,
                failure_count=failure_count, total_samples=total,
            )
        ratios.append(sum_ratio / successes)
        mse = sum_sq / successes
        res.append((theta * theta / cell.n) / mse)
    mean_ratio, se_ratio = _mean_se(ratios)
    re, se_re = _mean_se(res)
    return SimReport(
        mean_ratio=mean_ratio, se_mean_ratio=se_ratio, re=re, se_re=se_re,
        failure_count=failure_count, total_samples=total,
    )


def run_cell(
    cell: SimCell, *, conditional: bool = False, workers: int | None = None
) -> SimReport:
    """Simulate one cell: per-block averages of theta_hat/theta and of the
    relative efficiency (theta^2/n over the block's empirical mean squared
    error), then the across-block mean and standard error of each.
    """
    return run_table([cell], conditional=conditional, workers=workers)[0][1]


def run_table(
    cells: Sequence[SimCell], *, conditional: bool = False, workers: int | None = None
) -> list[tuple[SimCell, SimReport]]:
    """Run every cell; deterministic under a fixed master seed.

    Every (cell, block) of the table is one task, and one process pool runs
    them all.
    """
    tasks = [(cell, block) for cell in cells for block in range(cell.blocks)]
    results = iter(_task_results(tasks, workers))
    return [
        (cell, _report(cell, [next(results) for _ in range(cell.blocks)], conditional))
        for cell in cells
    ]


def sim_table_csv(results: Sequence[tuple[SimCell, SimReport]]) -> str:
    """Long-format CSV, one row per cell, plus an analytic large-n row
    (relative efficiency from the closed-form ARE) per method/design pair."""
    lines = ["method,a,b,d,u,n,mean_ratio,se_mean_ratio,re,se_re,failures,total"]
    for cell, report in results:
        lines.append(
            ",".join(
                [
                    cell.method,
                    _fmt(cell.a),
                    _fmt(cell.b),
                    _fmt(cell.thresholds.d),
                    _fmt(cell.thresholds.u),
                    str(cell.n),
                    _fmt(report.mean_ratio),
                    _fmt(report.se_mean_ratio),
                    _fmt(report.re),
                    _fmt(report.se_re),
                    str(report.failure_count),
                    str(report.total_samples),
                ]
            )
        )
    seen: list[tuple[str, float, float, ThresholdPair, float]] = []
    for cell, _ in results:
        key = (cell.method, cell.a, cell.b, cell.thresholds, cell.theta_true)
        if key not in seen and cell.method != "mle":
            seen.append(key)
    for method, a, b, t, theta in seen:
        are = asymptotics.are(method, theta, t)
        lines.append(
            f"{method},{_fmt(a)},{_fmt(b)},{_fmt(t.d)},{_fmt(t.u)},inf,"
            f"{_fmt(1.0)},,{_fmt(are)},,0,0"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SimConfig:
    """Parsed simulation configuration."""

    theta: float = 10.0
    methods: tuple[str, ...] = ("mtum", "mcm", "mtcm")
    design_points: tuple[tuple[float, float], ...] = DESIGN_POINTS
    n_list: tuple[int, ...] = DEFAULT_N_LIST
    blocks: int = 10
    reps: int = 2000
    seed: int = DEFAULT_SEED
    out: str | None = None


_PAIR_RE = re.compile(r"\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)")


def parse_sim_config(text: str) -> SimConfig:
    """Parse the line-oriented ``key = value`` simulation config format."""
    values: dict[str, object] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(line.split()[0], "expected 'key = value'")
        key, _, rhs = line.partition("=")
        key = key.strip().lower()
        rhs = rhs.strip()
        try:
            if key == "theta":
                values["theta"] = float(rhs)
            elif key == "methods":
                values["methods"] = tuple(m.strip().lower() for m in rhs.split(",") if m.strip())
            elif key == "design_points":
                pairs = _PAIR_RE.findall(rhs)
                if not pairs:
                    raise ValueError("no (a,b) pairs found")
                values["design_points"] = tuple((float(a), float(b)) for a, b in pairs)
            elif key == "n_list":
                values["n_list"] = tuple(int(v.strip()) for v in rhs.split(",") if v.strip())
            elif key == "blocks":
                values["blocks"] = int(rhs)
            elif key == "reps":
                values["reps"] = int(rhs)
            elif key == "seed":
                values["seed"] = int(rhs)
            elif key == "out":
                values["out"] = rhs
            else:
                raise ConfigError(key, "unknown key")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None
    return SimConfig(**values)  # type: ignore[arg-type]


def build_cells(config: SimConfig, *, full_scale: bool = False) -> list[SimCell]:
    """Expand a config into cells, one per (design point, n, method)."""
    reps = 10000 if full_scale else config.reps
    cells = []
    index = 0
    for a, b in config.design_points:
        for n in config.n_list:
            for method in config.methods:
                cells.append(
                    cell_from_quantiles(
                        a, b, config.theta, n, method,
                        replications_per_block=reps,
                        blocks=config.blocks,
                        seed=config.seed,
                        cell_index=index,
                    )
                )
                index += 1
    return cells


def _skewness(x: np.ndarray) -> float:
    """Bias-corrected sample skewness sqrt(n(n-1))/(n-2) * m3/m2^1.5, as
    ``scipy.stats.skew(x, bias=False)``; NaN for a constant sample.

    Written out because importing ``scipy.stats`` for it costs about 20 MB
    of resident memory and 0.4 s of import time.
    """
    n = x.size
    dev = x - x.mean()
    m2 = np.mean(dev**2)
    if m2 == 0.0:
        return math.nan
    m3 = np.mean(dev**2 * dev)
    return float(math.sqrt((n - 1.0) * n) / (n - 2.0) * m3 / m2**1.5)


@dataclass(frozen=True)
class HistogramPanel:
    """All estimates for one (method, n) panel plus summary shape statistics."""

    method: str
    n: int
    estimates: np.ndarray
    failures: int
    skewness: float
    bin_edges: np.ndarray
    bin_counts: np.ndarray


def histogram_study(
    n_list: Iterable[int],
    count: int,
    *,
    methods: Iterable[str] = ("mtum", "mcm", "mtcm"),
    theta: float = 10.0,
    thresholds: ThresholdPair = ThresholdPair(0.50, 23.00),
    seed: int = DEFAULT_SEED,
) -> list[HistogramPanel]:
    """Repeated estimation at small n for normality inspection.

    For each sample size, ``count`` samples are drawn from one stream, chunk
    by chunk, and every method is applied to the same samples; failed
    existence checks are dropped from that panel.  Bins use the
    Freedman-Diaconis rule.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    methods = tuple(methods)
    for method in methods:
        _check_method(method)
    panels: list[HistogramPanel] = []
    model = ExponentialModel(theta)
    for n_index, n in enumerate(n_list):
        rs = derive_stream(seed, n_index, 0)
        chunks = {method: [] for method in methods}
        for rows in _chunks(count, n):
            draws = sample(model, (rows, n), rs)
            for method, estimates in estimators._estimates(methods, draws, thresholds).items():
                chunks[method].append(estimates)
        for method in methods:
            all_estimates = np.concatenate(chunks[method])
            est = all_estimates[~np.isnan(all_estimates)]
            skew = _skewness(est) if est.size >= 3 else math.nan
            counts, edges = np.histogram(est, bins="fd") if est.size else (np.array([]), np.array([]))
            panels.append(
                HistogramPanel(
                    method=method, n=n, estimates=est, failures=all_estimates.size - est.size,
                    skewness=skew, bin_edges=edges, bin_counts=counts,
                )
            )
    return panels
