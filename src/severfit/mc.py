"""Deterministic, parallel Monte Carlo engine for the simulation study.

Every (cell, block) owns one random stream derived from (master seed, cell,
block), and draws its replications from it as rows of a (reps, n) matrix, in
small chunks reduced to per-row statistics.  A task is a contiguous range
of one cell's blocks, sized by the cell's share of the table's work, and
solves the roots of all its blocks as one batch.  Every root depends on its
row alone, so results are bit-identical regardless of the task layout,
execution order, chunk size or worker count.
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
from .framework import _check_tail_probabilities, _quantile_thresholds, adapter_from_model

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
    if method not in estimators.FIT_METHODS:
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

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n", f"sample size must be >= 1, got {self.n}")
        if self.replications_per_block < 1:
            raise ConfigError("reps", "replications_per_block must be >= 1")
        if self.blocks < 1:
            raise ConfigError("blocks", "blocks must be >= 1")
        _check_method(self.method)
        if not self.theta_true > 0:
            raise ConfigError("theta", "theta must be positive")


@dataclass(frozen=True)
class SimReport:
    """Aggregated cell statistics; ratio and RE are withheld when any
    replication failed its existence condition (mirroring how unreliable
    cells are left blank in reported tables) unless conditional reporting
    was requested, and always when a block has no successful replication."""

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
    """Build a cell whose thresholds are the (a, 1-b) quantiles of Exp(theta)."""
    d, u = _quantile_thresholds(adapter_from_model(ExponentialModel(theta)), a, b)
    return SimCell(
        n=n, method=method, theta_true=theta, thresholds=ThresholdPair(d, u),
        a=a, b=b, **kwargs,
    )


# A chunk holds about this many draws (128 KB), so its arrays are reused from the malloc heap
# chunk after chunk; from 2^15 up they were often mapped and page-faulted afresh (glibc on a
# 2-vCPU Xeon, the benchmark's 24 cells in process: 67,632 faults per pass at 2^18, 74,594 at
# 2^16, none at 2^14).  The stream continues across calls and every statistic is per row, so
# chunking changes no value.
_CHUNK_VALUES = 1 << 14


def _draw_statistics(
    methods: Sequence[str], theta: float, t: ThresholdPair, streams: Iterable[RandomSource],
    rows: int, n: int,
) -> tuple:
    """``estimators._statistics`` of ``rows`` Exp(theta) samples of size ``n`` from each
    of ``streams`` in turn, drawn and reduced chunk by chunk, as one array per statistic."""
    model, step = ExponentialModel(theta), max(1, _CHUNK_VALUES // n)
    parts = [estimators._statistics(methods, sample(model, (min(step, rows - i), n), rs), t)
             for rs in streams for i in range(0, rows, step)]
    return tuple(map(np.concatenate, zip(*parts)))


def _run_blocks(cell: SimCell, blocks: range) -> list[tuple[int, int, float, float]]:
    """Per block of ``blocks``: (successes, failures, sum of theta_hat/theta, sum of
    squared errors).  Each block draws from its own stream; the roots of all of
    them are solved as one batch."""
    theta, reps = cell.theta_true, cell.replications_per_block
    streams = (derive_stream(cell.seed, cell.cell_index, block) for block in blocks)
    stats = _draw_statistics((cell.method,), theta, cell.thresholds, streams, reps, cell.n)
    estimates = estimators._estimates((cell.method,), stats, cell.n, cell.thresholds)
    results = []
    for row in estimates[cell.method].reshape(len(blocks), reps):
        found = row[~np.isnan(row)]
        results.append((
            found.size, row.size - found.size,
            float(np.sum(found / theta)), float(np.sum((found - theta) ** 2)),
        ))
    return results


def worker_count(requested: int | None = None) -> int:
    """Worker pool size: explicit argument, then SEVERFIT_THREADS, then CPU count."""
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("SEVERFIT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"SEVERFIT_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


# A task solves its roots as one batch per method.  Beyond about this many rows a batch
# outgrows the caches and gets slower per row (mtum at n = 50 on a 2-vCPU Xeon: 355 ns a row
# at 2^13 rows, 370 at 2^14, 487 at 2^16, 591 at 2^18), and its working set grows by about
# 370 bytes a row (3 MB at 2^13), so a cell with more rows is split into more tasks.
_TASK_ROWS = 1 << 13


def _weight(cell: SimCell, blocks: range) -> int:
    """The work of running ``blocks`` of ``cell``: n x reps x blocks."""
    return cell.n * cell.replications_per_block * len(blocks)


def _split(blocks: range, parts: int) -> list[range]:
    """``blocks`` as min(parts, len(blocks)) contiguous ranges of near-equal length."""
    parts = min(parts, len(blocks))
    bounds = [len(blocks) * i // parts for i in range(parts + 1)]
    return [blocks[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _tasks(cells: Sequence[SimCell], workers: int) -> list[tuple[SimCell, range]]:
    """The (cell, block range) tasks of a table, cell by cell in block order.

    With ``W`` the table's total weight, a cell of weight ``w`` is split into
    ceil(workers x w / W) contiguous ranges of its blocks, so that no task
    outweighs a worker's share by more than one block, or into more where a
    range would hold over ``_TASK_ROWS`` rows; never into more than one range
    per block.
    """
    total = sum(_weight(cell, range(cell.blocks)) for cell in cells)
    return [
        (cell, blocks)
        for cell in cells
        for blocks in _split(range(cell.blocks), max(
            -(-workers * _weight(cell, range(cell.blocks)) // total),
            -(-cell.blocks * cell.replications_per_block // _TASK_ROWS),
        ))
    ]


def _task_results(
    tasks: Sequence[tuple[SimCell, range]], workers: int
) -> list[list[tuple[int, int, float, float]]]:
    """``_run_blocks`` on every (cell, block range) task, in task order.

    The tasks are submitted heaviest first (``_weight``) to one process
    pool of at most ``workers`` workers and one per task, or run in process
    when that is one.
    """
    order = sorted(range(len(tasks)), key=lambda i: _weight(*tasks[i]), reverse=True)
    heaviest_first = [tasks[i] for i in order]
    size = min(workers, len(tasks))
    if size <= 1:
        done = [_run_blocks(cell, blocks) for cell, blocks in heaviest_first]
    else:
        with ProcessPoolExecutor(max_workers=size) as pool:
            done = list(pool.map(_run_blocks, *zip(*heaviest_first)))
    by_task = dict(zip(order, done))
    return [by_task[i] for i in range(len(tasks))]


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
    if (failure_count > 0 and not conditional) or any(r[0] == 0 for r in results):
        return SimReport(
            mean_ratio=None, se_mean_ratio=None, re=None, se_re=None,
            failure_count=failure_count, total_samples=total,
        )
    ratios = [sum_ratio / successes for successes, _, sum_ratio, _ in results]
    res = [(theta * theta / cell.n) / (sum_sq / successes) for successes, _, _, sum_sq in results]
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

    The cells are split into tasks (``_tasks``) for ``workers`` capped at the
    CPU count, and one process pool runs all the tasks, heaviest first.
    """
    workers = min(worker_count(workers), os.cpu_count() or 1)
    results = iter(
        block for task in _task_results(_tasks(cells, workers), workers) for block in task
    )
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
    methods: tuple[str, ...] = asymptotics.METHODS
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
                for a, b in values["design_points"]:
                    _check_tail_probabilities(a, b)
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

    Written out because the package's runtime dependency is NumPy alone.
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
    """All estimates for one (method, n) panel, its failure count and its skewness."""

    method: str
    n: int
    estimates: np.ndarray
    failures: int
    skewness: float


def histogram_study(
    n_list: Iterable[int],
    count: int,
    *,
    methods: Iterable[str] = asymptotics.METHODS,
    theta: float = 10.0,
    thresholds: ThresholdPair = ThresholdPair(0.50, 23.00),
    seed: int = DEFAULT_SEED,
) -> list[HistogramPanel]:
    """Repeated estimation at small n for normality inspection.

    For each sample size, ``count`` samples are drawn from one stream, chunk
    by chunk, and every method is applied to the same samples; failed
    existence checks are dropped from that panel.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    methods = tuple(methods)
    for method in methods:
        _check_method(method)
    panels: list[HistogramPanel] = []
    for n_index, n in enumerate(n_list):
        stats = _draw_statistics(
            methods, theta, thresholds, [derive_stream(seed, n_index, 0)], count, n
        )
        for method, drawn in estimators._estimates(methods, stats, n, thresholds).items():
            est = drawn[~np.isnan(drawn)]
            skew = _skewness(est) if est.size >= 3 else math.nan
            panels.append(HistogramPanel(method, n, est, drawn.size - est.size, skew))
    return panels
