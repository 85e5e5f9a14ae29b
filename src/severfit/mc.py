"""Deterministic, parallel Monte Carlo engine for the simulation study.

A cell's draws depend only on its draw key, the fields its samples are drawn
from: (seed, n, replications per block, blocks, d/theta, u/theta).  Block
``b`` of a cell draws from the stream ``derive_stream(cell, b)``, which packs
that key and ``b`` into one stream index, so cells that share a key share
their samples (common random numbers), and distinct keys never share a
stream.  ``cell_index``, ``a`` and ``b`` are labels that no draw reads.

A replication is read only through its window statistics (the count above d,
the count inside (d, u] and the sum inside) and, for the MLE, its row sum, so
a block draws those from their exact joint law instead of n losses each
(``_block_statistics``): first the binomial counts and gammas of all its rows,
then the uniforms of the values inside the window in chunks of whole rows, and
the MLE's parts of the row sum last, so that no method's estimates depend on
which others are asked for.  ``run_table`` and ``histogram_study`` draw and
solve through one entry, ``_ratios(cells, blocks)``, on the unit scale, so
nothing overflows or underflows with theta.  ``run_table`` groups the cells
that share a draw key; a task is a contiguous range of one group's blocks,
sized by the group's share of the table's n x rows, and draws each block once
and solves the roots of all its blocks as one batch per method.  Every root
depends on its row alone, so a cell's results depend on the cell's own fields
alone, and are bit-identical regardless of the other cells of the table, the
task layout, execution order, chunk size or worker count.

The tasks of a table run in one process pool, which is kept for later calls
that need the same number of workers (``_pool_of``): a call that needs
another number shuts it down before it starts the new one, a forked child
forgets its parent's pool, a pool found broken is dropped, and the pool is
shut down at interpreter exit.
"""

from __future__ import annotations

import math
import multiprocessing.util
import operator
import os
import re
import struct
import sys
import threading
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from . import asymptotics, estimators
from .asymptotics import _fmt
# ``sample`` is no longer called here; bench/tracer.py wraps it as ``mc.sample``.
from .dist import ExponentialModel, RandomSource, ThresholdPair, sample  # noqa: F401
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
# the most blocks a cell may have
_INDEX_CAP = 1 << 21

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


def _check_theta(theta: float) -> None:
    """Refuse a theta that is not a normal, finite float, naming the ``theta`` key."""
    # below the normal range every loss drawn keeps only a few digits, a block's
    # estimates can all round to theta_true, leaving its RE undefined, and the
    # thresholds divided by theta can overflow
    if not theta >= sys.float_info.min:
        raise ConfigError(
            "theta", f"theta must be at least {sys.float_info.min!r} (the smallest "
            f"normal float), got {theta!r}",
        )
    if theta == math.inf:
        raise ConfigError("theta", f"theta must be finite, got {theta!r}")


@dataclass(frozen=True)
class SimCell:
    """One simulation configuration: a (sample size, method, design) cell.

    Its draws depend on its draw key alone: ``seed``, ``n``,
    ``replications_per_block``, ``blocks`` and the thresholds over
    ``theta_true`` (``derive_stream``).  So equal cells give equal reports, and
    cells that differ only in ``method`` share their samples.  ``cell_index``,
    ``a`` and ``b`` are labels that no draw reads, and no check bounds them.
    """

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
        if not 1 <= self.replications_per_block < 2**64:  # a 64-bit field of the stream
            raise ConfigError(
                "reps", f"replications_per_block must be in [1, 2**64), got "
                f"{self.replications_per_block}",
            )
        if not 1 <= self.blocks <= _INDEX_CAP:
            raise ConfigError("blocks", f"blocks must be in [1, {_INDEX_CAP}], got {self.blocks}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed", f"seed must be in [0, 2**64), got {self.seed}")
        if self.method not in estimators.FIT_METHODS:
            raise ConfigError("methods", f"unknown method {self.method!r}")
        _check_theta(self.theta_true)


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


def _unit(cell: SimCell) -> ThresholdPair:
    """The cell's thresholds over theta: its Exp(1) samples are drawn on these."""
    t, theta = cell.thresholds, cell.theta_true
    return ThresholdPair(t.d / theta + 0.0, t.u / theta)  # + 0.0: d = -0.0 draws as 0.0


def _draw_key(cell: SimCell) -> tuple:
    """(seed, n, reps, blocks, d/theta, u/theta): all that the cell's draws depend on."""
    unit = _unit(cell)
    return cell.seed, cell.n, cell.replications_per_block, cell.blocks, unit.d, unit.u


def derive_stream(cell: SimCell, block: int) -> RandomSource:
    """The stream block ``block`` of ``cell`` draws from: one per draw key and block.

    The draw key (``_draw_key``) and the block are packed into one stream
    index, each in its own 64-bit field (the unit thresholds as their IEEE
    bits) and n above them all, under the master seed ``cell.seed``.  So
    distinct keys or blocks never share a stream, and cells that share a key,
    such as the methods of one design point and n, or theta and the
    thresholds scaled together, draw the same samples.
    """
    seed, n, reps, blocks, d, u = _draw_key(cell)
    if not 0 <= block < blocks:
        raise ValueError(f"block must be in [0, {blocks}), got {block}")
    stream = 0
    for field in (n, reps, blocks, *struct.unpack("<2Q", struct.pack("<2d", d, u)), block):
        stream = stream << 64 | operator.index(field)
    return RandomSource(seed=seed, stream=stream)


def cell_from_quantiles(
    a: float, b: float, theta: float, n: int, method: str, **kwargs
) -> SimCell:
    """Build a cell whose thresholds are the (a, 1-b) quantiles of Exp(theta)."""
    _check_theta(theta)  # SimCell's rule, before the model refuses theta in its own words
    d, u = _quantile_thresholds(adapter_from_model(ExponentialModel(theta)), a, b)
    return SimCell(
        n=n, method=method, theta_true=theta, thresholds=ThresholdPair(d, u),
        a=a, b=b, **kwargs,
    )


# A chunk holds about this many uniforms (128 KB).  Whether larger chunks are reused from the
# malloc heap or mapped and page-faulted afresh depends on the allocation history (glibc on a
# 2-vCPU Xeon, the benchmark's 24 cells in process: about 8,500 faults a pass and 7 % slower
# at 2^16, none at 2^14); smaller ones cost more per chunk (2^12: 17 % slower).  The stream
# continues across calls and a chunk holds whole rows, so chunking changes no value.
_CHUNK_VALUES = 1 << 14


def _truncated_sums(rs: RandomSource, counts: np.ndarray, q: float) -> np.ndarray:
    """Per row, the sum of ``counts[row]`` standard exponentials conditioned to be at
    most -log(1 - q), each -log1p(-q V) of one uniform V of ``rs``.

    The uniforms are drawn row after row, in chunks of whole rows of about
    ``_CHUNK_VALUES`` values, and each row is summed on its own, so the chunk
    size changes no value.
    """
    sums = np.zeros(counts.size)
    ends = np.cumsum(counts)
    starts = ends - counts
    # the first row of each chunk: the first to start at or after a multiple of _CHUNK_VALUES
    firsts = np.searchsorted(starts, np.arange(0, ends[-1], _CHUNK_VALUES))
    for lo, hi in zip(firsts, [*firsts[1:], counts.size]):
        if lo == hi:
            continue
        v = rs.uniform(int(ends[hi - 1] - starts[lo]))
        log_survival = np.log1p(np.multiply(v, -q, out=v), out=v)  # log(1 - q V) = -E
        filled = counts[lo:hi] > 0  # reduceat would give an empty row its neighbour's value
        rows = sums[lo:hi]
        rows[filled] = np.add.reduceat(log_survival, starts[lo:hi][filled] - starts[lo])
        np.negative(rows, out=rows)
    return sums


def _block_statistics(
    mle: bool, t: ThresholdPair, rs: RandomSource, rows: int, n: int
) -> tuple:
    """``rows`` Exp(1) samples of size ``n`` from ``rs``, as the statistics they give
    on the unit thresholds ``t``: per row the count above d, the count inside (d, u]
    and the sum inside, then the row sum if ``mle``, each drawn from its exact joint law.

    By memorylessness, a value above d is d + E with E ~ Exp(1), and one above u is
    u + E.  So the count above d is A ~ Bin(n, e^-d), the count inside is N ~ Bin(A, r)
    with r = 1 - e^-(u - d), and the sum inside is d N + E_1 + ... + E_N with each E_j
    below u - d, a Gamma(N) when u is infinite.  The row sum adds n - A values of
    Exp(1) below d, and (A - N) u + Gamma(A - N) above u.  The draws come in that
    order, binomials and gammas before uniforms, and the row sum's last, so the window
    statistics are the same whether or not it is asked for.
    """
    d, u = t.d, t.u
    gen = rs.generator()
    above_d = gen.binomial(n, math.exp(-d), size=rows)
    if t.upper_is_infinite:
        inside = above_d
        total = d * inside + gen.standard_gamma(inside)
    else:
        r = -math.expm1(-(u - d))
        inside = gen.binomial(above_d, r)
        total = d * inside + _truncated_sums(rs, inside, r)
    if not mle:
        return above_d, inside, total
    row_sum = total
    if not t.upper_is_infinite:
        above_u = above_d - inside
        row_sum = row_sum + (u * above_u + gen.standard_gamma(above_u))
    return above_d, inside, total, row_sum + _truncated_sums(rs, n - above_d, -math.expm1(-d))


def _ratios(cells: Sequence[SimCell], blocks: range) -> dict[str, np.ndarray]:
    """theta_hat/theta by the method of each of ``cells``, which share a draw key
    (``_draw_key``), for each block of ``blocks`` in turn, drawn from
    ``derive_stream(cells[0], block)``; NaN where a row has no estimate.

    Each block is drawn once, and every method is applied to the same samples,
    drawn and solved, in one ``estimators._estimates`` call, on the unit scale:
    Exp(1) on the thresholds divided by theta, so the estimates are the ratios
    themselves, and nothing overflows or underflows with theta.
    """
    cell, methods = cells[0], tuple(dict.fromkeys(c.method for c in cells))
    unit, reps = _unit(cell), cell.replications_per_block
    streams = (derive_stream(cell, block) for block in blocks)
    parts = [_block_statistics("mle" in methods, unit, rs, reps, cell.n) for rs in streams]
    return estimators._estimates(methods, tuple(map(np.concatenate, zip(*parts))), cell.n, unit)


def _run_blocks(
    group: Sequence[SimCell], blocks: range
) -> dict[str, list[tuple[int, int, float, float]]]:
    """Per method of ``group`` (cells that share a draw key), per block of ``blocks``:
    (successes, failures, sum of theta_hat/theta, sum of (theta_hat/theta - 1)^2).
    Each block is drawn once from its own stream for every method, and the roots of
    all of them are solved as one batch per method (``_ratios``)."""
    rows = (len(blocks), group[0].replications_per_block)
    results = {}
    for method, ratios in _ratios(group, blocks).items():
        results[method] = []
        for row in ratios.reshape(rows):
            ratio = row[~np.isnan(row)]
            results[method].append((
                ratio.size, row.size - ratio.size,
                float(np.sum(ratio)), float(np.sum((ratio - 1.0) ** 2)),
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


def _split(blocks: range, parts: int) -> list[range]:
    """``blocks`` as min(parts, len(blocks)) contiguous ranges of near-equal length."""
    parts = min(parts, len(blocks))
    bounds = [len(blocks) * i // parts for i in range(parts + 1)]
    return [blocks[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _groups(cells: Iterable[SimCell]) -> list[tuple[SimCell, ...]]:
    """The cells grouped by draw key (``_draw_key``), in order of first appearance."""
    groups: dict[tuple, list[SimCell]] = {}
    for cell in cells:
        groups.setdefault(_draw_key(cell), []).append(cell)
    return [tuple(group) for group in groups.values()]


def _tasks(
    groups: Sequence[Sequence[SimCell]], workers: int
) -> list[tuple[Sequence[SimCell], range]]:
    """The (group, block range) tasks of a table, group by group in block order.

    A group weighs n x replications per block x blocks, the values it would
    draw as losses.  With ``W`` the table's total weight, a group of weight
    ``w`` is split into ceil(workers x w / W) contiguous ranges of its blocks,
    so that no task outweighs a worker's share by more than one block, or into
    more where a range would hold over ``_TASK_ROWS`` rows; never into more
    than one range per block.
    """
    weights = [g[0].n * g[0].replications_per_block * g[0].blocks for g in groups]
    total = sum(weights)
    return [
        (group, blocks)
        for group, weight in zip(groups, weights)
        for blocks in _split(range(group[0].blocks), max(
            -(-workers * weight // total),
            -(-group[0].blocks * group[0].replications_per_block // _TASK_ROWS),
        ))
    ]


# The process pool kept across ``run_table`` calls, as (size, pool, the finalizer that
# shuts it down), or None; read and replaced only with ``_pool_lock`` held.
_pool: tuple[int, ProcessPoolExecutor, multiprocessing.util.Finalize] | None = None
_pool_lock = threading.RLock()


def _forget_pool() -> None:
    """Forget the kept pool without shutting it down: the copy a forked child
    holds has neither the parent's manager thread nor its workers."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.RLock()


os.register_at_fork(after_in_child=_forget_pool)


def _drop_pool(pool: ProcessPoolExecutor | None = None) -> None:
    """Shut the kept pool down, waiting for its workers, and forget it; only if
    it is still ``pool``, when given."""
    global _pool
    with _pool_lock:
        if _pool is not None and (pool is None or pool is _pool[1]):
            stop, _pool = _pool[2], None
            stop()


def _pool_of(size: int) -> ProcessPoolExecutor:
    """The kept pool, started first if there is none, or if it has another size,
    once that one has shut down: so no two pools run at once, and no worker is
    forked while the threads of the old pool are alive."""
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[0] != size:
            _drop_pool()
        if _pool is None:
            pool = ProcessPoolExecutor(max_workers=size)
            # concurrent.futures shuts the pool down at interpreter exit; a
            # multiprocessing child exits through its finalizers instead, and then
            # joins its children, so this one shuts the pool down first, ahead of
            # the finalizers (priority 10) that stop the feeder threads of queues
            stop = multiprocessing.util.Finalize(pool, pool.shutdown, exitpriority=20)
            _pool = (size, pool, stop)
        return _pool[1]


def _task_results(
    tasks: Sequence[tuple[Sequence[SimCell], range]], workers: int
) -> list[dict[str, list[tuple[int, int, float, float]]]]:
    """``_run_blocks`` on every (group, block range) task, in task order.

    The tasks are submitted in that order to the kept process pool
    (``_pool_of``) of at most ``workers`` workers and one per task, or run in
    process when that is one.  A call that finds the pool broken (a worker
    died) drops it and raises ``BrokenProcessPool``; the next call starts a
    new one.
    """
    size = min(workers, len(tasks))
    if size <= 1:
        return [_run_blocks(group, blocks) for group, blocks in tasks]
    try:
        with _pool_lock:  # no other thread replaces the pool before all are submitted
            pool = _pool_of(size)
            results = pool.map(_run_blocks, *zip(*tasks))
        return list(results)
    except BrokenProcessPool:
        _drop_pool(pool)
        raise


def _mean_se(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def _report(
    cell: SimCell, results: Sequence[tuple[int, int, float, float]], conditional: bool
) -> SimReport:
    """The cell's report from its per-block results (see ``run_cell``)."""
    total = cell.blocks * cell.replications_per_block
    failure_count = sum(r[1] for r in results)
    if (failure_count > 0 and not conditional) or any(r[0] == 0 for r in results):
        return SimReport(
            mean_ratio=None, se_mean_ratio=None, re=None, se_re=None,
            failure_count=failure_count, total_samples=total,
        )
    ratios = [sum_ratio / successes for successes, _, sum_ratio, _ in results]
    res = [(1.0 / cell.n) / (sum_rel_sq / successes) for successes, _, _, sum_rel_sq in results]
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
    relative efficiency (1/n over the block's mean of (theta_hat/theta - 1)^2,
    which is theta^2/n over its mean squared error), then the across-block
    mean and standard error of each.
    """
    return run_table([cell], conditional=conditional, workers=workers)[0][1]


def run_table(
    cells: Sequence[SimCell], *, conditional: bool = False, workers: int | None = None
) -> list[tuple[SimCell, SimReport]]:
    """Run every cell; deterministic under a fixed master seed.

    The cells that share a draw key are grouped (``_groups``), so each block
    of a group is drawn once for all its methods.  The groups are split into
    tasks (``_tasks``) for ``workers`` capped at the CPU count, and one
    process pool of ``min(workers, tasks)`` workers runs all the tasks, in
    table order, or they run in process when that is one.
    The pool is started on first use and kept for later calls of the same
    size; a call of another size shuts it down and starts its own.  A forked
    child starts its own pool, and ``concurrent.futures`` shuts the pool
    down at interpreter exit.  A call that finds a worker dead raises
    ``BrokenProcessPool``, and the next call starts a new pool.  Results are
    the same for any worker count and any sequence of calls, and a cell's
    report depends on the cell alone, not on the other cells of the table.
    """
    workers = min(worker_count(workers), os.cpu_count() or 1)
    tasks = _tasks(_groups(cells), workers)
    blocks: dict[tuple, list] = {}  # (draw key, method) -> the per-block results
    for (group, _), done in zip(tasks, _task_results(tasks, workers)):
        key = _draw_key(group[0])
        for method, results in done.items():
            blocks.setdefault((key, method), []).extend(results)
    return [
        (cell, _report(cell, blocks[_draw_key(cell), cell.method], conditional))
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


def _list_items(text: str) -> list[str]:
    """The stripped, non-blank items of a comma-separated list; ValueError if none."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ValueError("empty list")
    return items


def _design_points(text: str) -> tuple[tuple[float, float], ...]:
    """The (a, b) pairs of a ``design_points`` value, each checked as tail probabilities."""
    pairs = tuple((float(a), float(b)) for a, b in _PAIR_RE.findall(text))
    if not pairs:
        raise ValueError("no (a,b) pairs found")
    for a, b in pairs:
        _check_tail_probabilities(a, b)
    return pairs


# each config key's converter of its stripped value; parse_sim_config reports a
# converter's ValueError as a ConfigError that names the key
_CONFIG_KEYS = {
    "theta": float,
    "methods": lambda text: tuple(m.lower() for m in _list_items(text)),
    "design_points": _design_points,
    "n_list": lambda text: tuple(map(int, _list_items(text))),
    "blocks": int,
    "reps": int,
    "seed": int,
    "out": str,
}


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
        if key not in _CONFIG_KEYS:
            raise ConfigError(key, "unknown key")
        try:
            values[key] = _CONFIG_KEYS[key](rhs.strip())
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

    For each sample size, ``count`` samples are drawn and every method is applied
    to them through the engine's one draw entry, ``_ratios(cells, blocks)``, with a
    one-block ``SimCell`` per method.  The draw depends on the sample size, not its
    position, so a repeated sample size gives the same panels again.
    ``SimCell`` checks every input but ``count`` (``ConfigError``, a ``ValueError``).
    Failed existence checks are dropped from a panel.  The estimates are the ratios
    times theta, and the skewness, which is scale-free, is that of the ratios.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    methods = tuple(methods)
    panels: list[HistogramPanel] = []
    for n in n_list:
        cells = [SimCell(n, method, theta, thresholds, replications_per_block=count, blocks=1,
                         seed=seed) for method in methods]
        for method, drawn in _ratios(cells, range(1)).items() if cells else ():
            ratio = drawn[~np.isnan(drawn)]
            skew = _skewness(ratio) if ratio.size >= 3 else math.nan
            panels.append(HistogramPanel(method, n, theta * ratio, drawn.size - ratio.size, skew))
    return panels
