"""Monte Carlo engine: stream derivation, the joint-law sampler, determinism,
failure bookkeeping, table CSV, config parsing, and the histogram study."""

import dataclasses
import math
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from severfit import estimators, mc
from severfit.asymptotics import METHODS, are_table
from severfit.dist import ExponentialModel, RandomSource, ThresholdPair, sample
from severfit.errors import ConfigError
from severfit.mc import (
    DEFAULT_SEED,
    SimCell,
    SimConfig,
    SimReport,
    build_cells,
    cell_from_quantiles,
    derive_stream,
    histogram_study,
    parse_sim_config,
    run_cell,
    run_table,
    sim_table_csv,
    worker_count,
)
from severfit.moments import mu_mtum, truncated_summary


def _stream_cell(**changes):
    """A cell for the stream tests, with ``changes`` to its fields."""
    fields = dict(n=40, method="mcm", theta_true=10.0, thresholds=ThresholdPair(0.5, 23.0),
                  replications_per_block=30, blocks=4, seed=5)
    return SimCell(**{**fields, **changes})


def _first_uniforms(cell, block, size=4):
    return derive_stream(cell, block).uniform(size)


class TestDeriveStream:
    def test_reproducible(self):
        # the same draw key and block, from equal cells or from one cell twice
        a, b = derive_stream(_stream_cell(), 2), derive_stream(_stream_cell(), 2)
        assert a.seed == b.seed == 5 and a.stream == b.stream
        assert np.array_equal(a.uniform(16), b.uniform(16))
        # the layout of the stream index that every seeded run rests on: 64-bit fields
        # of n, reps, blocks, the unit window's IEEE bits and the block, n on top
        fields = (40, 30, 4, *struct.unpack("<2Q", struct.pack("<2d", 0.05, 2.3)), 2)
        assert a.stream == sum(f << 64 * i for i, f in enumerate(reversed(fields)))
        # equal cells: d = -0.0 equals 0.0, and draws as it
        zeros = [_stream_cell(thresholds=ThresholdPair(d, 23.0)) for d in (0.0, -0.0)]
        assert zeros[0] == zeros[1]
        assert derive_stream(zeros[0], 0).stream == derive_stream(zeros[1], 0).stream

    def test_distinct_indices_distinct_streams(self):
        # a change to any field of the draw key, or to the block, gives another stream
        base = _first_uniforms(_stream_cell(), 2)
        others = [
            _first_uniforms(_stream_cell(n=41), 2),
            _first_uniforms(_stream_cell(thresholds=ThresholdPair(0.5, 24.0)), 2),
            _first_uniforms(_stream_cell(thresholds=ThresholdPair(0.6, 23.0)), 2),
            _first_uniforms(_stream_cell(thresholds=ThresholdPair(0.5, math.inf)), 2),
            _first_uniforms(_stream_cell(theta_true=11.0), 2),  # another unit window
            _first_uniforms(_stream_cell(replications_per_block=31), 2),
            _first_uniforms(_stream_cell(blocks=5), 2),
            _first_uniforms(_stream_cell(seed=6), 2),
            _first_uniforms(_stream_cell(), 1),
            _first_uniforms(_stream_cell(), 3),
        ]
        for other in others:
            assert not np.array_equal(base, other)

    @given(k=st.integers(-1000, 1000))
    @settings(max_examples=30, deadline=None)
    def test_scaled_theta_and_thresholds_share_a_stream(self, k):
        # the key holds d/theta and u/theta, which c = 2^k leaves as they are
        c, base = 2.0**k, _stream_cell(theta_true=1.0, thresholds=ThresholdPair(0.05, 2.3))
        scaled = dataclasses.replace(base, theta_true=c,
                                     thresholds=ThresholdPair(c * 0.05, c * 2.3))
        assert derive_stream(scaled, 3).stream == derive_stream(base, 3).stream

    def test_labels_and_method_are_not_in_the_key(self):
        base = derive_stream(_stream_cell(), 1).stream
        for labels in (dict(cell_index=7), dict(a=0.05, b=0.1), dict(method="mle")):
            assert derive_stream(_stream_cell(**labels), 1).stream == base

    def test_collision_scan(self):
        # over 10^4 distinct keys and blocks, a few apart in every field (theta = 1, so
        # the thresholds are the unit window): all first outputs distinct
        cells = [
            _stream_cell(n=n, replications_per_block=reps, blocks=blocks, seed=seed,
                         theta_true=1.0, thresholds=ThresholdPair(d, u))
            for n in (1, 2, 50) for reps in (1, 2) for blocks in (1, 4, 2**21) for seed in (0, 1)
            for d in (0.0, 5e-324, 0.5) for u in (23.0, np.nextafter(23.0, 24.0), math.inf)
        ]
        firsts = [derive_stream(cell, block).uniform(1)[0]
                  for cell in cells for block in range(min(cell.blocks, 100))]
        assert len(firsts) > 10**4
        assert len(set(firsts)) == len(firsts)

    def test_bounds(self):
        with pytest.raises(ValueError):
            derive_stream(_stream_cell(), -1)
        with pytest.raises(ValueError):
            derive_stream(_stream_cell(), 4)  # one past the cell's last block


class TestRunCell:
    CELL = SimCell(
        n=200,
        method="mcm",
        theta_true=10.0,
        thresholds=ThresholdPair(0.51, 29.96),
        replications_per_block=100,
        blocks=5,
        seed=404,
        cell_index=2,
    )

    def test_worker_count_invariance(self):
        serial = run_cell(self.CELL, workers=1)
        parallel = run_cell(self.CELL, workers=3)
        assert serial == parallel

    def test_repeat_is_bit_identical(self):
        assert run_cell(self.CELL, workers=1) == run_cell(self.CELL, workers=1)

    def test_estimates_do_not_need_avar(self, monkeypatch):
        # replications report point estimates only; the variance is never evaluated
        from severfit import asymptotics

        expected = run_cell(self.CELL, workers=1)

        def refuse(*args, **kwargs):
            raise AssertionError("avar evaluated during a simulation")

        monkeypatch.setattr(asymptotics, "avar", refuse)
        assert run_cell(self.CELL, workers=1) == expected

    def test_mle_re_near_one(self):
        cell = SimCell(
            n=500,
            method="mle",
            theta_true=10.0,
            thresholds=ThresholdPair(0.0, math.inf),
            replications_per_block=500,
            blocks=5,
            seed=11,
        )
        report = run_cell(cell, workers=1)
        assert report.failure_count == 0
        assert abs(report.re - 1.0) < max(0.05, 4 * report.se_re)
        assert abs(report.mean_ratio - 1.0) < 0.01

    def test_degenerate_window_reduces_to_mle(self):
        kwargs = dict(
            n=150, theta_true=10.0, thresholds=ThresholdPair(0.0, math.inf),
            replications_per_block=50, blocks=2, seed=77,
        )
        reports = {m: run_cell(SimCell(method=m, **kwargs), workers=1) for m in
                   ("mle", "mtum", "mcm", "mtcm")}
        for m in ("mtum", "mcm", "mtcm"):
            assert reports[m] == reports["mle"]

    def test_failures_suppress_statistics(self):
        # the narrow asymmetric window fails the truncated existence check often
        cell = cell_from_quantiles(
            0.10, 0.70, 10.0, 100, "mtum",
            replications_per_block=200, blocks=2, seed=3,
        )
        report = run_cell(cell, workers=1)
        assert report.failure_count > 0
        assert report.re is None and report.mean_ratio is None
        conditional = run_cell(cell, conditional=True, workers=1)
        assert conditional.failure_count == report.failure_count
        assert conditional.re is not None

    def test_block_without_successes_withholds_conditional_statistics(self):
        # one replication per block: a failed one leaves its block empty
        cell = cell_from_quantiles(
            0.10, 0.70, 10.0, 100, "mtum", replications_per_block=1, blocks=8, seed=2,
        )
        blocks = mc._run_blocks([cell], range(cell.blocks))["mtum"]
        assert any(successes == 0 for successes, *_ in blocks)
        assert any(successes > 0 for successes, *_ in blocks)
        report = run_cell(cell, conditional=True, workers=1)
        assert report == SimReport(
            mean_ratio=None, se_mean_ratio=None, re=None, se_re=None,
            failure_count=sum(failures for _, failures, *_ in blocks), total_samples=8,
        )

    def test_chunk_size_changes_nothing(self, monkeypatch):
        # uniforms continue one stream across chunks of whole rows, every
        # statistic is per row and every root depends on its row alone, so
        # chunks of about 7 rows' values, or of one row each, give the same bits
        cells = [
            self.CELL,
            cell_from_quantiles(0.10, 0.70, 10.0, 40, "mtum", replications_per_block=60,
                                blocks=2, seed=3, cell_index=1),
            cell_from_quantiles(0.05, 0.05, 10.0, 30, "mle", replications_per_block=50,
                                blocks=2, seed=3, cell_index=2),
            cell_from_quantiles(0.25, 0.0, 10.0, 30, "mle", replications_per_block=50,
                                blocks=2, seed=3, cell_index=3),
        ]
        methods = ("mle", *METHODS)
        default = [run_cell(c, conditional=True, workers=1) for c in cells]
        panels = histogram_study([30, 50], 60, methods=methods, seed=5)
        draws = []
        uniform = RandomSource.uniform
        monkeypatch.setattr(
            RandomSource, "uniform", lambda rs, size: draws.append(size) or uniform(rs, size)
        )
        for cell, expected in zip(cells, default):
            for chunk in (7 * cell.n, 1):
                monkeypatch.setattr(mc, "_CHUNK_VALUES", chunk)
                draws.clear()
                assert run_cell(cell, conditional=True, workers=1) == expected
                # whole rows, as few as fill a chunk
                assert len(draws) > cell.blocks and max(draws) < chunk + cell.n
        monkeypatch.setattr(mc, "_CHUNK_VALUES", 7 * 30)
        small_chunks = histogram_study([30, 50], 60, methods=methods, seed=5)
        for small, full in zip(small_chunks, panels, strict=True):
            assert (small.method, small.n, small.failures) == (full.method, full.n, full.failures)
            assert np.array_equal(small.estimates, full.estimates)

    def test_one_root_batch_per_method(self, monkeypatch):
        # a task (a group or a range of its blocks) drawn in several chunks
        # solves each method's roots in one batch, as does a histogram sample size
        from severfit import estimators

        calls = []
        root = estimators._root
        monkeypatch.setattr(
            estimators, "_root",
            lambda method, mu, t: calls.append((method, mu.size)) or root(method, mu, t),
        )
        monkeypatch.setattr(mc, "_CHUNK_VALUES", 7 * self.CELL.n)
        reps = self.CELL.replications_per_block
        mc._run_blocks([self.CELL], range(1, 4))
        assert calls == [("mcm", 3 * reps)]
        calls.clear()
        run_cell(self.CELL, workers=1)
        assert calls == [("mcm", self.CELL.blocks * reps)]
        calls.clear()
        # a group, with one method twice, solves once per method
        group = [self.CELL, dataclasses.replace(self.CELL, method="mtum"),
                 dataclasses.replace(self.CELL, cell_index=9)]
        mc._run_blocks(group, range(1, 4))
        assert calls == [("mcm", 3 * reps), ("mtum", 3 * reps)]
        calls.clear()
        monkeypatch.setattr(mc, "_CHUNK_VALUES", 7 * 30)
        histogram_study([30, 50], 60, methods=("mle", *METHODS), seed=5)
        assert [method for method, _ in calls] == [*METHODS, *METHODS]

    def test_estimates_do_not_depend_on_other_methods(self):
        # the row sums are drawn after the window statistics, so asking for
        # the MLE, or for any other method, leaves each method's estimates as
        # they are alone
        everything = histogram_study([30, 50], 60, methods=("mle", *METHODS), seed=5)
        for method in ("mle", *METHODS):
            alone = histogram_study([30, 50], 60, methods=(method,), seed=5)
            along = [p for p in everything if p.method == method]
            for a, b in zip(alone, along, strict=True):
                assert (a.n, a.failures) == (b.n, b.failures)
                assert np.array_equal(a.estimates, b.estimates)

    def test_invalid_cell_config(self):
        with pytest.raises(ConfigError):
            SimCell(n=0, method="mcm", theta_true=10.0, thresholds=ThresholdPair(0, 1))
        with pytest.raises(ConfigError):
            SimCell(n=10, method="huber", theta_true=10.0, thresholds=ThresholdPair(0, 1))
        with pytest.raises(ConfigError):
            SimCell(n=10, method="mcm", theta_true=-1.0, thresholds=ThresholdPair(0, 1))
        for theta in (1e-320, math.nan, math.inf):  # subnormal, not a number, infinite
            with pytest.raises(ConfigError, match="theta must be"):
                SimCell(n=10, method="mcm", theta_true=theta, thresholds=ThresholdPair(0, 1))

    @pytest.mark.parametrize(
        "key, value",
        [("blocks", 0), ("blocks", 2**21 + 1), ("seed", -1), ("seed", 2**64)],
    )
    def test_stream_indices_and_seed_refused_with_their_keys(self, key, value):
        # refused when the cell is made, not later inside the draw
        with pytest.raises(ConfigError) as err:
            SimCell(n=10, method="mcm", theta_true=10.0, thresholds=ThresholdPair(0, 1),
                    **{key: value})
        assert err.value.key == key

    @pytest.mark.parametrize("reps", [0, 2**64])
    def test_reps_refused_with_its_key(self, reps):
        # a 64-bit field of the stream index
        with pytest.raises(ConfigError) as err:
            SimCell(n=10, method="mcm", theta_true=10.0, thresholds=ThresholdPair(0, 1),
                    replications_per_block=reps)
        assert err.value.key == "reps"

    def test_largest_stream_indices_and_seed_accepted(self):
        cell = SimCell(n=10, method="mcm", theta_true=10.0, thresholds=ThresholdPair(0, 1),
                       replications_per_block=2**64 - 1, blocks=2**21, cell_index=2**21 - 1,
                       seed=2**64 - 1)
        assert derive_stream(cell, cell.blocks - 1).seed == 2**64 - 1


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replaces the process pool with an in-process stand-in, so no process
    is started; returns its log of pool sizes started, of ("start" | "shutdown",
    size) events and of the (group, blocks) tasks in the order they were
    submitted."""
    log = {"sizes": [], "events": [], "tasks": []}

    class InProcessPool:
        def __init__(self, max_workers):
            self.size = max_workers
            log["sizes"].append(max_workers)
            log["events"].append(("start", max_workers))

        def shutdown(self, wait=True):
            assert wait
            log["events"].append(("shutdown", self.size))

        def map(self, fn, *iterables):
            log["tasks"].append(list(zip(*iterables)))
            return map(fn, *iterables)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", InProcessPool)
    return log


def _block_by_block(cells, conditional):
    """Each cell's report from its blocks run one at a time, the cell alone: the
    reference for every task layout and grouping."""
    return [
        (cell, mc._report(
            cell,
            [mc._run_blocks([cell], range(b, b + 1))[cell.method][0] for b in range(cell.blocks)],
            conditional,
        ))
        for cell in cells
    ]


def _send_run_table(connection, cells, workers):
    """Send ``run_table(cells, workers=workers)`` through ``connection``: run in a child."""
    connection.send(run_table(cells, workers=workers))
    connection.close()


def _alive(pid):
    """Whether a process ``pid`` exists (a zombie counts)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestRunTable:
    def _cells(self):
        return [
            cell_from_quantiles(
                0.05, 0.05, 10.0, 100, m,
                replications_per_block=50, blocks=2, seed=9, cell_index=i,
            )
            for i, m in enumerate(("mtum", "mcm"))
        ]

    def test_csv_layout(self):
        results = run_table(self._cells(), workers=1)
        text = sim_table_csv(results)
        lines = text.strip().split("\n")
        assert lines[0] == "method,a,b,d,u,n,mean_ratio,se_mean_ratio,re,se_re,failures,total"
        # two simulated rows plus one analytic row per method/design pair
        assert len(lines) == 1 + 2 + 2
        analytic = [ln for ln in lines if ",inf," in ln and ln.split(",")[5] == "inf"]
        assert len(analytic) == 2
        from severfit.asymptotics import are

        for line in analytic:
            cols = line.split(",")
            t = ThresholdPair(float(cols[3]), float(cols[4]))
            assert float(cols[8]) == pytest.approx(are(cols[0], 10.0, t), rel=1e-12)
            assert float(cols[6]) == 1.0

    def test_table_deterministic(self):
        a = sim_table_csv(run_table(self._cells(), workers=1))
        b = sim_table_csv(run_table(self._cells(), workers=2))
        assert a == b

    def test_one_pool_capped_by_tasks_and_cpus(self, monkeypatch, in_process_pool):
        sizes = in_process_pool["sizes"]
        # three groups of two blocks: the two methods of _cells share a draw
        cells = self._cells() + [
            cell_from_quantiles(0.05, 0.05, 10.0, 60, "mtcm",
                                replications_per_block=30, blocks=2, seed=9, cell_index=2),
            cell_from_quantiles(0.05, 0.05, 10.0, 80, "mle",
                                replications_per_block=30, blocks=2, seed=9, cell_index=3),
        ]
        expected = run_table(cells, workers=1)
        monkeypatch.setenv("SEVERFIT_THREADS", "64")
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
        assert run_table(cells) == expected  # 5 tasks, 4 CPUs
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 16)
        assert run_table(cells) == expected  # 6 tasks, 16 CPUs
        assert run_table(cells, workers=3) == expected
        assert run_cell(cells[0], workers=8) == expected[0][1]  # 2 tasks
        assert run_table(cells[:1], workers=1) == expected[:1]  # in process
        assert sizes == [4, 6, 3, 2]

    def test_one_pool_kept_per_size(self, monkeypatch, in_process_pool):
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)
        cells = self.WHOLE_CELLS  # 4 tasks
        expected = run_table(cells, workers=1)
        for workers in (2, 2, 3, 3, 2):
            assert run_table(cells, workers=workers) == expected
        assert run_table(cells[:1], workers=2) == expected[:1]  # another table, 2 tasks
        # repeated calls of one size share a pool; another size shuts it down first
        assert in_process_pool["events"] == [
            ("start", 2), ("shutdown", 2), ("start", 3), ("shutdown", 3), ("start", 2),
        ]
        assert len(in_process_pool["tasks"]) == 6

    # tables of two and of four cells of uneven weights, one of a light cell before
    # one about five times heavier, and one of groups of cells that share a draw
    SPLIT_CELLS = [
        cell_from_quantiles(0.10, 0.70, 10.0, 40, "mtum", replications_per_block=30,
                            blocks=5, seed=13, cell_index=0),
        cell_from_quantiles(0.25, 0.0, 10.0, 25, "mcm", replications_per_block=20,
                            blocks=3, seed=13, cell_index=1),
    ]
    WHOLE_CELLS = [
        cell_from_quantiles(0.05, 0.05, 10.0, n, method, replications_per_block=25,
                            blocks=3, seed=13, cell_index=i)
        for i, (n, method) in enumerate([(30, "mtum"), (60, "mcm"), (45, "mtcm"), (20, "mle")])
    ]
    SKEWED_CELLS = [
        cell_from_quantiles(0.05, 0.05, 10.0, n, "mtum", replications_per_block=4,
                            blocks=10, seed=13, cell_index=i)
        for i, n in enumerate([50, 1000])
    ]
    GROUPED_CELLS = [
        cell_from_quantiles(a, b, 10.0, n, method, replications_per_block=25, blocks=blocks,
                            seed=13, cell_index=i)
        for i, (a, b, n, method, blocks) in enumerate([
            (0.05, 0.05, 40, "mtum", 4), (0.10, 0.70, 40, "mtum", 3), (0.05, 0.05, 40, "mcm", 4),
            (0.05, 0.05, 30, "mtum", 4), (0.05, 0.05, 40, "mle", 4), (0.10, 0.70, 40, "mcm", 3),
            (0.05, 0.05, 40, "mtcm", 4), (0.05, 0.05, 40, "mcm", 4),  # a repeated cell
        ])
    ]
    TABLES = (SPLIT_CELLS, WHOLE_CELLS, SKEWED_CELLS, GROUPED_CELLS)

    def test_groups_share_a_draw_key(self):
        groups = mc._groups(self.GROUPED_CELLS)
        assert [[c.cell_index for c in group] for group in groups] == [
            [0, 2, 4, 6, 7], [1, 5], [3]
        ]
        assert mc._groups(self.WHOLE_CELLS) == [(cell,) for cell in self.WHOLE_CELLS]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_reports_equal_block_by_block(self, workers, monkeypatch):
        # a real pool; the CPU cap is lifted so that 3 workers split as 3 would
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)
        for cells in (self.SPLIT_CELLS, self.WHOLE_CELLS, self.GROUPED_CELLS):
            expected = _block_by_block(cells, conditional=True)
            assert run_table(cells, conditional=True, workers=workers) == expected

    def test_kept_pools_equal_block_by_block(self, monkeypatch):
        # real pools, kept across repeated calls and replaced when the size alternates
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)
        expected = _block_by_block(self.WHOLE_CELLS, conditional=True)
        for workers in (2, 2, 3, 2, 1, 3):
            assert run_table(self.WHOLE_CELLS, conditional=True, workers=workers) == expected

    @pytest.mark.parametrize("workers", [1, 4, 5, 8, 64])
    def test_task_layouts_equal_block_by_block(self, workers, monkeypatch, in_process_pool):
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 64)
        for cells in self.TABLES:
            expected = _block_by_block(cells, conditional=True)
            assert run_table(cells, conditional=True, workers=workers) == expected
        if workers > 1:
            submitted = in_process_pool["tasks"]
            for cells, tasks in zip(self.TABLES, submitted, strict=True):
                assert tasks == mc._tasks(mc._groups(cells), workers)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 8, 64])
    def test_cells_split_by_weight(self, workers):
        def weight(group, blocks):  # the values drawn as losses: n x rows
            return group[0].n * group[0].replications_per_block * len(blocks)

        for cells in self.TABLES:
            groups = mc._groups(cells)
            tasks = mc._tasks(groups, workers)
            total = sum(weight(group, range(group[0].blocks)) for group in groups)
            for group in groups:
                blocks_of = group[0].blocks
                ranges = [blocks for g, blocks in tasks if g == group]
                # contiguous ranges, in block order, that cover the group's blocks
                assert [b for blocks in ranges for b in blocks] == list(range(blocks_of))
                w = weight(group, range(blocks_of))
                assert len(ranges) == min(math.ceil(workers * w / total), blocks_of)
                # no task outweighs a worker's share by more than one block
                share = total / workers + weight(group, range(1))
                assert all(weight(group, blocks) <= share for blocks in ranges)
        # at two workers the heavy cell of the skewed table is halved, the light one whole
        assert [blocks for _, blocks in mc._tasks(mc._groups(self.SKEWED_CELLS), 2)] == [
            range(10), range(5), range(5, 10)
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_study_tables_split_at_one_and_two_workers(self, workers):
        # 4 design points x n in {50, 1000} x 3 methods, 4 blocks of 500: 8 groups,
        # each one task
        study = [
            cell_from_quantiles(a, b, 10.0, n, method, replications_per_block=500, blocks=4)
            for a, b in ((0.05, 0.05), (0.10, 0.10), (0.25, 0.0), (0.10, 0.70))
            for n in (50, 1000)
            for method in ("mtum", "mcm", "mtcm")
        ]
        groups = mc._groups(study)
        assert len(groups) == 8
        assert mc._tasks(groups, workers) == [(group, range(4)) for group in groups]
        # the default config: 35 groups of 10 blocks of 2,000 rows, each split by
        # _TASK_ROWS into 3 ranges
        groups = mc._groups(build_cells(SimConfig()))
        assert len(groups) == 35
        assert mc._tasks(groups, workers) == [
            (group, blocks) for group in groups
            for blocks in (range(3), range(3, 6), range(6, 10))
        ]

    def test_tasks_hold_at_most_task_rows(self, monkeypatch):
        cell = self.SPLIT_CELLS[0]  # 5 blocks of 30 rows
        expected = _block_by_block([cell], conditional=True)
        monkeypatch.setattr(mc, "_TASK_ROWS", 60)
        assert [blocks for _, blocks in mc._tasks([(cell,)], 1)] == [
            range(1), range(1, 3), range(3, 5)
        ]
        assert run_table([cell], conditional=True, workers=1) == expected
        # a block longer than the cap is still one task
        monkeypatch.setattr(mc, "_TASK_ROWS", 20)
        assert [blocks for _, blocks in mc._tasks([(cell,)], 1)] == [
            range(b, b + 1) for b in range(5)
        ]
        assert run_table([cell], conditional=True, workers=1) == expected

    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        # the child forgets the parent's pool, whose manager thread it lacks, and
        # shuts its own down before it exits
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)
        cells = self.WHOLE_CELLS
        expected = run_table(cells, workers=1)
        assert run_table(cells, workers=2) == expected  # the parent's pool is alive
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_send_run_table, args=(sender, cells, 2))
        with warnings.catch_warnings():
            # forking while the pool's threads are alive is what is tested here
            warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                    DeprecationWarning)
            child.start()
        try:
            sender.close()
            assert receiver.poll(60), "no reports from the forked child"
            assert receiver.recv() == expected
            child.join(60)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert run_table(cells, workers=2) == expected  # the parent's pool still works

    def test_fresh_interpreter_leaves_no_worker(self):
        # concurrent.futures shuts the kept pool down at interpreter exit
        code = """
import multiprocessing
from severfit import mc
mc.os.cpu_count = lambda: 8
cells = [mc.cell_from_quantiles(0.05, 0.05, 10.0, n, method, replications_per_block=25,
                                blocks=3, seed=13, cell_index=i)
         for i, (n, method) in enumerate([(30, "mtum"), (60, "mcm"), (45, "mtcm")])]
for _ in range(2):
    assert mc.run_table(cells, workers=2) == mc.run_table(cells, workers=1)
print(*sorted(p.pid for p in multiprocessing.active_children()))
"""
        src = Path(mc.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            check=True, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        assert not any(_alive(pid) for pid in pids)

    def test_pool_with_a_killed_worker_is_replaced(self, monkeypatch):
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)
        cells = self.WHOLE_CELLS
        expected = run_table(cells, workers=1)
        before = set(multiprocessing.active_children())
        assert run_table(cells, workers=2) == expected
        workers = set(multiprocessing.active_children()) - before
        assert len(workers) == 2
        victim = workers.pop()
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(60)
        with pytest.raises(BrokenProcessPool):  # the call that finds the pool broken
            run_table(cells, workers=2)
        assert run_table(cells, workers=2) == expected

    def test_tasks_go_in_table_order(self, monkeypatch, in_process_pool):
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)
        cells = self.SPLIT_CELLS + self.GROUPED_CELLS + self.WHOLE_CELLS
        expected = run_table(cells, workers=1)
        assert run_table(cells, workers=2) == expected  # reports in table order
        (tasks,) = in_process_pool["tasks"]
        # group by group, in the order of each group's first cell, each in block order
        firsts = [cell for i, cell in enumerate(cells)
                  if mc._draw_key(cell) not in map(mc._draw_key, cells[:i])]
        assert [(group[0], b) for group, blocks in tasks for b in blocks] == [
            (cell, b) for cell in firsts for b in range(cell.blocks)
        ]


class TestCommonRandomNumbers:
    """Cells that share a draw key share their samples, and a cell's report
    depends on the cell alone."""

    def test_one_stream_per_group_and_block(self, monkeypatch):
        calls = []
        derive = mc.derive_stream
        monkeypatch.setattr(
            mc, "derive_stream",
            lambda cell, block: calls.append((mc._draw_key(cell), block)) or derive(cell, block),
        )
        cells = TestRunTable.GROUPED_CELLS
        run_table(cells, workers=1)
        assert calls == [
            (mc._draw_key(group[0]), b) for group in mc._groups(cells)
            for b in range(group[0].blocks)
        ]
        # the benchmark's sim_study shape: 4 design points x 2 n x 3 methods, 4 blocks
        calls.clear()
        config = SimConfig(design_points=((0.05, 0.05), (0.10, 0.10), (0.25, 0.0), (0.10, 0.70)),
                           n_list=(50, 1000), blocks=4, reps=5, seed=3)
        run_table(build_cells(config), workers=1)
        assert len(calls) == 4 * 2 * 4

    def test_report_same_alone_and_in_a_table(self):
        table = TestRunTable.SPLIT_CELLS + TestRunTable.GROUPED_CELLS + TestRunTable.WHOLE_CELLS
        for cell, report in run_table(table, conditional=True, workers=1):
            assert run_cell(cell, conditional=True, workers=1) == report

    def test_labels_change_no_report(self):
        base = cell_from_quantiles(0.10, 0.70, 10.0, 40, "mcm", replications_per_block=30,
                                   blocks=3, seed=13)
        relabelled = [
            dataclasses.replace(base, cell_index=2**21),
            dataclasses.replace(base, a=None, b=None),
            dataclasses.replace(base, a=0.2, b=0.3, cell_index=-1),
        ]
        reports = [report for _, report in run_table([base, *relabelled], workers=1)]
        assert reports == [reports[0]] * 4
        assert [run_cell(cell, workers=1) for cell in relabelled] == [reports[0]] * 3


# (a, b) tail probabilities: two finite windows, one with u infinite, and (0, inf)
LAW_WINDOWS = [(0.05, 0.05), (0.10, 0.70), (0.25, 0.0), (0.0, 0.0)]
K_SIGMA = 5.0


def _moments_near(values, mean, var):
    """The sample mean and variance of ``values`` within K_SIGMA standard errors
    of ``mean`` and ``var``; the variance's standard error is estimated from the
    sample's squared deviations."""
    rows = values.size
    assert abs(values.mean() - mean) <= K_SIGMA * math.sqrt(var / rows)
    dev2 = (values - values.mean()) ** 2
    assert abs(values.var(ddof=1) - var) <= K_SIGMA * dev2.std() / math.sqrt(rows)


def _covariance_near(x, y, cov):
    prod = (x - x.mean()) * (y - y.mean())
    assert abs(prod.sum() / (x.size - 1) - cov) <= K_SIGMA * prod.std() / math.sqrt(x.size)


class TestJointLaw:
    """The window statistics and row sums drawn from their joint law have the
    law of those of n Exp(theta) losses."""

    THETA, N, ROWS = 10.0, 20, 200_000

    @pytest.mark.parametrize("a,b", LAW_WINDOWS)
    def test_moments(self, a, b):
        # Exp(1) drawn on t/theta has the counts of Exp(theta) on t, and its
        # sums are theirs divided by theta
        cell = cell_from_quantiles(a, b, self.THETA, self.N, "mle", seed=17)
        n, theta, t = self.N, self.THETA, cell.thresholds
        above_d, inside, total, row_sum = mc._block_statistics(
            True, ThresholdPair(t.d / theta, t.u / theta), derive_stream(cell, 0), self.ROWS, n
        )
        p_above = math.exp(-t.d / theta)
        p_in = p_above - (0.0 if t.upper_is_infinite else math.exp(-t.u / theta))
        _moments_near(above_d, n * p_above, n * p_above * (1.0 - p_above))
        _moments_near(inside, n * p_in, n * p_in * (1.0 - p_in))
        summary = truncated_summary(theta, t)
        _moments_near(total, n * summary.mu_y / theta, n * summary.sigma_y2 / theta**2)
        _moments_near(row_sum, n, n)
        # jointly: (inside, above u, below d) is multinomial, and the sum
        # inside has mean mu_MTuM per value inside
        _covariance_near(above_d, inside, n * p_in * (1.0 - p_above))
        _covariance_near(
            inside, total, float(mu_mtum(theta, t)) / theta * n * p_in * (1.0 - p_in)
        )

    @pytest.mark.parametrize("a,b", [(0.05, 0.05), (0.10, 0.70), (0.25, 0.0)])
    def test_estimates_match_drawing_every_loss(self, a, b):
        # each method's n = 30 estimates, failures counted as +inf, against
        # those of rows of n losses windowed and solved as fit does
        from scipy.stats import ks_2samp

        n, rows, methods = 30, 4000, ("mle", *METHODS)
        cells = [cell_from_quantiles(a, b, self.THETA, n, method, replications_per_block=rows,
                                     blocks=1, seed=21, cell_index=0) for method in methods]
        t = cells[0].thresholds
        joint = mc._ratios(cells, range(1))  # from derive_stream(cells[0], 0)
        other_seed = dataclasses.replace(cells[0], seed=22)
        x = sample(ExponentialModel(self.THETA), (rows, n), derive_stream(other_seed, 0))
        raw = estimators._estimates(methods, estimators._window(x, t) + (x.sum(axis=1),), n, t)
        for method in methods:
            drawn = np.nan_to_num(joint[method], nan=np.inf)
            windowed = np.nan_to_num(raw[method] / self.THETA, nan=np.inf)
            assert ks_2samp(drawn, windowed).pvalue > 1e-3, method

    @given(
        k=st.integers(-1000, 1000),
        design=st.sampled_from(LAW_WINDOWS),
        method=st.sampled_from(("mle", *METHODS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_cell_is_scale_free(self, k, design, method):
        # the counts depend on d/theta and (u - d)/theta alone, and c = 2^k
        # scales every value drawn and every root exactly
        base = cell_from_quantiles(*design, 1.0, 40, method, replications_per_block=30,
                                   blocks=2, seed=8, cell_index=3)
        c, t = 2.0**k, base.thresholds
        scaled = dataclasses.replace(
            base, theta_true=c * base.theta_true, thresholds=ThresholdPair(c * t.d, c * t.u)
        )
        expected = run_cell(base, conditional=True, workers=1)
        assert run_cell(scaled, conditional=True, workers=1) == expected


class TestConfig:
    TEXT = """
# demo configuration
theta = 10
methods = mtum, mcm, mtcm
design_points = (0.05, 0.05), (0.25, 0.00)
n_list = 50, 100
blocks = 3
reps = 40
seed = 123
out = study.csv
"""

    def test_parse(self):
        cfg = parse_sim_config(self.TEXT)
        assert cfg.theta == 10.0
        assert cfg.methods == ("mtum", "mcm", "mtcm")
        assert cfg.design_points == ((0.05, 0.05), (0.25, 0.0))
        assert cfg.n_list == (50, 100)
        assert (cfg.blocks, cfg.reps, cfg.seed, cfg.out) == (3, 40, 123, "study.csv")

    def test_every_field_once(self):
        text = """
theta = 2.5
methods = MLE, mcm
design_points = (0.1, 0.2), (0, 0)
n_list = 7, 9
blocks = 4
reps = 11
seed = 5
out = x.csv
"""
        keys = [line.partition("=")[0].strip() for line in text.strip().splitlines()]
        assert keys == [field.name for field in dataclasses.fields(SimConfig)]
        assert parse_sim_config(text) == SimConfig(
            theta=2.5, methods=("mle", "mcm"), design_points=((0.1, 0.2), (0.0, 0.0)),
            n_list=(7, 9), blocks=4, reps=11, seed=5, out="x.csv",
        )

    def test_defaults(self):
        cfg = parse_sim_config("")
        assert cfg == SimConfig()
        assert len(cfg.design_points) == 7

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_sim_config("samples = 10")
        assert err.value.key == "samples"

    @pytest.mark.parametrize("pair", ["(0.15, 0.85)", "(0.49, 0.51)", "(0.7, 0.3)", "(-0.1, 0)"])
    def test_refused_design_point_names_key(self, pair):
        with pytest.raises(ConfigError) as err:
            parse_sim_config(f"design_points = (0.05, 0.05), {pair}")
        assert err.value.key == "design_points"

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_sim_config("blocks = many")
        assert err.value.key == "blocks"

    @pytest.mark.parametrize("key", ["methods", "n_list"])
    @pytest.mark.parametrize("value", ["", " , ,"])
    def test_empty_list_names_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_sim_config(f"{key} = {value}")
        assert err.value.key == key

    def test_library_calls_take_empty_lists(self):
        # only the config and CLI parsers refuse an empty list
        assert histogram_study([], 5) == []
        assert histogram_study([30], 5, methods=()) == []
        assert run_table([]) == []
        assert are_table(10.0, a_grid=()) == []

    def test_build_cells(self):
        cfg = parse_sim_config(self.TEXT)
        cells = build_cells(cfg)
        assert len(cells) == 2 * 2 * 3
        assert [c.cell_index for c in cells] == list(range(12))
        assert all(c.replications_per_block == 40 for c in cells)
        full = build_cells(cfg, full_scale=True)
        assert all(c.replications_per_block == 10000 for c in full)
        # the (0.25, 0.00) design point has an infinite upper threshold
        assert any(c.thresholds.upper_is_infinite for c in cells)

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("SEVERFIT_THREADS", "3")
        assert worker_count() == 3
        assert worker_count(2) == 2
        monkeypatch.delenv("SEVERFIT_THREADS")
        assert worker_count() >= 1


class TestHistogramStudy:
    def test_panels_and_sharing(self):
        panels = histogram_study(
            [30, 50], 60, methods=("mtum", "mcm"), seed=DEFAULT_SEED
        )
        assert len(panels) == 4
        by_key = {(p.method, p.n): p for p in panels}
        assert by_key[("mcm", 30)].estimates.size == 60

    def test_skewness_behaviour(self):
        # criterion 08: right-skewed at n = 30, and less skewed at n = 500.  At 2,000
        # estimates the n = 30 skewness is about 4 or more, several times the n = 500
        # one; the n = 500 skewness alone is about 0.44, too near any fixed bound
        panels = histogram_study([30, 500], 2000, methods=("mtum",), seed=7)
        by_n = {p.n: p for p in panels}
        assert by_n[30].skewness > 0.0
        assert abs(by_n[500].skewness) < by_n[30].skewness

    def test_deterministic(self):
        a = histogram_study([30], 25, methods=("mtum",), seed=42)
        b = histogram_study([30], 25, methods=("mtum",), seed=42)
        assert np.array_equal(a[0].estimates, b[0].estimates)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            histogram_study([30], 1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_sample_size_refused_with_its_key(self, n):
        # SimCell's rule: a ConfigError naming n, not numpy's n < 0 or empty panels
        with pytest.raises(ConfigError) as err:
            histogram_study([n], 5)
        assert err.value.key == "n"

    @pytest.mark.parametrize("theta", [0.0, -1.0, 1e-320, math.nan])
    def test_theta_below_the_normal_range_refused(self, theta):
        with pytest.raises(ValueError, match="theta must be at least"):
            histogram_study([30], 5, theta=theta)

    @given(k=st.integers(-1000, 1000), u=st.sampled_from([23.0, math.inf]))
    @settings(max_examples=40, deadline=None)
    def test_scale_free(self, k, u):
        # c = 2^k leaves t/theta, and so every ratio, as it is, and scales
        # every estimate exactly; the skewness is that of the ratios
        c, methods = 2.0**k, ("mle", *METHODS)
        base = histogram_study([30, 50], 40, methods=methods, thresholds=ThresholdPair(0.5, u),
                               theta=10.0, seed=4)
        scaled = histogram_study([30, 50], 40, methods=methods, theta=c * 10.0,
                                 thresholds=ThresholdPair(c * 0.5, c * u), seed=4)
        for p, q in zip(base, scaled, strict=True):
            assert (q.method, q.n, q.failures) == (p.method, p.n, p.failures)
            assert np.array_equal(q.estimates, c * p.estimates)
            assert q.skewness == p.skewness

    def test_skewness_matches_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(12)
        for size in (3, 4, 30, 10_000):
            x = 10.0 * rng.standard_exponential(size) ** 2
            assert mc._skewness(x) == pytest.approx(stats.skew(x, bias=False), rel=1e-13)
        assert math.isnan(mc._skewness(np.full(5, 2.5)))

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about 20 MB and 0.4 s to import, scipy.integrate
        # about 50 MB; SciPy is a test dependency only, the package needs NumPy
        assert _scipy_modules_after("import severfit, severfit.cli") == "[]"

    def test_framework_quadrature_loads_no_scipy(self):
        # the k-equation quadrature on a built-in adapter is NumPy only
        code = """
import math
from severfit.dist import ExponentialModel, ThresholdPair
from severfit.framework import MomentEquation, TruncatedSpec, adapter_from_model, population_quantities
spec = TruncatedSpec((MomentEquation(lambda x: x, ThresholdPair(0.51, 29.96)),
                      MomentEquation(lambda x: x * x, ThresholdPair(1.05, math.inf))))
population_quantities(adapter_from_model(ExponentialModel(10.0)), spec)
"""
        assert _scipy_modules_after(code) == "[]"

    def test_analytic_path_loads_no_scipy(self):
        # influence curves on both built-in adapters (b = 0 and 0.05),
        # efficiencies, the J cross-check and the k-equation report and solve
        code = """
import numpy as np
from severfit.asymptotics import are_mtm, are_table, influence_curve, mtm_integral_J
from severfit.dist import ExponentialModel, ParetoIModel, ThresholdPair
from severfit.framework import (MomentEquation, TruncatedSpec, adapter_from_model,
    asymptotic_report, population_moment_vector, solve_moment_system)
grid = np.linspace(1.5, 40.0, 11)
for model in (ExponentialModel(10.0), ParetoIModel(2.0, 1.5)):
    for method in ("mtm", "mcm"):
        for b in (0.0, 0.05):
            influence_curve(adapter_from_model(model), method, 0.05, b, grid)
are_table(10.0); are_mtm(0.05, 0.05); mtm_integral_J(0.05, 0.95)
exp = lambda th: adapter_from_model(ExponentialModel(th[0]))
spec = TruncatedSpec((MomentEquation(lambda x: x, ThresholdPair(0.51, 29.96)),))
asymptotic_report(exp([10.0]), spec, np.array([[1.0]]))
solve_moment_system(exp, spec, population_moment_vector(exp([10.0]), spec), [8.0])
"""
        assert _scipy_modules_after(code) == "[]"


def _scipy_modules_after(code, *argv):
    """The scipy modules loaded after ``code`` runs in a fresh interpreter."""
    src = Path(mc.__file__).resolve().parent.parent
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    return done.stdout.splitlines()[-1]  # after fit's summary lines


def test_cli_subcommands_load_no_scipy(tmp_path):
    data, config = tmp_path / "losses.csv", tmp_path / "study.cfg"
    losses = np.random.default_rng(3).exponential(10.0, 200)
    data.write_text("loss\n" + "\n".join(map(repr, losses.tolist())) + "\n", encoding="utf-8")
    config.write_text(
        "methods = mcm\ndesign_points = (0.05, 0.05)\nn_list = 50\nblocks = 1\nreps = 20\n",
        encoding="utf-8",
    )
    code = """
import sys
from severfit.cli import main
data, config, out = sys.argv[1:]
for argv in (["fit", "--method", "mtum", "--model", "exp", "--data", data, "--d", "0.5",
              "--u", "20"],
             ["are"],
             ["simulate", "--config", config],
             ["influence", "--theta", "10", "--points", "11"],
             ["hist", "--n-list", "30", "--count", "5"]):
    assert main([*argv, "--out", out]) == 0, argv
"""
    assert _scipy_modules_after(code, data, config, tmp_path / "out.csv") == "[]"
