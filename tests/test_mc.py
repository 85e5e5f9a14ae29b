"""Monte Carlo engine: stream derivation, determinism, failure bookkeeping,
table CSV, config parsing, and the histogram study."""

import dataclasses
import math

import numpy as np
import pytest

from severfit import mc
from severfit.dist import ThresholdPair
from severfit.errors import ConfigError
from severfit.mc import (
    DEFAULT_SEED,
    SimCell,
    SimConfig,
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


class TestDeriveStream:
    def test_reproducible(self):
        a = derive_stream(5, 1, 2)
        b = derive_stream(5, 1, 2)
        assert np.array_equal(a.uniform(16), b.uniform(16))
        # the (cell, block) layout of the stream index that every seeded run rests on
        assert a.stream == (1 << 42) | (2 << 21)

    def test_distinct_indices_distinct_streams(self):
        base = derive_stream(5, 1, 2).uniform(4)
        for cell, block in [(0, 0), (1, 3), (2, 2), (2, 1)]:
            other = derive_stream(5, cell, block).uniform(4)
            assert not np.array_equal(base, other)

    def test_collision_scan(self):
        # one million derivations: all first outputs distinct
        firsts = np.empty(10**6)
        i = 0
        for cell in range(1000):
            for block in range(1000):
                firsts[i] = derive_stream(12345, cell, block).uniform(1)[0]
                i += 1
        assert np.unique(firsts).size == firsts.size

    def test_bounds(self):
        with pytest.raises(ValueError):
            derive_stream(1, -1, 0)
        with pytest.raises(ValueError):
            derive_stream(1, 0, 2**21)


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

    def test_chunk_size_changes_nothing(self, monkeypatch):
        # draws continue one stream across chunks, and the block sums are
        # taken over the whole block, so 7-row chunks give the same bits
        cells = [
            self.CELL,
            cell_from_quantiles(0.10, 0.70, 10.0, 40, "mtum", replications_per_block=60,
                                blocks=2, seed=3, cell_index=1),
        ]
        default = [run_cell(c, conditional=True, workers=1) for c in cells]
        panels = histogram_study([30, 50], 60, seed=5)
        for cell, expected in zip(cells, default):
            monkeypatch.setattr(mc, "_CHUNK_VALUES", 7 * cell.n)
            assert mc._chunks(cell.replications_per_block, cell.n)[0] == 7
            assert run_cell(cell, conditional=True, workers=1) == expected
        monkeypatch.setattr(mc, "_CHUNK_VALUES", 7 * 30)
        for small, full in zip(histogram_study([30, 50], 60, seed=5), panels):
            assert (small.method, small.n, small.failures) == (full.method, full.n, full.failures)
            assert np.array_equal(small.estimates, full.estimates)

    def test_one_window_pass_per_chunk(self, monkeypatch):
        # every method of the study reads the same window triple of a chunk
        from severfit import estimators

        shapes = []
        window = estimators._window
        monkeypatch.setattr(
            estimators, "_window", lambda x, t: shapes.append(x.shape) or window(x, t)
        )
        monkeypatch.setattr(mc, "_CHUNK_VALUES", 7 * 30)
        panels = histogram_study([30], 20, seed=5)
        assert [p.method for p in panels] == ["mtum", "mcm", "mtcm"]
        assert shapes == [(7, 30), (7, 30), (6, 30)]

    def test_pareto_cell_matches_exponential_twin(self):
        # log(y/x0) of Pareto I(1/theta, x0) draws is Exp(theta) on the
        # log-scale thresholds, so a Pareto cell draws its exponential twin
        for method in ("mle", "mtum", "mcm", "mtcm"):
            exp_cell = cell_from_quantiles(
                0.05, 0.05, 10.0, 80, method,
                replications_per_block=150, blocks=3, seed=8, cell_index=6,
            )
            pareto_cell = dataclasses.replace(exp_cell, model="pareto1", x0=2.0)
            exp_report = run_cell(exp_cell, workers=1)
            pareto_report = run_cell(pareto_cell, workers=1)
            assert pareto_report == exp_report, method

    def test_invalid_cell_config(self):
        with pytest.raises(ConfigError):
            SimCell(n=0, method="mcm", theta_true=10.0, thresholds=ThresholdPair(0, 1))
        with pytest.raises(ConfigError):
            SimCell(n=10, method="huber", theta_true=10.0, thresholds=ThresholdPair(0, 1))
        with pytest.raises(ConfigError):
            SimCell(n=10, method="mcm", theta_true=-1.0, thresholds=ThresholdPair(0, 1))


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

    def test_one_pool_capped_by_tasks_and_cpus(self, monkeypatch):
        sizes = []

        class InProcessPool:
            """Stands in for ProcessPoolExecutor, so no process is started."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        cells = self._cells() + [
            cell_from_quantiles(0.05, 0.05, 10.0, 60, "mtcm",
                                replications_per_block=30, blocks=2, seed=9, cell_index=2)
        ]
        expected = run_table(cells, workers=1)
        monkeypatch.setattr(mc, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setenv("SEVERFIT_THREADS", "64")
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
        assert run_table(cells) == expected  # 6 tasks, 4 CPUs
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 16)
        assert run_table(cells) == expected  # 6 tasks, 16 CPUs
        assert run_table(cells, workers=3) == expected
        assert run_cell(cells[0], workers=8) == expected[0][1]  # 2 tasks
        assert run_table(cells[:1], workers=1) == expected[:1]  # in process
        assert sizes == [4, 6, 3, 2]


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

    def test_defaults(self):
        cfg = parse_sim_config("")
        assert cfg == SimConfig()
        assert len(cfg.design_points) == 7

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_sim_config("samples = 10")
        assert err.value.key == "samples"

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_sim_config("blocks = many")
        assert err.value.key == "blocks"

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
        # panels carry Freedman-Diaconis bins consistent with the estimates
        p = by_key[("mcm", 30)]
        assert p.bin_counts.sum() == p.estimates.size
        assert len(p.bin_edges) == len(p.bin_counts) + 1

    def test_skewness_behaviour(self):
        panels = histogram_study([30, 500], 100, methods=("mtum",), seed=7)
        by_n = {p.n: p for p in panels}
        assert by_n[30].skewness > 0.0
        assert abs(by_n[500].skewness) < 0.5

    def test_deterministic(self):
        a = histogram_study([30], 25, methods=("mtum",), seed=42)
        b = histogram_study([30], 25, methods=("mtum",), seed=42)
        assert np.array_equal(a[0].estimates, b[0].estimates)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            histogram_study([30], 1)

    def test_skewness_matches_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(12)
        for size in (3, 4, 30, 10_000):
            x = 10.0 * rng.standard_exponential(size) ** 2
            assert mc._skewness(x) == pytest.approx(stats.skew(x, bias=False), rel=1e-13)
        assert math.isnan(mc._skewness(np.full(5, 2.5)))

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about 20 MB and 0.4 s to import, scipy.integrate
        # about 50 MB; nothing on the fit or Monte Carlo path needs either
        import os
        import subprocess
        import sys
        from pathlib import Path

        import severfit

        src = Path(severfit.__file__).resolve().parent.parent
        code = (
            "import sys, severfit, severfit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            check=True, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert done.stdout.strip() == "[]"
