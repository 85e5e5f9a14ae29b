"""Tests of the benchmark itself: seeded inputs, span reduction, metric names."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _inputs(name: str, seed: int, tmp_path: Path):
    """The generated inputs of one workload, without running its warm-up."""
    if name == "sim_study":
        return [(c.seed, c.cell_index, c.n, c.method, c.thresholds) for c in
                workloads.SimStudy(seed, tmp_path, 2).cells]
    if name == "hist_study":
        return workloads.program_seed(seed, 1)
    if name == "fit_file":
        return workloads.fit_samples(seed, rows=1000)
    w = workloads.Analytic(seed, tmp_path, 1)
    w.setup()
    return w.root_thetas, w.moment_sample, w.grids


def _equal(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)) and not isinstance(a, str):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    assert _equal(_inputs(name, 3, tmp_path), _inputs(name, 3, tmp_path))
    assert not _equal(_inputs(name, 3, tmp_path), _inputs(name, 4, tmp_path))


def test_fit_samples_written_exactly(tmp_path):
    from severfit.estimators import read_loss_csv

    samples = workloads.fit_samples(5, rows=2000)
    assert samples["pareto1"].min() > workloads.FIT_X0
    for model, values in samples.items():
        path = tmp_path / f"{model}.csv"
        workloads.write_loss_csv(path, values)
        assert np.array_equal(read_loss_csv(path), values)


def _toy_spans():
    # a [0, 10] encloses b [1, 4] (which encloses c [2, 3]) and b [5, 9];
    # d [10, 20] encloses a recursive d [12, 15]
    names = ["a", "b", "c", "d"]
    rows = [  # name, parent, start, end, outer
        (0, -1, 0.0, 10.0, True),
        (1, 0, 1.0, 4.0, True),
        (2, 1, 2.0, 3.0, True),
        (1, 0, 5.0, 9.0, True),
        (3, -1, 10.0, 20.0, True),
        (3, 4, 12.0, 15.0, False),
    ]
    cols = list(zip(*rows))
    return names, [np.array(c) for c in cols]


def test_self_time_on_toy_span_tree():
    names, (ids, parents, starts, ends, outer) = _toy_spans()
    totals = tracer.summarize(names, ids, parents, starts, ends, outer)
    assert totals["a"] == tracer.LayerTotals(calls=1, busy_s=10.0, self_s=3.0)
    assert totals["b"] == tracer.LayerTotals(calls=2, busy_s=7.0, self_s=6.0)
    assert totals["c"] == tracer.LayerTotals(calls=1, busy_s=1.0, self_s=1.0)
    # recursion: busy counts the outer span only, self time the whole interval once
    assert totals["d"] == tracer.LayerTotals(calls=2, busy_s=10.0, self_s=10.0)


def test_tracer_records_the_toy_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0, 10.0, 12.0, 15.0, 20.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    c = t.wrap("c", lambda: None)
    b = t.wrap("b", lambda inner: inner and c())
    a = t.wrap("a", lambda: (b(True), b(False)))
    d = t.wrap("d", lambda depth: depth and d(depth - 1))
    a()
    d(1)
    names, (ids, parents, starts, ends, outer) = _toy_spans()
    assert t.totals() == tracer.summarize(names, ids, parents, starts, ends, outer)


def test_installed_wrappers_are_restored():
    from severfit import estimators, mc

    before = (mc.sample, estimators.solve_mtum_exp, dict(estimators._SAMPLERS))
    with tracer.installed(tracer.Tracer()):
        assert mc.sample is not before[0]
        assert estimators._EXP_SOLVERS["mtum"] is estimators.solve_mtum_exp
    assert (mc.sample, estimators.solve_mtum_exp, estimators._SAMPLERS) == before


def test_end_to_end_metric_names_match_benchmark_json(monkeypatch, capsys):
    class Tiny(workloads.Workload):
        name = "analytic"
        unit = "passes"

        def params(self):
            return {}

        def setup(self):
            pass

        def run_pass(self, workers=None):
            return self.op("one", lambda: 1)

        def check(self, output):
            return []

    monkeypatch.setattr(run, "import_seconds", lambda: 0.5)
    args = run.parse_args(["--workload", "analytic", "--seconds", "0"])
    problems, attempted, failed, metrics = run.end_to_end(Tiny(0, BENCH_DIR, 1), args)
    assert (problems, attempted, failed) == ([], 1, 0)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in SPEC["end_to_end"])


def test_times_rescaled_by_the_kernel_around_them():
    ref = run.REFERENCE_KERNEL_S
    blocks = [[ref], [3 * ref], [ref, 5 * ref]]
    # kernel samples around the first time average 2x the reference, around the second 3x
    assert run.at_reference_speed([3.0, 6.0], blocks) == pytest.approx([1.5, 2.0])


def test_fit_file_pass_is_timed_per_request():
    w = workloads.FitFile(0, BENCH_DIR, 1)
    w._fit = lambda model, argv: (model, 0, "")
    parts = w.parts()
    assert len(parts) == len(workloads.FIT_REQUESTS)
    assert w.join([part() for part in parts]) == w.run_pass()


def test_per_layer_metric_names_match_benchmark_json():
    names = set(tracer.per_layer_metrics({}, {}, 1)) | {"mc.pool_speedup", "trace.overhead"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(SPEC["workloads"][0]) == {"name", "why"}
    assert set(run.ALIASES) == {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
