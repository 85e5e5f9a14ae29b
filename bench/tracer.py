"""In-memory span tracing installed from outside the package.

The tracer wraps the public functions each severfit module calls, at the
name the caller resolves at call time (for example ``severfit.mc.sample`` or
the method tables inside ``severfit.estimators``), so the package itself is
not edited.  Each wrapped call records one span: name, start, end and the
span that was open when it began.  Spans are kept in flat arrays and reduced
when the run ends: a name's busy time counts only its outermost spans, and a
span's self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from severfit import asymptotics, cli, dist, estimators, framework, mc


@dataclass(frozen=True)
class LayerTotals:
    """Aggregates for one span name."""

    calls: int
    busy_s: float
    self_s: float


class Tracer:
    """Records spans from wrapped callables; single-threaded use only."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._outer = array("b")
        self._depth: list[int] = []
        self._stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped so that every call records a span named ``name``.

        ``on_result(tracer, result)`` runs after a call that returned.
        """
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self._start)
            self._name.append(nid)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._outer.append(1 if self._depth[nid] == 0 else 0)
            self._end.append(0.0)
            self._depth[nid] += 1
            self._stack.append(index)
            self._start.append(self._clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[index] = self._clock()
                self._stack.pop()
                self._depth[nid] -= 1
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def totals(self) -> dict[str, LayerTotals]:
        """Per-name calls, busy time and self time over every recorded span."""
        return summarize(
            self.names,
            np.frombuffer(self._name, dtype=np.int32),
            np.frombuffer(self._parent, dtype=np.int64),
            np.frombuffer(self._start, dtype=np.float64),
            np.frombuffer(self._end, dtype=np.float64),
            np.frombuffer(self._outer, dtype=np.int8).astype(bool),
        )


def summarize(
    names: list[str],
    name_ids: np.ndarray,
    parents: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    outer: np.ndarray,
) -> dict[str, LayerTotals]:
    """Reduce a span tree to per-name totals.

    ``parents[i]`` is the index of the span open when span ``i`` began, or
    -1; ``outer[i]`` is false when a span of the same name encloses span
    ``i``, so recursion is not counted twice in busy time.  Calls on one
    thread nest and never overlap, so the covered part of a span is the sum
    of its children's durations.
    """
    count = len(names)
    durations = ends - starts
    has_parent = parents >= 0
    child_time = np.bincount(
        parents[has_parent], weights=durations[has_parent], minlength=durations.size
    )
    self_time = durations - child_time
    calls = np.bincount(name_ids, minlength=count)
    busy = np.bincount(name_ids, weights=np.where(outer, durations, 0.0), minlength=count)
    own = np.bincount(name_ids, weights=self_time, minlength=count)
    return {
        name: LayerTotals(calls=int(calls[i]), busy_s=float(busy[i]), self_s=float(own[i]))
        for i, name in enumerate(names)
    }


def _record_solve(method: str) -> Callable:
    def on_result(tracer: Tracer, result) -> None:
        tracer.counters["solves"] += 1
        if result.exists:
            tracer.counters["roots"] += 1
            tracer.counters[f"{method}.roots"] += 1
            tracer.counters[f"{method}.iterations"] += result.iterations

    return on_result


METHODS = ("mtum", "mcm", "mtcm")


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install span wrappers on every traced name, and restore them on exit."""
    patches: list[tuple[object, str, object]] = []

    def patch_attr(owner, attr: str, span: str, on_result=None) -> None:
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(span, original, on_result))

    def patch_key(table: dict, key: str, wrapper) -> None:
        patches.append((table, key, table[key]))
        table[key] = wrapper

    patch_attr(mc, "derive_stream", "mc.derive_stream")
    patch_attr(mc, "run_cell", "mc.run_cell")
    patch_attr(mc, "histogram_study", "mc.histogram_study")
    patch_attr(mc, "sample", "dist.sample")
    patch_attr(dist.RandomSource, "generator", "dist.RandomSource.generator")
    for method in METHODS:
        # fit() reaches samplers and solvers through its method tables, the
        # Monte Carlo engine through the module attributes: wrap both, once.
        patch_attr(estimators, f"sample_{method}", f"estimators.sample_{method}")
        patch_key(estimators._SAMPLERS, method, getattr(estimators, f"sample_{method}"))
        patch_attr(
            estimators, f"solve_{method}_exp", f"estimators.solve_{method}_exp",
            _record_solve(method),
        )
        patch_key(estimators._EXP_SOLVERS, method, getattr(estimators, f"solve_{method}_exp"))
        patch_attr(estimators, f"mu_{method}", f"moments.mu_{method}")
    patch_attr(asymptotics, "avar", "asymptotics.avar")
    patch_attr(estimators, "read_loss_csv", "estimators.read_loss_csv")
    patch_attr(estimators, "fit", "estimators.fit")
    patch_attr(cli, "main", "cli.main")
    for name in ("are_table", "influence_curve", "are_mtm"):
        patch_attr(asymptotics, name, f"asymptotics.{name}")
    for name in (
        "population_quantities",
        "population_moment_vector",
        "sigma_mu",
        "solve_moment_system",
        "sample_moment_vector",
    ):
        patch_attr(framework, name, f"framework.{name}")
    try:
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def per_layer_metrics(
    totals: dict[str, LayerTotals], counters: dict[str, float], passes: int
) -> dict[str, float]:
    """Per-pass layer metrics under the names BENCHMARK.json lists.

    Calls and times are per pass.  Names a workload never reached read 0,
    and so do ratios whose base is 0.
    """
    empty = LayerTotals(0, 0.0, 0.0)

    def get(name: str) -> LayerTotals:
        return totals.get(name, empty)

    out: dict[str, float] = {}

    def calls_busy(name: str) -> None:
        out[f"{name}.calls"] = get(name).calls / passes
        out[f"{name}.busy_s"] = get(name).busy_s / passes

    calls_busy("mc.derive_stream")
    calls_busy("dist.RandomSource.generator")
    calls_busy("dist.sample")
    for method in METHODS:
        calls_busy(f"estimators.sample_{method}")
    for method in METHODS:
        name = f"estimators.solve_{method}_exp"
        roots = counters.get(f"{method}.roots", 0.0)
        out[f"{name}.calls"] = get(name).calls / passes
        out[f"{name}.self_s"] = get(name).self_s / passes
        out[f"{name}.iterations_mean"] = (
            counters.get(f"{method}.iterations", 0.0) / roots if roots else 0.0
        )
    for method in METHODS:
        calls_busy(f"moments.mu_{method}")
    calls_busy("asymptotics.avar")
    solves = counters.get("solves", 0.0)
    out["estimators.exists_ratio"] = counters.get("roots", 0.0) / solves if solves else 0.0
    out["mc.run_cell.busy_s"] = get("mc.run_cell").busy_s / passes
    out["mc.histogram_study.busy_s"] = get("mc.histogram_study").busy_s / passes
    out["estimators.read_loss_csv.busy_s"] = get("estimators.read_loss_csv").busy_s / passes
    out["estimators.fit.busy_s"] = get("estimators.fit").busy_s / passes
    out["cli.main.self_s"] = get("cli.main").self_s / passes
    for name in ("are_table", "influence_curve", "are_mtm"):
        out[f"asymptotics.{name}.busy_s"] = get(f"asymptotics.{name}").busy_s / passes
    for name in ("population_quantities", "sigma_mu", "solve_moment_system", "sample_moment_vector"):
        out[f"framework.{name}.busy_s"] = get(f"framework.{name}").busy_s / passes
    out["framework.population_moment_vector.calls"] = (
        get("framework.population_moment_vector").calls / passes
    )
    return out
