"""The benchmark's four workloads.

Each workload makes its inputs from the benchmark seed, runs one timed pass
through the public severfit entry points, and checks a pass's output.  The
program receives only the generated inputs.  Checks on fixed inputs compare
against ``reference.json`` at the tolerances the repository's own tests use;
checks on Monte Carlo output are statistical, so a change that re-lays the
random streams still passes while a wrong estimator does not.
"""

from __future__ import annotations

import functools
import io
import json
import math
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from severfit import asymptotics, cli, framework, mc
from severfit.dist import ExponentialModel, ParetoIModel, ThresholdPair

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

THETA = 10.0
METHODS = ("mtum", "mcm", "mtcm")
# Standard errors allowed between a statistic and its reference.
K_SIGMA = 6.0


def program_seed(seed: int, stream: int) -> int:
    """A 63-bit seed for one input stream of one workload, derived from the benchmark seed."""
    entropy = seed % 2**64
    return int(np.random.SeedSequence(entropy, spawn_key=(stream,)).generate_state(1, np.uint64)[0] >> 1)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _close(value: float, ref: float, *, rel: float = 0.0, abs_: float = 0.0) -> bool:
    return abs(value - ref) <= max(abs_, rel * abs(ref))


def _within_sigma(value: float, ref: float, se: float, ref_se: float) -> bool:
    return abs(value - ref) <= K_SIGMA * math.hypot(se, ref_se)


def _light_tailed(ref: dict) -> bool:
    """Whether a cell's mean ratio and RE are fit for a K_SIGMA comparison.

    Where the window statistic sits within about four standard deviations of
    the end of its attainable interval, a replication near that end gives an
    arbitrarily large estimate, so moment statistics of a few thousand
    replications have no useful standard error.  Those cells show it in the
    reference as failures or as a per-replication sd of theta_hat/theta above
    0.25; their failure counts are still checked.
    """
    return ref["failure_p"] == 0.0 and ref["sd_ratio_rep"] < 0.25


def _failures_plausible(failures: int, total: int, p_ref: float, ref_total: int) -> bool:
    """A failure count consistent with the reference rate (binomial, K_SIGMA wide).

    Where the reference rate predicts at least 20 failures, none at all is
    refused: those cells exist to exercise the nonexistence path.
    """
    expected = p_ref * total
    if expected >= 20.0 and failures == 0:
        return False
    spread = math.sqrt(total * p_ref * (1.0 - p_ref) + total * total * p_ref / ref_total)
    return abs(failures - expected) <= K_SIGMA * spread + 3.0


class Workload:
    """One workload: ``setup`` is repeatable, ``run_pass`` returns the pass's
    output and ``check`` returns a list of problems with one output.

    Every operation of a pass goes through ``op``, which counts it and turns
    an exception into a failure.
    """

    name = ""
    unit = ""
    units_per_pass = 1
    pool_workers = 0

    def __init__(self, seed: int, data_dir: Path, workers: int):
        self.seed = seed
        self.data_dir = data_dir
        self.workers = workers
        self.reset_counts()

    def reset_counts(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, key: str, fn, *args, operations: int = 1, **kwargs):
        """Run a call that performs ``operations`` operations; its result, or
        None when it raised, which fails them all."""
        self.attempted += operations
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += operations
            print(f"operation failed: {self.name} {key}", file=sys.stderr)
            traceback.print_exc()
            return None

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, workers: int | None = None):
        raise NotImplementedError

    def parts(self) -> list:
        """The pass at the default worker count, as calls that are timed one
        by one; ``join`` makes the pass's output from their results."""
        return [self.run_pass]

    def join(self, results: list):
        return results[0]

    def check(self, output) -> list[str]:
        raise NotImplementedError

    def same(self, a, b) -> bool:
        """Whether two pass outputs are identical."""
        return a == b


# ---------------------------------------------------------------- sim_study

SIM_DESIGN = ((0.05, 0.05), (0.10, 0.10), (0.25, 0.00), (0.10, 0.70))
SIM_N = (50, 1000)
SIM_BLOCKS = 4
SIM_REPS = 500


def sim_key(method: str, a: float, b: float, n: int) -> str:
    return f"{method}/{a}/{b}/{n}"


def sim_cells(seed: int, blocks: int, reps: int) -> list:
    """The criterion-07-shaped study: design x n x method, cell indices in that order."""
    cells = []
    for a, b in SIM_DESIGN:
        for n in SIM_N:
            for method in METHODS:
                cells.append(
                    mc.cell_from_quantiles(
                        a, b, THETA, n, method,
                        replications_per_block=reps, blocks=blocks,
                        seed=seed, cell_index=len(cells),
                    )
                )
    return cells


def sim_summary(cell, report) -> dict:
    """Reference statistics of one cell run with ``conditional=True``."""
    total = cell.blocks * cell.replications_per_block
    return {
        "failure_p": report.failure_count / report.total_samples,
        "total": total,
        "mean_ratio": report.mean_ratio,
        "se_mean_ratio": report.se_mean_ratio,
        "re": report.re,
        "se_re": report.se_re,
        # spread of one replication, for scaling the standard error to any design
        "sd_ratio_rep": report.se_mean_ratio * math.sqrt(total),
        "sd_re_rep": report.se_re * math.sqrt(total),
    }


class SimStudy(Workload):
    """``mc.run_table`` on 24 cells through the process pool."""

    name = "sim_study"
    unit = "replications"

    def __init__(self, seed, data_dir, workers):
        super().__init__(seed, data_dir, workers)
        self.cells = sim_cells(program_seed(seed, 0), SIM_BLOCKS, SIM_REPS)
        self.units_per_pass = sum(c.blocks * c.replications_per_block for c in self.cells)
        self.pool_workers = min(workers, SIM_BLOCKS) if workers > 1 else 0

    def params(self) -> dict:
        return {
            "theta": THETA, "methods": list(METHODS), "design": [list(p) for p in SIM_DESIGN],
            "n": list(SIM_N), "blocks": SIM_BLOCKS, "reps": SIM_REPS,
            "workers": self.workers, "cells": len(self.cells),
        }

    def setup(self) -> None:
        warm = mc.cell_from_quantiles(
            0.05, 0.05, THETA, 50, "mtum", replications_per_block=5, blocks=self.workers, seed=1,
        )
        mc.run_table([warm], workers=self.workers)

    def run_pass(self, workers=None):
        result = self.op(
            "run_table", mc.run_table, self.cells, workers=workers or self.workers,
            operations=len(self.cells),
        )
        return [None] * len(self.cells) if result is None else [report for _, report in result]

    def check(self, output) -> list[str]:
        ref = load_reference()["sim_study"]
        problems = []
        for cell, report in zip(self.cells, output):
            key = sim_key(cell.method, cell.a, cell.b, cell.n)
            r = ref[key]
            if report is None:
                problems.append(f"{key}: run_table raised")
                continue
            total = cell.blocks * cell.replications_per_block
            if report.total_samples != total:
                problems.append(f"{key}: total {report.total_samples} != {total}")
            if not _failures_plausible(report.failure_count, total, r["failure_p"], r["total"]):
                problems.append(
                    f"{key}: {report.failure_count} failures, reference rate {r['failure_p']:.4g}"
                )
            if report.failure_count > 0:
                if report.re is not None:
                    problems.append(f"{key}: RE reported despite failures")
                continue
            if report.re is None or report.mean_ratio is None:
                problems.append(f"{key}: no RE without failures")
                continue
            if not _light_tailed(r):
                continue
            se_ratio = r["sd_ratio_rep"] / math.sqrt(total)
            se_re = r["sd_re_rep"] / math.sqrt(total)
            if not _within_sigma(report.mean_ratio, r["mean_ratio"], se_ratio, r["se_mean_ratio"]):
                problems.append(f"{key}: mean ratio {report.mean_ratio:.5f}, reference {r['mean_ratio']:.5f}")
            if not _within_sigma(report.re, r["re"], se_re, r["se_re"]):
                problems.append(f"{key}: RE {report.re:.4f}, reference {r['re']:.4f}")
        return problems


# --------------------------------------------------------------- hist_study

HIST_N = (30, 500)
HIST_COUNT = 10_000
HIST_WINDOW = ThresholdPair(0.50, 23.00)


def hist_summary(panel, count: int) -> dict:
    """Statistics of one histogram panel: existence rate, mean ratio, RE, skewness."""
    est = panel.estimates
    m = est.size
    ratio = est / THETA
    sq = (est - THETA) ** 2
    mse = float(sq.mean())
    re = THETA * THETA / panel.n / mse
    return {
        "failure_p": panel.failures / count,
        "total": count,
        "mean_ratio": float(ratio.mean()),
        "se_mean_ratio": float(ratio.std(ddof=1) / math.sqrt(m)),
        "sd_ratio_rep": float(ratio.std(ddof=1)),
        "re": re,
        "se_re": re * float(sq.std(ddof=1)) / mse / math.sqrt(m),
        "skewness": panel.skewness,
    }


class HistStudy(Workload):
    """``mc.histogram_study`` at small n, single process, every method on the same samples."""

    name = "hist_study"
    unit = "estimates"
    units_per_pass = len(HIST_N) * HIST_COUNT * len(METHODS)

    def __init__(self, seed, data_dir, workers):
        super().__init__(seed, data_dir, workers)
        self.study_seed = program_seed(seed, 1)

    def params(self) -> dict:
        return {
            "theta": THETA, "methods": list(METHODS), "n": list(HIST_N), "count": HIST_COUNT,
            "window": [HIST_WINDOW.d, HIST_WINDOW.u],
        }

    def setup(self) -> None:
        mc.histogram_study([30], 5, methods=METHODS, thresholds=HIST_WINDOW, seed=1)

    def run_pass(self, workers=None):
        return self.op(
            "histogram_study", mc.histogram_study, HIST_N, HIST_COUNT,
            methods=METHODS, theta=THETA, thresholds=HIST_WINDOW, seed=self.study_seed,
            operations=len(HIST_N) * len(METHODS),
        )

    def same(self, a, b) -> bool:
        if a is None or b is None:
            return a is b
        return all(
            (p.method, p.n, p.failures) == (q.method, q.n, q.failures)
            and np.array_equal(p.estimates, q.estimates)
            for p, q in zip(a, b, strict=True)
        )

    def check(self, output) -> list[str]:
        if output is None:
            return ["hist_study: histogram_study raised"]
        ref = load_reference()["hist_study"]
        problems = []
        if [(p.n, p.method) for p in output] != [(n, m) for n in HIST_N for m in METHODS]:
            return ["hist_study: unexpected panel layout"]
        for panel in output:
            key = f"{panel.method}/{panel.n}"
            r = ref[key]
            if panel.estimates.size + panel.failures != HIST_COUNT:
                problems.append(f"{key}: estimates + failures != {HIST_COUNT}")
                continue
            if not _failures_plausible(panel.failures, HIST_COUNT, r["failure_p"], r["total"]):
                problems.append(f"{key}: {panel.failures} failures, reference rate {r['failure_p']:.4g}")
            s = hist_summary(panel, HIST_COUNT)
            for stat in ("mean_ratio", "re") if _light_tailed(r) else ():
                if not _within_sigma(s[stat], r[stat], s[f"se_{stat}"], r[f"se_{stat}"]):
                    problems.append(f"{key}: {stat} {s[stat]:.5f}, reference {r[stat]:.5f}")
            # criterion 08's property: clearly right-skewed at the smallest n
            if panel.n == min(HIST_N) and r["skewness"] > 0.2 and not panel.skewness > 0:
                problems.append(f"{key}: skewness {panel.skewness:.3f} not positive")
        return problems


# ----------------------------------------------------------------- fit_file

FIT_ROWS = 1_000_000
FIT_X0 = 1.5
FIT_ALPHA = 2.0
FIT_REQUESTS = (
    ("exp", ["--method", "mtum", "--model", "exp", "--d", "0.51", "--u", "29.96"]),
    ("pareto1", ["--method", "mtcm", "--model", "pareto1", "--d", "1.6", "--u", "20", "--x0", "1.5"]),
)
CSV_HEADER = "method,model,n,exists,estimate,avar,se,reason"


def fit_samples(seed: int, rows: int = FIT_ROWS) -> dict[str, np.ndarray]:
    """Exp(theta = 10) and Pareto I(alpha = 2, x0 = 1.5) losses."""
    gen = np.random.default_rng(program_seed(seed, 2))
    exp = THETA * gen.standard_exponential(rows)
    pareto = FIT_X0 * np.exp(gen.standard_exponential(rows) / FIT_ALPHA)
    # Pareto data must lie strictly above x0
    pareto = np.maximum(pareto, np.nextafter(FIT_X0, math.inf))
    return {"exp": exp, "pareto1": pareto}


def loss_csv_text(values: np.ndarray) -> str:
    """One ``loss`` column; repr round-trips every float exactly."""
    return "loss\n" + "\n".join(map(repr, values.tolist())) + "\n"


def write_loss_csv(path: Path, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(loss_csv_text(values))


def _bisect_increasing(forward, target: float, lo: float = 1e-6, hi: float = 1e6) -> float:
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if forward(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _mu_mtum(theta: float, d: float, u: float) -> float:
    w = u - d
    return d + theta - w / math.expm1(w / theta)


def _mu_mtcm(theta: float, d: float, u: float) -> float:
    return d - theta * math.expm1(-(u - d) / theta)


def independent_fit(model: str, data: np.ndarray) -> float:
    """The benchmark's own root of each request's matching equation."""
    if model == "exp":
        d, u = 0.51, 29.96
        mask = (data > d) & (data <= u)
        mu_hat = float(data[mask].sum() / mask.sum())
        return _bisect_increasing(lambda th: _mu_mtum(th, d, u), mu_hat)
    d, u = math.log(1.6 / FIT_X0), math.log(20.0 / FIT_X0)
    z = np.log(data / FIT_X0)
    above = int((z > d).sum())
    mu_hat = (float(z[(z > d) & (z <= u)].sum()) + u * int((z > u).sum())) / above
    return 1.0 / _bisect_increasing(lambda th: _mu_mtcm(th, d, u), mu_hat)


class FitFile(Workload):
    """In-process ``severfit fit`` requests on two 10^6-row loss files."""

    name = "fit_file"
    unit = "requests"
    units_per_pass = len(FIT_REQUESTS)

    def __init__(self, seed, data_dir, workers):
        super().__init__(seed, data_dir, workers)
        self.samples = fit_samples(seed)
        # Formatting 2 x 10^6 floats is the benchmark's own work; it is done
        # once, and each set-up writes the files from it.
        self.texts = {model: loss_csv_text(values) for model, values in self.samples.items()}

    def params(self) -> dict:
        return {"rows": FIT_ROWS, "requests": [argv for _, argv in FIT_REQUESTS]}

    def _path(self, model: str) -> Path:
        return self.data_dir / f"fit_{model}.csv"

    def setup(self) -> None:
        self.data_dir.mkdir(parents=True, exist_ok=True)
        for model, text in self.texts.items():
            with open(self._path(model), "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        small = self.data_dir / "fit_warmup.csv"
        write_loss_csv(small, self.samples["exp"][:1000])
        self._request(["fit", "--data", str(small)] + FIT_REQUESTS[0][1])

    @staticmethod
    def _request(argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue() + err.getvalue()

    def _fit(self, model: str, argv: list[str]) -> tuple:
        result = self.op(model, self._request, ["fit", "--data", str(self._path(model))] + argv)
        code, text = result if result is not None else (None, "")
        if code == 1:
            self.failed += 1
        return model, code, text

    def run_pass(self, workers=None):
        return [self._fit(model, argv) for model, argv in FIT_REQUESTS]

    def parts(self) -> list:
        return [functools.partial(self._fit, model, argv) for model, argv in FIT_REQUESTS]

    def join(self, results: list):
        return results

    def check(self, output) -> list[str]:
        problems = []
        truth = {"exp": THETA, "pareto1": FIT_ALPHA}
        for model, code, text in output:
            if code != 0:
                problems.append(f"fit {model}: exit code {code}: {text.strip()}")
                continue
            lines = text.splitlines()
            if CSV_HEADER not in lines:
                problems.append(f"fit {model}: no CSV header in output")
                continue
            row = lines[lines.index(CSV_HEADER) + 1].split(",")
            n, exists, estimate, avar, se = int(row[2]), row[3], float(row[4]), float(row[5]), float(row[6])
            if n != FIT_ROWS or exists != "true":
                problems.append(f"fit {model}: n={n} exists={exists}")
                continue
            ref = independent_fit(model, self.samples[model])
            # criterion 04's round-trip tolerance
            if not _close(estimate, ref, rel=1e-8):
                problems.append(f"fit {model}: estimate {estimate!r}, independent root {ref!r}")
            if not _close(se, math.sqrt(avar / n), rel=1e-12):
                problems.append(f"fit {model}: se {se!r} != sqrt(avar/n)")
            if abs(estimate - truth[model]) > K_SIGMA * se:
                problems.append(f"fit {model}: estimate {estimate!r} is {K_SIGMA} se from {truth[model]}")
        return problems


# ----------------------------------------------------------------- analytic

ANALYTIC_AB = (0.05, 0.05)
ANALYTIC_GRID_POINTS = 1001
ANALYTIC_ROOTS = 50
ANALYTIC_WINDOW = ThresholdPair(0.51, 29.96)
K2_WINDOWS = (ThresholdPair(0.51, 29.96), ThresholdPair(1.05, 23.03))
MOMENT_ROWS = 1_000_000


def _h_identity(x):
    return x


def _h_square(x):
    return x * x


def k2_spec():
    """The criterion-06 two-equation spec."""
    return framework.TruncatedSpec(
        (
            framework.MomentEquation(h=_h_identity, window=K2_WINDOWS[0]),
            framework.MomentEquation(h=_h_square, window=K2_WINDOWS[1]),
        )
    )


def k1_spec():
    return framework.TruncatedSpec((framework.MomentEquation(h=_h_identity, window=ANALYTIC_WINDOW),))


def _exp_family(theta):
    return framework.adapter_from_model(ExponentialModel(float(theta[0])))


def are_mtm_pairs() -> list[tuple[float, float]]:
    grid = asymptotics.default_grid()
    return [(a, b) for a in grid for b in grid if a + b < 1.0]


def influence_models() -> dict[str, object]:
    return {"exp": ExponentialModel(THETA), "pareto1": ParetoIModel(FIT_ALPHA, FIT_X0)}


class Analytic(Workload):
    """Closed forms, quadrature and the k-equation framework; no sampling engine."""

    name = "analytic"
    unit = "passes"
    units_per_pass = 1

    def params(self) -> dict:
        return {
            "theta": THETA, "influence_ab": list(ANALYTIC_AB), "grid_points": ANALYTIC_GRID_POINTS,
            "are_mtm_pairs": len(are_mtm_pairs()), "roots": ANALYTIC_ROOTS,
            "moment_rows": MOMENT_ROWS,
        }

    def setup(self) -> None:
        gen = np.random.default_rng(program_seed(self.seed, 3))
        self.root_thetas = 5.0 + 15.0 * gen.random(ANALYTIC_ROOTS)
        self.moment_sample = THETA * gen.standard_exponential(MOMENT_ROWS)
        self.grids = {}
        for label, model in influence_models().items():
            adapter = framework.adapter_from_model(model)
            self.grids[label] = np.linspace(
                adapter.support[0], adapter.quantile(0.999), ANALYTIC_GRID_POINTS
            )
        adapter = framework.adapter_from_model(ExponentialModel(THETA))
        asymptotics.are_table_csv(asymptotics.are_table(THETA))
        asymptotics.influence_curve(adapter, "mtm", *ANALYTIC_AB, [1.0, 2.0])
        asymptotics.are_mtm(0.05, 0.05)
        framework.asymptotic_report(adapter, k2_spec())
        framework.sample_moment_vector(self.moment_sample[:1000], k2_spec())

    def run_pass(self, workers=None):
        out: dict[str, object] = {}

        def call(key: str, fn, *args):
            out[key] = self.op(key, fn, *args)
            return out[key]

        reports = call("are_table", asymptotics.are_table, THETA)
        if reports is not None:
            call("are_table_csv", asymptotics.are_table_csv, reports)
        for label, model in influence_models().items():
            adapter = framework.adapter_from_model(model)
            for method in ("mtm", "mcm"):
                curve = call(
                    f"influence/{label}/{method}", asymptotics.influence_curve,
                    adapter, method, *ANALYTIC_AB, self.grids[label],
                )
                if curve is not None:
                    out[f"influence/{label}/{method}"] = curve.values.tolist()
        for a, b in are_mtm_pairs():
            call(f"are_mtm/{a}/{b}", asymptotics.are_mtm, a, b)
        exp_adapter = framework.adapter_from_model(ExponentialModel(THETA))
        report = call("asymptotic_report", framework.asymptotic_report, exp_adapter, k2_spec())
        if report is not None:
            out["asymptotic_report"] = {"mu": report.mu.tolist(), "sigma_mu": report.sigma_mu.tolist()}
        d, u = ANALYTIC_WINDOW.d, ANALYTIC_WINDOW.u
        for i, theta in enumerate(self.root_thetas):
            target = _mu_mtum(float(theta), d, u)
            root = call(
                f"root/{i}", framework.solve_moment_system,
                _exp_family, k1_spec(), [target], [target - d],
            )
            if root is not None:
                out[f"root/{i}"] = float(root[0])
        vec = call("moment_vector", framework.sample_moment_vector, self.moment_sample, k2_spec())
        if vec is not None:
            out["moment_vector"] = vec.tolist()
        return out

    def check(self, output) -> list[str]:
        ref = load_reference()["analytic"]
        problems = []
        if output.get("are_table_csv") is None:
            return ["analytic: are_table failed"]
        got_rows = [line.split(",") for line in output["are_table_csv"].splitlines()]
        ref_rows = [line.split(",") for line in ref["are_table_csv"].splitlines()]
        if len(got_rows) != len(ref_rows) or got_rows[0] != ref_rows[0]:
            problems.append("are_table_csv: layout differs from reference")
        else:
            for got, want in zip(got_rows[1:], ref_rows[1:]):
                same_text = got[0] == want[0] and got[6] == want[6] and (got[5] == "") == (want[5] == "")
                numbers = [(float(g), float(w)) for g, w in zip(got[1:5], want[1:5])]
                if not same_text or not all(
                    g == w or _close(g, w, rel=1e-12) for g, w in numbers
                ) or (want[5] and not _close(float(got[5]), float(want[5]), abs_=1e-12)):
                    problems.append(f"are_table_csv: row {','.join(got)} != {','.join(want)}")
        for label in influence_models():
            for method in ("mtm", "mcm"):
                key = f"influence/{label}/{method}"
                got, want = output.get(key), ref[key]
                # criterion 03's tolerance
                if got is None or len(got) != len(want) or max(
                    abs(g - w) for g, w in zip(got, want)
                ) > 1e-8:
                    problems.append(f"{key}: differs from reference by more than 1e-8")
        for a, b in are_mtm_pairs():
            key = f"are_mtm/{a}/{b}"
            # criterion 02's tolerance on the J quadrature
            if output.get(key) is None or not _close(output[key], ref[key], abs_=1e-6):
                problems.append(f"{key}: {output.get(key)!r}, reference {ref[key]!r}")
        got = output.get("asymptotic_report")
        want = ref["asymptotic_report"]
        if got is None:
            problems.append("asymptotic_report failed")
        else:
            if not all(_close(g, w, abs_=1e-11) for g, w in zip(got["mu"], want["mu"])):
                problems.append("asymptotic_report: mu differs from reference")
            if not all(
                _close(g, w, rel=1e-9)
                for grow, wrow in zip(got["sigma_mu"], want["sigma_mu"])
                for g, w in zip(grow, wrow)
            ):
                problems.append("asymptotic_report: sigma_mu differs from reference")
        for i, theta in enumerate(self.root_thetas):
            root = output.get(f"root/{i}")
            if root is None or not _close(root, float(theta), rel=1e-8):
                problems.append(f"root/{i}: {root!r}, true theta {theta!r}")
        vec = output.get("moment_vector")
        x = self.moment_sample
        expected = []
        for (w, h) in zip(K2_WINDOWS, (x, x * x)):
            mask = (x > w.d) & (x <= w.u)
            expected.append(float(h[mask].sum() / mask.sum()))
        if vec is None or not all(_close(g, w, rel=1e-12) for g, w in zip(vec, expected)):
            problems.append(f"moment_vector: {vec!r}, direct {expected!r}")
        return problems


WORKLOADS = {w.name: w for w in (SimStudy, HistStudy, FitFile, Analytic)}
