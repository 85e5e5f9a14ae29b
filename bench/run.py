"""severfit benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 bench/run.py --workload sim_study --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, one process

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is non-zero when an output check fails.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA_DIR = ROOT / ".bench_data"
SETUP_REPEATS = 3
# Seconds the reference kernel takes on the machine the baseline was recorded
# on (2 vCPUs, Python 3.11.7, numpy 2.4.6) when that machine is not slowed by
# its neighbours.  Every end-to-end time is expressed at that speed.
REFERENCE_KERNEL_S = 0.17
# Kernel time after each timed part of a pass, or set-up, as a share of its time.
KERNEL_SHARE = 0.2
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import numpy, scipy, severfit, severfit.cli; "
    "print(time.perf_counter() - t)"
)
# Each workload's throughput, printed also under the workload's own name and unit.
ALIASES = {
    "sim_study": ("sim_reps_per_s", "1/s", lambda rate: rate),
    "hist_study": ("hist_estimates_per_s", "1/s", lambda rate: rate),
    "fit_file": ("fit_request_s", "s", lambda rate: 1.0 / rate),
    "analytic": ("analytic_s", "s", lambda rate: 1.0 / rate),
}


def import_program():
    """Import severfit from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import severfit

    if Path(severfit.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"severfit imported from {severfit.__file__}, not from {SRC}")
    return severfit


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_seconds() -> float:
    """Import time of the package and its dependencies in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb(pool_workers: int) -> float:
    """This process's high-water RSS, plus ``pool_workers`` times the largest
    high-water of the worker processes it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if pool_workers else 0
    return (own + pool_workers * children) / 1024.0


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def manifest(workload, args, severfit) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "severfit": severfit.__version__,
        "git_sha": git_sha(),
        "params": workload.params(),
    }


def reference_kernel() -> float:
    """Seconds taken by fixed interpreter and small-array numpy work that
    calls no severfit code: the probe of how fast the machine runs just now."""
    import numpy as np

    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(800_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    gen = np.random.default_rng(5)
    for _ in range(8_000):
        x = gen.standard_exponential(30)
        np.sort(x[(x > 0.5) & (x <= 23.0)]).sum()
        np.log1p(x).mean()
    return time.perf_counter() - start


class ReferenceKernel:
    """Times ``reference_kernel`` in this process and, at the same moments,
    in ``processes - 1`` helper processes, so that a workload that runs a
    process pool is measured against the speed of every vCPU it uses."""

    def __init__(self, processes: int = 1):
        self.helpers = processes - 1
        self.pool = ProcessPoolExecutor(self.helpers) if self.helpers else None
        # a helper's first round runs while its forked pages are still being
        # copied, and reads up to 2x slow: start and warm them before timing
        self.block(0.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown(wait=True)

    def block(self, seconds: float) -> list[float]:
        """Kernel times, in rounds on every process until the rounds have
        taken ``seconds`` (at least one round)."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            helpers = [self.pool.submit(reference_kernel) for _ in range(self.helpers)]
            times.append(reference_kernel())
            times.extend(future.result() for future in helpers)
        return times


def at_reference_speed(times: list[float], blocks: list[list[float]]) -> list[float]:
    """Each time rescaled by the reference kernel timed in the blocks just
    before and just after it (``blocks`` has one more entry than ``times``).

    On a shared host the speed of every process swings by up to 2x for
    seconds to minutes at a time; the kernel slows with the program, so the
    ratio of the two keeps what the program itself costs.
    """
    return [
        t * REFERENCE_KERNEL_S / statistics.mean(before + after)
        for t, before, after in zip(times, blocks, blocks[1:])
    ]


def timed_setups(workload, kernel: ReferenceKernel) -> tuple[list[float], list[list[float]]]:
    """Set up ``SETUP_REPEATS`` times, each a fresh-interpreter import of the
    package plus the workload's in-process set-up; the raw times and the
    reference kernel blocks around them."""
    times, blocks = [], [kernel.block(0.0)]
    for _ in range(SETUP_REPEATS):
        imports = import_seconds()
        start = time.perf_counter()
        workload.setup()
        times.append(imports + time.perf_counter() - start)
        blocks.append(kernel.block(KERNEL_SHARE * times[-1]))
    return times, blocks


def timed_passes(workload, seconds: float, kernel: ReferenceKernel):
    """Run whole passes until ``seconds`` have elapsed (at least one), with
    a block of the reference kernel after each timed part of a pass.

    Returns the part times, the kernel blocks and the outputs; the
    workload's operation counters cover exactly these passes.
    """
    workload.reset_counts()
    parts = workload.parts()
    times, blocks, outputs = [], [kernel.block(0.0)], []
    deadline = time.perf_counter() + seconds
    while True:
        results = []
        for part in parts:
            start = time.perf_counter()
            results.append(part())
            times.append(time.perf_counter() - start)
            blocks.append(kernel.block(KERNEL_SHARE * times[-1]))
        outputs.append(workload.join(results))
        if time.perf_counter() >= deadline:
            return times, blocks, outputs


def check_outputs(workload, outputs) -> list[str]:
    """The first pass is checked in full; every later pass must equal it."""
    problems = workload.check(outputs[0])
    for i, output in enumerate(outputs[1:], start=1):
        if not workload.same(outputs[0], output):
            problems.append(f"pass {i} output differs from pass 0 (same inputs)")
    return problems


def end_to_end(workload, args) -> tuple[list[str], int, int, dict]:
    # the helpers are not waited for before the RSS is read, so it leaves them out
    with ReferenceKernel(max(1, workload.pool_workers)) as kernel:
        setups, setup_blocks = timed_setups(workload, kernel)
        times, blocks, outputs = timed_passes(workload, args.seconds, kernel)
        attempted, failed = workload.attempted, workload.failed
        rss = peak_rss_mb(workload.pool_workers)
    problems = check_outputs(workload, outputs)
    if problems:
        return problems, attempted, failed, {}
    parts = at_reference_speed(times, blocks)
    k = len(parts) // len(outputs)
    raw = [sum(times[i : i + k]) for i in range(0, len(times), k)]
    passes = [sum(parts[i : i + k]) for i in range(0, len(parts), k)]
    rate = workload.units_per_pass / statistics.median(passes)
    metrics = {
        "throughput": {"value": rate, "unit": "1/s"},
        "setup_s": {"value": statistics.median(at_reference_speed(setups, setup_blocks)), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    alias, unit, convert = ALIASES[workload.name]
    print(
        f"{workload.name}: {len(passes)} passes of {workload.units_per_pass} {workload.unit}, "
        f"pass times {' '.join('%.4f' % t for t in raw)} s, "
        f"at reference speed {' '.join('%.4f' % t for t in passes)} s"
    )
    print(
        f"{workload.name}: reference kernel mean per block "
        f"{' '.join('%.4f' % statistics.mean(b) for b in blocks)} s (reference {REFERENCE_KERNEL_S} s)"
    )
    print(f"{workload.name}: {alias} = {convert(rate):.6g} {unit}")
    for name, metric in metrics.items():
        print(f"{workload.name}: {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"{workload.name}: set-ups {' '.join('%.4f' % s for s in setups)} s "
        f"(fresh-interpreter import plus in-process set-up)"
    )
    print(f"{workload.name}: operations attempted {attempted}, failed {failed}")
    return problems, attempted, failed, metrics


def traced(workload, args) -> tuple[list[str], int, int, dict]:
    """Per-layer metrics from traced passes at ``workers=1``, with untraced
    passes alternating with them so that drift in machine speed hits both.

    Spans from pool children do not come back, so traced passes run in
    process; on ``sim_study`` an untraced pass at ``nproc`` workers joins the
    cycle, for the pool speed-up and the worker-count contract.  Every output
    must equal the first, untraced one.
    """
    import tracer as tracing

    timed_setups(workload, ReferenceKernel())
    workload.reset_counts()
    kinds = ("pool", "untraced", "traced") if workload.name == "sim_study" else ("untraced", "traced")
    times = {kind: [] for kind in kinds}
    outputs = []
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not times["traced"]:
        for kind in kinds:
            workers = workload.workers if kind == "pool" else 1
            start = time.perf_counter()
            if kind == "traced":
                with tracing.installed(tracer):
                    outputs.append(workload.run_pass(workers))
            else:
                outputs.append(workload.run_pass(workers))
            times[kind].append(time.perf_counter() - start)
    problems = check_outputs(workload, outputs)
    if problems:
        return problems, workload.attempted, workload.failed, {}
    mean = {kind: statistics.mean(t) for kind, t in times.items()}
    values = tracing.per_layer_metrics(tracer.totals(), tracer.counters, len(times["traced"]))
    values["mc.pool_speedup"] = mean["untraced"] / mean["pool"] if "pool" in mean else 0.0
    values["trace.overhead"] = mean["traced"] / mean["untraced"]
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(
        f"{workload.name}: " + ", ".join(
            f"{kind} {len(t)} passes, mean {mean[kind]:.4f} s" for kind, t in times.items()
        )
    )
    for name, metric in metrics.items():
        print(f"{workload.name}: {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{workload.name}: operations attempted {workload.attempted}, failed {workload.failed}")
    return problems, workload.attempted, workload.failed, metrics


def parse_args(argv):
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.names = names if args.workload == "all" else [args.workload]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        severfit = import_program()
    except ImportError as exc:
        print(f"error: cannot import severfit from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    results = []
    for name in args.names:
        workload = workloads.WORKLOADS[name](args.seed, DATA_DIR, nproc())
        run = traced if args.trace else end_to_end
        problems, attempted, failed, metrics = run(workload, args)
        for problem in problems:
            print(f"CHECK FAILED {name}: {problem}", file=sys.stderr)
        print("manifest " + json.dumps(manifest(workload, args, severfit), sort_keys=True))
        results.append((name, problems, attempted, failed, metrics))

    correct = not any(problems for _, problems, _, _, _ in results)
    if len(results) == 1:
        metrics = results[0][4]
    else:
        metrics = {f"{name}.{k}": v for name, _, _, _, m in results for k, v in m.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r[2] for r in results),
                "failed": sum(r[3] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
