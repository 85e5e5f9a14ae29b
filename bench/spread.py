"""Run each workload on several seeds and report each end-to-end metric's spread.

    python3 bench/spread.py --seeds 10                        # every workload
    python3 bench/spread.py --workload sim_study --seeds 5
    python3 bench/spread.py --seeds 10 --out bench/baseline.json

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the interquartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  Seeds run ``1, 2, ..., seeds``; each run is a
separate ``bench/run.py`` process, as the benchmark is meant to be run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    manifest = next(
        (json.loads(line[len("manifest "):]) for line in lines if line.startswith("manifest ")), None
    )
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return {"result": json.loads(lines[-1]), "manifest": manifest}


def summarize(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median, "bound": bound, "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=None, help="write the summary as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))
    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names if args.workload == "all" else [args.workload]:
        runs = [run_once(name, seed, seconds) for seed in seeds]
        if not all(r["result"]["correct"] for r in runs):
            raise SystemExit(f"{name}: an output check failed")
        report["manifest"] = {k: v for k, v in runs[0]["manifest"].items() if k not in ("seed", "workload", "params")}
        metrics = {
            metric: summarize([r["result"]["metrics"][metric]["value"] for r in runs], bound)
            for metric, bound in bounds.items()
        }
        report["workloads"][name] = {"params": runs[0]["manifest"]["params"], "metrics": metrics}
        for metric, s in metrics.items():
            flag = "" if metric == "setup_s" or s["spread"] <= s["bound"] / 3 else "  <-- above bound/3"
            print(
                f"{name:11s} {metric:12s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {s['bound']}){flag}",
                flush=True,
            )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
