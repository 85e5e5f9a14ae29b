"""Write bench/reference.json: the references the workload checks compare against.

    python3 bench/record_reference.py

Monte Carlo references come from large runs on seeds that no benchmark seed
maps to (20x2000 replications per sim_study cell, 100,000 estimates per
hist_study panel), so a benchmark run is compared against a figure with a
much smaller standard error than its own.  The analytic references are the
fixed-input outputs of one analytic pass.  Re-record only when the intended
behaviour of the package changes, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy import stats as sps

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from run import DATA_DIR, nproc  # noqa: E402
from severfit import mc  # noqa: E402

REF_SEED = 9_000_001
SIM_REF_BLOCKS = 20
SIM_REF_REPS = 2000
HIST_REF_CHUNKS = 4
HIST_REF_COUNT = 25_000


def sim_reference() -> dict:
    cells = workloads.sim_cells(REF_SEED, SIM_REF_BLOCKS, SIM_REF_REPS)
    results = mc.run_table(cells, conditional=True, workers=nproc())
    return {
        workloads.sim_key(c.method, c.a, c.b, c.n): workloads.sim_summary(c, r) for c, r in results
    }


def hist_reference() -> dict:
    chunks = [
        mc.histogram_study(
            workloads.HIST_N, HIST_REF_COUNT, methods=workloads.METHODS, theta=workloads.THETA,
            thresholds=workloads.HIST_WINDOW, seed=REF_SEED + i,
        )
        for i in range(HIST_REF_CHUNKS)
    ]
    out = {}
    for panels in zip(*chunks):
        estimates = np.concatenate([p.estimates for p in panels])
        pooled = SimpleNamespace(
            n=panels[0].n,
            estimates=estimates,
            failures=sum(p.failures for p in panels),
            skewness=float(sps.skew(estimates, bias=False)),
        )
        out[f"{panels[0].method}/{panels[0].n}"] = workloads.hist_summary(
            pooled, HIST_REF_CHUNKS * HIST_REF_COUNT
        )
    return out


def analytic_reference() -> dict:
    workload = workloads.Analytic(0, DATA_DIR, 1)
    workload.setup()
    output = workload.run_pass()
    if workload.failed:
        raise SystemExit("analytic pass failed; no reference written")
    return {
        key: value
        for key, value in output.items()
        if key == "are_table_csv"
        or key == "asymptotic_report"
        or key.startswith(("influence/", "are_mtm/"))
    }


def main() -> None:
    reference = {
        "sim_study": sim_reference(),
        "hist_study": hist_reference(),
        "analytic": analytic_reference(),
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
