"""Stress run of the batch root solver on random windows.

Each window is a method, thresholds (d, u) and a batch of statistics strictly
inside the method's guard band: uniform shares of the attainable interval,
and shares within 10^-k (k = 1 to 12) of either guard end, where the computed
maps round to staircases.  Every batch is one ``estimators._root`` call.

    python -W error tests/root_stress.py [--triples 20000] [--seed 0]

prints the mean and maximum iterations over the (method, window, statistic)
triples, and exits 1 when an element stalls or takes more than
``MAX_ITERATIONS`` iterations; under ``-W error`` a warning also ends the run.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from severfit.dist import ThresholdPair
from severfit.errors import SolverStallError
from severfit.estimators import _BOUNDARY_GUARD, _METHODS, _root

MAX_ITERATIONS = 60


def windows(rng: np.random.Generator):
    """Endless (method, window, statistics) draws; a batch may be empty."""
    methods = sorted(_METHODS)
    while True:
        method = methods[rng.integers(len(methods))]
        d = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 1e3)
        width = 10.0 ** rng.uniform(-6.0, 3.0)
        t = ThresholdPair(d, math.inf if rng.random() < 0.5 else d + width)
        k = rng.integers(1, 13, size=rng.integers(1, 21))
        kind = rng.integers(3, size=k.size)
        shares = np.where(kind == 0, rng.random(k.size),
                          np.where(kind == 1, 10.0**-k, 1.0 - 10.0**-k))
        guard = _BOUNDARY_GUARD * (t.u - t.d if not t.upper_is_infinite else d)
        low = t.d + guard
        high = (_METHODS[method].sup(t) - guard if not t.upper_is_infinite
                else t.d + 1e6 * max(1.0, d))
        mus = low + shares * (high - low)
        yield method, t, mus[(mus > low) & (mus < high)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--triples", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    iterations, count = [], 0
    for method, t, mus in windows(np.random.default_rng(args.seed)):
        if count >= args.triples:
            break
        try:
            roots = _root(method, mus, t)
        except SolverStallError as exc:
            print(f"stall: {method} on {t}: {exc}", file=sys.stderr)
            return 1
        iterations.append(roots.iterations)
        count += mus.size
    its = np.concatenate(iterations)
    print(f"{its.size} triples in {len(iterations)} windows: "
          f"mean {its.mean():.2f} and max {its.max()} iterations")
    if its.max() > MAX_ITERATIONS:
        print(f"more than {MAX_ITERATIONS} iterations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
