"""Command-line interface.

Subcommands: ``fit`` (estimate from a loss CSV), ``are`` (efficiency table),
``simulate`` (Monte Carlo study), ``influence`` (influence-function curves),
and ``hist`` (repeated small-sample estimates).  All output is CSV with a
header row; everything is deterministic given the flags and seed.

Exit codes: 0 success, 1 input or config error, 2 statistical nonexistence.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable, Sequence

import numpy as np

from . import asymptotics, estimators, mc
from .dist import ExponentialModel, ParetoIModel, ThresholdPair
from .asymptotics import _fmt
from .errors import SeverfitError
from .framework import _quantile_thresholds, adapter_from_model

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_SOLUTION = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the stable contract here
    # reserves 2 for statistical nonexistence, so remap to an exception.
    def error(self, message):
        raise _UsageError(message)


def _list_of(convert: Callable[[str], object]) -> Callable[[str], list]:
    def parse(text: str) -> list:
        try:
            return [convert(tok) for tok in mc._list_items(text)]
        except ValueError as exc:  # argparse's own message would name `parse`, not the fault
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_float_list, _int_list, _method_list = _list_of(float), _list_of(int), _list_of(str.lower)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="severfit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a loss data file")
    p_fit.add_argument("--method", required=True, choices=estimators.FIT_METHODS)
    p_fit.add_argument("--model", required=True, choices=["exp", "pareto1"])
    p_fit.add_argument("--data", required=True, help="CSV of losses (column 'loss' or single column)")
    p_fit.add_argument("--d", type=float, default=None, help="lower threshold")
    p_fit.add_argument("--u", type=float, default=None, help="upper threshold, 'inf' allowed")
    p_fit.add_argument("--a", type=float, default=None, help="lower tail probability (with --theta)")
    p_fit.add_argument("--b", type=float, default=None, help="upper tail probability (with --theta)")
    p_fit.add_argument("--theta", type=float, default=None, help="reference scale for --a/--b quantiles")
    p_fit.add_argument("--x0", type=float, default=None, help="known Pareto left endpoint")
    p_fit.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    p_are = sub.add_parser("are", help="asymptotic relative efficiency table")
    p_are.add_argument("--theta", type=float, default=10.0)
    p_are.add_argument("--a-grid", type=_float_list, default=None)
    p_are.add_argument("--b-grid", type=_float_list, default=None)
    p_are.add_argument("--methods", type=_method_list, default=list(asymptotics.METHODS))
    p_are.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", help="Monte Carlo study")
    p_sim.add_argument("--config", default=None, help="key = value config file")
    p_sim.add_argument("--full-scale", action="store_true",
                       help="10,000 replications per block instead of 2,000")
    p_sim.add_argument("--out", default=None, help="override the config's output path")
    p_sim.add_argument("--conditional", action="store_true",
                       help="report statistics over successful replications even when some fail")

    p_inf = sub.add_parser("influence", help="influence-function curves")
    p_inf.add_argument("--model", default="exp", choices=["exp", "pareto1"])
    p_inf.add_argument("--theta", type=float, default=None)
    p_inf.add_argument("--alpha", type=float, default=None)
    p_inf.add_argument("--x0", type=float, default=1.0)
    p_inf.add_argument("--a", type=float, default=0.05)
    p_inf.add_argument("--b", type=float, default=0.05)
    p_inf.add_argument("--x-min", type=float, default=None)
    p_inf.add_argument("--x-max", type=float, default=None)
    p_inf.add_argument("--points", type=int, default=101)
    p_inf.add_argument("--out", default=None)

    p_hist = sub.add_parser("hist", help="repeated small-sample estimates")
    p_hist.add_argument("--n-list", type=_int_list, default=[30, 50, 500])
    p_hist.add_argument("--count", type=int, default=100)
    p_hist.add_argument("--d", type=float, default=0.50)
    p_hist.add_argument("--u", type=float, default=23.00)
    p_hist.add_argument("--theta", type=float, default=10.0)
    p_hist.add_argument("--methods", type=_method_list, default=list(asymptotics.METHODS))
    p_hist.add_argument("--seed", type=int, default=mc.DEFAULT_SEED)
    p_hist.add_argument("--out", default=None)

    return parser


def _thresholds_from_args(args) -> ThresholdPair | None:
    direct = args.d is not None or args.u is not None
    quantile = args.a is not None or args.b is not None
    if direct and quantile:
        raise _UsageError("give thresholds either as --d/--u or as --a/--b, not both")
    if direct:
        if args.d is None or args.u is None:
            raise _UsageError("--d and --u must be given together")
        return ThresholdPair(args.d, args.u)
    if quantile:
        if args.a is None or args.b is None:
            raise _UsageError("--a and --b must be given together")
        if args.theta is None:
            raise _UsageError("--a/--b thresholds need --theta for the quantile scale")
        ref = ExponentialModel(args.theta)  # theta > 0 and finite, for either model
        if args.model == "pareto1":
            if args.x0 is None:
                raise _UsageError("pareto1 quantile thresholds need --x0")
            ref = ParetoIModel(alpha=1.0 / args.theta, x0=args.x0)
        return ThresholdPair(*_quantile_thresholds(adapter_from_model(ref), args.a, args.b))
    return None


def _cmd_fit(args) -> int:
    # usage errors first, so that they do not wait for a large file to parse
    thresholds = _thresholds_from_args(args)
    if args.method != "mle" and thresholds is None:
        raise _UsageError(f"method {args.method!r} needs thresholds")
    data = estimators.read_loss_csv(args.data)
    n = data.size
    result = estimators.fit(args.method, args.model, data, thresholds, args.x0)
    print(f"method={args.method} model={args.model} n={n}")
    if result.exists:
        se = math.sqrt(result.avar / n)
        print(f"estimate={result.estimate:.6g} exists=true se={se:.6g}")
        row = f"true,{_fmt(result.estimate)},{_fmt(result.avar)},{_fmt(se)},"
    else:
        print(f"exists=false reason={result.reason}")
        row = f"false,,,,{result.reason}"
    _write_text(
        args.out,
        f"method,model,n,exists,estimate,avar,se,reason\n{args.method},{args.model},{n},{row}\n",
    )
    return EXIT_OK if result.exists else EXIT_NO_SOLUTION


def _cmd_are(args) -> int:
    reports = asymptotics.are_table(
        args.theta, args.a_grid, args.b_grid, methods=args.methods
    )
    _write_text(args.out, asymptotics.are_table_csv(reports))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.config is not None:
        with open(args.config, encoding="utf-8") as handle:
            config = mc.parse_sim_config(handle.read())
    else:
        config = mc.SimConfig()
    cells = mc.build_cells(config, full_scale=args.full_scale)
    results = mc.run_table(cells, conditional=args.conditional)
    out = args.out if args.out is not None else config.out
    _write_text(out, mc.sim_table_csv(results))
    return EXIT_OK


def _cmd_influence(args) -> int:
    if args.model == "pareto1":
        if args.alpha is None:
            raise _UsageError("pareto1 influence curves need --alpha")
        if args.alpha <= 1 and args.b == 0:
            # the untrimmed upper tail has no mean, so the influence is -inf
            raise _UsageError("pareto1 with alpha <= 1 has no mean: influence curves need --b > 0")
        model = ParetoIModel(alpha=args.alpha, x0=args.x0)
    else:
        if args.theta is None:
            raise _UsageError("exp influence curves need --theta")
        model = ExponentialModel(args.theta)
    adapter = adapter_from_model(model)
    lo = args.x_min if args.x_min is not None else adapter.support[0]
    if args.x_max is not None:
        hi = args.x_max
    else:
        try:
            hi = adapter.quantile(0.999)
        except OverflowError:  # math.exp beyond the float range
            raise _UsageError("the default --x-max lies beyond the float range") from None
    # x-max - x-min is inf or nan when an end is not finite, or when the span overflows
    if not (args.points >= 2 and lo < hi and math.isfinite(hi - lo)):
        raise _UsageError(
            f"need --points >= 2 and --x-min < --x-max with a finite x-max - x-min, "
            f"got --points {args.points}, --x-min {lo!r}, --x-max {hi!r}"
        )
    grid = np.linspace(lo, hi, args.points)
    mcm = asymptotics.influence_curve(adapter, "mcm", args.a, args.b, grid).values
    # the MTM curve is the MCM one over 1 - a - b, as influence_curve forms it
    lines = ["x,if_mtm,if_mcm"]
    for x, v1, v2 in zip(grid, mcm / (1.0 - args.a - args.b), mcm):
        lines.append(f"{_fmt(x)},{_fmt(v1)},{_fmt(v2)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_hist(args) -> int:
    panels = mc.histogram_study(
        args.n_list,
        args.count,
        methods=args.methods,
        theta=args.theta,
        thresholds=ThresholdPair(args.d, args.u),
        seed=args.seed,
    )
    lines = ["method,n,replicate,theta_hat,skewness"]
    for panel in panels:
        for i, value in enumerate(panel.estimates):
            lines.append(f"{panel.method},{panel.n},{i},{_fmt(float(value))},{_fmt(panel.skewness)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "are": _cmd_are,
    "simulate": _cmd_simulate,
    "influence": _cmd_influence,
    "hist": _cmd_hist,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, SeverfitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
