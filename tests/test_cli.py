"""Command-line surface: flags, exit codes, CSV outputs, determinism."""

import math

import pytest

from severfit import asymptotics, cli, estimators, mc
from severfit.cli import EXIT_INPUT_ERROR, EXIT_NO_SOLUTION, EXIT_OK, main
from severfit.dist import ExponentialModel, RandomSource, ThresholdPair, sample
from severfit.framework import adapter_from_model


@pytest.fixture
def losses_csv(tmp_path):
    x = sample(ExponentialModel(10.0), 20000, RandomSource(seed=88))
    path = tmp_path / "losses.csv"
    path.write_text("loss\n" + "\n".join(repr(float(v)) for v in x) + "\n", encoding="utf-8")
    return path


class TestFitCommand:
    def test_mle_small(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        path.write_text("2\n4\n6\n", encoding="utf-8")
        code = main(["fit", "--method", "mle", "--model", "exp", "--data", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "estimate=4" in out
        assert "mle,exp,3,true,4.0,16.0," in out

    def test_mtum_on_simulated_losses(self, losses_csv, capsys):
        code = main(
            [
                "fit", "--method", "mtum", "--model", "exp",
                "--data", str(losses_csv), "--d", "0.51", "--u", "29.96",
            ]
        )
        assert code == EXIT_OK
        estimate = float(
            [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("estimate=")][0]
            .split()[0]
            .split("=")[1]
        )
        assert 9.5 < estimate < 10.5

    def test_quantile_threshold_style(self, losses_csv, capsys):
        code = main(
            [
                "fit", "--method", "mcm", "--model", "exp", "--data", str(losses_csv),
                "--a", "0.05", "--b", "0.05", "--theta", "10",
            ]
        )
        assert code == EXIT_OK

    def test_both_threshold_styles_rejected(self, losses_csv):
        code = main(
            [
                "fit", "--method", "mcm", "--model", "exp", "--data", str(losses_csv),
                "--d", "1", "--u", "5", "--a", "0.05", "--b", "0.05", "--theta", "10",
            ]
        )
        assert code == EXIT_INPUT_ERROR

    def test_nonexistence_exit_code(self, tmp_path, capsys):
        # truncated sample mean at the window midpoint: no root
        path = tmp_path / "mid.csv"
        path.write_text("2.0\n2.0\n2.0\n", encoding="utf-8")
        code = main(
            ["fit", "--method", "mtum", "--model", "exp", "--data", str(path),
             "--d", "1", "--u", "3"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_NO_SOLUTION
        assert "reason=AboveUpperBound" in out

    def test_all_zero_mle_exit_code(self, tmp_path, capsys):
        # the mean is at the lower end of the MLE's attainable interval (0, inf)
        path = tmp_path / "zeros.csv"
        path.write_text("0.0\n0.0\n", encoding="utf-8")
        code = main(["fit", "--method", "mle", "--model", "exp", "--data", str(path)])
        assert code == EXIT_NO_SOLUTION
        assert capsys.readouterr().out == (
            "method=mle model=exp n=2\n"
            "exists=false reason=BelowLowerBound\n"
            "method,model,n,exists,estimate,avar,se,reason\n"
            "mle,exp,2,false,,,,BelowLowerBound\n"
        )
        path.write_text("0.0\n-1.0\n", encoding="utf-8")
        assert main(["fit", "--method", "mle", "--model", "exp", "--data", str(path)]) == (
            EXIT_INPUT_ERROR
        )

    def test_empty_window_exit_code(self, tmp_path, capsys):
        path = tmp_path / "low.csv"
        path.write_text("0.5\n0.6\n", encoding="utf-8")
        code = main(
            ["fit", "--method", "mtum", "--model", "exp", "--data", str(path),
             "--d", "5", "--u", "9"]
        )
        assert code == EXIT_NO_SOLUTION
        assert capsys.readouterr().out == (
            "method=mtum model=exp n=2\n"
            "exists=false reason=EmptyWindow\n"
            "method,model,n,exists,estimate,avar,se,reason\n"
            "mtum,exp,2,false,,,,EmptyWindow\n"
        )

    def test_unevaluable_efficiency_exit_code(self, tmp_path, capsys):
        # truncated mean 1e-10 above d = 5: a root theta ~ 1e-10 exists, but the
        # survival at d underflows, so its avar is beyond the float range: inf
        path = tmp_path / "edge.csv"
        path.write_text("5.0000000001\n", encoding="utf-8")
        code = main(
            ["fit", "--method", "mtum", "--model", "exp", "--data", str(path),
             "--d", "5", "--u", "6"]
        )
        assert code == EXIT_OK
        assert "exists=true se=inf" in capsys.readouterr().out

    def test_underflowing_survival_reports_infinite_se(self, tmp_path, capsys):
        # a truncated mean of 1000.45 in (1000, 2000]: theta ~ 0.45 lies strictly
        # inside the attainable interval, but exp(-d/theta) underflows
        path = tmp_path / "far.csv"
        path.write_text("1000.3\n1000.6\n5.0\n", encoding="utf-8")
        code = main(
            ["fit", "--method", "mtum", "--model", "exp", "--data", str(path),
             "--d", "1000", "--u", "2000"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "estimate=0.45 exists=true se=inf"
        row = out[-1].split(",")
        assert row[3:] == ["true", row[4], "inf", "inf", ""]
        assert float(row[4]) == pytest.approx(0.45, rel=1e-12)

    def test_large_theta_efficiency_exit_code(self, tmp_path, capsys):
        # payment mean 10.9999999 in (1, 11]: root theta ~ 5e8, where the old
        # ARE closed form cancelled; avar = theta^2 / (3 x / 4), x = 10 / theta
        path = tmp_path / "edge.csv"
        path.write_text("10.9999998\n11.0\n", encoding="utf-8")
        code = main(
            ["fit", "--method", "mtcm", "--model", "exp", "--data", str(path),
             "--d", "1", "--u", "11"]
        )
        assert code == EXIT_OK
        row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        theta, avar = float(row[4]), float(row[5])
        assert avar == pytest.approx(theta**3 / 7.5, rel=1e-6)

    def test_malformed_csv_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("loss\n1\nabc\n", encoding="utf-8")
        code = main(["fit", "--method", "mle", "--model", "exp", "--data", str(path)])
        assert code == EXIT_INPUT_ERROR
        assert "line 3" in capsys.readouterr().err

    def test_inf_literal(self, losses_csv):
        code = main(
            ["fit", "--method", "mtcm", "--model", "exp", "--data", str(losses_csv),
             "--d", "2.88", "--u", "INF"]
        )
        assert code == EXIT_OK

    def test_missing_thresholds(self, losses_csv):
        code = main(["fit", "--method", "mtum", "--model", "exp", "--data", str(losses_csv)])
        assert code == EXIT_INPUT_ERROR

    def test_usage_error_reported_before_file_error(self, tmp_path, capsys):
        # flags are checked before the file is read: a bad file and a missing
        # --d/--u report the missing thresholds
        path = tmp_path / "bad.csv"
        path.write_text("loss\n1\nabc\n", encoding="utf-8")
        code = main(["fit", "--method", "mtum", "--model", "exp", "--data", str(path)])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: method 'mtum' needs thresholds\n"
        code = main(
            ["fit", "--method", "mcm", "--model", "exp", "--data", str(tmp_path / "absent.csv"),
             "--d", "1"]
        )
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: --d and --u must be given together\n"

    def test_pareto_fit(self, tmp_path):
        from severfit.dist import ParetoIModel

        y = sample(ParetoIModel(2.0, 1.0), 5000, RandomSource(seed=10))
        path = tmp_path / "pareto.csv"
        path.write_text("loss\n" + "\n".join(repr(float(v)) for v in y) + "\n", encoding="utf-8")
        code = main(
            ["fit", "--method", "mcm", "--model", "pareto1", "--data", str(path),
             "--d", "1.1", "--u", "8.0", "--x0", "1.0"]
        )
        assert code == EXIT_OK

    def test_pareto_quantile_thresholds(self, tmp_path, capsys):
        # --theta is 1/alpha of the reference Pareto I(alpha, x0) whose
        # a and 1-b quantiles are the thresholds
        from severfit.dist import ParetoIModel, pareto1_quantile

        y = sample(ParetoIModel(2.0, 1.5), 5000, RandomSource(seed=12))
        path = tmp_path / "pareto.csv"
        path.write_text("loss\n" + "\n".join(repr(float(v)) for v in y) + "\n", encoding="utf-8")
        fit = ["fit", "--method", "mtcm", "--model", "pareto1", "--data", str(path), "--x0", "1.5"]
        assert main([*fit, "--a", "0.05", "--b", "0.1", "--theta", "0.5"]) == EXIT_OK
        by_quantile = capsys.readouterr().out
        d, u = pareto1_quantile(ParetoIModel(2.0, 1.5), 0.05), 1.5 * 0.1**-0.5
        assert main([*fit, "--d", repr(d), "--u", repr(u)]) == EXIT_OK
        assert capsys.readouterr().out == by_quantile
        alpha_hat = float(by_quantile.splitlines()[-1].split(",")[4])
        assert 1.8 < alpha_hat < 2.2

    def test_pareto_quantile_thresholds_need_x0(self, losses_csv, capsys):
        code = main(
            ["fit", "--method", "mcm", "--model", "pareto1", "--data", str(losses_csv),
             "--a", "0.05", "--b", "0.05", "--theta", "0.5"]
        )
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: pareto1 quantile thresholds need --x0\n"


class TestOverflowingArithmetic:
    """Finite inputs whose arithmetic leaves the float range give a finite
    answer or exit 1 with one line; never an infinite estimate or a warning."""

    @staticmethod
    def _one_error_line(capsys) -> str:
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        return line

    @staticmethod
    def _data(tmp_path, values) -> str:
        path = tmp_path / "losses.csv"
        path.write_text("loss\n" + "\n".join(values) + "\n", encoding="utf-8")
        return str(path)

    def test_exp_mle_sum_overflows(self, tmp_path, capsys):
        data = self._data(tmp_path, ["1e308", "1e308", "5"])
        code = main(["fit", "--method", "mle", "--model", "exp", "--data", data])
        assert code == EXIT_INPUT_ERROR
        assert "overflows" in self._one_error_line(capsys)

    @pytest.mark.parametrize("method", ["mtum", "mcm", "mtcm"])
    def test_exp_window_sum_overflows(self, method, tmp_path, capsys):
        data = self._data(tmp_path, ["1e308", "1e308", "5"])
        fit = ["fit", "--method", method, "--model", "exp", "--d", "0", "--u", "inf"]
        assert main([*fit, "--data", data]) == EXIT_INPUT_ERROR
        assert "overflows" in self._one_error_line(capsys)

    @pytest.mark.parametrize(
        "method, values",
        [("mtum", ["4.9999999995e299"]), ("mcm", ["2e300", "9.999999998e299"]),
         ("mtcm", ["2e300", "9.999999998e299"])],
    )
    def test_exp_root_beyond_the_float_range(self, method, values, tmp_path, capsys):
        # the statistic lies so close to the map's supremum that theta overflows
        data = self._data(tmp_path, values)
        fit = ["fit", "--method", method, "--model", "exp", "--d", "0", "--u", "1e300"]
        assert main([*fit, "--data", data]) == EXIT_INPUT_ERROR
        assert self._one_error_line(capsys) == (
            f"error: the {method} estimate lies beyond the float range"
        )

    def test_exp_mle_square_overflows(self, tmp_path):
        # the estimate is finite; its variance, theta^2, is not
        data, out = self._data(tmp_path, ["1e200", "3e200"]), tmp_path / "fit.csv"
        argv = ["fit", "--method", "mle", "--model", "exp", "--data", data, "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert out.read_text(encoding="utf-8").splitlines()[1] == "mle,exp,2,true,2e+200,inf,inf,"

    def test_pareto_ratio_to_x0_overflows(self, tmp_path):
        # y / x0 overflows, log(y / x0) does not
        values = ["1e300", "2e300", "3e299"]
        data, out = self._data(tmp_path, values), tmp_path / "fit.csv"
        argv = ["fit", "--method", "mle", "--model", "pareto1", "--x0", "1e-10", "--data", data]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        alpha_hat = float(out.read_text(encoding="utf-8").splitlines()[1].split(",")[4])
        logs = [math.log(float(v)) - math.log(1e-10) for v in values]
        assert alpha_hat == pytest.approx(len(logs) / math.fsum(logs), rel=1e-15)

    def test_pareto_threshold_ratio_to_x0_overflows(self, tmp_path):
        # u / x0 overflows, log(u / x0) does not: u stays finite on the log scale
        values = ["1e300", "2e300", "3e299"]
        data, out = self._data(tmp_path, values), tmp_path / "fit.csv"
        argv = ["fit", "--method", "mcm", "--model", "pareto1", "--x0", "1e-10", "--d", "1e-9",
                "--u", "2.5e300", "--data", data, "--out", str(out)]
        assert main(argv) == EXIT_OK
        alpha_hat = float(out.read_text(encoding="utf-8").splitlines()[1].split(",")[4])
        logs = [math.log(float(v)) - math.log(1e-10) for v in values]
        t_log = ThresholdPair(math.log(10.0), math.log(2.5e300) - math.log(1e-10))
        assert alpha_hat == 1.0 / estimators.fit("mcm", "exp", logs, t_log).estimate

    @pytest.mark.parametrize("method", ["mle", "mtum", "mcm", "mtcm"])
    def test_pareto_x0_refused(self, method, tmp_path, capsys):
        data = self._data(tmp_path, ["2", "3", "4", "5"])
        argv = ["fit", "--method", method, "--model", "pareto1", "--x0", "-1", "--data", data]
        thresholds = [] if method == "mle" else ["--d", "2.5", "--u", "4.5"]
        assert main([*argv, *thresholds]) == EXIT_INPUT_ERROR
        assert self._one_error_line(capsys) == "error: x0 must be a positive finite real, got -1.0"

    @pytest.mark.parametrize("method", ["mle", "mtum", "mcm", "mtcm"])
    def test_pareto_theta_refused(self, method, tmp_path, capsys):
        data = self._data(tmp_path, ["2", "3", "4", "5"])
        argv = ["fit", "--method", method, "--model", "pareto1", "--a", "0.1", "--b", "0.1",
                "--theta", "0", "--x0", "1", "--data", data]
        assert main(argv) == EXIT_INPUT_ERROR
        assert self._one_error_line(capsys) == "error: theta must be a positive finite real, got 0.0"

    def test_pareto_influence_thresholds_beyond_the_float_range(self, capsys):
        argv = ["influence", "--model", "pareto1", "--alpha", "0.001", "--b", "0.05"]
        assert main(argv) == EXIT_INPUT_ERROR
        assert "--x-max" in self._one_error_line(capsys)
        assert main([*argv, "--x-max", "1e300"]) == EXIT_INPUT_ERROR
        assert "beyond the float range" in self._one_error_line(capsys)

    def test_pareto_fit_thresholds_beyond_the_float_range(self, tmp_path, capsys):
        data = self._data(tmp_path, ["2", "3", "4", "5"])
        argv = ["fit", "--method", "mcm", "--model", "pareto1", "--a", "0.1", "--b", "0.1",
                "--theta", "1000", "--x0", "1", "--data", data]
        assert main(argv) == EXIT_INPUT_ERROR
        assert "beyond the float range" in self._one_error_line(capsys)


class TestAreCommand:
    def test_default_grid_boxed_cell(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["are", "--theta", "10", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "method,a,b,d,u,are,reason"
        assert len(lines) == 1 + 3 * 64
        cell = [
            ln for ln in lines
            if ln.startswith("mtum,0.05,0.05,")
        ][0]
        assert abs(float(cell.split(",")[5]) - 0.443) < 2e-3

    def test_single_method(self, tmp_path):
        out = tmp_path / "mcm.csv"
        code = main(["are", "--theta", "10", "--methods", "mcm", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert all(ln.startswith("mcm,") for ln in lines[1:])

    def test_boundary_cell_empty(self, tmp_path):
        out = tmp_path / "edge.csv"
        code = main(
            ["are", "--theta", "10", "--a-grid", "0.85", "--b-grid", "0.15",
             "--methods", "mtum", "--out", str(out)]
        )
        assert code == EXIT_OK
        row = out.read_text(encoding="utf-8").strip().split("\n")[1]
        assert row.split(",")[5] == "" and row.endswith("d>=u")

    def test_bad_grid(self, capsys):
        assert main(["are", "--a-grid", "0.5,0.2"]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("flag", ["--methods=", "--a-grid=", "--b-grid= , "])
    def test_empty_list_refused(self, flag, capsys):
        assert main(["are", flag]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: argument {flag.split('=')[0]}: empty list\n"

    def test_thresholds_beyond_the_float_range_name_the_grid_pair(self, capsys):
        # u at b = 1e-300 overflows; so does the fallback pair (0, b), which
        # must not be the one named
        argv = ["are", "--theta", "1e307", "--a-grid", "0.1", "--b-grid", "0,1e-300"]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the thresholds at a=0.1, b=1e-300 lie beyond the float range\n"
        )

    @pytest.mark.parametrize("theta", ["1e300", "1e-310"])
    def test_extreme_scale(self, tmp_path, theta):
        # the ARE is scale-free: no NaN at large theta, no division by zero at small
        out = tmp_path / "table.csv"
        assert main(["are", "--theta", theta, "--out", str(out)]) == EXIT_OK
        text = out.read_text(encoding="utf-8")
        assert "nan" not in text
        cells = [ln.split(",")[5] for ln in text.strip().split("\n")[1:]]
        assert len(cells) == 3 * 64
        assert all(0.0 < float(c) <= 1.0 for c in cells if c)


class TestSimulateCommand:
    def test_config_run_and_determinism(self, tmp_path):
        config = tmp_path / "study.cfg"
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        config.write_text(
            "theta = 10\nmethods = mcm\ndesign_points = (0.05, 0.05)\n"
            "n_list = 80\nblocks = 2\nreps = 30\nseed = 5\n",
            encoding="utf-8",
        )
        assert main(["simulate", "--config", str(config), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(config), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0].startswith("method,a,b,d,u,n,")
        assert lines[-1].split(",")[5] == "inf"  # analytic row

    def test_extreme_scale(self, tmp_path, capsys):
        # draws and roots are on the unit scale, so nothing overflows at large
        # theta, not even the sum of 1000 values near 1e306 (under the warnings
        # filter, an overflow would raise); a subnormal theta, whose losses keep
        # only a few digits, is refused with one line
        config, out = tmp_path / "study.cfg", tmp_path / "study.csv"
        text = ("methods = mle, mtum, mcm, mtcm\ndesign_points = (0.05, 0.05), (0.25, 0.00)\n"
                "blocks = 2\nreps = 20\n")
        for theta, n in (("1e300", 40), ("1e306", 1000)):
            config.write_text(f"theta = {theta}\nn_list = {n}\n" + text, encoding="utf-8")
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
            rows = [ln.split(",") for ln in out.read_text(encoding="utf-8").strip().split("\n")[1:]]
            assert len(rows) == 2 * 4 + 2 * 3
            assert all(math.isfinite(float(v)) for row in rows for v in row[6:10] if v)
            assert all(row[6] for row in rows)  # no cell withheld
        text = "n_list = 40\n" + text
        for theta in ("1e-320", "1e-322"):
            config.write_text(f"theta = {theta}\n" + text, encoding="utf-8")
            capsys.readouterr()
            assert main(["simulate", "--config", str(config)]) == EXIT_INPUT_ERROR
            assert capsys.readouterr().err == (
                f"error: config key 'theta': theta must be at least 2.2250738585072014e-308 "
                f"(the smallest normal float), got {float(theta)!r}\n"
            )

    @pytest.mark.parametrize("theta", ["inf", "-1", "nan", "0", "1e-320"])
    def test_every_bad_theta_names_its_key(self, tmp_path, capsys, theta):
        # SimCell's rule runs before the model is built from theta
        config = tmp_path / "study.cfg"
        config.write_text(f"theta = {theta}\nmethods = mcm\ndesign_points = (0.05, 0.05)\n"
                          "n_list = 30\nblocks = 1\nreps = 10\n", encoding="utf-8")
        assert main(["simulate", "--config", str(config)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: config key 'theta':")

    def test_thresholds_beyond_the_float_range_name_design_points(self, tmp_path, capsys):
        config = tmp_path / "study.cfg"
        config.write_text("theta = 1e307\nmethods = mcm\ndesign_points = (0.05, 1e-300)\n"
                          "n_list = 30\nblocks = 1\nreps = 10\n", encoding="utf-8")
        assert main(["simulate", "--config", str(config)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: config key 'design_points': the thresholds at a=0.05, b=1e-300 "
            "lie beyond the float range\n"
        )

    def test_config_out_key_used(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "study.cfg"
        config.write_text(
            "methods = mcm\ndesign_points = (0.05, 0.05)\nn_list = 50\n"
            "blocks = 1\nreps = 20\nout = result.csv\n",
            encoding="utf-8",
        )
        assert main(["simulate", "--config", str(config)]) == EXIT_OK
        assert (tmp_path / "result.csv").exists()

    def test_config_error_names_key(self, tmp_path, capsys):
        config = tmp_path / "broken.cfg"
        config.write_text("reps = soon\n", encoding="utf-8")
        assert main(["simulate", "--config", str(config)]) == EXIT_INPUT_ERROR
        assert "reps" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["methods", "n_list"])
    def test_empty_list_names_key(self, tmp_path, capsys, key):
        config = tmp_path / "study.cfg"
        config.write_text(f"design_points = (0.05, 0.05)\nblocks = 1\nreps = 10\n{key} =\n",
                          encoding="utf-8")
        assert main(["simulate", "--config", str(config)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config key {key!r}: empty list\n"

    def test_too_many_blocks_refused_before_any_task(self, tmp_path, monkeypatch, capsys):
        # blocks is capped at 2^21
        config = tmp_path / "study.cfg"
        config.write_text("methods = mcm\ndesign_points = (0.05, 0.05)\nn_list = 30\n"
                          "blocks = 3000000\nreps = 1\n", encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("a task ran")

        monkeypatch.setattr(mc, "run_table", refuse)
        assert main(["simulate", "--config", str(config)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "error: config key 'blocks': blocks must be in [1, 2097152], got 3000000\n"
        )

    def test_bad_thread_count_names_its_variable(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "study.cfg"
        config.write_text("methods = mcm\ndesign_points = (0.05, 0.05)\nn_list = 30\n"
                          "blocks = 1\nreps = 10\n", encoding="utf-8")
        monkeypatch.setenv("SEVERFIT_THREADS", "abc")
        assert main(["simulate", "--config", str(config)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "error: SEVERFIT_THREADS must be an integer, got 'abc'\n"
        )


class TestInfluenceCommand:
    def test_untrimmed_equals_shifted_identity(self, tmp_path):
        out = tmp_path / "if.csv"
        code = main(
            ["influence", "--model", "exp", "--theta", "10", "--a", "0", "--b", "0",
             "--x-min", "0", "--x-max", "30", "--points", "4", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = [ln.split(",") for ln in out.read_text(encoding="utf-8").strip().split("\n")[1:]]
        for row in rows:
            x, mtm, mcm = (float(v) for v in row)
            assert mtm == pytest.approx(x - 10.0, abs=1e-8)
            assert mcm == pytest.approx(x - 10.0, abs=1e-8)

    def test_contraction_rowwise(self, tmp_path):
        out = tmp_path / "if2.csv"
        code = main(
            ["influence", "--model", "exp", "--theta", "10", "--a", "0.05", "--b", "0.05",
             "--x-min", "0", "--x-max", "40", "--points", "21", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = [ln.split(",") for ln in out.read_text(encoding="utf-8").strip().split("\n")[1:]]
        for row in rows:
            _, mtm, mcm = (float(v) for v in row)
            assert mcm == pytest.approx(0.90 * mtm, abs=1e-8)

    def test_flat_above_upper_quantile(self, tmp_path):
        out = tmp_path / "if3.csv"
        main(
            ["influence", "--model", "exp", "--theta", "10", "--a", "0.05", "--b", "0.05",
             "--x-min", "31", "--x-max", "60", "--points", "5", "--out", str(out)]
        )
        values = [
            float(ln.split(",")[1])
            for ln in out.read_text(encoding="utf-8").strip().split("\n")[1:]
        ]
        assert max(values) - min(values) < 1e-8

    def test_large_scale(self, tmp_path):
        out = tmp_path / "if4.csv"
        assert main(
            ["influence", "--model", "exp", "--theta", "1e9", "--a", "0.05", "--b", "0.05",
             "--points", "5", "--out", str(out)]
        ) == EXIT_OK
        rows = [ln.split(",") for ln in out.read_text(encoding="utf-8").strip().split("\n")[1:]]
        assert len(rows) == 5

    def test_mass_validation(self):
        assert main(
            ["influence", "--model", "exp", "--theta", "10", "--a", "0.6", "--b", "0.5"]
        ) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        "bounds",
        [["--x-max=inf"], ["--x-max=nan"], ["--x-min=nan"], ["--x-min=-inf"],
         ["--x-min=-1e308", "--x-max=1e308"]],  # the last pair's span overflows
    )
    def test_non_finite_range_refused(self, bounds, capsys):
        assert main(["influence", "--model", "exp", "--theta", "10", *bounds]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and "--x-min" in line and "--x-max" in line

    def test_infinite_mean_rejected(self, tmp_path, capsys):
        # Pareto I with alpha <= 1 has no mean, so without upper trimming the
        # influence is -inf; with b > 0 the curve exists
        args = ["influence", "--model", "pareto1", "--alpha", "0.8", "--x-max", "20"]
        assert main(args + ["--b", "0"]) == EXIT_INPUT_ERROR
        assert "no mean" in capsys.readouterr().err
        assert main(args + ["--b", "0.05", "--out", str(tmp_path / "if.csv")]) == EXIT_OK


class TestHistCommand:
    def test_layout_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
        args = [
            "hist", "--n-list", "30,50", "--count", "40", "--d", "0.50", "--u", "23.00",
            "--theta", "10", "--methods", "mtum,mcm", "--seed", "9",
        ]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "method,n,replicate,theta_hat,skewness"
        # at most count rows per (method, n) panel, minus failures
        assert 1 + 2 * 2 * 40 >= len(lines) > 1 + 2 * 2 * 40 - 10
        # per-panel skewness column is constant within a panel
        panel_rows = [ln.split(",") for ln in lines[1:] if ln.startswith("mtum,30,")]
        assert len({row[4] for row in panel_rows}) == 1

    def test_extreme_scale(self, tmp_path):
        # draws and roots are on the unit scale and the skewness is taken on the
        # ratios, so nothing overflows at theta = 1e306 (under the warnings filter,
        # an overflow would raise)
        out = tmp_path / "hist.csv"
        args = ["hist", "--theta", "1e306", "--d", "5e304", "--u", "3e306",
                "--n-list", "1000", "--count", "20", "--out", str(out)]
        assert main(args) == EXIT_OK
        rows = [ln.split(",") for ln in out.read_text(encoding="utf-8").strip().split("\n")[1:]]
        assert {row[0] for row in rows} == set(asymptotics.METHODS)
        assert all(math.isfinite(float(v)) for row in rows for v in row[3:5])
        assert all(0.5e306 < float(row[3]) < 2e306 for row in rows)

    @pytest.mark.parametrize("flag", [["--n-list", "0"], ["--n-list=-3"], ["--n-list", "30,0"]])
    def test_bad_sample_size_names_its_key(self, flag, capsys, recwarn):
        assert main(["hist", *flag]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'n': sample size must be >= 1")
        assert err.count("\n") == 1
        assert not recwarn.list


    @pytest.mark.parametrize("flag", ["--n-list=", "--methods=", "--n-list= , "])
    def test_empty_list_refused(self, flag, capsys):
        assert main(["hist", flag]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: argument {flag.split('=')[0]}: empty list\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_bad_seed_names_its_key(self, seed, capsys):
        assert main(["hist", "--seed", seed]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            f"error: config key 'seed': seed must be in [0, 2**64), got {seed}\n"
        )

    def test_infinite_theta_names_its_key(self, capsys):
        assert main(["hist", "--theta", "inf"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config key 'theta': theta must be finite, got inf\n"


class TestQuantileThresholds:
    """Every subcommand turns tail probabilities (a, b) into the same thresholds."""

    THETAS = (1e-3, 10.0, 1e5)
    PAIRS = sorted(
        set(mc.DESIGN_POINTS)
        | {(a, b) for a in asymptotics.default_grid() for b in asymptotics.default_grid()}
        | {(a, 10.0**-k) for a in (0.0, 0.25) for k in (*range(1, 300, 11), 300)}
    )
    REFUSED = ((0.15, 0.85), (0.49, 0.51), (0.7, 0.3))

    @staticmethod
    def fit_thresholds(flags):
        args = cli._build_parser().parse_args(["fit", "--method", "mcm", "--data", "-", *flags])
        return cli._thresholds_from_args(args)

    @pytest.mark.parametrize("theta", THETAS)
    def test_four_paths_agree_bit_for_bit(self, theta, monkeypatch):
        windows = []
        centred = asymptotics._centred_winsorized
        monkeypatch.setattr(
            asymptotics, "_centred_winsorized",
            lambda F, a, b, d, u, x: windows.append((d, u)) or centred(F, a, b, d, u, x),
        )
        F = adapter_from_model(ExponentialModel(theta))
        admitted = 0
        for a, b in self.PAIRS:
            if a + b >= 1.0 - 1e-15:
                continue
            admitted += 1
            formula = (-theta * math.log1p(-a), math.inf if b == 0.0 else -theta * math.log(b))
            t = mc.cell_from_quantiles(a, b, theta, 10, "mcm").thresholds
            assert (t.d, t.u) == formula, (a, b)
            (report,) = asymptotics.are_table(theta, (a,), (b,), methods=("mtum",))
            assert (report.d, report.u) == formula, (a, b)
            asymptotics.influence_curve(F, "mcm", a, b, [0.0, theta])
            assert windows.pop() == formula, (a, b)
            flags = ["--model", "exp", "--a", repr(a), "--b", repr(b), "--theta", repr(theta)]
            t = self.fit_thresholds(flags)
            assert (t.d, t.u) == formula, (a, b)
        assert admitted > 80

    @pytest.mark.parametrize(
        "model,expected_u",
        [("exp", -10.0 * math.log(1e-17)), ("pareto1", 1.5 * 1e-17**-10.0)],
    )
    def test_upper_tail_below_the_spacing_of_one(self, model, expected_u, tmp_path):
        # 1 - 1e-17 rounds to 1, so u comes from b itself
        flags = ["--model", model, "--a", "0.05", "--b", "1e-17", "--theta", "10", "--x0", "1.5"]
        if model == "exp":
            flags = flags[:-2]
        assert self.fit_thresholds(flags).u == pytest.approx(expected_u, rel=1e-12)
        path = tmp_path / "losses.csv"
        path.write_text("loss\n" + "\n".join(str(2.0 + i) for i in range(50)), encoding="utf-8")
        assert main(["fit", "--method", "mtcm", "--data", str(path), *flags]) == EXIT_OK
        out = tmp_path / "out.csv"
        assert main(["are", "--a-grid", "0.05", "--b-grid", "1e-17", "--out", str(out)]) == EXIT_OK
        row = out.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert float(row[4]) == -10.0 * math.log(1e-17)
        assert main(["influence", "--theta", "10", "--b", "1e-17", "--points", "3"]) == EXIT_OK

    @pytest.mark.parametrize("a,b", REFUSED)
    def test_refused_pair_has_one_message(self, a, b, tmp_path, capsys):
        message = f"need a >= 0, b >= 0 and a + b < 1 - 1e-15, got a={a!r}, b={b!r}\n"
        config = tmp_path / "study.cfg"
        config.write_text(
            f"methods = mcm\ndesign_points = ({a}, {b})\nn_list = 30\nblocks = 1\nreps = 10\n",
            encoding="utf-8",
        )
        assert main(["simulate", "--config", str(config)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: config key 'design_points': {message}"
        losses = tmp_path / "losses.csv"
        losses.write_text("loss\n2\n4\n", encoding="utf-8")
        fit = ["fit", "--method", "mcm", "--model", "exp", "--data", str(losses), "--theta", "10"]
        assert main([*fit, "--a", repr(a), "--b", repr(b)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {message}"
        influence = ["influence", "--theta", "10", "--a", repr(a), "--b", repr(b)]
        assert main(influence) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {message}"
        out = tmp_path / "are.csv"
        grid = ["--a-grid", repr(a), "--b-grid", repr(b)]
        assert main(["are", *grid, "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert len(rows) == 3 and all(row[5] == "" for row in rows)


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["transmogrify"]) == EXIT_INPUT_ERROR

    def test_missing_file(self):
        assert main(
            ["fit", "--method", "mle", "--model", "exp", "--data", "/no/such/file.csv"]
        ) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        "argv, fault",
        [
            (["hist", "--n-list="], "argument --n-list: empty list"),
            (["hist", "--n-list", "3,x"],
             "argument --n-list: invalid literal for int() with base 10: 'x'"),
            (["are", "--a-grid", "0.1,y"],
             "argument --a-grid: could not convert string to float: 'y'"),
            (["hist", "--methods="], "argument --methods: empty list"),
        ],
        ids=["empty-n-list", "bad-n", "bad-a", "empty-methods"],
    )
    def test_list_flag_names_the_fault(self, argv, fault, capsys):
        # argparse names a type function's ValueError by the function: "invalid _int_list value"
        assert main(argv) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: {fault}\n"
        assert not any(name in err for name in ("_int_list", "_float_list", "_method_list"))
