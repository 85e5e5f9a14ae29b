"""Command-line surface: flags, exit codes, CSV outputs, determinism."""

import pytest

from severfit.cli import EXIT_INPUT_ERROR, EXIT_NO_SOLUTION, EXIT_OK, main
from severfit.dist import ExponentialModel, RandomSource, sample


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
        # payment mean 10.9999999 in (1, 11]: a root exists, its avar cannot be evaluated
        path = tmp_path / "edge.csv"
        path.write_text("10.9999998\n11.0\n", encoding="utf-8")
        code = main(
            ["fit", "--method", "mtcm", "--model", "exp", "--data", str(path),
             "--d", "1", "--u", "11"]
        )
        assert code == EXIT_INPUT_ERROR
        assert "degenerate" in capsys.readouterr().err

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

    def test_mass_validation(self):
        assert main(
            ["influence", "--model", "exp", "--theta", "10", "--a", "0.6", "--b", "0.5"]
        ) == EXIT_INPUT_ERROR


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


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["transmogrify"]) == EXIT_INPUT_ERROR

    def test_missing_file(self):
        assert main(
            ["fit", "--method", "mle", "--model", "exp", "--data", "/no/such/file.csv"]
        ) == EXIT_INPUT_ERROR
