"""Command-line interface: argument handling, outputs, and exit codes."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvtalloc import cli, sim
from cvtalloc import static_alloc as sa
from cvtalloc import tessellation as tess
from cvtalloc.density import DensitySpec
from cvtalloc.errors import (InvalidParameterValue, InvalidScenario,
                             SolverDiverged)

SHIPPED = Path(__file__).resolve().parent.parent / "scenarios" / "demand_response.json"
OUTPUT_FILES = ("trace.csv", "swaps.csv", "metrics.json", "powers.csv",
                "total_power.csv", "temperatures.csv")
DROP = object()  # a scenario change that removes the key
# Half the largest float: uniform moments on a domain around it overflow.
_H = float(np.finfo(float).max) / 2


def run_cli(*argv):
    return cli.main(list(argv))


def assert_disturbance_error(tmp_path, capsys, text):
    """dynamic-sim on the shipped scenario, 10 steps, with a disturbance CSV
    holding text: exit 1 and one error line naming disturbance and the
    path."""
    csv_path = tmp_path / "weather.csv"
    csv_path.write_text(text)
    cfg = json.loads(SHIPPED.read_text())
    cfg["disturbance"] = str(csv_path)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    rc = run_cli("dynamic-sim", "--config", str(path), "--horizon", "10",
                 "--out", str(tmp_path / "x"))
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert err.startswith("error: disturbance") and str(csv_path) in err
    assert err.count("\n") == 1
    assert not (tmp_path / "x").exists()


class TestParsing:
    def test_valid_cvt_spec(self):
        parser = cli.build_parser()
        args = parser.parse_args(["cvt", "--domain", "0,15", "--n", "3",
                                  "--density", "uniform"])
        assert args.subcommand == "cvt"
        assert args.n == 3

    def test_missing_required_flag(self, capsys):
        rc = run_cli("cvt", "--domain", "0,15", "--density", "uniform")
        assert rc == cli.EXIT_USAGE

    def test_unknown_subcommand(self):
        rc = run_cli("frobnicate")
        assert rc == cli.EXIT_USAGE

    def test_bad_domain_string(self, capsys):
        rc = run_cli("cvt", "--domain", "zero-fifteen", "--n", "3",
                     "--density", "uniform")
        assert rc == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv, handler", [
        (("cvt", "--domain", "0,15", "--n", "3", "--density", "uniform"),
         cli._cmd_cvt),
        (("static-alloc", "--domain", "0,100", "--n", "5", "--r", "250",
          "--density", "uniform"), cli._cmd_static_alloc),
        (("shift-check", "--domain", "0,100", "--n", "5", "--mu", "50",
          "--sigma2", "4", "--delta", "2"), cli._cmd_shift_check),
        (("dynamic-sim", "--config", "scenario.json"), cli._cmd_dynamic_sim),
    ], ids=["cvt", "static-alloc", "shift-check", "dynamic-sim"])
    def test_parser_binds_each_subcommand_to_its_handler(self, argv,
                                                         handler):
        args = cli.build_parser().parse_args(list(argv))
        assert args.handler is handler

    @pytest.mark.parametrize("argv", [
        ("cvt", "--domain", "0,15", "--n", "3", "--density", "uniform"),
        ("static-alloc", "--domain", "0,100", "--n", "5", "--r", "250",
         "--density", '{"family":"gaussian","mu":"free","sigma2":4.0}'),
        ("shift-check", "--domain", "0,100", "--n", "5", "--mu", "50",
         "--sigma2", "4", "--delta", "2"),
    ], ids=["cvt", "static-alloc", "shift-check"])
    @pytest.mark.parametrize("before", [True, False],
                             ids=["before", "after"])
    def test_seed_is_refused_outside_dynamic_sim(self, tmp_path, capsys,
                                                 argv, before):
        # Only dynamic-sim reads a seed; anywhere else it is not an option.
        out = ("--out", str(tmp_path)) if argv[0] != "shift-check" else ()
        seed = ("--seed", "5")
        argv = (*seed, *argv, *out) if before else (*argv, *out, *seed)
        assert run_cli(*argv) == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, key", [
        (("cvt", "--n", "2", "--density", "uniform"), "generators"),
        (("static-alloc", "--n", "5", "--r", "250", "--density",
          '{"family":"gaussian","mu":"free","sigma2":4.0}'), "centroids"),
        (("shift-check", "--n", "5", "--mu", "50", "--sigma2", "4",
          "--delta", "2"), "passed"),
    ], ids=["cvt", "static-alloc", "shift-check"])
    def test_negative_first_domain_end_after_a_space(self, tmp_path, capsys,
                                                      argv, key):
        # argparse takes "-10,100" for an option; "--domain -10,100" runs
        # as "--domain=-10,100" does, to the same output, and so does the
        # abbreviation "--dom".
        out = ("--out", str(tmp_path)) if argv[0] != "shift-check" else ()
        printed = []
        for domain in (("--domain=-10,100",), ("--domain", "-10,100"),
                       ("--dom", "-10,100")):
            assert run_cli(*argv[:1], *domain, *argv[1:], *out) == cli.EXIT_OK
            captured = capsys.readouterr()
            assert captured.err == ""
            printed.append(captured.out)
        assert printed[1:] == printed[:1] * 2 and json.loads(printed[0])[key]

    @pytest.mark.parametrize("argv", [
        ("cvt", "--domain=-10,100", "--n", "3", "--density", "uniform",
         "--init", "-5,0,50"),
        ("shift-check", "--domain", "0,100", "--n", "5", "--mu", "50",
         "--sigma2", "4", "--delta", "-1e-1"),
    ], ids=["cvt-init", "shift-check-delta"])
    def test_other_values_that_start_with_a_minus(self, tmp_path, capsys,
                                                  argv):
        # "-5,0,50" and "-1e-1" are no plain negative numbers to argparse.
        out = ("--out", str(tmp_path)) if argv[0] == "cvt" else ()
        assert run_cli(*argv, *out) == cli.EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("value", ["--n", "-x,5"])
    def test_domain_missing_its_value_is_a_usage_error(self, capsys, value):
        rc = run_cli("cvt", "--domain", value, "2", "--density", "uniform")
        assert rc == cli.EXIT_USAGE
        assert "argument --domain: expected one argument" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("option, value", [
        ("--domain", "0,x"), ("--domain", "0,1,2"),
        ("--init", "1,x,3"), ("--init", "1,2"),
    ], ids=["domain-not-a-number", "domain-three-values",
            "init-not-a-number", "init-two-values"])
    def test_comma_list_error_names_the_option(self, tmp_path, capsys,
                                               option, value):
        # The last of a repeated option wins.
        rc = run_cli("cvt", "--domain", "0,15", "--n", "3", "--density",
                     "uniform", "--out", str(tmp_path), option, value)
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert captured.err.startswith(f"error: {option}")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("exc, rc, line", [
        (InvalidParameterValue("bad value"), cli.EXIT_USAGE,
         "error: bad value"),
        (FileNotFoundError("no such file"), cli.EXIT_USAGE,
         "error: no such file"),
        (SolverDiverged("no convergence"), cli.EXIT_SOLVER,
         "solver failed: no convergence"),
    ], ids=["typed", "os", "solver"])
    def test_main_reports_typed_and_os_errors(self, monkeypatch, capsys, exc,
                                              rc, line):
        def handler(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_shift_check", handler)
        assert run_cli("shift-check", "--domain", "0,100", "--n", "5",
                       "--mu", "50", "--sigma2", "4", "--delta", "2") == rc
        assert capsys.readouterr().err == f"{line}\n"

    @pytest.mark.parametrize("exc", [ValueError, KeyError, TypeError,
                                     ZeroDivisionError])
    def test_untyped_errors_escape_main(self, monkeypatch, exc):
        # Every input error is typed, so anything else is a bug: a
        # traceback that a test sees, not an exit code 1.
        def handler(args):
            raise exc("a bug")

        monkeypatch.setattr(cli, "_cmd_shift_check", handler)
        with pytest.raises(exc, match="a bug"):
            run_cli("shift-check", "--domain", "0,100", "--n", "5", "--mu",
                    "50", "--sigma2", "4", "--delta", "2")

    def test_plot_writer_is_the_trace_method(self):
        assert cli._write_plot_data is sim.TraceLog.write_plot_data


class TestRunAsModule:
    """python -m cvtalloc.cli exits with main's code and prints its output:
    the __main__ guard, which the in-process calls of main do not run."""

    def run_module(self, tmp_path, *argv):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "cvtalloc.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True)

    def test_shift_check_exits_zero_with_json(self, tmp_path):
        run = self.run_module(tmp_path, "shift-check", "--domain", "0,100",
                              "--n", "5", "--mu", "50", "--sigma2", "4",
                              "--delta", "2")
        assert run.returncode == cli.EXIT_OK and run.stderr == ""
        assert json.loads(run.stdout)["passed"] is True

    def test_bad_density_exits_one_with_one_error_line(self, tmp_path):
        run = self.run_module(tmp_path, "cvt", "--domain", "0,15", "--n", "3",
                              "--density", "nope")
        assert run.returncode == cli.EXIT_USAGE and run.stdout == ""
        assert run.stderr.startswith("error: --density: ")
        assert run.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestCvt:
    def test_uniform_three_generators(self, tmp_path, capsys):
        rc = run_cli("cvt", "--domain", "0,15", "--n", "3",
                     "--density", "uniform", "--out", str(tmp_path))
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["generators"], [2.5, 7.5, 12.5],
                                   atol=1e-9)
        lines = (tmp_path / "generators.csv").read_text().splitlines()
        assert lines[0] == "iter,i,z_i"
        # final rows carry the cell boundaries
        boundary_rows = [ln for ln in lines if ln.startswith("boundary,")]
        bounds = [float(ln.split(",")[2]) for ln in boundary_rows]
        np.testing.assert_allclose(bounds, [0.0, 5.0, 10.0, 15.0], atol=1e-9)

    def test_json_reports_final_displacement(self, tmp_path, capsys):
        rc = run_cli("cvt", "--domain", "0,15", "--n", "3",
                     "--density", "uniform", "--out", str(tmp_path))
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["stop_reason"] == "tol"
        assert 0.0 <= out["final_displacement"] < 1e-10 * 15

    def test_uniform_energy_finite_past_the_cube_overflow(self, tmp_path,
                                                          capsys):
        # The cubed cell ends overflow on [0, 1e120]; the energy is still
        # that of two cells of width 5e119 and mass 1/2, with no warning.
        rc = run_cli("cvt", "--domain", "0,1e120", "--n", "2",
                     "--density", "uniform", "--out", str(tmp_path))
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["converged"]
        assert out["energy"] == pytest.approx(5e119 ** 2 / 12, rel=1e-12)

    def test_exponential_energy_finite_past_the_square_overflow(
            self, tmp_path, capsys):
        # lam ** 2 overflows a Python float above about 1.3e154; as a NumPy
        # float it is inf, and the second-moment term 2 / lam ** 2 is 0.
        rc = run_cli("cvt", "--domain", "0,1e-300", "--n", "3",
                     "--density", '{"family":"exponential","lam":1e300}',
                     "--out", str(tmp_path))
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["converged"]
        assert np.isfinite([out["energy"], *out["generators"]]).all()

    def test_energy_that_is_not_finite_is_an_error(self, tmp_path, capsys):
        # The generators are finite, but every cell's m2 - 2 z m1 + z² m0
        # overflows; a NumPy warning would fail the test (pyproject.toml),
        # and NaN is not JSON.
        rc = run_cli("cvt", "--domain", "0,1e170", "--n", "3",
                     "--density", '{"family":"exponential","lam":1e-170}',
                     "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE and captured.out == ""
        assert captured.err == ("error: the quantization energy on [0.0, "
                                "1e+170] is not a finite float64 (nan)\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("domain, n, message", [
        # (i - 1/2) * width overflows at i = 2 and 3: the equally spaced
        # start is finite, and so is the midpoint of the last two
        # generators, whose sum overflows and which is halved first; only
        # the energy is not.
        ("2,1.7e308", "3", "the quantization energy on [2.0, 1.7e+308] is "
                           "not a finite float64"),
        # The clipped ends squared overflow: the centroids are finite, and
        # only the energy, about 2.1e318, is not.
        ("0,1e160", "2", "the quantization energy on [0.0, 1e+160] is not "
                         "a finite float64"),
    ], ids=["start-overflow", "square-overflow"])
    def test_wide_uniform_domain_is_one_typed_error(self, domain, n, message,
                                                    tmp_path, capsys):
        # No warning (the mark makes one fail the test) and no
        # "generators must be finite" from an overflowed start or moment.
        rc = run_cli("cvt", "--domain", domain, "--n", n, "--density",
                     "uniform", "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE and captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    def test_budget_stop_exits_two(self, tmp_path, capsys):
        # The file and the JSON are written first; only the exit code says
        # that the run did not converge.
        rc = run_cli("cvt", "--domain", "0,15", "--n", "3",
                     "--density", '{"family":"gaussian","mu":7.5,"sigma2":9.0}',
                     "--init", "2,8,13", "--max-iter", "2",
                     "--out", str(tmp_path))
        out = json.loads(capsys.readouterr().out)
        assert rc == cli.EXIT_SOLVER
        assert out["stop_reason"] == "budget" and out["iterations"] == 2
        assert not out["converged"]
        lines = (tmp_path / "generators.csv").read_text().splitlines()
        assert len([ln for ln in lines if ln.startswith("2,")]) == 3

    def test_json_density_and_custom_init(self, tmp_path, capsys):
        rc = run_cli("cvt", "--domain", "0,15", "--n", "2",
                     "--density", '{"family":"gaussian","mu":7.5,"sigma2":4.0}',
                     "--init", "4,11", "--out", str(tmp_path))
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["converged"]
        assert out["stop_reason"] == "tol"
        z = out["generators"]
        assert z[0] + z[1] == pytest.approx(15.0, abs=1e-6)


def _write_generators_csv_per_value(path, history, boundaries):
    """generators.csv written one f-string per value: the bytes that
    cli._write_generators_csv must reproduce."""
    with open(path, "w", newline="") as fh:
        fh.write("iter,i,z_i\n")
        for it, z in enumerate(history):
            for i, zi in enumerate(z):
                fh.write(f"{it},{i},{sim._FMT % zi}\n")
        for i, b in enumerate(boundaries):
            fh.write(f"boundary,{i},{sim._FMT % b}\n")


class TestGeneratorsCsv:
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_same_bytes_as_per_value_writer(self, tmp_path, n):
        dom = tess.Domain1D(-30.0, 170.0)
        d = DensitySpec("gaussian", {"mu": 40.0, "sigma2": 225.0})
        z = np.sort(np.random.default_rng(n).uniform(dom.a, dom.b, n))
        t, hist = tess.lloyd(z, d, dom, max_iter=40, record_history=True)
        # Values of every sign and magnitude, in the history and the
        # boundaries alike.
        hist.append(np.resize([-0.0, 1e-300, -2.5e17, 1 / 3, 123456789.125], n))
        bounds = np.concatenate((t.boundaries[:-1], [5e-324]))
        cli._write_generators_csv(tmp_path / "new.csv", hist, bounds)
        _write_generators_csv_per_value(tmp_path / "old.csv", hist, bounds)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b"\nboundary,") == n + 1

    def test_cli_file_equals_per_value_writer(self, tmp_path, capsys):
        rc = run_cli("cvt", "--domain", "0,15", "--n", "3",
                     "--density", '{"family":"gaussian","mu":7.5,"sigma2":9.0}',
                     "--init", "2,8,13", "--max-iter", "25",
                     "--out", str(tmp_path))
        assert rc == cli.EXIT_SOLVER
        d = DensitySpec("gaussian", {"mu": 7.5, "sigma2": 9.0})
        t, hist = tess.lloyd([2.0, 8.0, 13.0], d, tess.Domain1D(0.0, 15.0),
                             max_iter=25, record_history=True)
        _write_generators_csv_per_value(tmp_path / "old.csv", hist,
                                        t.boundaries)
        assert ((tmp_path / "generators.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())


class TestStaticAlloc:
    def test_symmetric_gaussian(self, tmp_path, capsys):
        rc = run_cli("static-alloc", "--domain", "0,100", "--n", "50",
                     "--density",
                     '{"family":"gaussian","mu":"free","sigma2":4.0}',
                     "--r", "2500", "--out", str(tmp_path), "--csv")
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["v_k"] == pytest.approx(50.0, abs=1e-6)
        assert out["sum"] == pytest.approx(2500.0, abs=1e-6)
        assert out["residual_norm"] < 1e-9
        assert out["newton_iterations"] >= 1
        assert len(out["residual_history"]) == out["newton_iterations"] + 1
        assert out["residual_history"][-1] == out["residual_norm"]
        saved = json.loads((tmp_path / "allocation.json").read_text())
        assert saved == out
        with open(tmp_path / "allocation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50

    @pytest.mark.parametrize("domain, n, density, r", [
        ("0,100", "50", '{"family":"gaussian","mu":"free","sigma2":4.0}',
         "2500"),
        ("0,300", "15", '{"family":"gamma","k":"free","theta":20.0}',
         "1500"),
    ], ids=["banded-acceptance2", "dense-gamma-free-k"])
    def test_csv_rows_are_centroids_and_midpoint_cells(self, domain, n,
                                                       density, r, tmp_path,
                                                       capsys):
        # Each row is i, z_i and the midpoints around z_i, formatted from
        # the centroids that the same run printed.
        rc = run_cli("static-alloc", "--domain", domain, "--n", n,
                     "--density", density, "--r", r, "--out", str(tmp_path),
                     "--csv")
        assert rc == 0
        z = np.array(json.loads(capsys.readouterr().out)["centroids"])
        m = tess._midpoint_boundaries(z, cli._parse_domain(domain))
        expected = "i,z_i,cell_lo,cell_hi\n" + "".join(
            f"{i},{sim._FMT % z[i]},{sim._FMT % m[i]},{sim._FMT % m[i + 1]}\n"
            for i in range(int(n)))
        assert (tmp_path / "allocation.csv").read_text() == expected

    @pytest.mark.filterwarnings("error")
    def test_uniform_free_b_past_the_square_overflow(self, tmp_path, capsys):
        # The clipped ends squared overflow above about 1.3e154; the first
        # moments, m0 (hi + lo) / 2 there, give the exact allocation.
        rc = run_cli("static-alloc", "--domain", "0,1e160", "--n", "2",
                     "--density", '{"family":"uniform","a":0,"b":"free"}',
                     "--r", "9e159", "--out", str(tmp_path))
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["centroids"] == [2.25e159, 6.75e159]
        assert out["v_k"] == 9e159 and out["residual_norm"] == 0.0

    @pytest.mark.filterwarnings("error")
    def test_residual_norm_past_the_square_overflow(self, tmp_path, capsys):
        # Residual entries above about 1.3e154 overflow the sum of squares:
        # the scaled norm of the start is finite, so the solve runs and
        # ends in a solver failure, not in "initial guess is infeasible".
        rc = run_cli("static-alloc", "--domain", "0,1.7e308", "--n", "3",
                     "--density", '{"family":"uniform","a":0,"b":"free"}',
                     "--r", "1.53e308", "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert rc == cli.EXIT_SOLVER and captured.out == ""
        assert captured.err.startswith("solver failed: line search stalled "
                                       "at residual norm ")
        assert captured.err.endswith("is below 1.99584e+292, one ulp of the "
                                     "larger domain end\n")
        assert captured.err.count("\n") == 1

    def test_non_finite_band_is_a_solver_failure(self, tmp_path, capfd,
                                                 monkeypatch):
        # The step raises before LAPACK sees the NaN band, so LAPACK prints
        # nothing and the solve ends in a typed failure, not a traceback.
        real = sa._banded_jacobian

        def nan_band(*args):
            band, col, evals = real(*args)
            return np.full_like(band, np.nan), col, evals

        monkeypatch.setattr(sa, "_banded_jacobian", nan_band)
        rc = run_cli("static-alloc", "--domain", "0,100", "--n", "50",
                     "--density",
                     '{"family":"gaussian","mu":"free","sigma2":4.0}',
                     "--r", "2500", "--out", str(tmp_path))
        out, err = capfd.readouterr()
        assert rc == cli.EXIT_SOLVER == 2
        assert err.splitlines() == [
            "solver failed: banded solve failed (non-finite band or "
            "right-hand side)"]
        assert "DLASCL" not in out

    def test_infeasible_exits_nonzero(self, tmp_path, capsys):
        rc = run_cli("static-alloc", "--domain", "0,100", "--n", "10",
                     "--density",
                     '{"family":"gaussian","mu":"free","sigma2":4.0}',
                     "--r", "5000", "--out", str(tmp_path))
        assert rc == cli.EXIT_USAGE


class TestShiftCheck:
    def test_pass(self, capsys):
        rc = run_cli("shift-check", "--domain", "0,100", "--n", "5",
                     "--mu", "50", "--sigma2", "4", "--delta", "2",
                     "--tol", "1e-7")
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"]

    def test_narrow_domain_is_config_error(self, capsys):
        rc = run_cli("shift-check", "--domain", "49,51", "--n", "2",
                     "--mu", "50", "--sigma2", "1", "--delta", "5",
                     "--tol", "1e-7")
        assert rc == cli.EXIT_USAGE


class TestDynamicSim:
    @pytest.fixture()
    def config_path(self, tmp_path):
        cfg = {
            "n_agents": 4, "horizon": 12, "domain": [0.0, 3000.0],
            "density": {"family": "gaussian", "mu": "free", "sigma2": 900.0},
            "power_schedule": [3200.0] * 12, "seed": 5,
            "setpoints": [70.0, 71.0, 73.0, 74.0],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_outputs_written(self, tmp_path, config_path, capsys):
        out = tmp_path / "results"
        rc = run_cli("dynamic-sim", "--config", str(config_path),
                     "--out", str(out))
        assert rc == 0
        for name in ("trace.csv", "swaps.csv", "metrics.json", "powers.csv",
                     "total_power.csv", "temperatures.csv"):
            assert (out / name).exists()
        with open(out / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12 * 4
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["l2_power_error"] <= 1e-6
        with open(out / "total_power.csv") as fh:
            totals = list(csv.DictReader(fh))
        for row in totals:
            assert float(row["total_consumed"]) == pytest.approx(
                float(row["available"]), abs=1e-9)

    def test_horizon_mismatch_exits_one(self, tmp_path, config_path):
        cfg = json.loads(config_path.read_text())
        cfg["horizon"] = 13
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = run_cli("dynamic-sim", "--config", str(bad),
                     "--out", str(tmp_path / "x"))
        assert rc == cli.EXIT_USAGE

    @pytest.mark.parametrize("change, message", [
        ({"setpoint_changes": [[5, 99, 60.0]]}, "agent 99"),
        ({"setpoint_changes": [[5, -1, 60.0]]}, "agent -1"),
        ({"setpoint_changes": [[12, 0, 60.0]]}, "step 12"),
        ({"setpoint_changes": [[-1, 0, 60.0]]}, "step -1"),
        ({"rounds_per_step": 0}, "rounds_per_step"),
        ({"rounds_per_step": -2}, "rounds_per_step"),
        ({"n_agents": 0}, "n_agents"),
        ({"rounds_per_stp": 2}, "rounds_per_stp"),
        ({"horizon": 0, "power_schedule": []}, "horizon"),
        ({"n_agents": 4.5}, "n_agents"),
        ({"horizon": 12.5}, "horizon"),
        ({"seed": 1.5}, "seed"),
        ({"rounds_per_step": 1.5}, "rounds_per_step"),
        ({"domain": [0, 1, 2]}, "domain"),
        ({"power_schedule": 5}, "power_schedule"),
        ({"setpoints": 5}, "setpoints"),
        ({"setpoint_changes": 5}, "setpoint_changes"),
        ({"poles": 5}, "poles"),
        ({"density": 5}, "density"),
        ({"setpoints": [70.0, float("nan"), 73.0, 74.0]}, "setpoints"),
        ({"setpoint_changes": [[5, 0, float("inf")]]}, "setpoint_changes"),
        ({"setpoints": [70.0, 1e300, 73.0, 74.0]},
         "setpoints must lie in [-459.67, 1000.0] degF"),
        ({"setpoints": [70.0, -460.0, 73.0, 74.0]}, "setpoints"),
        ({"setpoints": [70.0, 71.0, 73.0]},
         "setpoints must have one entry per agent"),
        ({"setpoint_changes": [[5, 0, 1000.5]]},
         "setpoint_changes: the new setpoint at step 5 for agent 0 must lie "
         "in [-459.67, 1000.0] degF, got 1000.5"),
        ({"poles": [1.5, 0.85, 0.9]}, "poles"),
        ({"poles": [0.8, 0.9]}, "poles must have exactly three entries"),
        ({"n_agents": DROP}, "missing required key 'n_agents'"),
        ({"density": {"mu": "free", "sigma2": 900.0}},
         "density: density spec is missing 'family'"),
        ({"ts_minutes": float("nan")}, "ts_minutes"),
        ({"ts_minutes": float("inf")}, "ts_minutes"),
        ({"ts_minutes": 0}, "ts_minutes"),
        ({"ts_minutes": -10.0}, "ts_minutes"),
        ({"ts_minutes": 1e300}, "ts_minutes"),
        ({"seed": -1}, "seed must be >= 0"),
    ], ids=["agent-too-large", "agent-negative", "step-at-horizon",
            "step-negative", "zero-rounds", "negative-rounds", "no-agents",
            "unknown-key", "zero-horizon", "fractional-agents",
            "fractional-horizon", "fractional-seed", "fractional-rounds",
            "domain-three-values", "schedule-not-list", "setpoints-not-list",
            "changes-not-list", "poles-not-list", "density-not-object",
            "setpoint-nan", "setpoint-change-inf", "setpoint-huge",
            "setpoint-below-absolute-zero", "setpoints-too-few",
            "setpoint-change-too-hot",
            "pole-outside-unit-circle",
            "poles-two",
            "missing-key", "density-no-family", "ts-nan", "ts-inf", "ts-zero",
            "ts-negative", "ts-huge", "seed-negative"])
    def test_invalid_scenario_exits_one(self, tmp_path, config_path, capsys,
                                        change, message):
        cfg = json.loads(config_path.read_text())
        cfg = {k: v for k, v in {**cfg, **change}.items() if v is not DROP}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = run_cli("dynamic-sim", "--config", str(bad),
                     "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("change", [
        {"n_agents": "4"}, {"n_agents": True},
        {"horizon": "12"},
        {"seed": "5"}, {"seed": False},
        {"rounds_per_step": "1"}, {"rounds_per_step": True},
        {"ts_minutes": "10"}, {"ts_minutes": True},
        {"domain": ["0", "3000"]}, {"domain": [False, 3000.0]},
        {"power_schedule": ["3200"] * 12},
        {"power_schedule": [3200.0] * 11 + [True]},
        {"setpoints": ["70", "71", "73", "74"]},
        {"setpoints": [True, 71.0, 73.0, 74.0]},
        {"poles": ["0.8", "0.85", "0.9"]},
        {"setpoint_changes": [["5", 0, 60.0]]},
        {"setpoint_changes": [[5, True, 60.0]]},
        {"setpoint_changes": [[5, 0, "60"]]},
        {"setpoint_changes": [[5, 0, True]]},
    ], ids=lambda change: "-".join(f"{k}={v!r}" for k, v in change.items()))
    def test_quoted_number_or_boolean_exits_one(self, tmp_path, config_path,
                                                capsys, change):
        # A number field given as a string or a boolean is refused by name,
        # not read as the number.
        cfg = {**json.loads(config_path.read_text()), **change}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = run_cli("dynamic-sim", "--config", str(bad),
                     "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        (field, _), = change.items()
        assert rc == cli.EXIT_USAGE
        assert err.startswith(f"error: {field}: expected a number, got ")
        assert err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("ts", [1e4, 1e10])
    def test_uncontrollable_sampling_names_ts_minutes(self, tmp_path, capsys,
                                                      ts):
        # So long a step leaves the sampled plant uncontrollable: one error
        # line naming ts_minutes and its value, then the agent's reason.
        cfg = json.loads(SHIPPED.read_text())
        cfg["ts_minutes"] = ts
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = run_cli("dynamic-sim", "--config", str(bad), "--horizon", "3",
                     "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE
        assert err == (f"error: ts_minutes: the plant sampled every {ts!r} "
                       f"minutes cannot be controlled (agent 0: (Ad, Bd) "
                       f"controllability matrix is rank deficient)\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("top", [[1, 2], "scenario", 5, None])
    def test_scenario_not_an_object_exits_one(self, tmp_path, capsys, top):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(top))
        rc = run_cli("dynamic-sim", "--config", str(bad),
                     "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE
        assert err.startswith("error: a scenario must be a JSON object")
        assert err.count("\n") == 1

    def test_horizon_override_drops_later_setpoint_changes(self, tmp_path,
                                                           capsys):
        # The shipped scenario changes setpoints at step 30.
        out = tmp_path / "out"
        assert run_cli("dynamic-sim", "--config", str(SHIPPED), "--horizon",
                       "20", "--out", str(out)) == cli.EXIT_OK
        with open(out / "trace.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 20 * 15
        capsys.readouterr()
        assert run_cli("dynamic-sim", "--config", str(SHIPPED), "--horizon",
                       "0", "--out", str(tmp_path / "x")) == cli.EXIT_USAGE
        assert "horizon" in capsys.readouterr().err

    def test_seed_past_int64_runs(self, tmp_path, capsys):
        # Agent i's seed, seed * 100003 + i, is a Python int of any size.
        assert run_cli("dynamic-sim", "--config", str(SHIPPED), "--seed",
                       str(2**70), "--horizon", "2", "--out",
                       str(tmp_path / "out")) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out.splitlines()[-1])

    def test_blank_disturbance_cell_exits_one(self, tmp_path, capsys):
        assert_disturbance_error(
            tmp_path, capsys, "time_min,outdoor_temp_F,solar_radiation_W\n"
            "0,70,0\n600,,100\n1440,75,\n")

    @pytest.mark.parametrize("text", [
        "",
        "time_min,outdoor_temp_F,solar_radiation_W\n",
        "time_min,outdoor_temp_F,solar_radiation_W\n0,70,0\n",
        "time_min,outdoor_temp_F\n0,70\n1440,75\n",
        "time_min,outdoor_temp_F,solar_radiation_W\n"
        "0,70,0\n1440,75,0\n600,90,100\n",
        "time_min,outdoor_temp_F,solar_radiation_W\n0,70,0\n0,75,0\n",
        "time_min,outdoor_temp_F,solar_radiation_W\n"
        "0,70,0\n600,90\n1430,80,5,7\n",
    ], ids=["empty", "header-only", "one-row", "missing-column", "unsorted",
            "repeated-time", "ragged"])
    def test_malformed_disturbance_csv_exits_one(self, tmp_path, capsys,
                                                 text):
        assert_disturbance_error(tmp_path, capsys, text)

    @pytest.mark.parametrize("rows", ["0,70,0\n60,90,100\n",
                                      "10,70,0\n1440,90,100\n"],
                             ids=["ends-early", "starts-late"])
    def test_disturbance_short_of_the_horizon_exits_one(self, tmp_path,
                                                        capsys, rows):
        # Ten steps of 10 minutes need time_min to span [0, 90]; the last
        # (or first) row is not held past the end of the file.
        assert_disturbance_error(
            tmp_path, capsys,
            "time_min,outdoor_temp_F,solar_radiation_W\n" + rows)

    def test_disturbance_spanning_the_horizon_runs(self, tmp_path, capsys):
        csv_path = tmp_path / "weather.csv"
        csv_path.write_text("time_min,outdoor_temp_F,solar_radiation_W\n"
                            "0,70,0\n90,90,100\n")
        cfg = json.loads(SHIPPED.read_text())
        cfg["disturbance"] = str(csv_path)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("dynamic-sim", "--config", str(path), "--horizon", "10",
                       "--out", str(tmp_path / "x")) == cli.EXIT_OK

    @pytest.mark.parametrize("value", [5, True, None, ["weather.csv"]],
                             ids=["number", "boolean", "null", "list"])
    def test_disturbance_not_a_string_exits_one(self, tmp_path, capsys,
                                                value):
        # Refused by name, not run as the path "5", "True" or "None".
        cfg = {**json.loads(SHIPPED.read_text()), "disturbance": value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = run_cli("dynamic-sim", "--config", str(bad), "--horizon", "3",
                     "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE
        assert err == f"error: disturbance: expected a string, got {value!r}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("directory, reason", [
        (False, "No such file or directory"), (True, "Is a directory")],
        ids=["missing", "directory"])
    def test_disturbance_file_that_does_not_open_exits_one(
            self, tmp_path, capsys, directory, reason):
        weather = tmp_path / "weather.csv"
        if directory:
            weather.mkdir()
        cfg = {**json.loads(SHIPPED.read_text()), "disturbance": str(weather)}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = run_cli("dynamic-sim", "--config", str(bad), "--horizon", "3",
                     "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE
        assert err == f"error: disturbance {str(weather)!r}: {reason}\n"
        assert not (tmp_path / "x").exists()

    def test_disturbance_not_utf8_exits_one(self, tmp_path, capsys):
        weather = tmp_path / "weather.csv"
        weather.write_bytes(b"\xfftime_min,outdoor_temp_F,solar_radiation_W\n")
        cfg = {**json.loads(SHIPPED.read_text()), "disturbance": str(weather)}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = run_cli("dynamic-sim", "--config", str(bad), "--horizon", "3",
                     "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE
        assert err.startswith(f"error: disturbance {str(weather)!r}: "
                              f"not UTF-8 text")
        assert err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("content", [
        b'\xff{"n_agents": 15}', b'{"n_agents": 15,', b""],
        ids=["not-utf8", "truncated-json", "empty"])
    def test_config_not_utf8_or_json_exits_one(self, tmp_path, capsys,
                                               content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        rc = run_cli("dynamic-sim", "--config", str(bad),
                     "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE
        assert err.startswith(f"error: config {str(bad)!r}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_rounds_per_step_option_is_refused(self, tmp_path, capsys):
        # The scenario key rounds_per_step is the one way to set the rounds.
        rc = run_cli("dynamic-sim", "--config", str(SHIPPED),
                     "--rounds-per-step", "3", "--out", str(tmp_path / "x"))
        assert rc == cli.EXIT_USAGE
        assert "--rounds-per-step" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_horizon_beyond_schedule_exits_one(self, tmp_path, capsys):
        rc = run_cli("dynamic-sim", "--config", str(SHIPPED), "--horizon",
                     "200", "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE
        assert err.startswith("error:")
        assert "--horizon 200" in err and "schedule length 144" in err
        assert not (tmp_path / "x").exists()

    def test_diagnostics_leave_outputs_unchanged(self, tmp_path, capsys):
        plain, diag = tmp_path / "plain", tmp_path / "diag"
        path = tmp_path / "d" / "diagnostics.json"
        assert run_cli("dynamic-sim", "--config", str(SHIPPED),
                       "--out", str(plain)) == cli.EXIT_OK
        assert run_cli("dynamic-sim", "--config", str(SHIPPED), "--out",
                       str(diag), "--diagnostics", str(path)) == cli.EXIT_OK
        for name in OUTPUT_FILES:
            assert (hashlib.sha256((plain / name).read_bytes()).digest()
                    == hashlib.sha256((diag / name).read_bytes()).digest()), name
        assert sorted(p.name for p in diag.iterdir()) == sorted(OUTPUT_FILES)

        report = json.loads(path.read_text())
        metrics = json.loads((diag / "metrics.json").read_text())
        assert set(report["phase_s"]) == set(sim.PHASES)
        assert all(t >= 0.0 for t in report["phase_s"].values())
        assert sum(report["phase_s"].values()) <= report["run_s"]
        assert 0.0 <= report["initialize_s"] <= report["run_s"]
        assert report["write_s"] >= 0.0
        assert set(report["write_phase_s"]) == set(sim.WRITE_PARTS)
        assert all(t >= 0.0 for t in report["write_phase_s"].values())
        assert sum(report["write_phase_s"].values()) <= report["write_s"]
        assert report["steps"] == len(report["swaps_per_step"]) == 144
        assert sum(report["swaps_per_step"]) == report["total_swaps"] \
            == metrics["total_swaps"]
        assert 0.0 <= report["max_constraint_error"] <= metrics["l2_power_error"]

        # The one-step shift leaves the domain [0, 3000] at 11 steps, 20
        # resources in all; the counts agree with trace.csv's z column.
        a, b = json.loads(SHIPPED.read_text())["domain"]
        outside = [0] * 144
        with open(diag / "trace.csv") as fh:
            for row in csv.DictReader(fh):
                outside[int(row["step"])] += not a <= float(row["z"]) <= b
        assert report["outside_domain_per_step"] == outside
        assert sum(outside) == 20 and sum(c > 0 for c in outside) == 11

    def test_seed_override_changes_plants(self, tmp_path, config_path, capsys):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert run_cli("dynamic-sim", "--config", str(config_path),
                       "--out", str(out1)) == 0
        assert run_cli("dynamic-sim", "--seed", "99", "--config",
                       str(config_path), "--out", str(out2)) == 0
        assert (out1 / "trace.csv").read_bytes() != \
            (out2 / "trace.csv").read_bytes()

    def test_repeat_run_byte_identical(self, tmp_path, config_path, capsys):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            assert run_cli("dynamic-sim", "--config", str(config_path),
                           "--out", str(out)) == 0
        assert (out1 / "trace.csv").read_bytes() == \
            (out2 / "trace.csv").read_bytes()
        assert (out1 / "swaps.csv").read_bytes() == \
            (out2 / "swaps.csv").read_bytes()


class TestDensityBoundary:
    """Malformed density specs and parameters stop with exit code 1 and an
    ``error:`` line, never a traceback."""

    GAUSS = '{"family":"gaussian","mu":"free","sigma2":%s}'

    @pytest.mark.parametrize("argv", [
        ("cvt", "--domain", "0,10", "--n", "3", "--density", "5"),
        ("static-alloc", "--domain", "0,100", "--n", "5", "--r", "250",
         "--density", "[1]"),
        ("static-alloc", "--domain", "0,100", "--n", "5", "--r", "250",
         "--density", GAUSS % "null"),
        ("static-alloc", "--domain", "0,100", "--n", "5", "--r", "250",
         "--density", GAUSS % "true"),
        ("static-alloc", "--domain", "0,100", "--n", "5", "--r", "250",
         "--density", GAUSS % "Infinity"),
        ("shift-check", "--domain", "0,100", "--n", "5", "--mu", "50",
         "--sigma2", "4", "--delta", "nan"),
    ], ids=["cvt-density-number", "static-density-list", "sigma2-null",
            "sigma2-true", "sigma2-infinity", "shift-delta-nan"])
    def test_exits_one(self, tmp_path, capsys, argv):
        out = ("--out", str(tmp_path)) if argv[0] != "shift-check" else ()
        rc = run_cli(*argv, *out)
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ("cvt", "--domain", "0,10", "--n", "3", "--density", "{family"),
        ("static-alloc", "--domain", "0,100", "--n", "5", "--r", "250",
         "--density", "gaussian"),
    ], ids=["cvt-truncated-json", "static-bare-word"])
    def test_density_not_json_names_the_option(self, tmp_path, capsys,
                                               argv):
        rc = run_cli(*argv, "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert captured.err.startswith(
            "error: --density: neither 'uniform' nor JSON (")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (("cvt", "--domain", "0,15", "--n", "3", "--density", "uniform",
          "--tol", "nan"), "tol must be positive"),
        (("cvt", "--domain", "0,15", "--n", "3", "--density", "uniform",
          "--max-iter", "-3"), "max_iter must be >= 0"),
        (("cvt", "--domain", "0,15", "--n", "3", "--density", "uniform",
          "--init", "nan,5,10"), "generators must be finite"),
        # The centroids are finite; their squares, in the energy, are not.
        (("cvt", "--domain", f"{_H - 1e299!r},{_H + 1e299!r}", "--n", "2",
          "--density", "uniform", "--init",
          f"{_H - 9e298!r},{_H - 8e298!r}"),
         f"the quantization energy on [{_H - 1e299!r}, {_H + 1e299!r}] is "
         f"not a finite float64"),
        (("cvt", "--domain", "0,1.7e308", "--n", "1", "--density",
          '{"family": "exponential", "lam": 1e-308}'), "onto an end"),
        (("shift-check", "--domain", "0,100", "--n", "5", "--mu", "50",
          "--sigma2", "4", "--delta", "2", "--tol", "nan"),
         "tol must be positive"),
    ], ids=["cvt-tol-nan", "cvt-max-iter-negative", "cvt-init-nan",
            "cvt-energy-overflow", "cvt-generator-on-domain-end",
            "shift-tol-nan"])
    def test_bad_lloyd_input_exits_one(self, tmp_path, capsys, argv,
                                       message):
        out = ("--out", str(tmp_path)) if argv[0] == "cvt" else ()
        rc = run_cli(*argv, *out)
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert captured.err.startswith("error:")
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ("cvt", "--domain", "0,100", "--n", "3"),
        ("static-alloc", "--domain", "0,100", "--n", "5", "--r", "250"),
    ], ids=["cvt", "static-alloc"])
    def test_density_without_family_exits_one(self, tmp_path, capsys, argv):
        rc = run_cli(*argv, "--density", '{"mu": 50, "sigma2": 4}',
                     "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert captured.err.startswith("error:")
        assert "density spec is missing 'family'" in captured.err
        assert captured.out == ""

    def test_scenario_sigma2_null_exits_one(self, tmp_path, capsys):
        cfg = json.loads(SHIPPED.read_text())
        cfg["density"]["sigma2"] = None
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        rc = run_cli("dynamic-sim", "--config", str(path),
                     "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: density:")


class TestRepeatedNames:
    """A parameter or key named twice exits 1 with one ``error:`` line,
    where the last name used to win: two aliases of one density parameter,
    or a JSON key given twice in --density or in a --config file."""

    @pytest.mark.parametrize("density, message", [
        ('{"family":"exponential","lam":1,"lambda":5}',
         "exponential parameter 'lam' is named twice, as 'lam' and "
         "'lambda'"),
        ('{"family":"gaussian","mu":"free","sigma2":4,"sigma2":9}',
         "JSON key 'sigma2' is given twice"),
    ], ids=["alias", "duplicate-key"])
    @pytest.mark.parametrize("command", ["cvt", "static-alloc"])
    def test_density_exits_one(self, tmp_path, capsys, command, density,
                               message):
        if command == "cvt":
            argv = ("cvt", "--domain", "0,10", "--n", "3")
        else:
            argv = ("static-alloc", "--domain", "0,100", "--n", "5",
                    "--r", "250")
        rc = run_cli(*argv, "--density", density, "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text, key", [
        ('{"seed": 1, "seed": 2}', "seed"),
        ('{"density": {"family": "gaussian", "mu": "free", "sigma2": 4, '
         '"sigma2": 9}}', "sigma2"),
    ], ids=["top-level", "nested"])
    def test_config_duplicate_key_exits_one(self, tmp_path, capsys, text,
                                            key):
        # The repeat is refused as the file is read, before any key is.
        path = tmp_path / "scenario.json"
        path.write_text(text)
        with pytest.raises(InvalidScenario) as exc:
            sim.Scenario.from_json(path)
        message = f"config {str(path)!r}: JSON key {key!r} is given twice"
        assert str(exc.value) == message
        rc = run_cli("dynamic-sim", "--config", str(path),
                     "--out", str(tmp_path / "out"))
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not (tmp_path / "out").exists()


class TestTypedInputErrors:
    """Out-of-range user input raises InvalidParameterValue, which main
    reports as one ``error:`` line with exit code 1."""

    GAUSS = '{"family":"gaussian","mu":"free","sigma2":4.0}'

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (("cvt", "--domain", "0,15", "--n", "0", "--density", "uniform"),
         "need at least one generator"),
        (("cvt", "--domain", "0,15", "--n", "3", "--density", "uniform",
          "--tol", "0"), "tol must be positive, got 0.0"),
        (("cvt", "--domain", "0,15", "--n", "3", "--density", "uniform",
          "--max-iter", "-1"), "max_iter must be >= 0, got -1"),
        (("cvt", "--domain", "1,0", "--n", "3", "--density", "uniform"),
         "domain requires a < b, got [1.0, 0.0]"),
        (("cvt", "--domain", "0,inf", "--n", "3", "--density", "uniform"),
         "domain endpoints must be finite"),
        # Every width-scaled rule (the duplicate gap, Lloyd's tolerance,
        # the mass floor) needs a finite b - a; no NumPy warning comes first.
        (("cvt", "--domain=-1e308,1e308", "--n", "2", "--density",
          "uniform"), "domain width b - a overflows, got [-1e+308, 1e+308]"),
        (("static-alloc", "--domain", "0,100", "--n", "0", "--r", "250",
          "--density", GAUSS), "n_agents must be >= 1"),
        (("static-alloc", "--domain", "0,100", "--n", "5", "--r", "250",
          "--density", "uniform"),
         "density must declare exactly one free parameter"),
        (("shift-check", "--domain", "0,100", "--n", "5", "--mu", "50",
          "--sigma2", "4", "--delta", "2", "--tol", "0"),
         "tol must be positive, got 0.0"),
    ], ids=["cvt-n-zero", "cvt-tol-zero", "cvt-max-iter-negative",
            "cvt-domain-reversed", "cvt-domain-infinite",
            "cvt-domain-width-overflows", "static-n-zero",
            "static-no-free-parameter", "shift-tol-zero"])
    def test_exits_one_with_one_error_line(self, tmp_path, capsys, argv,
                                           message):
        out = ("--out", str(tmp_path)) if argv[0] != "shift-check" else ()
        args = cli.build_parser().parse_args([*argv, *out])
        with pytest.raises(InvalidParameterValue) as exc:
            args.handler(args)
        assert str(exc.value) == message
        assert run_cli(*argv, *out) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestJacobianFailure:
    """The shipped scenario with sigma2 = 1e-8: a difference column whose
    forward and backward candidates are both invalid ends the solve as a
    solver failure, not as an invalid candidate."""

    def config(self):
        cfg = json.loads(SHIPPED.read_text())
        cfg["density"]["sigma2"] = 1e-8
        return cfg

    def test_solve_raises_solver_diverged(self):
        sc = sim.Scenario.from_config(self.config())
        p = sa.StaticProblem(domain=sc.domain, n_agents=sc.n_agents,
                             density=sc.density, r=sc.power_schedule[0])
        with pytest.raises(SolverDiverged,
                           match="difference Jacobian column") as info:
            sa.solve(p)
        assert info.value.best.shape == (sc.n_agents + 1,)
        assert np.isfinite(info.value.residual_norm)

    def test_cli_exits_two(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.config()))
        rc = run_cli("dynamic-sim", "--config", str(path),
                     "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_SOLVER
        assert capsys.readouterr().err.startswith(
            "solver failed: difference Jacobian column")
