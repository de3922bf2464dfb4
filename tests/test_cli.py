import dataclasses
import inspect
import os

import numpy as np
import pytest

import steadypop as sp
from steadypop import cli
from steadypop.cli import main
from steadypop.config import load_config
from steadypop.errors import ConfigError, ConvergenceError

from conftest import write_config

CE_TEXT = """\
# two-equilibrium benchmark
model.variant = counterexample
grid.x_max = 40
grid.n = 4001
grid.scheme = graded_trapezoid
solver.lambda_min = 0.01
solver.lambda_max = 10
solver.scan_points = 200
"""

HIER_TEXT = """\
model.variant = hierarchical
model.g_low = 0.5
model.g_high = 1.0
model.mu0 = 1.0
model.b0 = 2.0
grid.scheme = graded_trapezoid
solver.scan_points = 64
"""

SUBCRIT_TEXT = """\
model.variant = constant
model.mu0 = 1.0
model.g0 = 1.0
model.beta0 = 0.5
grid.n = 1001
solver.scan_points = 16
"""

COMPOSITE_TEXT = """\
model.variant = composite
model.g.const = 1.0
model.mu.const = 1.0
model.mu.u_sat = 0.5
model.beta.const = 0.5
"""


class TestLoadConfig:
    def test_counterexample_roundtrip(self, tmp_path):
        run = load_config(write_config(tmp_path / "a.cfg", CE_TEXT))
        assert run.model.variant == "counterexample"
        assert run.grid.n == 4001
        assert run.grid.x_max == 40.0
        assert not run.grid.is_uniform
        assert run.solver.lambda_max == 10.0
        assert run.out_dir == "steadypop_out"

    def test_defaults_applied(self, tmp_path):
        run = load_config(write_config(tmp_path / "a.cfg", "model.variant = counterexample\n"))
        assert run.model.params["g"] == 1.0
        assert run.grid.n == 4001
        assert run.grid.is_uniform
        # auto horizon keeps the envelope tail below 1e-10
        assert sp.model.envelope_tail_mass(run.model.bounds, run.grid.x_max) <= 1.1e-10

    def test_out_dir_override(self, tmp_path):
        path = write_config(tmp_path / "a.cfg", "model.variant = counterexample\noutput.dir = here\n")
        assert load_config(path).out_dir == "here"
        assert load_config(path, out_dir="there").out_dir == "there"

    def test_composite_model(self, tmp_path):
        text = COMPOSITE_TEXT + "model.beta.functional = weighted\n"
        run = load_config(write_config(tmp_path / "a.cfg", text))
        assert run.model.variant == "composite"
        assert run.model.bounds.mu_high == 1.5
        assert run.model.params["beta"].functional == "weighted"

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("grid.n = 100\n", "model.variant"),
            ("model.variant = spline\n", "model.variant"),
            ("model.variant = constant\nmodel.mu0 = 1\nmodel.g0 = 1\n", "model.beta0"),
            ("model.variant = counterexample\nmodel.g = fast\n", "number"),
            ("model.variant = counterexample\ngrid.scheme = simpson\n", "grid.scheme"),
            ("model.variant = counterexample\ngrid.x_max = -3\n", "grid.x_max"),
            ("model.variant = counterexample\nmodel.g = 1\nmodel.g = 2\n", "duplicate"),
            ("model.variant = counterexample\nnot a pair\n", "key = value"),
            ("model.variant = counterexample\nsolver.typo = 1\n", "solver.typo"),
            ("model.variant = counterexample\nsolver.picard_max_iter = 2.7\n",
             "solver.picard_max_iter"),
            ("model.variant = counterexample\nsolver.scan_points = inf\n", "solver.scan_points"),
            ("model.variant = counterexample\nsolver.seed = 1e400\n", "solver.seed"),
            ("model.variant = counterexample\nsolver.picard_max_iter = nan\n",
             "solver.picard_max_iter"),
            ("model.variant = counterexample\nsolver.picard_damping = 0.5\n",
             "unknown key 'solver.picard_damping'"),
            ("model.variant = counterexample\nsolver.map_a_max_iter = 10\n",
             "unknown key 'solver.map_a_max_iter'"),
            ("model.variant = counterexample\nsolver.seed = -1\n", "seed"),
            ("model.variant = counterexample\nsolver.picard_tol = nan\n", "solver.picard_tol"),
            (HIER_TEXT.replace("model.b0 = 2.0", "model.b0 = inf"), "model.b0"),
            ("model.variant = counterexample\ngrid.x_max = inf\n", "grid.x_max"),
            ("model.variant = counterexample\ngrid.n = 2.5\n", "grid.n"),
            ("model.variant = counterexample\ngrid.n = 2\n", "invalid grid parameters"),
            (COMPOSITE_TEXT + "model.beta.functional = bogus\n", "invalid composite rate 'beta'"),
            (COMPOSITE_TEXT + "model.beta.x_rate = 0\n", "invalid composite rate 'beta'"),
            ("model.variant = counterexample\ngrid.n =\n", "empty key or value"),
            ("model.variant = counterexample\n= 5\n", "empty key or value"),
            # the scan would start at root_tol = 0.4 and run down to 0.01
            ("model.variant = counterexample\nsolver.root_tol = 0.4\nsolver.lambda_max = 0.01\n",
             "lambda_max"),
        ],
    )
    def test_rejected_configs(self, tmp_path, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            load_config(write_config(tmp_path / "bad.cfg", text))

    @pytest.mark.parametrize("text,key,message", [
        ("solver.scan_points = 1\n", "solver.scan_points",
         "invalid solver parameters: scan_points must be at least 2"),
        ("solver.seed = -1\n", "solver.seed",
         "invalid solver parameters: seed must be nonnegative"),
        ("solver.lambda_min = 2\nsolver.lambda_max = 1\n", "solver.lambda_max",
         "invalid solver parameters: lambda_max must be finite and exceed lambda_min "
         "(root_tol when unset)"),
        (COMPOSITE_TEXT + "model.beta.x_rate = 0\n", "model.beta.x_rate",
         "invalid composite rate 'beta': x_rate and weight_decay must be positive"),
        (COMPOSITE_TEXT + "model.mu.tail_from = -1\n", "model.mu.tail_from",
         "invalid composite rate 'mu': tail_from must be nonnegative"),
    ])
    def test_error_names_the_key_at_fault(self, tmp_path, text, key, message):
        if not text.startswith("model.variant"):
            text = "model.variant = counterexample\n" + text
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path / "bad.cfg", text))
        assert err.value.key == key
        assert str(err.value) == message

    @pytest.mark.parametrize("text,key", [
        ("grid.x_max = 1e-320\n", "grid.x_max"),
        ("grid.n = 2\n", "grid.n"),
        ("grid.x_max = 1e-320\ngrid.scheme = graded_trapezoid\n", "grid.x_max"),
    ])
    def test_grid_error_names_its_field(self, tmp_path, text, key):
        # a tiny x_max used to be reported as grid.n
        path = write_config(tmp_path / "bad.cfg", "model.variant = counterexample\n" + text)
        with pytest.raises(ConfigError, match="invalid grid parameters") as err:
            load_config(path)
        assert err.value.key == key

    def test_keys_are_the_objects_fields(self, tmp_path):
        # every SolverConfig field loads as solver.<field>
        solver_values = {"picard_tol": 1e-7, "picard_max_iter": 17, "lambda_min": 0.5,
                         "lambda_max": 5.0, "scan_points": 9, "root_tol": 1e-8, "seed": 3}
        lines = ["model.variant = counterexample"] + [
            "solver.%s = %r" % (f.name, solver_values[f.name])
            for f in dataclasses.fields(sp.SolverConfig)]
        run = load_config(write_config(tmp_path / "s.cfg", "\n".join(lines) + "\n"))
        assert run.solver == sp.SolverConfig(**solver_values)
        # every parameter of a scalar variant's builder loads as model.<parameter>
        model_values = {
            "constant": (sp.constant_model, {"mu0": 1.5, "g0": 0.75, "beta0": 0.5}),
            "counterexample": (sp.counterexample_model, {"g": 2.0}),
            "hierarchical": (sp.hierarchical_model,
                             {"g_low": 0.25, "g_high": 1.5, "mu0": 1.25, "b0": 3.0}),
        }
        for variant, (builder, values) in model_values.items():
            lines = ["model.variant = %s" % variant] + [
                "model.%s = %r" % (name, values[name])
                for name in inspect.signature(builder).parameters]
            run = load_config(write_config(tmp_path / "m.cfg", "\n".join(lines) + "\n"))
            assert run.model == builder(**values)

    def test_integer_keys_accept_exponent_form(self, tmp_path):
        text = "model.variant = counterexample\nsolver.picard_max_iter = 1e3\ngrid.n = 1e3\n"
        run = load_config(write_config(tmp_path / "a.cfg", text))
        assert run.solver.picard_max_iter == 1000
        assert isinstance(run.solver.picard_max_iter, int)
        assert run.grid.n == 1000

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/steadypop.cfg")

    def test_underflowing_rates_rejected(self, tmp_path, capsys):
        # g0 * mu0 underflows to 0, so the envelope norms would divide by zero
        text = "model.variant = constant\nmodel.mu0 = %s\nmodel.g0 = %s\nmodel.beta0 = 1\n"
        tiny = write_config(tmp_path / "tiny.cfg", text % ("1e-200", "1e-200"))
        with pytest.raises(ConfigError, match="model parameters") as err:
            load_config(tiny)
        assert err.value.key == "model.variant"
        for command in ("solve", "scan", "certify", "diagnose"):
            assert main([command, "--config", tiny, "--out", str(tmp_path / "out")]) == 2
        assert "model parameters" in capsys.readouterr().err
        small = load_config(write_config(tmp_path / "small.cfg", text % ("1e-100", "1e-100")))
        assert 0 < small.grid.x_max < np.inf


@pytest.fixture(scope="module")
def ce_run(tmp_path_factory):
    """One shared solve of the two-equilibrium benchmark through the CLI."""
    base = tmp_path_factory.mktemp("ce_cli")
    cfg = write_config(base / "ce.cfg", CE_TEXT)
    out = str(base / "out")
    code = main(["solve", "--config", cfg, "--out", out])
    return cfg, out, code


class TestSolveCommand:
    def test_exit_code_and_files(self, ce_run):
        _, out, code = ce_run
        assert code == 0
        rows = (np.genfromtxt("%s/equilibria.csv" % out, delimiter=",",
                              names=True, dtype=float))
        assert rows.shape == (2,)
        assert rows["lambda_star"][0] == pytest.approx(1.0 / 6.0, abs=1e-6)
        assert rows["lambda_star"][1] == pytest.approx(1.0, abs=1e-6)
        assert np.all(rows["residual_l1"] < 1e-6)

    def test_profile_files_consistent(self, ce_run):
        _, out, _ = ce_run
        prof = np.genfromtxt("%s/profile_002.csv" % out, delimiter=",",
                             names=True, dtype=float)
        assert prof["x"][0] == 0.0
        assert np.allclose(prof["u_star"], np.exp(-prof["x"]), atol=2e-6)
        assert np.all(prof["e1"] <= prof["pi"] * (1 + 1e-12))
        assert np.all(prof["pi"] <= prof["e2"] * (1 + 1e-12))

    def test_deterministic_bytes(self, ce_run, tmp_path):
        cfg, out, _ = ce_run
        out2 = str(tmp_path / "again")
        assert main(["solve", "--config", cfg, "--out", out2]) == 0
        for name in ("equilibria.csv", "profile_001.csv", "profile_002.csv"):
            a = open("%s/%s" % (out, name), "rb").read()
            b = open("%s/%s" % (out2, name), "rb").read()
            assert a == b

    def test_no_equilibrium_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sub.cfg", SUBCRIT_TEXT)
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "no positive equilibrium" in capsys.readouterr().out


class TestScanCommand:
    def test_brackets_printed(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "ce.cfg", CE_TEXT)
        code = main(["scan", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert capsys.readouterr().out.count("bracket [") == 2
        lines = open(str(tmp_path / "o" / "scan.csv")).read().splitlines()
        assert lines[0] == "lambda,residual,status"
        assert len(lines) == 201

    def test_scan_from_zero_is_evenly_spaced(self, tmp_path):
        text = (CE_TEXT.replace("grid.n = 4001", "grid.n = 2001")
                .replace("solver.lambda_min = 0.01", "solver.lambda_min = 0")
                .replace("solver.scan_points = 200", "solver.scan_points = 41"))
        cfg = write_config(tmp_path / "ce.cfg", text)
        assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        scan = np.genfromtxt(str(tmp_path / "o" / "scan.csv"), delimiter=",",
                             names=True, dtype=None, encoding="utf-8")
        assert scan["lambda"][0] == 0.0
        # R(0) = 1/2 for the counterexample, up to the quadrature error
        assert scan["residual"][0] == pytest.approx(-0.5, abs=1e-6)
        assert np.allclose(scan["lambda"], np.linspace(0.0, 10.0, 41), rtol=0, atol=1e-12)
        assert np.all(scan["status"] == "ok")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        stars = np.genfromtxt(str(tmp_path / "s" / "equilibria.csv"), delimiter=",",
                              names=True)["lambda_star"]
        assert stars == pytest.approx([1.0 / 6.0, 1.0], abs=1e-5)

    def test_empty_scan_exit_3(self, tmp_path):
        cfg = write_config(tmp_path / "sub.cfg", SUBCRIT_TEXT)
        assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_failed_points_rows(self, tmp_path):
        text = HIER_TEXT.replace("solver.scan_points = 64\n", "") + (
            "grid.n = 201\nsolver.picard_max_iter = 2\nsolver.scan_points = 6\n")
        cfg = write_config(tmp_path / "h.cfg", text)
        assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        rows = open(str(tmp_path / "o" / "scan.csv")).read().splitlines()[1:]
        assert rows[0].endswith(",ok")
        assert len(rows) == 6
        assert all(row.endswith(",nan,failed") for row in rows[1:])


class TestCertifyCommand:
    def test_hierarchical_existence(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "h.cfg", HIER_TEXT)
        code = main(["certify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert "certificate: existence" in capsys.readouterr().out
        text = open(str(tmp_path / "o" / "certificate.txt")).read()
        assert text.startswith("kind = existence\n")
        assert "evidence.lbeta_pass = True" in text

    def test_subcritical_nonexistence_lines(self, tmp_path):
        text = (
            "model.variant = composite\n"
            "model.g.const = 1.0\n"
            "model.mu.const = 1.0\n"
            "model.beta.const = 0.0\n"
            "model.beta.u_inv = 0.5\n"
            "grid.n = 2001\n"
            "grid.scheme = graded_trapezoid\n"
        )
        cfg = write_config(tmp_path / "s.cfg", text)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        cert = open(str(tmp_path / "o" / "certificate.txt")).read()
        assert cert.startswith("kind = nonexistence\n")


class TestDiagnoseCommand:
    def test_uniform_grid_full_report(self, tmp_path, capsys):
        text = (
            "model.variant = hierarchical\n"
            "model.g_low = 0.5\nmodel.g_high = 1.0\n"
            "model.mu0 = 1.0\nmodel.b0 = 2.0\n"
            "grid.n = 2001\ngrid.x_max = 24\n"
        )
        cfg = write_config(tmp_path / "h.cfg", text)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = open(str(tmp_path / "o" / "diagnostics.txt")).read()
        assert "bounds_A,pass" in report
        assert "derivative_D,pass" in report
        assert "translation,pass" in report
        assert ",fail," not in report

    def test_huge_horizon_fails_unformed_bounds(self, tmp_path, capsys):
        text = "model.variant = counterexample\ngrid.x_max = 1e300\ngrid.n = 201\n"
        cfg = write_config(tmp_path / "ce.cfg", text)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = open(str(tmp_path / "o" / "diagnostics.txt")).read().splitlines()
        tail = [row for row in rows if row.startswith("tail_decay,")]
        assert tail and all(row.startswith("tail_decay,fail,") for row in tail)
        unformed = [row for row in rows if row.endswith(("bound=inf", "bound=nan"))]
        assert unformed and all(",fail," in row for row in unformed)

    @pytest.mark.parametrize("g_low", [0.001, 0.019])
    def test_unformed_derivative_bound_fails(self, tmp_path, g_low):
        # the envelope tail in the g_x bound underflows (0.001) or the bound overflows (0.019)
        text = HIER_TEXT.replace("model.g_low = 0.5", "model.g_low = %g" % g_low) + "grid.n = 201\n"
        cfg = write_config(tmp_path / "h.cfg", text)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = open(str(tmp_path / "o" / "diagnostics.txt")).read().splitlines()
        (row,) = [row for row in rows if row.startswith("derivative_D,")]
        assert row.startswith("derivative_D,fail,")
        assert row.endswith("analytic_bound=inf")

    def test_graded_grid_skips_translation(self, tmp_path):
        cfg = write_config(tmp_path / "ce.cfg", CE_TEXT)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = open(str(tmp_path / "o" / "diagnostics.txt")).read()
        assert "translation,skipped" in report

    @pytest.mark.parametrize("x_max,shifts", [("0.05", ["0.01", "0.001"]), ("0.0005", [])])
    def test_short_horizon_keeps_shifts_inside_it(self, tmp_path, x_max, shifts):
        text = "model.variant = counterexample\ngrid.x_max = %s\ngrid.n = 201\n" % x_max
        cfg = write_config(tmp_path / "ce.cfg", text)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = open(str(tmp_path / "o" / "diagnostics.txt")).read().splitlines()
        trans = [row for row in rows if row.startswith("translation,")]
        assert len(trans) == 6 * len(shifts)
        assert {row.split(" h=")[1].split(" ")[0] for row in trans} == set(shifts)
        assert all(row.startswith("translation,pass,") for row in trans)
        assert sum(row.startswith(("l1_bound,", "tail_decay,")) for row in rows) == 12


class TestVerifyCommand:
    def _profile_file(self, tmp_path, scale):
        x = np.linspace(0.0, 40.0, 8001)
        path = tmp_path / "prof.csv"
        with open(path, "w") as fh:
            fh.write("x,u\n")
            for xi, ui in zip(x, scale * np.exp(-x)):
                fh.write("%.17g,%.17g\n" % (xi, ui))
        return str(path)

    def test_true_equilibrium_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "ce.cfg", CE_TEXT)
        prof = self._profile_file(tmp_path, 1.0)
        code = main(["verify", "--config", cfg, "--profile", prof, "--tol", "1e-4"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("residual_l1 = ")
        assert "P = " in out

    def test_non_equilibrium_exit_4(self, tmp_path):
        cfg = write_config(tmp_path / "ce.cfg", CE_TEXT)
        prof = self._profile_file(tmp_path, 0.5)  # between the two equilibria
        assert main(["verify", "--config", cfg, "--profile", prof, "--tol", "1e-4"]) == 4

    def test_unreadable_profile_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "ce.cfg", CE_TEXT)
        assert main(["verify", "--config", cfg, "--profile",
                     str(tmp_path / "nope.csv"), "--tol", "1e-4"]) == 2

    @pytest.mark.parametrize(
        "text,code",
        [
            ("# comment\nx,u\n0,1\n40,0\n", 4),
            ("x u\n0 1\n40 0\n", 4),
            ("X,u,v,pi,e1,e2\n0,1,1,1,1,1\n40,0,0,0,0,0\n", 4),
            ("x,u\n0,1\n40\n", 2),
            ("x,u\n0,1\n40,zero\n", 2),
            ("x,u\n0,1\n", 2),
            ("x,u\n0,nan\n40,0\n", 2),
            ("x,u\n0,1\ninf,0\n", 2),
            ("0,1\nx,u\n40,0\n", 2),
            ("x,u\n0,1\n20,-1\n40,0\n", 2),
        ],
        ids=["comment", "spaces", "six_columns", "one_column", "not_a_number",
             "one_row", "nan_density", "inf_x", "late_header", "negative_density"],
    )
    def test_profile_grammar(self, tmp_path, capsys, text, code):
        # exit 4: parsed, then rejected on its residual; exit 2: refused as input
        cfg = write_config(tmp_path / "ce.cfg", CE_TEXT)
        prof = tmp_path / "prof.csv"
        prof.write_text(text)
        assert main(["verify", "--config", cfg, "--profile", str(prof), "--tol", "1e-4"]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.err.startswith("input error: ")
            assert captured.out == ""
        else:
            assert captured.out.startswith("residual_l1 = ")

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_tol_must_be_positive(self, tmp_path, capsys, tol):
        cfg = write_config(tmp_path / "ce.cfg", CE_TEXT)
        prof = self._profile_file(tmp_path, 1.0)
        assert main(["verify", "--config", cfg, "--profile", prof, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: --tol must be positive")
        assert captured.out == ""


CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")

# config -> (equilibria.csv column, closed-form values, tolerance)
SHIPPED_SOLUTIONS = {
    "counterexample": ("lambda_star", (1.0 / 6.0, 1.0), 1e-6),
    "hierarchical": ("P_star", (1.0,), 1e-5),
}


class TestShippedConfigs:
    """Each shipped config gives the outcome its header comment promises."""

    @pytest.mark.parametrize("name,command,code,first_line", [
        ("counterexample", "solve", 0, "equilibrium lambda_star="),
        ("hierarchical", "solve", 0, "equilibrium lambda_star="),
        ("hierarchical", "certify", 0, "certificate: existence"),
        ("constant_subcritical", "solve", 3, "no positive equilibrium"),
        ("constant_degenerate", "scan", 3, "degenerate family: residual ~ 0 across the scan"),
        ("constant_degenerate", "solve", 3,
         "degenerate family: residual ~ 0 across the scan; no discrete roots reported"),
        ("composite_increasing_mu", "certify", 0, "certificate: nonexistence"),
        ("counterexample", "certify", 0, "certificate: inconclusive"),
        ("constant_subcritical", "certify", 0, "certificate: inconclusive"),
        ("constant_degenerate", "certify", 0, "certificate: inconclusive"),
    ])
    def test_promised_outcome(self, tmp_path, capsys, name, command, code, first_line):
        out = tmp_path / "o"
        assert main([command, "--config", os.path.join(CONFIGS, name + ".cfg"),
                     "--out", str(out)]) == code
        assert capsys.readouterr().out.splitlines()[0].startswith(first_line)
        if command == "certify":
            (notes,) = [line for line in (out / "certificate.txt").read_text().splitlines()
                        if line.startswith("evidence.notes = ")]
            # constant_degenerate's R0 exceeds 1 by trapezoid bias only: no inconsistency note
            assert notes == "evidence.notes = " + {
                "constant_degenerate": "degenerate family: R is ~1 along scaled-envelope rays",
                "counterexample": "R0 < 1 does not preclude equilibria; run a root scan",
            }.get(name, "")
        if command == "solve" and code == 0:
            column, expect, tol = SHIPPED_SOLUTIONS[name]
            rows = np.genfromtxt(str(out / "equilibria.csv"), delimiter=",", names=True,
                                 dtype=float, ndmin=1)
            assert rows[column] == pytest.approx(expect, abs=tol)


class TestExitCodes:
    def test_runtime_error_exit_1(self, tmp_path, capsys, monkeypatch):
        def fail(ctx, cfg):
            raise ConvergenceError("inner iteration did not settle")

        monkeypatch.setattr(cli, "solve_all", fail)
        cfg = write_config(tmp_path / "sub.cfg", SUBCRIT_TEXT)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: inner iteration did not settle\n"
        assert captured.out == ""

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", "model.variant = nope\n")
        assert main(["solve", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_2(self):
        assert main(["solve", "--config", "/nonexistent.cfg"]) == 2
