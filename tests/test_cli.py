import contextlib
import dataclasses
import inspect
import io
import os
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import steadypop as sp
from steadypop import cli
from steadypop.cli import main
from steadypop.config import RunConfig, load_config
from steadypop.errors import ConfigError, ConvergenceError

from conftest import misdeclared_constant, rising_fertility_model, write_config

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

# hierarchical with tiny g_low: beta_max |e2|_1 = 1000 b0
OVERFLOW_TEXT = """\
model.variant = hierarchical
model.g_low = 0.001
model.g_high = 1
model.mu0 = 1
model.b0 = %r
grid.n = 201
"""

# composite with g_low = 1e-10 and mu_high = 1e300: mu_high / g_low overflows
ENVELOPE_OVERFLOW_TEXT = """\
model.variant = composite
model.g.const = 1e-10
model.g.x_amp = 1
model.mu.const = 1
model.mu.u_sat = 1e300
model.beta.const = 0.5
grid.n = 201
"""

# hierarchical with g_low = 1e-5: the default scan range ends near 1e305,
# where lam / g_low overflows
SCAN_OVERFLOW_TEXT = """\
model.variant = hierarchical
model.g_low = 1e-5
model.g_high = 1e-5
model.mu0 = 1e-5
model.b0 = 1e300
solver.scan_points = 8
"""

# hierarchical whose bracket is 2.5e157 wide: the refinement's step count and points must
# stay finite
SCAN_WIDE_BRACKET_TEXT = """\
model.variant = hierarchical
model.g_low = 0.001
model.g_high = 0.5
model.mu0 = 3
model.b0 = 1e152
grid.n = 51
solver.scan_points = 3
"""

# hierarchical with mu0 = 1e-3 and g_low = 1: |e2|_1, not 1/g_low, bounds
# the scaled densities
SCAN_E2_BOUND_TEXT = """\
model.variant = hierarchical
model.g_low = 1
model.g_high = 1
model.mu0 = 1e-3
model.b0 = 1
solver.lambda_max = %r
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

# the scan brackets the root; its refinement stops short of picard_tol at 7 steps
ABORT_TEXT = """\
model.variant = hierarchical
model.g_low = 0.02
model.g_high = 1
model.mu0 = 0.5
model.b0 = 1.5
grid.n = 201
solver.scan_points = 16
solver.picard_max_iter = 7
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
        cfg, out, _ = ce_run
        prof = np.genfromtxt("%s/profile_002.csv" % out, delimiter=",",
                             names=True, dtype=float)
        assert prof["x"][0] == 0.0
        assert np.allclose(prof["u_star"], np.exp(-prof["x"]), atol=2e-6)
        # each row is x, u_star, pi as solve_all returns them; e1 <= pi <= e2
        # is checked on those results in test_solver.py
        run = load_config(cfg)
        ctx = sp.make_context(run.model, run.grid)
        _, results = sp.solve_all(ctx, run.solver)
        assert len(results) == 2
        for i, r in enumerate(results, start=1):
            with open("%s/profile_%03d.csv" % (out, i), encoding="utf-8") as fh:
                header, *rows = fh.read().splitlines()
            assert header == "x,u_star,pi"
            assert rows == ["%.12g,%.12g,%.12g" % row
                            for row in zip(ctx.grid.nodes, r.u_star.values, r.pi.values)]

    def test_deterministic_bytes(self, ce_run, tmp_path):
        cfg, out, _ = ce_run
        out2 = str(tmp_path / "again")
        assert main(["solve", "--config", cfg, "--out", out2]) == 0
        for name in ("equilibria.csv", "profile_001.csv", "profile_002.csv"):
            a = open("%s/%s" % (out, name), "rb").read()
            b = open("%s/%s" % (out2, name), "rb").read()
            assert a == b

    @pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 10001])
    def test_write_in_chunks_matches_one_join(self, tmp_path, count):
        # a 1e5-row profile is written a chunk of lines at a time; the bytes
        # must match one join whatever the chunk boundaries
        lines = ["%d,%.12g" % (i, i / 7.0) for i in range(count)]
        run = load_config(write_config(tmp_path / "sub.cfg", SUBCRIT_TEXT),
                          out_dir=str(tmp_path / "o"))
        cli._write(run, "rows.csv", iter(lines))
        path = tmp_path / "o" / "rows.csv"
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_no_equilibrium_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sub.cfg", SUBCRIT_TEXT)
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "no positive equilibrium" in capsys.readouterr().out

    def test_failed_bracket_is_reported_and_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "abort.cfg", ABORT_TEXT)
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ("scan: 6 of 16 points failed to converge in "
                                "solver.picard_max_iter steps; roots next to them may be missed\n")
        assert captured.err == (
            "error: bracket [0.00519009203, 3899]: inner iteration did not "
            "reach 1e-10 after 7 steps (last residual 0.00265678)\n")
        # the roots that refined are written: here there are none
        assert (out / "equilibria.csv").read_text() == "lambda_star,P_star,R_at_u,residual_l1\n"
        assert sorted(p.name for p in out.iterdir()) == ["equilibria.csv"]

    def test_failed_scan_points_are_reported(self, tmp_path, capsys):
        # one step converges nowhere: every scan point fails, and solve says so
        text = pathlib.Path(CONFIGS, "hierarchical.cfg").read_text()
        cfg = write_config(tmp_path / "h.cfg", text + "solver.picard_max_iter = 1\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        captured = capsys.readouterr()
        assert captured.out == (
            "scan: 64 of 64 points failed to converge in solver.picard_max_iter steps; "
            "roots next to them may be missed\n"
            "no positive equilibrium found in the scanned range\n")
        assert captured.err == ""

    def test_roots_that_refine_are_written_beside_a_failed_bracket(self, tmp_path, capsys,
                                                                    monkeypatch):
        # the counterexample's second bracket fails; its first root is still written
        entries = []
        solve_all = cli.solve_all

        def second_fails(ctx, cfg):
            scan, results = solve_all(ctx, cfg)
            results[1] = sp.BracketFailure(scan.brackets[1], "forced")
            entries.extend(results)
            return scan, results

        monkeypatch.setattr(cli, "solve_all", second_fails)
        cfg = write_config(tmp_path / "ce.cfg", CE_TEXT)
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        root = entries[0]
        assert captured.out == ("equilibrium lambda_star=%.12g P_star=%.12g residual=%.12g\n"
                                % (root.lambda_star, root.P_star, root.residual_l1))
        assert captured.err == "error: bracket [%.12g, %.12g]: forced\n" % entries[1].bracket
        assert (out / "equilibria.csv").read_text().splitlines()[1:] == [
            "%.12g,%.12g,%.12g,%.12g"
            % (root.lambda_star, root.P_star, root.R_at_u, root.residual_l1)]
        assert sorted(p.name for p in out.iterdir()) == ["equilibria.csv", "profile_001.csv"]


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
        assert "derivative_D,evidence" in report
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
    def test_stiff_hierarchical_derivative_row_is_evidence(self, tmp_path, g_low):
        # a valid model whose lower envelope's tail beyond x_max/2 underflows
        # (0.001) or nearly does (0.019): the sampled slope is evidence, not a verdict
        text = HIER_TEXT.replace("model.g_low = 0.5", "model.g_low = %g" % g_low) + "grid.n = 201\n"
        cfg = write_config(tmp_path / "h.cfg", text)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = open(str(tmp_path / "o" / "diagnostics.txt")).read().splitlines()
        (row,) = [row for row in rows if row.startswith("derivative_D,")]
        assert row.startswith("derivative_D,evidence,")
        assert [row for row in rows if ",fail," in row and not row.startswith("beta_limit,")] == []

    def test_graded_grid_skips_translation(self, tmp_path):
        cfg = write_config(tmp_path / "ce.cfg", CE_TEXT)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = open(str(tmp_path / "o" / "diagnostics.txt")).read()
        assert "translation,skipped" in report

    @pytest.mark.parametrize("model", [rising_fertility_model(), misdeclared_constant("g"),
                                       misdeclared_constant("mu"), misdeclared_constant("beta")],
                             ids=["rising_fertility", "g", "mu", "beta"])
    def test_rates_outside_their_bounds_skip_translation(self, tmp_path, monkeypatch, model):
        grid = sp.build_grid(sp.default_x_max(model.bounds), 201)
        monkeypatch.setattr(cli, "load_config", lambda path, out_dir=None: RunConfig(
            model, grid, sp.SolverConfig(), out_dir))
        assert main(["diagnose", "--config", "unused.cfg", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "diagnostics.txt").read_text().splitlines()
        assert rows[1].startswith("bounds_A,fail,")
        assert [row for row in rows if row.startswith("translation,")] == [
            "translation,skipped,rates leave their declared bounds (see bounds_A)"]

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


def _verify_figures(out):
    """``(residual_l1, P)`` as verify printed them."""
    values = dict(line.split(" = ") for line in out.splitlines())
    return float(values["residual_l1"]), float(values["P"])


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

    def test_subnormal_tail_accepted(self, tmp_path, capsys):
        # u_star runs 9.88131291682e-323 then 0, as solve wrote it for this config
        # with scan_points = 2 and picard_max_iter = 3; interpolating at the true
        # nodes, 12 digits off the written x, rounds to -2.96e-323
        cfg = write_config(tmp_path / "fz.cfg", (
            "model.variant = hierarchical\nmodel.g_low = 0.01\nmodel.g_high = 0.69359375\n"
            "model.mu0 = 0.3704803581113075\nmodel.b0 = 0.5625\n"
            "grid.scheme = uniform_trapezoid\ngrid.n = 5\n"))
        profile = tmp_path / "profile_001.csv"
        profile.write_text("x,u_star,pi\n0,56.09878075,100\n"
                           "13.2258337341,8.88169112456e-212,1.67734907198e-108\n"
                           "26.4516674682,9.88131291682e-323,1.43396468851e-111\n"
                           "39.6775012023,0,1.22589552898e-114\n"
                           "52.9033349364,0,1.04801733266e-117\n")
        assert main(["verify", "--config", cfg, "--profile", str(profile),
                     "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out.startswith("residual_l1 = ")

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
            ("x u\n0 1\n0 2\n0.5 1\n", 2),
        ],
        ids=["comment", "spaces", "six_columns", "one_column", "not_a_number",
             "one_row", "nan_density", "inf_x", "late_header", "negative_density",
             "repeated_x"],
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

    def test_profile_solve_wrote_at_a_large_scale_accepted(self, tmp_path, capsys):
        # P* = 4.69e153: the residual, 1.82e141, is far above the default --tol but
        # tiny against P, which it is judged relative to past P = 1
        cfg = write_config(tmp_path / "big.cfg", (
            "model.variant = hierarchical\nmodel.g_low = 0.001\nmodel.g_high = 0.5\n"
            "model.mu0 = 3\nmodel.b0 = 1e152\ngrid.n = 51\nsolver.scan_points = 3\n"))
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        argv = ["verify", "--config", cfg, "--profile", str(out / "profile_001.csv")]
        assert main(argv) == 0
        res, P = _verify_figures(capsys.readouterr().out)
        assert P > 1e153 and 1e140 < res < 1e-5 * P
        assert main(argv + ["--tol", repr(0.99 * res / P)]) == 4

    def test_profile_with_P_below_1_is_judged_absolutely(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "ce.cfg", CE_TEXT)
        argv = ["verify", "--config", cfg, "--profile", self._profile_file(tmp_path, 0.5)]
        assert main(argv + ["--tol", "1e-4"]) == 4
        res, P = _verify_figures(capsys.readouterr().out)
        assert P < 1.0
        # judged relative to P, 1.01 res would be too small a --tol
        assert main(argv + ["--tol", repr(1.01 * res)]) == 0
        assert main(argv + ["--tol", repr(0.99 * res)]) == 4

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


# shipped config -> scan.csv rows the rate bounds prove: hierarchical's two bracket
# ends are solved, and neither the counterexample nor the degenerate family gives beta_inf
SHIPPED_PROVED = {"composite_increasing_mu": 256, "constant_degenerate": 0,
                  "constant_subcritical": 32, "counterexample": 0, "hierarchical": 62}


@pytest.mark.parametrize("name", sorted(SHIPPED_PROVED))
def test_scan_csv_is_the_full_scan_but_at_proved_rows(tmp_path, capsys, name):
    path = os.path.join(CONFIGS, name + ".cfg")
    main(["scan", "--config", path, "--out", str(tmp_path / "scan")])
    brackets = capsys.readouterr().out.count("bracket [")
    main(["solve", "--config", path, "--out", str(tmp_path / "solve")])
    captured = capsys.readouterr()
    assert brackets == (captured.out.count("equilibrium lambda_star=")
                        + captured.err.count("error: bracket ["))
    rows = (tmp_path / "scan" / "scan.csv").read_text().splitlines()[1:]
    run = load_config(path)
    ctx = sp.make_context(run.model, run.grid)
    lams = sp.solver._scan_lambdas(ctx, run.solver)
    full = sp.solver._scan(ctx, run.solver, lams, np.full(lams.shape, np.nan))
    assert len(rows) == len(full.lambdas)
    assert sum(row.endswith(",proved") for row in rows) == SHIPPED_PROVED[name]
    for i, (row, lam, exact) in enumerate(zip(rows, full.lambdas.tolist(),
                                              full.residuals.tolist())):
        lam_text, res, status = row.split(",")
        assert status in ("ok", "failed", "proved")
        if status != "proved":          # solved: the full scan's row, byte for byte
            assert row == "%.12g,%.12g,%s" % (lam, exact, "failed" if i in full.failed else "ok")
        elif not np.isnan(exact):       # the proved bound: the sign, and nearer 0
            exact = float("%.12g" % exact)
            assert lam_text == "%.12g" % lam
            assert np.sign(float(res)) == np.sign(exact) and abs(float(res)) <= abs(exact)


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

    # sizes no machine can allocate; each parses as a whole number
    @pytest.mark.parametrize("line,key", [
        ("grid.n = 1e300", "grid.n"),
        ("grid.n = 9223372036854775808", "grid.n"),
        ("grid.n = 1e16", "grid.n"),
        ("grid.n = 1e16\ngrid.scheme = graded_trapezoid", "grid.n"),
        ("solver.scan_points = 1e300", "solver.scan_points"),
        ("solver.scan_points = 9223372036854775808", "solver.scan_points"),
    ])
    def test_huge_size_is_a_named_config_error(self, tmp_path, capsys, line, key):
        cfg = write_config(tmp_path / "huge.cfg", "model.variant = counterexample\n%s\n" % line)
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert err.value.key == key
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: invalid %s parameters: "
                                                  % key.split(".")[0])

    # constant_subcritical's bounds prove that solve has no root: it must still
    # build the scan grid, and fail on it, before skipping the scan
    @pytest.mark.parametrize("model,command", [
        pytest.param("model.variant = counterexample\n", "scan", id="scan"),
        pytest.param("model.variant = counterexample\n", "solve", id="solve"),
        pytest.param(SUBCRIT_TEXT.split("grid.")[0], "solve", id="solve-constant_subcritical"),
    ])
    def test_scan_grid_that_does_not_fit_is_a_named_config_error(self, tmp_path, capsys,
                                                                 model, command):
        # parses, since the scan grid is built only when a command scans
        cfg = write_config(tmp_path / "huge.cfg",
                           model + "grid.n = 101\nsolver.scan_points = 1e16\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: invalid solver parameters: scan_points = 10000000000000000: "
            "the scan grid does not fit in memory\n")

    @pytest.mark.parametrize("command", ["solve", "scan"])
    def test_default_scan_range_that_overflows_is_a_named_config_error(self, tmp_path, capsys,
                                                                       command):
        # beta_max |e2|_1 = 1e307 is finite, but the invariant-box scale bound
        # overflows; the scan used to run on non-finite scales and fail on the first one
        cfg = write_config(tmp_path / "overflow.cfg", OVERFLOW_TEXT % 1e304)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err == (
            "config error: invalid solver parameters: the default lambda_max, the "
            "invariant-box scale bound, is not finite; set lambda_max\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["solve", "scan"])
    @pytest.mark.parametrize("line,top", [("", "1.00001e+305"),
                                          ("solver.lambda_max = 1e304\n", "1e+304")])
    def test_scan_range_whose_densities_overflow_is_a_named_config_error(
            self, tmp_path, capsys, command, line, top):
        # the scan used to warn three times, from the rate bounds, lam * v and
        # a running integral, and exit 0
        cfg = write_config(tmp_path / "overflow.cfg", SCAN_OVERFLOW_TEXT + line)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err == (
            "config error: invalid solver parameters: the densities at the top scale "
            "scanned, %s, can overflow; set a smaller lambda_max\n" % top)
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["solve", "scan"])
    @pytest.mark.parametrize("text", [
        # a 2.5e157-wide bracket, with no override: the default top stays in range
        pytest.param(SCAN_WIDE_BRACKET_TEXT, id="wide-brackets"),
        # 1/g_low binds: 4 * 4.4e302 / 1e-5 is just below overflow
        pytest.param(SCAN_OVERFLOW_TEXT + "solver.lambda_max = 4.4e302\n", id="g_low-binds"),
        # |e2|_1 binds: 4 * 4.49e304 * |e2|_1 is just below overflow
        pytest.param(SCAN_E2_BOUND_TEXT % 4.49e304, id="e2-binds"),
    ])
    def test_scan_range_just_inside_the_overflow_bound_runs_clean(
            self, tmp_path, capsys, command, text):
        cfg = write_config(tmp_path / "edge.cfg", text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert caught == []
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("text,top", [
        pytest.param(SCAN_OVERFLOW_TEXT + "solver.lambda_max = 4.5e302\n", "4.5e+302",
                     id="g_low-binds"),
        pytest.param(SCAN_E2_BOUND_TEXT % 4.5e304, "4.5e+304", id="e2-binds"),
    ])
    def test_scan_range_just_past_the_overflow_bound_is_rejected(
            self, tmp_path, capsys, text, top):
        # the factor 4 of headroom is what rejects these two
        cfg = write_config(tmp_path / "edge.cfg", text)
        assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: invalid solver parameters: the densities at the top scale "
            "scanned, %s, can overflow; set a smaller lambda_max\n" % top)

    def test_default_scan_range_that_overflows_still_certifies(self, tmp_path, capsys):
        # certify reads no scan range, and R = 1e304-ish stays finite
        cfg = write_config(tmp_path / "overflow.cfg", OVERFLOW_TEXT % 1e304)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert caught == []
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["solve", "scan", "certify", "diagnose", "verify"])
    @pytest.mark.parametrize("text,message", [
        # beta_max |e2|_1 = 1e310 overflows: certify used to warn from R and write M = inf
        pytest.param(OVERFLOW_TEXT % 1e307,
                     "beta_max / g_low or beta_max * |e2|_1, the bounds on beta pi at a node "
                     "and on R, that are not finite", id="R-bound"),
        # mu_high / g_low = 1e310 overflows: the lower envelope was inf * 0 = nan at x = 0,
        # and each command warned and failed on its density check (verify blamed the profile)
        pytest.param(ENVELOPE_OVERFLOW_TEXT,
                     "mu_high / g_low, the decay rate of the lower envelope, that is not finite",
                     id="envelope-rate"),
    ])
    def test_rate_bounds_that_overflow_are_a_config_error(self, tmp_path, capsys, command,
                                                          text, message):
        cfg = write_config(tmp_path / "overflow.cfg", text)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
        if command == "verify":
            argv += ["--profile", str(tmp_path / "p.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err == (
            "config error: invalid model parameters: rate bounds give %s\n" % message)
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["overflow.cfg"]

    def test_missing_config_exit_2(self):
        assert main(["solve", "--config", "/nonexistent.cfg"]) == 2

    @pytest.mark.parametrize("command", ["solve", "scan", "certify", "diagnose", "verify"])
    def test_config_that_is_not_utf8_exit_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"model.variant = counter\xffexample\n")
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        if command == "verify":
            argv += ["--profile", str(tmp_path / "p.csv")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: cannot read config file %s: 'utf-8' codec can't "
                                "decode byte 0xff in position 23: invalid start byte\n" % cfg)
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["bad.cfg"]


class TestUsageErrors:
    """Misuse of the command line exits 2 with a usage line, before any config is read."""

    @pytest.mark.parametrize("args,name", [
        pytest.param([], "command", id="no-command"),
        pytest.param(["bogus", "--config", "{cfg}"], "bogus", id="unknown-command"),
        pytest.param(["solve"], "--config", id="no-config"),
        pytest.param(["verify", "--config", "{cfg}"], "--profile", id="verify-no-profile"),
        pytest.param(["solve", "--config", "{cfg}", "--profile", "p.csv"], "--profile",
                     id="profile-to-solve"),
        pytest.param(["diagnose", "--config", "{cfg}", "--tol", "1"], "--tol",
                     id="tol-to-diagnose"),
        pytest.param(["verify", "--config", "{cfg}", "--profile", "p.csv", "--tol", "tiny"],
                     "--tol", id="non-numeric-tol"),
    ])
    def test_exit_2_with_usage_and_no_file(self, tmp_path, monkeypatch, capsys, args, name):
        cfg = write_config(tmp_path / "sub.cfg", SUBCRIT_TEXT)
        monkeypatch.chdir(tmp_path)         # where output.dir's default would land
        argv = [a.format(cfg=cfg) for a in args] + ["--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ")
        assert name in captured.err.splitlines()[-1]
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["sub.cfg"]


class TestUnwritableOutput:
    """An output location that cannot be written exits 2 naming it, not with a traceback."""

    @pytest.mark.parametrize("command", ["solve", "scan", "certify", "diagnose"])
    @pytest.mark.parametrize("where", ["out", "output.dir"])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_exit_2_naming_the_path(self, tmp_path, capsys, command, where, below):
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        target = str(afile / below) if below else str(afile)
        text = HIER_TEXT + "grid.n = 401\n"
        if where == "out":
            cfg = write_config(tmp_path / "h.cfg", text)
            argv = [command, "--config", cfg, "--out", target]
        else:
            cfg = write_config(tmp_path / "h.cfg", text + "output.dir = %s\n" % target)
            argv = [command, "--config", cfg]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output %s: " % target), err
        assert err.count("\n") == 1
        assert afile.read_text() == "keep\n"

    @pytest.mark.parametrize("command", ["solve", "scan", "certify", "diagnose"])
    def test_nul_byte_in_output_dir_exit_2(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)         # where a relative output.dir would land
        cfg = write_config(tmp_path / "h.cfg", HIER_TEXT + "grid.n = 401\noutput.dir = \0bad\n")
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: cannot write output \0bad: embedded null byte\n"
        assert sorted(os.listdir(tmp_path)) == ["h.cfg"]

    def test_unwritable_file_in_a_good_directory(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "certificate.txt").mkdir(parents=True)      # a directory where the file goes
        cfg = write_config(tmp_path / "sub.cfg", SUBCRIT_TEXT)
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot write output %s: " % (out / "certificate.txt"))


def _composite_rate(rate, floor):
    """``model.<rate>.*`` lines: its const and a random subset of its optional fields."""
    optional = {
        "x_amp": st.floats(0.0, 2.0),
        "x_rate": st.floats(0.1, 5.0),
        "u_sat": st.floats(0.0, 2.0),
        "u_inv": st.floats(0.0, 2.0),
        "functional": st.sampled_from(["norm", "tail", "weighted"]),
        "tail_from": st.floats(0.0, 5.0),
        "weight_decay": st.floats(0.1, 5.0),
    }
    fields = st.fixed_dictionaries({"const": st.floats(floor, 3.0)}, optional=optional)
    return fields.map(lambda f: ["model.%s.%s = %s" % (rate, k, v) for k, v in f.items()])


_RATE = st.floats(0.05, 5.0)
_MODELS = st.one_of(
    st.tuples(_RATE, _RATE, st.floats(0.0, 5.0)).map(
        lambda p: ["model.variant = constant", "model.mu0 = %r" % p[0], "model.g0 = %r" % p[1],
                   "model.beta0 = %r" % p[2]]),
    st.one_of(st.just([]), _RATE.map(lambda g: ["model.g = %r" % g])).map(
        lambda g: ["model.variant = counterexample"] + g),
    st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 1.0), _RATE, _RATE).map(
        lambda p: ["model.variant = hierarchical", "model.g_low = %r" % p[0],
                   "model.g_high = %r" % (p[0] + p[1]), "model.mu0 = %r" % p[2],
                   "model.b0 = %r" % p[3]]),
    st.tuples(_composite_rate("g", 0.05), _composite_rate("mu", 0.05),
              _composite_rate("beta", 0.0)).map(
        lambda r: ["model.variant = composite"] + r[0] + r[1] + r[2]),
)
_CONFIGS = st.tuples(
    _MODELS,
    st.sampled_from(["uniform_trapezoid", "graded_trapezoid"]),
    st.sampled_from([3, 5, 51, 201]),
    st.sampled_from([2, 3, 16, 32]),
    st.sampled_from([1, 3, 8, 200]),
).map(lambda c: "\n".join(c[0] + ["grid.scheme = %s" % c[1], "grid.n = %d" % c[2],
                                   "solver.scan_points = %d" % c[3],
                                   "solver.picard_max_iter = %d" % c[4]]) + "\n")


class TestFuzzedConfigs:
    """No config that parses ends in a traceback, and every exit code is one a command may give."""

    @settings(max_examples=25, deadline=None)
    @given(text=_CONFIGS)
    # a bracket 2.5e157 wide; the strategy draws rates of 0.01-5
    @example(text=SCAN_WIDE_BRACKET_TEXT)
    @example(text="model.variant = hierarchical\nmodel.g_low = 1e-5\nmodel.g_high = 1e-5\n"
                  "model.mu0 = 1e-5\nmodel.b0 = 1e300\nsolver.scan_points = 8\n"
                  "solver.lambda_max = 1e302\n")
    def test_every_command_reports(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(pathlib.Path(tmp) / "fuzz.cfg", text)
            load_config(cfg)        # parses
            out = pathlib.Path(tmp) / "o"

            def run(*argv):
                stderr = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code = main([*argv, "--config", cfg, "--out", str(out)])
                return code, stderr.getvalue()

            code, err = run("solve")
            assert code in (0, 1, 3), err
            if code == 1:
                lines = err.splitlines()
                assert lines and all(line.startswith("error: bracket [") for line in lines), err
            assert run("scan")[0] in (0, 3)
            assert run("certify")[0] == 0
            assert run("diagnose")[0] == 0
            for profile in sorted(out.glob("profile_*.csv")):
                assert run("verify", "--profile", str(profile))[0] in (0, 4)
