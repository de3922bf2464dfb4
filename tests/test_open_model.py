"""A model is its bounds, its parameters and its family's functions: no built-in list.

The family here lives only in this file. Its growth reads the competition
``alpha * int_0^x u + int_x^inf u``, from smaller individuals too; at
``alpha = 0`` it is the hierarchical family, and every result must match
``hierarchical_model``'s bit for bit.
"""

import dataclasses

import numpy as np
import pytest

import steadypop as sp
from steadypop import cli
from steadypop.config import RunConfig
from steadypop.errors import BoundsViolationError
from steadypop.grid import cumulative_integral, integrate, reverse_cumulative_integral
from steadypop.kernel import rates_and_survival
from steadypop.model import ModelSpec, RateBounds

from conftest import rising_fertility_model

PARAMS = {"g_low": 0.5, "g_high": 1.0, "mu0": 1.0, "b0": 2.0}
CFG = sp.SolverConfig(scan_points=32)


def _competition_bind(p, grid):
    mu = np.full(grid.n, p["mu0"], dtype=float)
    g_low, g_span, b0, alpha = p["g_low"], p["g_high"] - p["g_low"], p["b0"], p["alpha"]

    def rates(u):
        pressure = alpha * cumulative_integral(grid, u) + reverse_cumulative_integral(grid, u)
        g = g_low + g_span * np.exp(-pressure)
        return g, mu, b0 / (1.0 + integrate(grid, u))

    return (None, mu, None), rates


def _competition_beta_sup(p, P):
    return p["b0"] / (1.0 + P)


def competition_model(alpha, g_low, g_high, mu0, b0):
    bounds = RateBounds(g_low, g_high, mu0, mu0, b0)
    params = {"alpha": alpha, "g_low": g_low, "g_high": g_high, "mu0": mu0, "b0": b0}
    # beta reads only P: the hierarchical beta_inf, so the solver skips the same scan points
    return ModelSpec("competition", bounds, params, _competition_bind, _competition_beta_sup,
                     beta_inf=_competition_beta_sup)


def _context(model, n=1001):
    return sp.make_context(model, sp.build_grid(sp.default_x_max(model.bounds), n,
                                                "graded_trapezoid"))


def _same(a, b):
    """Equal bit for bit: floats, arrays, and the dataclasses, tuples and dicts holding them."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _same(x, y)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _same(a[key], b[key])
    elif isinstance(a, (np.ndarray, float)):
        # bytes also tell -0.0 from 0.0 and match NaN with NaN
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    else:
        assert a == b


class TestFamilyOutsideTheBuilders:
    def test_alpha_zero_is_hierarchical_bit_for_bit(self):
        custom = _context(competition_model(0.0, **PARAMS))
        builtin = _context(sp.hierarchical_model(**PARAMS))
        nodes = builtin.grid.nodes
        for scale in (0.0, 0.1, 1.0, 30.0):
            u = scale * np.exp(-nodes)
            _same(rates_and_survival(custom, u), rates_and_survival(builtin, u))
        _same(sp.solve_all(custom, CFG), sp.solve_all(builtin, CFG))
        _same(sp.certify(custom, CFG), sp.certify(builtin, CFG))

    def test_family_without_beta_inf_evaluates_every_scan_point(self, monkeypatch):
        # without beta_inf the bounds prove nothing here: beta_max |pi|_1 is about 2
        ctx = _context(dataclasses.replace(competition_model(0.3, **PARAMS), beta_inf=None))
        inner, lams = sp.solver.inner_picard, []

        def counted(ctx, lam, *args, **kwargs):
            lams.append(lam)
            return inner(ctx, lam, *args, **kwargs)

        monkeypatch.setattr(sp.solver, "inner_picard", counted)
        scan = sp.scan_roots(ctx, CFG)
        assert set(scan.lambdas.tolist()) <= set(lams)
        assert len(scan.brackets) == 1

    def test_competition_from_smaller_individuals_solves(self):
        ctx = _context(competition_model(0.3, **PARAMS))
        _, results = sp.solve_all(ctx, CFG)
        assert len(results) == 1
        for r in results:
            assert sp.residual(ctx, r.u_star) < 1e-5
            # R = b0 / ((1 + P) mu0) whatever g is, so P* = b0/mu0 - 1 = 1, up to
            # the quadrature error of 1001 nodes
            assert r.P_star == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("model", [competition_model(0.3, **PARAMS),
                                       sp.hierarchical_model(**PARAMS)],
                             ids=["custom", "builtin"])
    def test_rates_leaving_the_declared_bounds_raise(self, model):
        # g reaches g_high = 1 at the empty population, above the declared 0.9
        bad = dataclasses.replace(model, bounds=RateBounds(0.5, 0.9, 1.0, 1.0, 2.0))
        ctx = _context(bad, n=101)
        zero = np.zeros(ctx.grid.n)
        message = r"^g evaluated outside declared bounds \[0.5, 0.9\]$"
        with pytest.raises(BoundsViolationError, match=message):
            sp.model.freeze_rates(bad, ctx.grid).checked(zero)
        with pytest.raises(BoundsViolationError, match=message):
            sp.net_reproduction_R(ctx, zero)
        with pytest.raises(BoundsViolationError, match=message):
            sp.certify(ctx, CFG)

    def test_nan_rate_fails_the_bounds_row(self):
        # Python's max(0.0, nan) is 0.0: a NaN fertility used to read bounds_A,pass
        def bind(p, grid):
            fixed, rates = _competition_bind(p, grid)

            def nan_beta(u):
                g, mu, beta = rates(u)
                beta = np.full(grid.n, beta)
                beta[grid.n // 2] = np.nan
                return g, mu, beta

            return fixed, nan_beta

        model = dataclasses.replace(competition_model(0.3, **PARAMS), bind=bind)
        ctx = _context(model, n=101)
        samples = list(sp.random_onion_samples(model.bounds, ctx.grid, [0.1, 1.0], 2,
                                               np.random.default_rng(0)))
        with pytest.raises(BoundsViolationError, match="^beta evaluated outside"):
            sp.net_reproduction_R(ctx, samples[0])
        report = sp.validate_hypotheses(ctx, samples)
        assert not report.bounds_ok
        assert np.isnan(report.worst_bound_violation)
        assert np.isnan(report.continuity_response)
        assert next(report.rows())[:2] == ("bounds_A", "fail")

    @pytest.mark.parametrize("scheme", ["uniform_trapezoid", "graded_trapezoid"])
    def test_rates_reading_u_past_the_bounds_are_not_evaluated_by_a_skipped_solve(
            self, tmp_path, capsys, monkeypatch, scheme):
        # beta = b0 + P leaves its declared beta_max = b0 at every P > 0, which no
        # built-in family can do. The bounds prove R <= b0 / mu0 = 1/2, so solve and
        # scan skip every scan point and evaluate no rate: they exit 3 where the full
        # scan would raise. diagnose still evaluates, and still finds the violation.
        argv = _run_custom(monkeypatch, tmp_path, rising_fertility_model(), scheme)
        assert cli.main(["solve"] + argv) == 3
        assert capsys.readouterr().out == "no positive equilibrium found in the scanned range\n"
        assert cli.main(["scan"] + argv) == 3
        rows = (tmp_path / "scan.csv").read_text().splitlines()[1:]
        assert len(rows) == 16 and all(row.endswith(",proved") for row in rows)
        assert cli.main(["diagnose"] + argv) == 0
        assert capsys.readouterr().out.startswith("bounds_A,fail,")

    @pytest.mark.parametrize("scheme", ["uniform_trapezoid", "graded_trapezoid"])
    def test_rates_reading_u_past_the_bounds_raise_where_no_point_is_proved(
            self, tmp_path, capsys, monkeypatch, scheme):
        # the same binder at b0 = beta_max = 2: the bounds give R <= 2, so they prove
        # no point, and solve and scan evaluate the rates and find the violation
        argv = _run_custom(monkeypatch, tmp_path, rising_fertility_model(2.0), scheme)
        for command in ("solve", "scan"):
            assert cli.main([command] + argv) == 1
            assert capsys.readouterr().err.startswith(
                "error: beta evaluated outside declared bounds")


def _run_custom(monkeypatch, out_dir, model, scheme):
    """CLI arguments that run ``model`` on a 201-node ``scheme`` grid with 16 scan points."""
    grid = sp.build_grid(sp.default_x_max(model.bounds), 201, scheme)
    monkeypatch.setattr(cli, "load_config", lambda path, out_dir=None: RunConfig(
        model, grid, sp.SolverConfig(scan_points=16), out_dir))
    return ["--config", "unused.cfg", "--out", str(out_dir)]
