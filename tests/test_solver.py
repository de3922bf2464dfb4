from dataclasses import replace
from pathlib import Path

import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import steadypop as sp
from steadypop.config import load_config
from steadypop.errors import (
    BoundsViolationError,
    ConvergenceError,
    GridMismatchError,
    ParameterError,
)
from conftest import (
    envelope_quadrature,
    exp_profile,
    misdeclared_constant,
    misdeclared_hierarchical,
    widest_step_interval,
)
from oracle import hierarchical_shape

CE_CFG = sp.SolverConfig(lambda_min=0.01, lambda_max=10.0, scan_points=200)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _shipped_ctx(name):
    run = load_config(str(CONFIGS / (name + ".cfg")))
    return sp.make_context(run.model, run.grid), run.solver


@pytest.fixture(scope="module")
def ce_solutions(ce_ctx):
    return sp.solve_all(ce_ctx, CE_CFG)


class TestSolverConfig:
    def test_defaults_valid(self):
        sp.SolverConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"picard_tol": 0.0},
            {"root_tol": -1.0},
            {"scan_points": 1},
            {"scan_points": 2**63},
            {"lambda_min": -1.0},
            {"lambda_min": 2.0, "lambda_max": 1.0},
            {"picard_tol": float("nan")},
            {"root_tol": float("nan")},
            {"lambda_min": float("nan")},
            {"lambda_max": float("nan")},
            {"lambda_max": float("inf")},
            {"picard_max_iter": 0},
            {"seed": -1},
            # without lambda_min the scan starts at root_tol, above this lambda_max
            {"root_tol": 0.4, "lambda_max": 0.01},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            sp.SolverConfig(**kwargs)

    @pytest.mark.parametrize("name", ["picard_tol", "root_tol"])
    def test_infinite_tolerance_rejected_and_named(self, name):
        # picard_tol = inf used to stop every inner solve after one step
        with pytest.raises(ParameterError) as info:
            sp.SolverConfig(**{name: math.inf})
        assert info.value.field == name


class TestInnerPicard:
    def test_counterexample_shape_is_lambda_free(self, ce_ctx):
        # mu and g are population-independent, so any scale yields exp(-x)
        for lam in (0.0, 0.5, 7.0):
            pr = sp.inner_picard(ce_ctx, lam, CE_CFG)
            assert pr.iterations <= 2
            assert np.allclose(pr.v.values, np.exp(-ce_ctx.grid.nodes), atol=1e-10)

    def test_constant_model_converges_fast(self, const_ctx_factory):
        ctx = const_ctx_factory(1.3, 0.9, 1.0)
        pr = sp.inner_picard(ctx, 1.0, sp.SolverConfig())
        assert pr.iterations <= 2
        assert pr.residual_l1 <= 1e-10

    def test_hierarchical_fixed_shape(self, hier_ctx):
        cfg = sp.SolverConfig()
        pr = sp.inner_picard(hier_ctx, 2.0, cfg)
        # the returned shape reproduces itself under the frozen-scale update
        u = sp.DensityProfile(hier_ctx.grid, 2.0 * pr.v.values)
        pi = sp.survival_pi(hier_ctx, u)
        gap = sp.integrate(hier_ctx.grid, np.abs(pr.v.values - pi.values))
        assert gap <= cfg.picard_tol

    def test_negative_scale_rejected(self, ce_ctx):
        with pytest.raises(ParameterError):
            sp.inner_picard(ce_ctx, -1.0, CE_CFG)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    @pytest.mark.parametrize("route", ["inner_picard", "iterate_map_A"])
    def test_scale_that_is_not_finite_rejected(self, hier_ctx, route, lam):
        # a scale that is not finite is the caller's error, not the model's bounds'
        field = "lam" if route == "inner_picard" else "lambda0"
        with pytest.raises(ParameterError) as info:
            if route == "inner_picard":
                sp.inner_picard(hier_ctx, lam, sp.SolverConfig())
            else:
                sp.iterate_map_A(hier_ctx, hier_ctx.e2, lam, sp.SolverConfig())
        assert info.value.field == field

    def test_nonconvergence_raises_with_diagnostics(self, hier_ctx):
        cfg = sp.SolverConfig(picard_tol=1e-10, picard_max_iter=1)
        with pytest.raises(ConvergenceError) as e:
            sp.inner_picard(hier_ctx, 5.0, cfg)
        assert e.value.iterations == 1
        assert e.value.last_residual > 0

    def test_builds_one_profile_whatever_its_step_count(self, monkeypatch):
        m = sp.hierarchical_model(g_low=0.02, g_high=1.0, mu0=1.0, b0=10.0)
        ctx = sp.make_context(m, sp.build_grid(sp.default_x_max(m.bounds), 2001,
                                               "graded_trapezoid"))
        built = []
        validate = sp.DensityProfile.__post_init__

        def counted(profile):
            built.append(profile)
            validate(profile)

        monkeypatch.setattr(sp.DensityProfile, "__post_init__", counted)
        runs = []
        for tol in (1e-2, 1e-10):
            built.clear()
            pr = sp.inner_picard(ctx, 10.0, sp.SolverConfig(picard_tol=tol))
            runs.append((pr.iterations, len(built)))
        (short, short_built), (long, long_built) = runs
        assert short < long and long >= 20
        # the steps work on arrays; only the returned shape is a profile
        assert short_built == long_built == 1

    @pytest.mark.parametrize("n,scheme", [(2001, "graded_trapezoid"), (4001, "uniform_trapezoid")],
                             ids=["other_size", "other_nodes"])
    @pytest.mark.parametrize("route", ["inner_picard", "iterate_map_A"])
    def test_shape_from_another_grid_rejected(self, hier_ctx, route, n, scheme):
        v = exp_profile(sp.build_grid(hier_ctx.grid.x_max, n, scheme))
        with pytest.raises(GridMismatchError):
            if route == "inner_picard":
                sp.inner_picard(hier_ctx, 1.0, sp.SolverConfig(), start=v)
            else:
                sp.iterate_map_A(hier_ctx, v, 1.0, sp.SolverConfig())


def _composite_ctx():
    m = sp.composite_model(
        g=sp.CompositeRate(const=0.5, x_amp=0.5, u_inv=0.2, functional="tail", tail_from=1.0),
        mu=sp.CompositeRate(const=1.0, u_sat=0.5),
        beta=sp.CompositeRate(const=0.5, u_inv=2.0, functional="weighted"),
    )
    return sp.make_context(m, sp.build_grid(sp.default_x_max(m.bounds), 2001))


class TestReproductionFromPicard:
    """R reported from the converged Picard step equals a fresh evaluation, bit for bit."""

    @pytest.mark.parametrize("variant", ["constant", "counterexample", "hierarchical", "composite"])
    def test_lambda_residual_matches_net_reproduction(
        self, variant, ce_ctx, hier_ctx, const_ctx_factory
    ):
        ctx = {
            "constant": lambda: const_ctx_factory(1.3, 0.9, 1.0),
            "counterexample": lambda: ce_ctx,
            "hierarchical": lambda: hier_ctx,
            "composite": _composite_ctx,
        }[variant]()
        cfg = sp.SolverConfig()
        for lam in (0.3, 2.0):
            v = sp.inner_picard(ctx, lam, cfg).v
            u = sp.DensityProfile(ctx.grid, lam * v.values)
            assert sp.lambda_residual(ctx, lam, cfg) == sp.net_reproduction_R(ctx, u) - 1.0

    def test_equilibrium_R_matches_net_reproduction(self, ce_ctx, hier_ctx, ce_solutions):
        _, hier_results = sp.solve_all(hier_ctx, sp.SolverConfig(scan_points=16))
        results = [(ce_ctx, r) for r in ce_solutions[1]] + [(hier_ctx, r) for r in hier_results]
        cfg = sp.SolverConfig(picard_tol=1e-8)
        stable = ce_solutions[1][1]
        results.append((ce_ctx, sp.iterate_map_A(ce_ctx, stable.v_star, stable.lambda_star, cfg)))
        assert len(results) == 4
        for ctx, r in results:
            assert isinstance(r, sp.EquilibriumResult)
            assert r.R_at_u == sp.net_reproduction_R(ctx, r.u_star)
            assert np.array_equal(r.pi.values, sp.survival_pi(ctx, r.u_star).values)


class TestScanAndBisect:
    def test_counterexample_two_brackets(self, ce_solutions):
        scan, _ = ce_solutions
        assert not scan.degenerate
        assert not scan.failed
        assert len(scan.brackets) == 2
        (a1, b1), (a2, b2) = scan.brackets
        assert a1 < 1.0 / 6.0 < b1
        assert a2 < 1.0 < b2

    def test_counterexample_equilibria_match_analysis(self, ce_ctx, ce_solutions):
        _, results = ce_solutions
        assert len(results) == 2
        small, large = results
        assert small.lambda_star == pytest.approx(1.0 / 6.0, abs=1e-6)
        assert large.lambda_star == pytest.approx(1.0, abs=1e-6)
        for r in results:
            assert r.R_at_u == pytest.approx(1.0, abs=1e-6)
            assert r.residual_l1 < 1e-6
            # density is scale times exp(-x) for this model
            expect = r.lambda_star * np.exp(-ce_ctx.grid.nodes)
            assert np.allclose(r.u_star.values, expect, atol=1e-6)
            assert r.P_star == pytest.approx(r.lambda_star, abs=2e-6)

    @pytest.mark.parametrize("name,n_roots", [("counterexample", 2), ("hierarchical", 1)])
    def test_survival_between_envelopes(self, name, n_roots):
        # the profile files carry no e1, e2: each result's pi is checked here
        ctx, cfg = _shipped_ctx(name)
        _, results = sp.solve_all(ctx, cfg)
        assert len(results) == n_roots
        for r in results:
            assert np.all(ctx.e1.values <= r.pi.values * (1 + 1e-12))
            assert np.all(r.pi.values <= ctx.e2.values * (1 + 1e-12))

    def test_subcritical_constant_model_has_no_roots(self, const_ctx_factory):
        ctx = const_ctx_factory(1.0, 1.0, 0.5)  # R = 1/2 < 1 everywhere
        scan, results = sp.solve_all(ctx, sp.SolverConfig(scan_points=32))
        assert scan.brackets == ()
        assert results == []
        assert not scan.degenerate
        assert np.all(scan.residuals < 0)

    def test_degenerate_family_detected(self, const_ctx_factory):
        ctx = const_ctx_factory(1.0, 1.0, 1.0)  # R = 1 at every scale
        scan = sp.scan_roots(ctx, sp.SolverConfig(scan_points=32, root_tol=1e-6))
        assert scan.degenerate
        assert scan.brackets == ()

    def test_hierarchical_equilibrium(self, hier_ctx):
        # reproduction is b0 / ((1 + P) mu0), so P* = b0/mu0 - 1 = 1
        scan, results = sp.solve_all(hier_ctx, sp.SolverConfig(scan_points=64))
        assert len(results) == 1
        r = results[0]
        assert r.P_star == pytest.approx(1.0, abs=1e-6)
        assert r.R_at_u == pytest.approx(1.0, abs=1e-6)
        assert r.residual_l1 < 1e-6

    def test_refinement_reuses_scan_ends(self, hier_ctx, monkeypatch):
        calls = []
        inner = sp.solver.inner_picard

        def counted(*args, **kwargs):
            calls.append(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(sp.solver, "inner_picard", counted)
        scan, results = sp.solve_all(hier_ctx, sp.SolverConfig(scan_points=64))
        assert len(results) == 1
        # cold-started bisection to root_tol = 1e-9 needs 32 here
        assert len(calls) - len(scan.lambdas) <= 12

    def test_scan_residuals_are_cold_started(self, hier_ctx):
        cfg = sp.SolverConfig(scan_points=16)
        scan = _full_scan(hier_ctx, cfg)
        for lam, r in zip(scan.lambdas, scan.residuals):
            assert r == sp.lambda_residual(hier_ctx, float(lam), cfg)
        assert len(scan.ends) == len(scan.brackets) == 1
        for lam, end in zip(scan.brackets[0], scan.ends[0]):
            cold = sp.inner_picard(hier_ctx, lam, cfg)
            assert end.R == cold.R and end.iterations == cold.iterations
            assert np.array_equal(end.v.values, cold.v.values)
        lo_end, hi_end = scan.ends[0]
        assert (lo_end.R - 1.0) * (hi_end.R - 1.0) < 0

    def test_tiny_root_tol_stops_at_float_resolution(self, hier_ctx):
        _, (coarse,) = sp.solve_all(hier_ctx, sp.SolverConfig(scan_points=64))
        _, (fine,) = sp.solve_all(hier_ctx, sp.SolverConfig(scan_points=64, root_tol=1e-18))
        assert fine.lambda_star == pytest.approx(coarse.lambda_star, abs=1e-9)

    @pytest.mark.parametrize("ctx_name,base,n_roots", [
        ("ce_ctx", CE_CFG, 2),
        ("hier_ctx", sp.SolverConfig(scan_points=64), 1),
    ])
    def test_root_within_half_tol_of_sign_change(self, request, ctx_name, base, n_roots):
        ctx = request.getfixturevalue(ctx_name)
        cfg = replace(base, root_tol=1e-6)
        _, results = sp.solve_all(ctx, cfg)
        assert len(results) == n_roots
        for r in results:
            below = sp.lambda_residual(ctx, r.lambda_star - cfg.root_tol, cfg)
            above = sp.lambda_residual(ctx, r.lambda_star + cfg.root_tol, cfg)
            assert below * above < 0

    @pytest.mark.parametrize("name", ["stiff reference", "hierarchical", "counterexample"])
    def test_cold_solves_a_root_tol_off_each_root_change_sign(self, name):
        # the predicted starts move lambda* in its last digits only: the discrete
        # residual still changes sign within root_tol of every root, solved cold
        if name == "stiff reference":
            ctx, cfg = _stiff_reference_ctx(), sp.SolverConfig(scan_points=64)
        else:
            ctx, cfg = _shipped_ctx(name)
        _, results = sp.solve_all(ctx, cfg)
        assert len(results) == (2 if name == "counterexample" else 1)
        for r in results:
            below = sp.lambda_residual(ctx, r.lambda_star - cfg.root_tol, cfg)
            above = sp.lambda_residual(ctx, r.lambda_star + cfg.root_tol, cfg)
            assert np.sign(below) == -np.sign(above) != 0

    def test_predicted_start_is_the_interpolant_through_three_shapes(self):
        # shapes quadratic in the scale are reproduced; the displaced end, 0.5,
        # lies outside the bracket [1, 2], so its weight at 1.5 is negative
        x = np.linspace(0.0, 1.0, 7)
        shape = lambda lam: (1.0 + x) + lam * (2.0 - x) + lam**2 * x
        points = [(lam, shape(lam)) for lam in (1.0, 2.0, 0.5)]
        assert np.allclose(sp.solver._predicted_start(1.5, points), shape(1.5),
                           rtol=1e-14, atol=0)
        assert np.allclose(sp.solver._predicted_start(1.5, points[:2]),
                           (shape(1.0) + shape(2.0)) / 2, rtol=1e-14, atol=0)

    def test_predicted_start_with_a_negative_weight_is_a_density(self):
        # weights at 1.5 through scales 1, 2 and 0.5: 1, 1/3 and -1/3; a shape
        # large where the ends' shapes vanish drives the interpolant below 0
        ends = np.array([0.0, 1.0, 2.0, 0.0]), np.array([0.0, 3.0, 1.0, 1e-300])
        displaced = np.array([6.0, 0.0, 1.0, 1e300])
        start = sp.solver._predicted_start(1.5, [(1.0, ends[0]), (2.0, ends[1]),
                                                 (0.5, displaced)])
        raw = ends[0] + ends[1] / 3 - displaced / 3
        assert np.any(raw < 0)
        assert np.all(np.isfinite(start)) and np.all(start >= 0)
        assert np.allclose(start, np.maximum(raw, 0.0), rtol=1e-14, atol=0)
        sp.DensityProfile(sp.build_grid(1.0, 4), start)

    def test_failed_refinement_is_a_flagged_entry(self):
        # the scan brackets the root; 8 Picard steps do not reach picard_tol within it
        m = sp.hierarchical_model(0.02, 1.0, 0.5, 1.5)
        ctx = sp.make_context(m, sp.build_grid(sp.default_x_max(m.bounds), 201,
                                               "uniform_trapezoid"))
        cfg = sp.SolverConfig(scan_points=16, picard_max_iter=8)
        scan, results = sp.solve_all(ctx, cfg)
        ((lo, hi),) = scan.brackets
        assert lo == pytest.approx(0.0359, abs=1e-4) and hi == pytest.approx(1.711, abs=1e-3)
        message = "inner iteration did not reach 1e-10 after 8 steps (last residual 1.84136e-07)"
        assert results == [sp.BracketFailure((lo, hi), message)]
        with pytest.raises(ConvergenceError, match=r"^%s$" % re.escape(message)):
            sp.bisect_root(ctx, (lo, hi), cfg, sp.scan_roots(ctx, cfg).ends[0])

    def test_failed_bracket_keeps_the_other_roots(self, ce_ctx, ce_solutions, monkeypatch):
        bisect = sp.solver.bisect_root

        def second_fails(ctx, bracket, cfg, ends):
            if bracket == ce_solutions[0].brackets[1]:
                raise ConvergenceError("forced", last_residual=1.0, iterations=1)
            return bisect(ctx, bracket, cfg, ends)

        monkeypatch.setattr(sp.solver, "bisect_root", second_fails)
        scan, (root, failure) = sp.solve_all(ce_ctx, CE_CFG)
        assert scan.brackets == ce_solutions[0].brackets
        assert failure == sp.BracketFailure(scan.brackets[1], "forced")
        expected = ce_solutions[1][0]
        assert root.lambda_star == expected.lambda_star
        assert np.array_equal(root.u_star.values, expected.u_star.values)

    @pytest.mark.parametrize("zero_end", [0, 1])
    def test_zero_residual_end_is_the_root(self, ce_ctx, monkeypatch, zero_end):
        bracket = (0.1, 0.3)
        ends = [replace(sp.inner_picard(ce_ctx, lam, CE_CFG), R=R)
                for lam, R in zip(bracket, (0.5, 1.5))]
        ends[zero_end] = replace(ends[zero_end], R=1.0)
        calls = []
        inner = sp.solver.inner_picard

        def counted(*args, **kwargs):
            calls.append(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(sp.solver, "inner_picard", counted)
        result = sp.bisect_root(ce_ctx, bracket, CE_CFG, ends)
        # no ITP step and no inner solve: the zero end's own result is the root
        assert calls == []
        end = ends[zero_end]
        assert result.lambda_star == bracket[zero_end]
        assert result.R_at_u == 1.0 and result.inner_iterations == end.iterations
        assert result.v_star is end.v
        assert np.array_equal(result.pi.values, end.pi)

    def test_bracket_of_adjacent_floats_stops(self, ce_ctx):
        lo = 1.0 / 6.0
        hi = float(np.nextafter(lo, 1.0))
        cfg = replace(CE_CFG, root_tol=1e-20)
        pr = sp.inner_picard(ce_ctx, lo, cfg)
        # the midpoint rounds to an end, so ITP stops before its first step
        result = sp.bisect_root(ce_ctx, (lo, hi), cfg, (replace(pr, R=1.0 - 1e-3),
                                                         replace(pr, R=1.0 + 1e-3)))
        assert result.lambda_star in (lo, hi)

    def test_bisect_rejects_bad_bracket(self, ce_ctx):
        ends = [sp.inner_picard(ce_ctx, lam, CE_CFG) for lam in (0.3, 0.5)]
        with pytest.raises(ParameterError):
            sp.bisect_root(ce_ctx, (0.3, 0.5), CE_CFG, ends)  # same residual sign

    @pytest.mark.parametrize("bracket", [(math.nan, 0.5), (0.1, math.inf), (0.5, 0.1)],
                             ids=["nan_end", "inf_end", "reversed"])
    def test_bisect_rejects_a_bracket_that_is_not_finite_and_ordered(self, ce_ctx, bracket):
        # ITP's step bound takes the log of the width: only a finite, ordered bracket has one
        pr = sp.inner_picard(ce_ctx, 0.5, CE_CFG)
        ends = (replace(pr, R=1.0 - 1e-3), replace(pr, R=1.0 + 1e-3))
        with pytest.raises(ParameterError) as info:
            sp.bisect_root(ce_ctx, bracket, CE_CFG, ends)
        assert info.value.field == "bracket"

    def test_solution_independent_of_scan_resolution(self, ce_ctx, ce_solutions):
        _, coarse = ce_solutions
        cfg = sp.SolverConfig(lambda_min=0.01, lambda_max=10.0, scan_points=500)
        _, fine = sp.solve_all(ce_ctx, cfg)
        assert len(fine) == len(coarse) == 2
        for a, b in zip(coarse, fine):
            assert a.lambda_star == pytest.approx(b.lambda_star, abs=1e-8)


SHIPPED_HIERARCHICAL = (0.5, 1.0, 1.0, 2.0)
STIFF_HIERARCHICAL = (0.02, 1.0, 1.0, 10.0)


@functools.lru_cache(maxsize=None)
def _shape_error(params, scheme, n):
    """Quadrature of |u_star - u*| for solve_all's one hierarchical equilibrium."""
    model = sp.hierarchical_model(*params)
    ctx = sp.make_context(model, sp.build_grid(sp.default_x_max(model.bounds), n, scheme))
    _, (result,) = sp.solve_all(ctx, sp.SolverConfig(scan_points=64))
    exact = hierarchical_shape(*params, ctx.grid.nodes)
    return sp.integrate(ctx.grid, np.abs(result.u_star.values - exact))


class TestHierarchicalShape:
    """The equilibrium's shape against the closed form in ``tests/oracle.py``.

    Stiff on the uniform grid is left out: its error ratio per doubling at
    n = 4001 (4.49) is not yet the trapezoid rule's 4.
    """

    @pytest.mark.parametrize("params, scheme, error", [
        (SHIPPED_HIERARCHICAL, "uniform_trapezoid", 6.284e-6),
        (SHIPPED_HIERARCHICAL, "graded_trapezoid", 2.879e-7),
        (STIFF_HIERARCHICAL, "graded_trapezoid", 1.660e-4),
    ])
    def test_shape_error(self, params, scheme, error):
        assert _shape_error(params, scheme, 4001) == pytest.approx(error, rel=1e-3)

    @pytest.mark.parametrize("params, scheme, ratio", [
        (SHIPPED_HIERARCHICAL, "uniform_trapezoid", 4.000),
        (SHIPPED_HIERARCHICAL, "graded_trapezoid", 4.001),
        (STIFF_HIERARCHICAL, "graded_trapezoid", 3.993),
    ])
    def test_second_order(self, params, scheme, ratio):
        halved = _shape_error(params, scheme, 2001) / _shape_error(params, scheme, 4001)
        assert halved == pytest.approx(ratio, abs=5e-3)


def _stiff_reference_ctx(n=4001):
    # small g_low and large b0: tens of Picard steps per scale, P* = 9
    m = sp.hierarchical_model(g_low=0.02, g_high=1.0, mu0=1.0, b0=10.0)
    return sp.make_context(m, sp.build_grid(sp.default_x_max(m.bounds), n))


def _sign_model(family, a, b):
    if family == "hierarchical":
        return sp.hierarchical_model(g_low=0.02 + 0.4 * a, g_high=1.0, mu0=0.5 + b,
                                     b0=0.5 + 5.0 * a * b)
    return _evidence_model("composite_" + family, a, b)


def _full_scan(ctx, cfg):
    """The scan that skips no point: the reference the skipping scan must match."""
    lams = sp.solver._scan_lambdas(ctx, cfg)
    return sp.solver._scan(ctx, cfg, lams, np.full(lams.shape, np.nan))


def _assert_same_scan(sign, full):
    assert sign.brackets == full.brackets
    assert sign.degenerate == full.degenerate
    assert len(sign.ends) == len(full.ends)
    for sign_ends, full_ends in zip(sign.ends, full.ends):
        for sign_end, full_end in zip(sign_ends, full_ends):
            assert sign_end.R == full_end.R
            assert sign_end.iterations == full_end.iterations
            assert sign_end.residual_l1 == full_end.residual_l1
            assert np.array_equal(sign_end.v.values, full_end.v.values)
            assert np.array_equal(sign_end.pi, full_end.pi)


def _assert_full_path(ctx, cfg, scan, results):
    """``solve_all``'s scan and results are the full scan's and their refinements."""
    full = _full_scan(ctx, cfg)
    expected = sorted((sp.bisect_root(ctx, br, cfg, ends)
                       for br, ends in zip(full.brackets, full.ends)),
                      key=lambda r: r.lambda_star)
    assert scan.failed == full.failed
    assert scan.proved == full.proved == ()
    assert np.array_equal(scan.residuals, full.residuals, equal_nan=True)
    # solve_all hands each pair of ends to its refinement and keeps none: the
    # results below, refined from the full scan's ends, match bit for bit
    assert scan.ends == ()
    _assert_same_scan(scan, replace(full, ends=()))
    assert len(results) == len(expected)
    for r, e in zip(results, expected):
        assert r.lambda_star == e.lambda_star
        assert np.array_equal(r.u_star.values, e.u_star.values)
        assert r.inner_iterations == e.inner_iterations


class TestSignOnlyScan:
    """The scan skips the points the bounds prove, yet gives the full scan's brackets, ends
    and flag."""

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["hierarchical", "norm", "tail", "weighted"]),
        scheme=st.sampled_from(["uniform_trapezoid", "graded_trapezoid"]),
        n=st.sampled_from([201, 801]),
        scan_points=st.sampled_from([5, 16, 33]),
        picard_max_iter=st.sampled_from([8, 200]),
        a=st.floats(0.0, 2.0),
        b=st.floats(0.0, 2.0),
    )
    def test_matches_full_tolerance_scan(self, family, scheme, n, scan_points,
                                         picard_max_iter, a, b):
        model = _sign_model(family, a, b)
        ctx = sp.make_context(model, sp.build_grid(sp.default_x_max(model.bounds), n, scheme))
        cfg = sp.SolverConfig(scan_points=scan_points, picard_max_iter=picard_max_iter)
        full = _full_scan(ctx, cfg)
        with pytest.MonkeyPatch.context() as mp:
            solves = _count_inner_solves(mp)
            sign = sp.scan_roots(ctx, cfg)
        _assert_same_scan(sign, full)
        assert set(sign.failed) <= set(full.failed)
        # a solved point has the full scan's residual; any other is proved and holds
        # its proved bound
        solved = np.isin(sign.lambdas, solves)
        assert sign.proved == tuple(np.flatnonzero(~solved).tolist()) and full.proved == ()
        assert sign.residuals[solved].tobytes() == full.residuals[solved].tobytes()
        if not np.all(solved):
            lo, hi = (R - 1.0 for R in sp.solver._proved_R_bounds(ctx, cfg, sign.lambdas))
            proved = np.where(lo > cfg.root_tol, lo, np.where(hi < -cfg.root_tol, hi, np.nan))
            assert sign.residuals[~solved].tobytes() == proved[~solved].tobytes()

    def test_failed_skipped_end_falls_back_to_the_full_scan(self, monkeypatch):
        ctx = _stiff_reference_ctx(2001)
        cfg = sp.SolverConfig(scan_points=64)
        # the bracket's lower end, proved by its own R: every solve at its scale
        # fails, so the full scan it is compared with fails there too
        lam = sp.solver._scan_lambdas(ctx, cfg)[46]
        _proving(monkeypatch, [46], sp.lambda_residual(ctx, lam, cfg) + 1.0)
        solves = _count_inner_solves(monkeypatch, [lam])
        scan, results = sp.solve_all(ctx, cfg)
        assert solves.count(lam) == 1 and scan.failed == (46,) and len(results) == 1
        _assert_full_path(ctx, cfg, scan, results)

    def test_wrong_proved_sign_at_a_bracket_end_falls_back_to_the_full_scan(self, monkeypatch):
        ctx = _stiff_reference_ctx(2001)
        cfg = sp.SolverConfig(scan_points=64)
        # a proof of the wrong sign at the bracket's lower end moves the bracket
        # down one point, and the cold solve of that end contradicts its proof
        lam = sp.solver._scan_lambdas(ctx, cfg)[46]
        _proving(monkeypatch, [46], 1.0 - sp.lambda_residual(ctx, lam, cfg))
        solves = _count_inner_solves(monkeypatch)
        scan, results = sp.solve_all(ctx, cfg)
        monkeypatch.undo()
        assert solves[:4] == sp.solver._scan_lambdas(ctx, cfg)[[47, 48, 45, 46]].tolist()
        assert len(results) == 1
        _assert_full_path(ctx, cfg, scan, results)

    def test_degenerate_flag_resting_on_skipped_points_falls_back(self, const_ctx_factory,
                                                                  monkeypatch):
        # R = 1 at every scale; 4 of 32 points fail, but the bounds skip them
        # with R - 1 = 1 proved, which would hide the degenerate family
        ctx = const_ctx_factory(1.0, 1.0, 1.0)
        cfg = sp.SolverConfig(scan_points=32, root_tol=1e-6)
        lams = sp.solver._scan_lambdas(ctx, cfg)
        _proving(monkeypatch, slice(1, None, 8), 2.0)
        _count_inner_solves(monkeypatch, lams[1::8])
        scan, results = sp.solve_all(ctx, cfg)
        assert scan.degenerate and results == []
        assert len(scan.failed) == 4

    @pytest.mark.parametrize("path", ["failed end", "wrong end", "wrong far off",
                                      "degenerate"])
    def test_fallback_solves_each_scan_point_once(self, path, const_ctx_factory, monkeypatch):
        # the four ways the tests above reach the full scan: it keeps the solves
        # already made and makes the rest, so every scan point is solved once
        if path == "degenerate":
            ctx = const_ctx_factory(1.0, 1.0, 1.0)
            cfg = sp.SolverConfig(scan_points=32, root_tol=1e-6)
        else:
            ctx = _stiff_reference_ctx(2001)
            cfg = sp.SolverConfig(scan_points=64)
        lams = sp.solver._scan_lambdas(ctx, cfg)
        failing = []
        if path == "failed end":
            _proving(monkeypatch, [46], sp.lambda_residual(ctx, lams[46], cfg) + 1.0)
            failing = lams[[46]]
        elif path == "wrong end":
            _proving(monkeypatch, [46], 1.0 - sp.lambda_residual(ctx, lams[46], cfg))
        elif path == "wrong far off":
            _proving(monkeypatch, [20], 0.5)
        else:
            _proving(monkeypatch, slice(1, None, 8), 2.0)
            failing = lams[1::8]
        solves = _count_inner_solves(monkeypatch, failing)
        scan = sp.scan_roots(ctx, cfg)
        assert sorted(solves) == lams.tolist()
        assert scan.proved == ()

    def test_exact_zero_residual_ends_a_bracket_and_starts_none(self, monkeypatch):
        # R == 1 exactly at scan point 47, the one the bounds leave unproved: the
        # bracket (46, 47) ends there and none starts there, in both scans
        ctx = _stiff_reference_ctx()
        cfg = sp.SolverConfig(scan_points=64)
        lams = sp.solver._scan_lambdas(ctx, cfg)
        inner = sp.solver.inner_picard

        def one_at_47(ctx, lam, cfg, start=None):
            pr = inner(ctx, lam, cfg, start)
            return replace(pr, R=1.0) if lam == lams[47] else pr

        monkeypatch.setattr(sp.solver, "inner_picard", one_at_47)
        for scan in (sp.scan_roots(ctx, cfg), _full_scan(ctx, cfg)):
            assert scan.residuals[47] == 0.0 and scan.residuals[48] < 0.0
            assert scan.brackets == ((lams[46], lams[47]),)
            assert scan.ends[0][1].R == 1.0

    def test_solve_all_steps_stay_few_on_the_stiff_reference(self, monkeypatch):
        # 50 steps at the scan's scales, the skipped bracket end's included, and
        # 90 in ITP's 8 inner solves from predicted starts (134 in 9 from the last
        # shape solved); the full-tolerance scan takes 670 steps here
        ctx = _stiff_reference_ctx()
        steps = {}                     # per scale
        inner = sp.solver.inner_picard

        def counted(ctx, lam, cfg, start=None):
            pr = inner(ctx, lam, cfg, start)
            steps[lam] = steps.get(lam, 0) + pr.iterations
            return pr

        monkeypatch.setattr(sp.solver, "inner_picard", counted)
        scan, results = sp.solve_all(ctx, sp.SolverConfig(scan_points=64))
        assert len(results) == 1 and results[0].P_star == pytest.approx(9.0, rel=0.02)
        scanned = sum(steps.get(lam, 0) for lam in scan.lambdas.tolist())
        assert scanned <= 60
        assert sum(steps.values()) - scanned <= 95


def _count_inner_solves(monkeypatch, failing=()):
    """Record the scale of every inner solve; make each one at a scale in ``failing`` fail."""
    lams = []
    failing = {float(lam) for lam in failing}
    inner = sp.solver.inner_picard

    def counted(ctx, lam, *args, **kwargs):
        lams.append(lam)
        if lam in failing:
            raise ConvergenceError("forced", last_residual=1.0, iterations=0)
        return inner(ctx, lam, *args, **kwargs)

    monkeypatch.setattr(sp.solver, "inner_picard", counted)
    return lams


def _proving(monkeypatch, points, R):
    """Make the rate bounds prove exactly ``R`` at the scan points ``points``."""
    proved = sp.solver._proved_R_bounds

    def bounds(ctx, cfg, lams):
        lo, hi = proved(ctx, cfg, lams)
        lo[points] = hi[points] = R
        return lo, hi

    monkeypatch.setattr(sp.solver, "_proved_R_bounds", bounds)


def _proved_R_bound(ctx):
    beta_max = ctx.model.bounds.beta_max
    S_hi = sp.solver._computed_mass_interval(ctx)[1]
    return (beta_max + sp.model._tolerance(beta_max)) * S_hi


def _assert_skipped(ctx, cfg, scan, results):
    # every point proved negative holds its proved upper bound on R, minus 1
    lams = sp.solver._scan_lambdas(ctx, cfg)
    assert np.array_equal(scan.lambdas, lams)
    _, R_hi = sp.solver._proved_R_bounds(ctx, cfg, lams)
    assert np.all(R_hi - 1.0 < -cfg.root_tol)
    assert np.array_equal(scan.residuals, R_hi - 1.0)
    assert scan.brackets == scan.ends == scan.failed == ()
    assert not scan.degenerate
    assert results == []


class TestScanSkippedByTheBounds:
    """solve_all skips the scan where the rate bounds prove R < 1 - root_tol at every scale."""

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(["constant", "composite"]),
        scheme=st.sampled_from(["uniform_trapezoid", "graded_trapezoid"]),
        n=st.sampled_from([201, 2001]),
        mu=st.floats(0.5, 2.0),
        g=st.floats(0.5, 2.0),
        sat=st.floats(0.0, 1.0),
        ratio=st.floats(0.05, 0.95),
    )
    def test_skipped_scan_bounds_the_full_scan(self, family, scheme, n, mu, g, sat, ratio):
        if family == "constant":
            model = sp.constant_model(mu0=mu, g0=g, beta0=ratio * mu)
        else:                      # configs/composite_increasing_mu.cfg's family
            model = sp.composite_model(g=sp.CompositeRate(const=g),
                                       mu=sp.CompositeRate(const=mu, u_sat=sat),
                                       beta=sp.CompositeRate(const=ratio * mu))
        ctx = sp.make_context(model, sp.build_grid(sp.default_x_max(model.bounds), n, scheme))
        cfg = sp.SolverConfig(scan_points=16)
        bound = _proved_R_bound(ctx) - 1.0
        assume(bound < -cfg.root_tol)
        scan, results = sp.solve_all(ctx, cfg)
        _assert_skipped(ctx, cfg, scan, results)
        full = _full_scan(ctx, cfg)
        assert full.brackets == () and not full.degenerate
        good = ~np.isnan(full.residuals)
        assert np.any(good)
        assert np.all(full.residuals[good] <= scan.residuals[good])
        assert np.max(scan.residuals) <= bound < -cfg.root_tol

    @pytest.mark.parametrize("name", ["composite_increasing_mu", "constant_subcritical"])
    def test_qualifying_model_makes_no_inner_solve(self, name, monkeypatch):
        ctx, cfg = _shipped_ctx(name)
        lams = _count_inner_solves(monkeypatch)
        scan, results = sp.solve_all(ctx, cfg)
        assert lams == []
        _assert_skipped(ctx, cfg, scan, results)

    @pytest.mark.parametrize("name,n_roots", [
        ("constant_degenerate", 0), ("counterexample", 2), ("hierarchical", 1)])
    def test_models_the_bounds_do_not_settle_still_scan(self, name, n_roots, monkeypatch):
        ctx, cfg = _shipped_ctx(name)
        assert _proved_R_bound(ctx) >= 1.0 - cfg.root_tol
        lams = _count_inner_solves(monkeypatch)
        scan, results = sp.solve_all(ctx, cfg)
        if name == "hierarchical":
            # the bounds prove the sign at every scale: 2 cold solves of the
            # bracket's skipped ends and 9 ITP solves, of 64 scan points
            assert len(lams) <= 11
        else:
            assert len(lams) >= cfg.scan_points
        assert scan.degenerate == (name == "constant_degenerate")
        assert len(results) == n_roots

    def test_fixed_rate_failing_its_check_still_scans_and_raises(self):
        # the bounds prove R <= 1/4, but mu0 = 1 lies outside the declared [2, 2]
        bounds = sp.RateBounds(g_low=1.0, g_high=1.0, mu_low=2.0, mu_high=2.0, beta_max=0.5)
        model = replace(sp.constant_model(mu0=1.0, g0=1.0, beta0=0.5), bounds=bounds)
        ctx = _graded_ctx(model, 201)
        cfg = sp.SolverConfig(scan_points=16)
        assert _proved_R_bound(ctx) < 0.3
        with pytest.raises(BoundsViolationError, match="^mu evaluated outside"):
            sp.solve_all(ctx, cfg)


def _proof_model(family, a, b, c):
    if family == "stiff":          # the stiff-picard benchmark's corner
        mu0 = 0.8 + 0.45 * b
        return sp.hierarchical_model(g_low=0.02 + 0.08 * a, g_high=1.0, mu0=mu0,
                                     b0=(5.0 + 5.0 * c) * mu0)
    if family == "hierarchical":
        return sp.hierarchical_model(g_low=0.05 + 0.95 * a, g_high=1.0, mu0=0.5 + b,
                                     b0=0.2 + 10.0 * c)
    return _evidence_model("composite_norm", 2.0 * a, 2.0 * b)


def _unskipped(monkeypatch):
    """Make the scan skip no point, as if the bounds proved nothing."""
    monkeypatch.setattr(sp.solver, "_proved_R_bounds",
                        lambda ctx, cfg, lams: (np.zeros(lams.shape), np.full(lams.shape, np.inf)))


class TestScanPointsTheBoundsProve:
    """The scan skips the points whose sign of R - 1 the rate bounds prove."""

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(["stiff", "hierarchical", "norm"]),
        scheme=st.sampled_from(["uniform_trapezoid", "graded_trapezoid"]),
        n=st.sampled_from([3, 11, 201, 2001]),
        a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0), c=st.floats(0.0, 1.0),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_survival_mass_lies_in_the_proved_interval(self, family, scheme, n, a, b, c,
                                                       scale):
        model = _proof_model(family, a, b, c)
        ctx = sp.make_context(model, sp.build_grid(sp.default_x_max(model.bounds), n, scheme))
        S_lo, S_hi = sp.solver._computed_mass_interval(ctx)
        margin = sp.solver._rounding_margin(ctx.grid)
        assert 0.0 <= S_lo <= S_hi <= envelope_quadrature(model.bounds, ctx.grid) * (1.0 + margin)
        # the per-segment sums lie inside the widest step's interval, up to rounding
        widest_lo, widest_hi = widest_step_interval(ctx)
        assert widest_lo <= S_lo * (1.0 + 1e-12) and S_hi <= widest_hi * (1.0 + 1e-12)
        rng = np.random.default_rng(n)
        for u in sp.random_onion_samples(model.bounds, ctx.grid, (scale,), 4, rng):
            noisy = u.values * rng.uniform(0.0, 2.0, n)       # per-node noise
            pi = sp.kernel.rates_and_survival(ctx, noisy)[2]
            assert S_lo <= sp.integrate(ctx.grid, pi) <= S_hi

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(["stiff", "hierarchical", "norm"]),
        scheme=st.sampled_from(["uniform_trapezoid", "graded_trapezoid"]),
        n=st.sampled_from([201, 2001, 4001]),
        a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0), c=st.floats(0.0, 1.0),
    )
    def test_proved_points_bound_the_full_scan(self, family, scheme, n, a, b, c):
        model = _proof_model(family, a, b, c)
        ctx = sp.make_context(model, sp.build_grid(sp.default_x_max(model.bounds), n, scheme))
        cfg = sp.SolverConfig(scan_points=16)
        full = _full_scan(ctx, cfg)
        lo, hi = (R - 1.0 for R in sp.solver._proved_R_bounds(ctx, cfg, full.lambdas))
        r, good = full.residuals, ~np.isnan(full.residuals)
        assert np.all(lo[good] <= r[good]) and np.all(r[good] <= hi[good])
        assert np.all(r[good & (lo > cfg.root_tol)] > cfg.root_tol)
        assert np.all(r[good & (hi < -cfg.root_tol)] < -cfg.root_tol)
        _assert_same_scan(sp.scan_roots(ctx, cfg), full)

    def test_graded_stiff_context_proves_all_points_but_the_root_one(self, monkeypatch):
        # stiff-picard's graded stiff_3 (seed 1): the per-segment mass interval, [0.972,
        # 1.029], proves 63 of 64 points, where the widest step's, [0.511, 1.731], proved 59
        model = sp.hierarchical_model(g_low=0.0254357, g_high=1.0, mu0=1.0, b0=6.23534)
        ctx = _graded_ctx(model, 4001)
        cfg = sp.SolverConfig(scan_points=64)
        lams = sp.solver._scan_lambdas(ctx, cfg)

        def proved():
            lo, hi = (R - 1.0 for R in sp.solver._proved_R_bounds(ctx, cfg, lams))
            return np.count_nonzero((lo > cfg.root_tol) | (hi < -cfg.root_tol))

        assert proved() == 63
        monkeypatch.setattr(sp.solver, "_computed_mass_interval", widest_step_interval)
        assert proved() == 59

    def test_skipped_point_holds_its_proved_bound_nearest_one(self, monkeypatch):
        ctx = _stiff_reference_ctx()
        cfg = sp.SolverConfig(scan_points=64)
        lams = _count_inner_solves(monkeypatch)
        scan = sp.scan_roots(ctx, cfg)
        lo, hi = (R - 1.0 for R in sp.solver._proved_R_bounds(ctx, cfg, scan.lambdas))
        solved = np.isin(scan.lambdas, lams)
        # the bounds settle all but scan point 47; the bracket's other end, 46, is solved cold
        assert np.count_nonzero(solved) == 2 and len(scan.brackets) == 1
        assert scan.brackets == ((scan.lambdas[46], scan.lambdas[47]),)
        skipped = ~solved
        assert scan.proved == tuple(i for i in range(64) if i not in (46, 47))
        assert np.array_equal(scan.residuals[skipped],
                              np.where(lo > 0, lo, hi)[skipped])
        assert np.all((lo[skipped] > cfg.root_tol) | (hi[skipped] < -cfg.root_tol))

    @pytest.mark.parametrize("name", ["counterexample", "constant_degenerate"])
    def test_family_the_bounds_do_not_settle_evaluates_every_point(self, name, monkeypatch):
        # neither family gives beta_inf, and beta_max bounds R above 1
        ctx, cfg = _shipped_ctx(name)
        assert ctx.model.beta_inf is None
        lams = _count_inner_solves(monkeypatch)
        scan = sp.scan_roots(ctx, cfg)
        assert set(scan.lambdas.tolist()) <= set(lams)
        assert scan.proved == ()

    def test_bracket_ending_on_a_skipped_point_gives_the_full_scan(self, monkeypatch):
        # a proof of the wrong sign at skipped point 20, far from the root: both
        # brackets it makes end on skipped points, and its cold solve contradicts it
        ctx = _stiff_reference_ctx(2001)
        cfg = sp.SolverConfig(scan_points=64)
        lams = sp.solver._scan_lambdas(ctx, cfg)
        assert sp.lambda_residual(ctx, lams[20], cfg) > cfg.root_tol
        _proving(monkeypatch, [20], 0.5)
        solves = _count_inner_solves(monkeypatch)
        scan, results = sp.solve_all(ctx, cfg)
        monkeypatch.undo()
        assert solves[:5] == lams[[46, 47, 48, 19, 20]].tolist()
        assert len(results) == 1
        _assert_full_path(ctx, cfg, scan, results)

    def test_failed_point_next_to_a_skipped_one_solves_the_skipped_end(self, monkeypatch):
        # scan point 47, the one the bounds leave unproved, fails in both scans, so
        # the bracket runs from skipped point 46 to skipped point 48: both are
        # solved cold, and no other point rescanned
        ctx = _stiff_reference_ctx()
        cfg = sp.SolverConfig(scan_points=64)
        lams = sp.solver._scan_lambdas(ctx, cfg)
        solves = _count_inner_solves(monkeypatch, [lams[47]])
        sign = sp.scan_roots(ctx, cfg)
        assert solves == lams[[47, 46, 48]].tolist()
        full = _full_scan(ctx, cfg)
        assert sign.failed == full.failed == (47,)
        assert sign.brackets == ((lams[46], lams[48]),)
        _assert_same_scan(sign, full)

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["stiff", "hierarchical", "norm"]),
        scheme=st.sampled_from(["uniform_trapezoid", "graded_trapezoid"]),
        scan_points=st.sampled_from([16, 33]),
        k=st.integers(-7, 7),
        anywhere=st.sets(st.integers(0, 32), max_size=2),
        a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0), c=st.floats(0.0, 1.0),
    )
    def test_failing_points_keep_the_full_scans_ends(self, family, scheme, scan_points, k,
                                                     anywhere, a, b, c):
        # fail the k lowest (k < 0: the -k highest) scales that the skipping scan
        # solves, so that a bracket can end on a skipped point, and up to two others
        model = _proof_model(family, a, b, c)
        ctx = sp.make_context(model, sp.build_grid(sp.default_x_max(model.bounds), 201, scheme))
        cfg = sp.SolverConfig(scan_points=scan_points)
        lams = sp.solver._scan_lambdas(ctx, cfg)
        with pytest.MonkeyPatch.context() as mp:
            solved = _count_inner_solves(mp)
            sp.scan_roots(ctx, cfg)
        solved = sorted(set(solved))
        forced = (solved[:k] if k >= 0 else solved[k:]) + [
            lams[i] for i in anywhere if i < scan_points]
        with pytest.MonkeyPatch.context() as mp:
            _count_inner_solves(mp, forced)
            sign = sp.scan_roots(ctx, cfg)
            full = _full_scan(ctx, cfg)
        _assert_same_scan(sign, full)
        assert set(sign.failed) <= set(full.failed)

    def test_failed_skipped_end_next_to_a_failed_point_gives_the_unskipped_results(
            self, monkeypatch):
        # 20 steps solve no scale near the root to picard_tol: point 47 fails, and so
        # does the cold solve of the skipped bracket end 46, so the full scan stands
        # in; it brackets a wide interval that does not refine
        ctx = _stiff_reference_ctx()
        cfg = sp.SolverConfig(scan_points=64, picard_max_iter=20)
        lams = _count_inner_solves(monkeypatch)
        scan, results = sp.solve_all(ctx, cfg)
        assert lams[:3] == sp.solver._scan_lambdas(ctx, cfg)[[47, 46, 0]].tolist()
        _unskipped(monkeypatch)
        unskipped, unskipped_results = sp.solve_all(ctx, cfg)
        assert np.array_equal(scan.residuals, unskipped.residuals, equal_nan=True)
        assert scan.failed == unskipped.failed
        _assert_same_scan(scan, unskipped)
        assert len(scan.brackets) == 1
        assert results == unskipped_results
        assert isinstance(results[0], sp.BracketFailure)


class TestMapA:
    def test_settles_near_stable_equilibrium(self, ce_ctx, ce_solutions):
        _, results = ce_solutions
        lam0 = results[1].lambda_star
        cfg = sp.SolverConfig(picard_tol=1e-8, lambda_min=0.01, lambda_max=10.0)
        out = sp.iterate_map_A(ce_ctx, results[1].v_star, lam0, cfg)
        assert isinstance(out, sp.EquilibriumResult)
        assert out.lambda_star == pytest.approx(1.0, abs=1e-6)

    def test_flagged_trace_when_not_settling(self, ce_ctx):
        # starting between the equilibria the raw joint update oscillates
        cfg = sp.SolverConfig(picard_tol=1e-12, picard_max_iter=30)
        v0 = sp.DensityProfile(ce_ctx.grid, np.exp(-ce_ctx.grid.nodes))
        out = sp.iterate_map_A(ce_ctx, v0, 0.5, cfg)
        assert isinstance(out, sp.MapATrace)
        assert not out.converged
        assert len(out.lambdas) == 31

    def test_trace_when_scale_settles_at_zero(self, const_ctx_factory):
        # subcritical (R = 1/2): the clamped scale drops to 0 and stays there
        ctx = const_ctx_factory(mu0=1.0, g0=1.0, beta0=0.5, n=401)
        out = sp.iterate_map_A(ctx, ctx.e1, 0.3, sp.SolverConfig())
        assert isinstance(out, sp.MapATrace)
        assert not out.converged
        assert out.lambdas == (0.3, 0.0, 0.0)

    def test_negative_start_rejected(self, ce_ctx):
        with pytest.raises(ParameterError):
            sp.iterate_map_A(ce_ctx, ce_ctx.e1, -0.1, sp.SolverConfig())


def _graded_ctx(model, n=2001):
    return sp.make_context(model, sp.build_grid(sp.default_x_max(model.bounds), n,
                                                "graded_trapezoid"))


def _subcritical_composite_ctx():
    # beta decays with population: R = 0.5 / (1 + s) < 1 and decreasing
    return _graded_ctx(sp.composite_model(
        g=sp.CompositeRate(const=1.0),
        mu=sp.CompositeRate(const=1.0),
        beta=sp.CompositeRate(const=0.0, u_inv=0.5),
    ))


def _increasing_mu_ctx():
    # configs/composite_increasing_mu.cfg
    return _graded_ctx(sp.composite_model(
        g=sp.CompositeRate(const=1.0),
        mu=sp.CompositeRate(const=1.0, u_sat=0.5),
        beta=sp.CompositeRate(const=0.5),
    ))


def _tail_fertility_ctx():
    # beta reads a tail integral, so beta_sup is beta_max and no size is passed
    return _graded_ctx(sp.composite_model(
        g=sp.CompositeRate(const=0.5, x_amp=0.5, u_inv=0.2, functional="tail", tail_from=1.0),
        mu=sp.CompositeRate(const=1.0, u_sat=0.5),
        beta=sp.CompositeRate(const=0.5, u_inv=2.0, functional="tail", tail_from=0.5),
    ))


def _stiff_hierarchical_ctx():
    m = sp.hierarchical_model(g_low=0.02, g_high=1.0, mu0=1.0, b0=10.0)
    return sp.make_context(m, sp.build_grid(sp.default_x_max(m.bounds), 4001))


def _count_R_evals(monkeypatch):
    calls = []
    net_R = sp.solver.net_reproduction_R

    def counted(ctx, u):
        calls.append(1)
        return net_R(ctx, u)

    monkeypatch.setattr(sp.solver, "net_reproduction_R", counted)
    return calls


def _rho0_reference(ctx, cfg):
    """find_rho0's rule applied to all 800 samples: sort (size, R), then a suffix OR."""
    shapes = sp.solver._sample_shapes(ctx, np.random.default_rng(cfg.seed))
    entries = []
    for w in shapes:
        for lam in np.geomspace(1e-3, 1e4, 100):
            u = sp.DensityProfile(ctx.grid, lam * w.values)
            entries.append((sp.integrate(ctx.grid, u), sp.net_reproduction_R(ctx, u)))
    entries.sort()
    norms = np.array([e[0] for e in entries])
    above = np.array([e[1] for e in entries]) > 1.0
    suffix_bad = np.flip(np.logical_or.accumulate(np.flip(above)))
    ok = np.flatnonzero(~suffix_bad)
    return float(norms[ok[0]]) if ok.size else None


RISING_NOTE = "R0 < 1 does not preclude equilibria; run a root scan"


class TestCertificates:
    def test_hierarchical_existence(self, hier_ctx):
        cert = sp.certify(hier_ctx, sp.SolverConfig())
        assert cert.kind == "existence"
        assert cert.R0 == pytest.approx(2.0, abs=1e-5)
        assert cert.rho0_estimate is not None
        assert cert.rho0_estimate > 0
        assert cert.M > 0
        assert cert.evidence["lbeta_pass"]

    def test_subcritical_nonexistence(self):
        ctx = _subcritical_composite_ctx()
        cert = sp.certify(ctx, sp.SolverConfig())
        assert cert.kind == "nonexistence"
        assert cert.R0 < 1.0
        assert cert.evidence["R_decreasing_along_rays"]

    def test_counterexample_is_inconclusive_with_note(self, ce_ctx):
        cert = sp.certify(ce_ctx, sp.SolverConfig())
        assert cert.kind == "inconclusive"
        assert cert.R0 == pytest.approx(0.5, abs=1e-5)
        assert RISING_NOTE in cert.evidence["notes"]

    @pytest.mark.parametrize("model", [
        pytest.param((sp.counterexample_model, 1e-13), id="counterexample-g-1e-13"),
        pytest.param((sp.counterexample_model, 1e-150), id="counterexample-g-1e-150"),
        pytest.param((sp.constant_model, 1.0, 1e-13, 0.0), id="constant-g0-1e-13-beta0-0"),
    ])
    def test_g_low_within_the_check_tolerance_certifies_without_a_warning(self, model):
        # the mass bound is inf and beta_sup reaches 0: find_rho0 meets 0 * inf
        builder, *params = model
        m = builder(*params)
        ctx = sp.make_context(m, sp.build_grid(sp.default_x_max(m.bounds), 201))
        assert sp.solver._computed_mass_interval(ctx) == (0.0, math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = sp.certify(ctx, sp.SolverConfig())
        assert cert.kind == "inconclusive"

    def test_no_note_when_R_never_rises_above_R0(self, const_ctx_factory):
        # configs/constant_subcritical.cfg: R = 1/2 at every population
        ctx = const_ctx_factory(1.0, 1.0, 0.5, n=2001, scheme="uniform_trapezoid")
        cert = sp.certify(ctx, sp.SolverConfig(scan_points=32))
        assert cert.R0 < 1.0
        assert RISING_NOTE not in cert.evidence["notes"]

    def test_note_on_a_composite_whose_fertility_rises_with_P(self):
        # beta = 0.2 + 2 P/(1+P): R0 = 0.2, yet R = 1 at P = 2/3
        ctx = _graded_ctx(sp.composite_model(
            g=sp.CompositeRate(const=1.0),
            mu=sp.CompositeRate(const=1.0),
            beta=sp.CompositeRate(const=0.2, u_sat=2.0),
        ))
        cert = sp.certify(ctx, sp.SolverConfig())
        assert cert.R0 == pytest.approx(0.2, abs=1e-5)
        assert RISING_NOTE in cert.evidence["notes"]
        _, results = sp.solve_all(ctx, sp.SolverConfig(scan_points=32))
        assert [r.P_star for r in results] == [pytest.approx(2.0 / 3.0, abs=1e-5)]

    def test_degenerate_family_noted(self, const_ctx_factory):
        ctx = const_ctx_factory(1.0, 1.0, 1.0)
        cert = sp.certify(ctx, sp.SolverConfig())
        assert any("degenerate" in n for n in cert.evidence["notes"])

    def test_compute_M_formula(self, ce_ctx):
        b = ce_ctx.model.bounds
        rho = 2.0
        expect = rho / ce_ctx.norm_e1 + b.beta_max * ce_ctx.norm_e2 - 1.0
        assert sp.compute_M(ce_ctx, rho) == pytest.approx(expect, rel=1e-15)
        with pytest.raises(ParameterError):
            sp.compute_M(ce_ctx, 0.0)

    def test_find_rho0_counterexample_threshold(self, ce_ctx):
        # f(a) <= 1 for all a >= 1, so the sampled threshold cannot exceed ~1
        rho0 = sp.find_rho0(ce_ctx, sp.SolverConfig())
        assert rho0 is not None
        assert 0 < rho0 < 1.3
        for s in (1.1, 2.0, 5.0):
            assert sp.counterexample_f(max(s, rho0)) <= 1.0

    def test_find_rho0_none_for_supercritical_constant(self, const_ctx_factory):
        ctx = const_ctx_factory(1.0, 1.0, 2.0)  # R = 2 at every population
        assert sp.find_rho0(ctx, sp.SolverConfig()) is None

    @pytest.mark.parametrize("case", [
        "hier_ctx", "ce_ctx", "composite_subcritical", "constant_subcritical",
        "constant_supercritical", "hierarchical_stiff", "constant_degenerate",
        "composite_tail_fertility",
    ])
    def test_find_rho0_matches_full_sample_rule(self, request, const_ctx_factory, case):
        # in a constant model the 8 shapes coincide, so every size is an 8-way tie
        ctx = {
            "composite_subcritical": _subcritical_composite_ctx,
            "constant_subcritical": lambda: const_ctx_factory(1.0, 1.0, 0.5),
            "constant_supercritical": lambda: const_ctx_factory(1.0, 1.0, 2.0),
            "hierarchical_stiff": _stiff_hierarchical_ctx,
            # R is 1 up to the quadrature error, which is above 1 on this grid
            "constant_degenerate": lambda: const_ctx_factory(1.0, 1.0, 1.0),
            "composite_tail_fertility": _tail_fertility_ctx,
        }.get(case, lambda: request.getfixturevalue(case))()
        cfg = sp.SolverConfig()
        expect = _rho0_reference(ctx, cfg)
        assert (expect is None) == (case in ("constant_supercritical", "constant_degenerate"))
        assert sp.find_rho0(ctx, cfg) == expect

    @pytest.mark.parametrize("case", ["hier_ctx", "ce_ctx"])
    def test_find_rho0_computes_sizes_only_as_far_as_its_walk(self, request, monkeypatch,
                                                              case):
        ctx = request.getfixturevalue(case)
        cfg = sp.SolverConfig()
        expect = _rho0_reference(ctx, cfg)
        sizes = []

        def counted(grid, f):
            sizes.append(1)
            return sp.integrate(grid, f)

        monkeypatch.setattr(sp.solver, "integrate", counted)
        assert sp.find_rho0(ctx, cfg) == expect
        # 8 shapes at 100 scales each
        assert 0 < len(sizes) < 800

    @pytest.mark.parametrize("case,evals", [("hier_ctx", 2), ("hierarchical_stiff", 11)])
    def test_find_rho0_stops_at_first_size_above_one(self, request, monkeypatch, case, evals):
        ctx = (_stiff_hierarchical_ctx() if case == "hierarchical_stiff"
               else request.getfixturevalue(case))
        calls = _count_R_evals(monkeypatch)
        assert sp.find_rho0(ctx, sp.SolverConfig()) is not None
        # on hier_ctx, evaluating every sample first takes all 800 and the stop
        # alone 463; the bound beta_sup(P) * S_hi <= 1 passes every larger size
        # unevaluated, so the walk evaluates only the sizes nearest rho0
        assert len(calls) <= evals

    @pytest.mark.parametrize("case", ["constant_subcritical", "composite_increasing_mu"])
    def test_find_rho0_evaluates_nothing_the_bound_settles(
        self, const_ctx_factory, monkeypatch, case
    ):
        # beta_sup(P) * S_hi <= 1 at every size
        ctx = {
            "constant_subcritical": lambda: const_ctx_factory(1.0, 1.0, 0.5),
            "composite_increasing_mu": _increasing_mu_ctx,
        }[case]()
        calls = _count_R_evals(monkeypatch)
        assert sp.find_rho0(ctx, sp.SolverConfig()) is not None
        assert calls == []

    @pytest.mark.parametrize("rate", ["g", "mu", "beta"])
    def test_certify_keeps_the_bounds_check(self, rate):
        # deliberately misdeclared bounds, as in test_model's bounds-violation test
        ctx = sp.make_context(misdeclared_constant(rate), sp.build_grid(10.0, 101))
        with pytest.raises(BoundsViolationError, match="^%s evaluated" % rate):
            sp.certify(ctx, sp.SolverConfig())

    def test_certify_keeps_the_frozen_bounds_check(self):
        # mu0 = 2 lies outside the declared mu bounds [1, 1]: the context builds,
        # and the first rate evaluation raises
        ctx = sp.make_context(misdeclared_hierarchical(), sp.build_grid(10.0, 101))
        with pytest.raises(BoundsViolationError, match="^mu evaluated"):
            sp.certify(ctx, sp.SolverConfig())


def _ratios_reference(model, grid, u_values, stride: int):
    raw = sp.model.freeze_rates(model, grid).rates(u_values)
    g, mu, beta = (np.broadcast_to(a, (grid.n,))[::stride] for a in raw)
    return mu / g, beta / mu


def _monotonicity_reference(ctx, cfg) -> dict:
    """The per-pair loop that evaluated each pair member on its own (56 rate evaluations)."""
    grid = ctx.grid
    stride = max(1, grid.n // 40)
    rng = np.random.default_rng(cfg.seed + 1)
    shapes = sp.solver._sample_shapes(ctx, rng, n_random=3)
    pairs = []
    for w in shapes:
        for lo, hi_f in ((0.1, 0.5), (0.5, 2.0), (2.0, 10.0)):
            pairs.append((lo * w.values, hi_f * w.values))
    for _ in range(10):
        w = shapes[int(rng.integers(len(shapes)))]
        u2 = (1.0 + 2.0 * rng.random()) * w.values
        pairs.append((u2 * rng.random(grid.n), u2))

    tol = 1e-12
    strict = 1e-12
    mg_nondec = mg_strict = bm_dec = bm_noninc = True
    bm_x_nondec = bm_x_strict = True
    model = ctx.model
    for u1, u2 in pairs:
        (mg1, bm1), (mg2, bm2) = (_ratios_reference(model, grid, u, stride) for u in (u1, u2))
        mg_nondec &= bool(np.all(mg2 >= mg1 - tol))
        mg_strict &= bool(np.all(mg2 > mg1 + strict))
        bm_dec &= bool(np.all(bm2 < bm1 - strict))
        bm_noninc &= bool(np.all(bm2 <= bm1 + tol))
        for bm in (bm1, bm2):
            d = np.diff(bm)
            bm_x_nondec &= bool(np.all(d >= -tol))
            bm_x_strict &= bool(np.all(d > strict))

    alt_strict_bm = bm_dec and mg_nondec and bm_x_nondec
    alt_strict_others = bm_noninc and mg_strict and bm_x_strict

    r_decreasing = True
    for w in shapes[:4]:
        vals = sp.solver._ray_R(ctx, w, (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0))
        r_decreasing &= all(b < a - 1e-14 for a, b in zip(vals, vals[1:]))

    return {
        "assumption_M_pass": alt_strict_bm or alt_strict_others,
        "assumption_M_strict_beta_mu": alt_strict_bm,
        "assumption_M_strict_others": alt_strict_others,
        "R_decreasing_along_rays": r_decreasing,
        "pairs_sampled": len(pairs),
    }


def _evidence_model(family, a, b):
    """A model of ``family`` whose rates move with the population as ``a`` and ``b`` say."""
    if family == "constant":
        return sp.constant_model(mu0=1.0 + a, g0=1.0 + b, beta0=a * b)
    if family == "counterexample":
        return sp.counterexample_model(0.5 + a)
    if family == "hierarchical":
        return sp.hierarchical_model(g_low=0.05 + 0.2 * a, g_high=1.0, mu0=0.5 + b, b0=1.0 + a)
    functional = family.split("_")[1]
    rate = dict(functional=functional, tail_from=1.0, weight_decay=0.5 + b)
    return sp.composite_model(
        g=sp.CompositeRate(const=0.5, x_amp=0.5 * a, u_inv=0.2 * b, **rate),
        mu=sp.CompositeRate(const=1.0, x_amp=max(b - 1.0, 0.0), u_sat=a, **rate),
        beta=sp.CompositeRate(const=0.1, x_amp=b, u_sat=max(a - 1.0, 0.0) * b, u_inv=2.0 * a,
                              **rate),
    )


class TestMonotonicityEvidence:
    """One rate evaluation per distinct sampled profile, with the per-pair loop's evidence."""

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["constant", "counterexample", "hierarchical", "composite_norm",
                                "composite_tail", "composite_weighted"]),
        scheme=st.sampled_from(["uniform_trapezoid", "graded_trapezoid"]),
        n=st.sampled_from([61, 201, 801]),
        seed=st.integers(0, 2**16),
        a=st.floats(0.0, 2.0),
        b=st.floats(0.0, 2.0),
    )
    def test_matches_per_pair_reference(self, family, scheme, n, seed, a, b):
        model = _evidence_model(family, a, b)
        ctx = sp.make_context(model, sp.build_grid(sp.default_x_max(model.bounds), n, scheme))
        cfg = sp.SolverConfig(seed=seed)
        assert sp.solver._monotonicity_evidence(ctx, cfg) == _monotonicity_reference(ctx, cfg)

    def test_one_rate_evaluation_per_sampled_profile(self, hier_ctx, monkeypatch):
        # every rate evaluation, the reference's included, runs the binder's closure; R along
        # the rays evaluates the rates too, through the bounds check, so it is taken out here
        monkeypatch.setattr(sp.solver, "_ray_R", lambda ctx, w, lams: [0.0] * len(lams))
        evaluated = []
        bind = hier_ctx.model.bind

        def recording_bind(params, grid):
            fixed, rates = bind(params, grid)

            def recorded(u_values):
                evaluated.append(u_values.tobytes())
                return rates(u_values)

            return fixed, recorded

        ctx = sp.make_context(replace(hier_ctx.model, bind=recording_bind), hier_ctx.grid)
        cfg = sp.SolverConfig()
        assert sp.solver._monotonicity_evidence(ctx, cfg)["pairs_sampled"] == 28
        rows = list(evaluated)
        evaluated.clear()
        _monotonicity_reference(ctx, cfg)
        # 6 shapes at 4 scales plus 10 random pairs: the 56 pair members hold 44 profiles
        assert len(evaluated) == 56
        assert len(rows) == len(set(rows)) == 44
        assert set(rows) == set(evaluated)
