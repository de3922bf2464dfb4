from dataclasses import replace

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steadypop as sp
from steadypop.errors import (
    BoundsViolationError,
    ConvergenceError,
    GridMismatchError,
    ParameterError,
)
from steadypop.model import ModelSpec, RateBounds

from conftest import exp_profile

CE_CFG = sp.SolverConfig(lambda_min=0.01, lambda_max=10.0, scan_points=200)


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
        scan = sp.scan_roots(hier_ctx, cfg)
        for lam, r in zip(scan.lambdas, scan.residuals):
            assert r == sp.lambda_residual(hier_ctx, float(lam), cfg)
        assert len(scan.ends) == len(scan.brackets) == 1
        (r_lo, _), (r_hi, _) = scan.ends[0]
        assert r_lo * r_hi < 0

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

    def test_bisect_without_ends_agrees(self, ce_ctx, ce_solutions):
        scan, results = ce_solutions
        for bracket, r in zip(scan.brackets, results):
            alone = sp.bisect_root(ce_ctx, bracket, CE_CFG)
            assert alone.lambda_star == pytest.approx(r.lambda_star, abs=CE_CFG.root_tol)

    @pytest.mark.parametrize("zero_end", [0, 1])
    def test_zero_residual_end_is_the_root(self, ce_ctx, monkeypatch, zero_end):
        bracket = (0.1, 0.3)
        shapes = [sp.inner_picard(ce_ctx, lam, CE_CFG).v for lam in bracket]
        ends = [(-0.5, shapes[0]), (0.5, shapes[1])]
        ends[zero_end] = (0.0, shapes[zero_end])
        calls = []
        inner = sp.solver.inner_picard

        def counted(*args, **kwargs):
            calls.append(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(sp.solver, "inner_picard", counted)
        result = sp.bisect_root(ce_ctx, bracket, CE_CFG, ends)
        # no ITP step: one solve at the zero end to assemble the result
        assert calls == [bracket[zero_end]]
        assert result.lambda_star == bracket[zero_end]

    def test_bracket_of_adjacent_floats_stops(self, ce_ctx):
        lo = 1.0 / 6.0
        hi = float(np.nextafter(lo, 1.0))
        cfg = replace(CE_CFG, root_tol=1e-20)
        v = sp.inner_picard(ce_ctx, lo, cfg).v
        # the midpoint rounds to an end, so ITP stops before its first step
        result = sp.bisect_root(ce_ctx, (lo, hi), cfg, ((-1e-3, v), (1e-3, v)))
        assert result.lambda_star in (lo, hi)

    def test_bisect_rejects_bad_bracket(self, ce_ctx):
        with pytest.raises(ParameterError):
            sp.bisect_root(ce_ctx, (0.3, 0.5), CE_CFG)  # same residual sign

    def test_solution_independent_of_scan_resolution(self, ce_ctx, ce_solutions):
        _, coarse = ce_solutions
        cfg = sp.SolverConfig(lambda_min=0.01, lambda_max=10.0, scan_points=500)
        _, fine = sp.solve_all(ce_ctx, cfg)
        assert len(fine) == len(coarse) == 2
        for a, b in zip(coarse, fine):
            assert a.lambda_star == pytest.approx(b.lambda_star, abs=1e-8)


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
        assert any("root scan" in n for n in cert.evidence["notes"])

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

    def test_find_rho0_stops_at_first_size_above_one(self, hier_ctx, monkeypatch):
        calls = _count_R_evals(monkeypatch)
        assert sp.find_rho0(hier_ctx, sp.SolverConfig()) is not None
        # evaluating every sample first takes all 800, the stop alone 463; the
        # bound beta_sup(P) * I <= 1 passes every size P >= 3 unevaluated
        assert len(calls) <= 60

    @pytest.mark.parametrize("case", ["constant_subcritical", "composite_increasing_mu"])
    def test_find_rho0_evaluates_nothing_the_bound_settles(
        self, const_ctx_factory, monkeypatch, case
    ):
        # beta_sup(P) * I <= 1 at every size
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
        params = {"g0": 1.0, "mu0": 1.0, "beta0": 1.0, rate + "0": 2.0}
        bad = ModelSpec(
            "constant",
            RateBounds(g_low=1.0, g_high=1.0, mu_low=1.0, mu_high=1.0, beta_max=1.0),
            params,
        )
        ctx = sp.make_context(bad, sp.build_grid(10.0, 101))
        with pytest.raises(BoundsViolationError, match="^%s evaluated" % rate):
            sp.certify(ctx, sp.SolverConfig())


def _ratios_reference(model, grid, u_values, stride: int):
    g, mu, beta = (a[::stride] for a in sp.solver.raw_rates(model, grid, u_values))
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
        evaluated = []
        raw_rates = sp.solver.raw_rates

        def recorded(model, grid, u_values):
            evaluated.append(u_values.tobytes())
            return raw_rates(model, grid, u_values)

        monkeypatch.setattr(sp.solver, "raw_rates", recorded)
        cfg = sp.SolverConfig()
        assert sp.solver._monotonicity_evidence(hier_ctx, cfg)["pairs_sampled"] == 28
        rows = list(evaluated)
        evaluated.clear()
        _monotonicity_reference(hier_ctx, cfg)
        # 6 shapes at 4 scales plus 10 random pairs: the 56 pair members hold 44 profiles
        assert len(evaluated) == 56
        assert len(rows) == len(set(rows)) == 44
        assert set(rows) == set(evaluated)
