import numpy as np
import pytest

import steadypop as sp
from steadypop.errors import GridMismatchError, ParameterError

from conftest import exp_profile


class TestSurvivalPi:
    def test_unit_constant_rates_give_exponential(self, const_ctx_factory):
        ctx = const_ctx_factory(mu0=1.0, g0=1.0, beta0=0.5)
        pi = sp.survival_pi(ctx, exp_profile(ctx.grid))
        assert np.allclose(pi.values, np.exp(-ctx.grid.nodes), rtol=1e-10)

    def test_collapsed_envelopes(self, const_ctx_factory):
        # equal upper/lower rate bounds squeeze the survival shape onto both envelopes
        ctx = const_ctx_factory(mu0=2.0, g0=0.5, beta0=1.0)
        pi = sp.survival_pi(ctx, sp.zero_profile(ctx.grid))
        assert np.allclose(pi.values, ctx.e1.values, rtol=1e-10)
        assert np.allclose(pi.values, ctx.e2.values, rtol=1e-10)

    def test_hierarchical_empty_population_closed_form(self, hier_ctx):
        pi = sp.survival_pi(hier_ctx, sp.zero_profile(hier_ctx.grid))
        expected = np.exp(-hier_ctx.grid.nodes)  # (1/g_high) e^{-mu0 x / g_high}, g_high=mu0=1
        assert np.allclose(pi.values, expected, rtol=1e-10)

    def test_counterexample_independent_of_population(self, ce_ctx):
        pi0 = sp.survival_pi(ce_ctx, sp.zero_profile(ce_ctx.grid))
        pi1 = sp.survival_pi(ce_ctx, exp_profile(ce_ctx.grid, scale=3.0))
        assert np.array_equal(pi0.values, pi1.values)
        assert np.allclose(pi0.values, np.exp(-ce_ctx.grid.nodes), rtol=1e-12)

    def test_envelope_property_random_models(self):
        rng = np.random.default_rng(2024)
        grid = sp.build_grid(25.0, 801)
        for _ in range(25):
            mu0 = rng.uniform(0.5, 2.0)
            g0 = rng.uniform(0.5, 2.0)
            models = [
                sp.constant_model(mu0, g0, 1.0),
                sp.counterexample_model(g0),
                sp.hierarchical_model(g0 / 2, g0, mu0, 1.0),
            ]
            for m in models:
                ctx = sp.make_context(m, grid)
                for s in sp.random_onion_samples(m.bounds, grid, [0.1, 1.0, 10.0], 1, rng):
                    pi = sp.survival_pi(ctx, s)
                    assert np.all(pi.values >= ctx.e1.values * (1 - 1e-12))
                    assert np.all(pi.values <= ctx.e2.values * (1 + 1e-12))


class TestBirthAndReproduction:
    def test_birth_of_zero_population(self, ce_ctx):
        assert sp.birth_G(ce_ctx, sp.zero_profile(ce_ctx.grid)) == 0.0

    def test_counterexample_birth_closed_forms(self, ce_ctx):
        # integral of 2(1-e^{-x}) e^{-x} over the half line is 1
        assert sp.birth_G(ce_ctx, exp_profile(ce_ctx.grid)) == pytest.approx(1.0, abs=5e-6)
        u6 = exp_profile(ce_ctx.grid, scale=1.0 / 6.0)
        assert sp.birth_G(ce_ctx, u6) == pytest.approx(1.0 / 6.0, abs=5e-6)

    def test_birth_bounded_by_beta_max(self, ce_ctx):
        u = exp_profile(ce_ctx.grid, scale=0.3)
        bound = ce_ctx.model.bounds.beta_max * sp.integrate(u.grid, u)
        assert 0.0 <= sp.birth_G(ce_ctx, u) <= bound

    def test_constant_model_reproduction_ratio(self, const_ctx_factory):
        for mu0, g0, beta0 in [(1.0, 1.0, 0.5), (2.0, 0.7, 3.0), (0.6, 1.5, 0.6)]:
            ctx = const_ctx_factory(mu0, g0, beta0)
            rng = np.random.default_rng(1)
            for s in sp.random_onion_samples(ctx.model.bounds, ctx.grid, [0.5, 5.0], 2, rng):
                R = sp.net_reproduction_R(ctx, s)
                assert R == pytest.approx(beta0 / mu0, abs=1e-6)

    def test_counterexample_reproduction_is_f_of_norm(self, ce_ctx):
        for scale in (0.1, 0.5, 1.0, 2.0):
            u = exp_profile(ce_ctx.grid, scale=scale)
            expected = sp.counterexample_f(sp.integrate(u.grid, u))
            assert sp.net_reproduction_R(ce_ctx, u) == pytest.approx(expected, abs=1e-5)

    def test_hierarchical_supercriticality_at_zero(self, hier_ctx):
        # at zero population this reduces to b0 / mu0 = 2
        R0 = sp.net_reproduction_R(hier_ctx, sp.zero_profile(hier_ctx.grid))
        assert R0 == pytest.approx(2.0, abs=1e-5)

    def test_reproduction_upper_bound(self, ce_ctx):
        cap = ce_ctx.model.bounds.beta_max * ce_ctx.norm_e2
        rng = np.random.default_rng(4)
        for s in sp.random_onion_samples(ce_ctx.model.bounds, ce_ctx.grid, [0.1, 1.0, 10.0], 2, rng):
            R = sp.net_reproduction_R(ce_ctx, s)
            assert 0.0 <= R <= cap

    def test_vanishing_reproduction_at_large_population(self, ce_ctx, hier_ctx):
        for ctx in (ce_ctx, hier_ctx):
            values = [
                sp.net_reproduction_R(
                    ctx, sp.DensityProfile(ctx.grid, lam * ctx.e2.values)
                )
                for lam in (1.0, 10.0, 1e2, 1e3, 1e4)
            ]
            # nonincreasing only: the counterexample modulation underflows to 0
            assert all(b <= a for a, b in zip(values, values[1:]))
            assert values[1] < values[0]
            assert values[-1] < 1e-3


class TestFixedPointMap:
    def test_zero_is_fixed(self, ce_ctx):
        tu = sp.apply_T(ce_ctx, sp.zero_profile(ce_ctx.grid))
        assert np.all(tu.values == 0.0)
        assert sp.residual(ce_ctx, sp.zero_profile(ce_ctx.grid)) == 0.0

    @pytest.mark.parametrize("scale", [1.0, 1.0 / 6.0])
    def test_known_equilibria_are_fixed(self, ce_ctx, scale):
        u = exp_profile(ce_ctx.grid, scale=scale)
        assert sp.residual(ce_ctx, u) < 1e-5

    def test_map_is_birth_times_survival(self, ce_ctx):
        u = exp_profile(ce_ctx.grid, scale=0.7)
        tu = sp.apply_T(ce_ctx, u)
        expected = sp.birth_G(ce_ctx, u) * sp.survival_pi(ce_ctx, u).values
        assert np.array_equal(tu.values, expected)

    def test_off_equilibrium_residual_is_positive(self, const_ctx_factory):
        ctx = const_ctx_factory(mu0=1.0, g0=1.0, beta0=2.0)  # R = 2 everywhere
        assert sp.residual(ctx, ctx.e2) > 0.1


class TestCompactnessDiagnostics:
    def _samples(self, ctx, count=3, seed=0):
        rng = np.random.default_rng(seed)
        return sp.random_onion_samples(
            ctx.model.bounds, ctx.grid, [0.5, 2.0, 8.0], 1, rng
        )[:count]

    def test_zero_shift_zero_modulus(self, const_ctx_factory):
        ctx = const_ctx_factory(mu0=1.0, g0=1.0, beta0=0.5, scheme="uniform_trapezoid")
        rep = sp.compactness_diagnostics(ctx, self._samples(ctx), [0.0], T=5.0)
        assert all(r.measured == 0.0 for r in rep.translation_rows)

    def test_constant_model_bound_without_growth_term(self, const_ctx_factory):
        ctx = const_ctx_factory(mu0=1.0, g0=1.0, beta0=0.5, scheme="uniform_trapezoid")
        b = ctx.model.bounds
        rep = sp.compactness_diagnostics(ctx, self._samples(ctx), [0.05, 0.2], T=6.0)
        for row in rep.translation_rows:
            assert row.measured <= (rep.T * b.mu_high / b.g_low**2) * row.h
            assert row.ok
        assert rep.all_ok

    def test_hierarchical_modulus_decreases_with_shift(self):
        m = sp.hierarchical_model(g_low=0.5, g_high=1.0, mu0=1.0, b0=2.0)
        grid = sp.build_grid(24.0, 4001)
        ctx = sp.make_context(m, grid)
        rep = sp.compactness_diagnostics(
            ctx, self._samples(ctx, count=2), [0.1, 0.01, 0.001], T=8.0
        )
        assert rep.all_ok
        for idx in {r.sample_index for r in rep.translation_rows}:
            mods = [r.measured for r in rep.translation_rows if r.sample_index == idx]
            assert mods[0] > mods[1] > mods[2]

    def test_bad_window_rejected(self, ce_ctx):
        with pytest.raises(ParameterError):
            sp.compactness_diagnostics(ce_ctx, self._samples(ce_ctx), [0.1], T=100.0)
        with pytest.raises(ParameterError, match="at least one onion sample"):
            sp.compactness_diagnostics(ce_ctx, [], [0.1], T=5.0)
        # x_max = 40: a shift of 50 leaves the grid
        with pytest.raises(ParameterError, match="shifts"):
            sp.compactness_diagnostics(ce_ctx, self._samples(ce_ctx), [50.0], T=5.0)


class TestGridCheck:
    """A profile from another grid is refused on entry, never interpolated or broadcast."""

    @pytest.mark.parametrize("n,scheme", [(2001, "graded_trapezoid"), (4001, "uniform_trapezoid")],
                             ids=["other_size", "other_nodes"])
    @pytest.mark.parametrize("call", [
        sp.survival_pi,
        sp.birth_G,
        sp.net_reproduction_R,
        sp.apply_T,
        sp.residual,
        lambda ctx, u: sp.compactness_diagnostics(ctx, [u], [], T=5.0),
    ], ids=["survival_pi", "birth_G", "net_reproduction_R", "apply_T", "residual",
            "compactness_diagnostics"])
    def test_profile_from_another_grid_rejected(self, hier_ctx, call, n, scheme):
        u = exp_profile(sp.build_grid(hier_ctx.grid.x_max, n, scheme))
        with pytest.raises(GridMismatchError):
            call(hier_ctx, u)


class TestDensitySign:
    """A plain array is checked as a DensityProfile would be, sign included, at every entry."""

    ENTRIES = {
        "survival_pi": sp.survival_pi,
        "birth_G": sp.birth_G,
        "net_reproduction_R": sp.net_reproduction_R,
        "apply_T": sp.apply_T,
        "residual": sp.residual,
        "compactness_diagnostics": lambda ctx, u: sp.compactness_diagnostics(ctx, [u], [], T=5.0),
        "validate_hypotheses": lambda ctx, u: sp.validate_hypotheses(ctx.model, ctx.grid, [u]),
        "inner_picard": lambda ctx, u: sp.inner_picard(ctx, 1.0, sp.SolverConfig(), start=u),
        "iterate_map_A": lambda ctx, u: sp.iterate_map_A(ctx, u, 1.0, sp.SolverConfig()),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_negative_array_rejected(self, const_ctx_factory, entry):
        # constant rates ignore u, so only the sign check stands between a
        # negative density and a result (birth_G used to return -10)
        ctx = const_ctx_factory(mu0=1.0, g0=1.0, beta0=0.5, n=401)
        u = -np.exp(-ctx.grid.nodes)
        with pytest.raises(ParameterError, match="nonnegative"):
            self.ENTRIES[entry](ctx, u)

    @pytest.mark.parametrize("entry", ["survival_pi", "birth_G", "net_reproduction_R",
                                       "apply_T", "residual"])
    def test_array_gives_the_profile_result_and_stays_writable(self, hier_ctx, entry):
        u = np.exp(-hier_ctx.grid.nodes)
        got = self.ENTRIES[entry](hier_ctx, u)
        want = self.ENTRIES[entry](hier_ctx, sp.DensityProfile(hier_ctx.grid, u.copy()))
        if isinstance(got, sp.DensityProfile):
            got, want = got.values, want.values
        assert np.array_equal(got, want)
        u[0] = 2.0
