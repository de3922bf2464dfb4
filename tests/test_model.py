import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steadypop as sp
from steadypop.errors import BoundsViolationError, GridMismatchError, ParameterError
from conftest import (
    envelope_quadrature,
    exp_profile,
    misdeclared_constant,
    misdeclared_hierarchical,
    segment_interval,
    widest_step_interval,
)


class TestCounterexampleF:
    def test_known_roots_of_one(self):
        assert sp.counterexample_f(1.0 / 6.0) == pytest.approx(1.0, abs=1e-15)
        assert sp.counterexample_f(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_branch_continuity(self):
        eps = 1e-13
        left = sp.counterexample_f(0.5)
        right = sp.counterexample_f(0.5 + eps)
        assert left == pytest.approx(2.0, abs=1e-12)
        assert right == pytest.approx(left, abs=1e-12)
        left = sp.counterexample_f(1.25)
        right = sp.counterexample_f(1.25 + eps)
        assert left == pytest.approx(0.5, abs=1e-12)
        assert right == pytest.approx(left, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            sp.counterexample_f(-0.1)


class TestRateBounds:
    def test_ordering_enforced(self):
        with pytest.raises(ParameterError):
            sp.RateBounds(g_low=2.0, g_high=1.0, mu_low=1.0, mu_high=1.0, beta_max=1.0)
        with pytest.raises(ParameterError):
            sp.RateBounds(g_low=1.0, g_high=1.0, mu_low=0.0, mu_high=1.0, beta_max=1.0)
        with pytest.raises(ParameterError, match="beta_max"):
            sp.RateBounds(g_low=1.0, g_high=1.0, mu_low=1.0, mu_high=1.0, beta_max=0.0)

    def test_envelopes_must_be_finite(self):
        # g_low * mu_low underflows to 0: the envelope norms would divide by zero
        with pytest.raises(ParameterError, match="finite and positive"):
            sp.RateBounds(g_low=1e-200, g_high=1e-200, mu_low=1e-200, mu_high=1e-200,
                          beta_max=1.0)
        # the upper envelope mass is below the tail tolerance: no positive horizon
        with pytest.raises(ParameterError, match="finite and positive"):
            sp.RateBounds(g_low=1.0, g_high=1.0, mu_low=1e12, mu_high=1e12, beta_max=1.0)
        b = sp.RateBounds(g_low=1e-100, g_high=1e-100, mu_low=1e-100, mu_high=1e-100,
                          beta_max=1.0)
        assert 0 < sp.default_x_max(b) < np.inf


class TestBuilders:
    @pytest.mark.parametrize("build,fragment", [
        (lambda: sp.CompositeRate(const=-1.0), "nonnegative"),
        (lambda: sp.CompositeRate(const=1.0, tail_from=-1.0), "tail_from"),
        (lambda: sp.constant_model(0.0, 1.0, 1.0), "constant model"),
        (lambda: sp.counterexample_model(0.0), "counterexample model"),
        (lambda: sp.hierarchical_model(1.0, 0.5, 1.0, 1.0), "hierarchical model"),
        (lambda: sp.composite_model(sp.CompositeRate(const=0.0), sp.CompositeRate(const=1.0),
                                    sp.CompositeRate(const=1.0)), "positive lower bounds"),
    ], ids=["composite_const", "composite_tail_from", "constant", "counterexample",
            "hierarchical", "composite_g"])
    def test_invalid_parameters_rejected(self, build, fragment):
        with pytest.raises(ParameterError, match=fragment):
            build()


class TestCompositeRateFields:
    @pytest.mark.parametrize("name", ["const", "x_amp", "x_rate", "u_sat", "u_inv",
                                      "tail_from", "weight_decay"])
    def test_nan_rejected_and_named(self, name):
        fields = {"const": 1.0, name: float("nan")}
        with pytest.raises(ParameterError) as info:
            sp.CompositeRate(**fields)
        assert info.value.field == name

    @pytest.mark.parametrize("name", ["const", "x_amp", "x_rate", "u_sat", "u_inv",
                                      "tail_from", "weight_decay"])
    def test_infinite_rejected_and_named(self, name):
        # x_amp = inf used to build a model whose beta_max is inf
        with pytest.raises(ParameterError) as info:
            sp.CompositeRate(**{"const": 1.0, name: math.inf})
        assert info.value.field == name


class TestEvalRates:
    def test_constant_variant(self):
        m = sp.constant_model(mu0=2.0, g0=0.5, beta0=3.0)
        g = sp.build_grid(10.0, 101)
        u = exp_profile(g)
        assert np.all(sp.model.eval_g(m, u) == 0.5)
        assert np.all(sp.model.eval_mu(m, u) == 2.0)
        assert np.all(sp.model.eval_beta(m, u) == 3.0)

    def test_counterexample_mu_equals_g(self):
        m = sp.counterexample_model(1.7)
        g = sp.build_grid(10.0, 101)
        u = exp_profile(g)
        assert np.all(sp.model.eval_mu(m, u) == sp.model.eval_g(m, u))
        assert np.all(sp.model.eval_g(m, u) == 1.7)

    def test_counterexample_beta_vanishes_at_zero(self):
        m = sp.counterexample_model(1.0)
        g = sp.build_grid(10.0, 101)
        for scale in (0.0, 0.5, 2.0):
            u = sp.DensityProfile(g, scale * np.exp(-g.nodes))
            assert sp.model.eval_beta(m, u)[0] == 0.0  # the first node is x = 0

    def test_counterexample_beta_at_zero_population(self):
        m = sp.counterexample_model(1.3)
        g = sp.build_grid(10.0, 101)
        u = sp.zero_profile(g)
        expected = 2.0 * 1.3 * (1.0 - np.exp(-g.nodes)) * 0.5
        assert np.allclose(sp.model.eval_beta(m, u), expected, rtol=1e-14)

    def test_counterexample_beta_depends_only_on_norm(self):
        m = sp.counterexample_model(1.0)
        g = sp.build_grid(20.0, 2001)
        u1 = exp_profile(g)
        flat = np.where(g.nodes <= 1.0, 1.0, 0.0)
        flat *= sp.integrate(g, u1.values) / sp.integrate(g, flat)
        u2 = sp.DensityProfile(g, flat)
        assert np.allclose(sp.model.eval_beta(m, u1), sp.model.eval_beta(m, u2), rtol=1e-12)

    def test_hierarchical_empty_population_gives_g_high(self):
        m = sp.hierarchical_model(g_low=0.5, g_high=1.0, mu0=1.0, b0=2.0)
        g = sp.build_grid(20.0, 2001)
        vals = sp.model.eval_g(m, sp.zero_profile(g))
        assert np.allclose(vals, 1.0, rtol=1e-14)

    def test_hierarchical_crowding_drives_g_to_floor(self):
        m = sp.hierarchical_model(g_low=0.5, g_high=1.0, mu0=1.0, b0=2.0)
        g = sp.build_grid(20.0, 2001)
        u = exp_profile(g, scale=1e3)
        assert sp.model.eval_g(m, u)[0] == pytest.approx(0.5, abs=1e-10)

    def test_hierarchical_monotone_in_population(self):
        m = sp.hierarchical_model(g_low=0.5, g_high=1.0, mu0=1.0, b0=2.0)
        g = sp.build_grid(20.0, 401)
        rng = np.random.default_rng(0)
        base = rng.random(g.n)
        u1 = sp.DensityProfile(g, base)
        u2 = sp.DensityProfile(g, base + rng.random(g.n))
        g1 = sp.model.eval_g(m, u1)
        g2 = sp.model.eval_g(m, u2)
        assert np.all(g1 >= g2)

    def test_hierarchical_beta_at_zero_population(self):
        m = sp.hierarchical_model(g_low=0.5, g_high=1.0, mu0=1.0, b0=2.0)
        g = sp.build_grid(20.0, 401)
        assert np.all(sp.model.eval_beta(m, sp.zero_profile(g)) == 2.0)

    @pytest.mark.parametrize("rate", ["g", "mu", "beta"])
    def test_bounds_violation_raises(self, rate):
        # deliberately misdeclared bounds: one rate exceeds them, evaluation must refuse
        bad = misdeclared_constant(rate)
        g = sp.build_grid(10.0, 101)
        evaluate = getattr(sp.model, "eval_" + rate)
        with pytest.raises(BoundsViolationError, match="^%s evaluated" % rate):
            evaluate(bad, sp.zero_profile(g))
        with pytest.raises(BoundsViolationError, match="^%s evaluated" % rate):
            sp.model.freeze_rates(bad, g).checked(np.zeros(g.n))

    def test_frozen_bounds_violation_raises_on_evaluation(self):
        # mu0 = 2 lies outside the declared mu bounds [1, 1]; mu ignores u, so the
        # context judges it once, and every checked evaluation raises
        bad = misdeclared_hierarchical()
        g = sp.build_grid(10.0, 101)
        ctx = sp.make_context(bad, g)
        for _ in range(2):
            with pytest.raises(BoundsViolationError, match="^mu evaluated"):
                sp.net_reproduction_R(ctx, sp.zero_profile(g))
        with pytest.raises(BoundsViolationError, match="^mu evaluated"):
            sp.birth_G(ctx, sp.zero_profile(g))
        with pytest.raises(BoundsViolationError, match="^mu evaluated"):
            sp.model.eval_mu(bad, sp.zero_profile(g))
        assert np.all(sp.model.freeze_rates(bad, g).rates(np.zeros(g.n))[1] == 2.0)

    def test_nan_profile_raises(self):
        # NaN compares false with both bounds, so only a negated check catches it
        m = sp.hierarchical_model(g_low=0.5, g_high=1.0, mu0=1.0, b0=2.0)
        g = sp.build_grid(20.0, 401)
        values = np.exp(-g.nodes)
        values[200] = np.nan
        with pytest.raises(BoundsViolationError):
            sp.model.freeze_rates(m, g).checked(values)

    def test_random_sweep_stays_in_bounds(self):
        rng = np.random.default_rng(42)
        g = sp.build_grid(20.0, 401)
        models = [
            sp.constant_model(1.5, 0.7, 2.0),
            sp.counterexample_model(1.2),
            sp.hierarchical_model(0.3, 1.1, 0.8, 1.9),
            sp.composite_model(
                g=sp.CompositeRate(const=0.5, x_amp=0.5),
                mu=sp.CompositeRate(const=1.0, u_sat=0.5),
                beta=sp.CompositeRate(const=0.0, u_inv=2.0),
            ),
        ]
        for m in models:
            b = m.bounds
            samples = sp.random_onion_samples(
                b, g, [1e-3, 1e-1, 1.0, 1e1, 1e3], 5, rng
            )
            for u in samples:
                gv = sp.model.eval_g(m, u)
                mv = sp.model.eval_mu(m, u)
                bv = sp.model.eval_beta(m, u)
                assert np.all((gv >= b.g_low - 1e-12) & (gv <= b.g_high + 1e-12))
                assert np.all((mv >= b.mu_low - 1e-12) & (mv <= b.mu_high + 1e-12))
                assert np.all((bv >= -1e-12) & (bv <= b.beta_max + 1e-12))


class TestEnvelopes:
    def test_pointwise_order_and_norms(self):
        b = sp.RateBounds(g_low=0.5, g_high=1.0, mu_low=0.8, mu_high=1.2, beta_max=2.0)
        g = sp.build_grid(30.0, 301)
        e1, e2 = sp.envelope_profiles(b, g)
        assert np.all(e1.values <= e2.values)
        n1, n2 = sp.envelope_norms(b)
        assert n1 == pytest.approx(0.5 / 1.2, rel=1e-15)
        assert n2 == pytest.approx(1.0 / (0.5 * 0.8), rel=1e-15)
        assert n1 <= n2

    def test_default_x_max_controls_tail(self):
        b = sp.RateBounds(g_low=0.5, g_high=1.0, mu_low=0.8, mu_high=1.2, beta_max=2.0)
        T = sp.default_x_max(b)
        assert sp.model.envelope_tail_mass(b, T) == pytest.approx(1e-10, rel=1e-9)

    def test_onion_sample_validation(self):
        b = sp.RateBounds(g_low=0.5, g_high=1.0, mu_low=0.8, mu_high=1.2, beta_max=2.0)
        g = sp.build_grid(30.0, 301)
        for lam in (0.0, -1.0, math.nan):
            with pytest.raises(ParameterError, match="scale must be positive"):
                sp.random_onion_samples(b, g, [1.0, lam], 1, np.random.default_rng(0))


_TAIL_G = sp.CompositeRate(const=0.5, x_amp=0.5, u_inv=0.2, functional="tail", tail_from=1.0)
_SAT_MU = sp.CompositeRate(const=1.0, u_sat=0.5)

# every variant, and composite fertility reading each functional
BOUND_MODELS = {
    "constant_subcritical": sp.constant_model(mu0=1.0, g0=1.0, beta0=0.5),
    "constant_mixed": sp.constant_model(mu0=1.3, g0=0.9, beta0=1.0),
    "counterexample": sp.counterexample_model(2.5),
    "hierarchical": sp.hierarchical_model(g_low=0.5, g_high=1.0, mu0=1.0, b0=2.0),
    "hierarchical_stiff": sp.hierarchical_model(g_low=0.02, g_high=1.0, mu0=1.0, b0=10.0),
    "composite_norm": sp.composite_model(_TAIL_G, _SAT_MU, sp.CompositeRate(
        const=0.3, x_amp=0.7, x_rate=2.0, u_sat=0.4, u_inv=1.5)),
    "composite_tail": sp.composite_model(_TAIL_G, _SAT_MU, sp.CompositeRate(
        const=0.5, u_inv=2.0, functional="tail", tail_from=0.5)),
    "composite_weighted": sp.composite_model(_TAIL_G, _SAT_MU, sp.CompositeRate(
        const=0.5, u_inv=2.0, functional="weighted")),
}


@functools.lru_cache(maxsize=None)
def _bound_ctx(name, scheme):
    model = BOUND_MODELS[name]
    return sp.make_context(model, sp.build_grid(sp.default_x_max(model.bounds), 401, scheme))


class TestReproductionBound:
    """beta_inf(P) * S_lo <= R(u) <= beta_sup(P) * S_hi: the bounds the scan skips points
    with, the upper one also the bound find_rho0 passes sizes with."""

    @pytest.mark.parametrize("scheme", ["uniform_trapezoid", "graded_trapezoid"])
    @pytest.mark.parametrize("name", sorted(BOUND_MODELS))
    @settings(max_examples=15, deadline=None)
    @given(log_scale=st.floats(-3.0, 4.0), seed=st.integers(0, 2**32 - 1))
    def test_R_within_bound(self, name, scheme, log_scale, seed):
        ctx = _bound_ctx(name, scheme)
        model = ctx.model
        S_lo, S_hi = sp.solver._computed_mass_interval(ctx)
        rng = np.random.default_rng(seed)
        for u in sp.random_onion_samples(model.bounds, ctx.grid, [10.0**log_scale], 4, rng):
            noisy = sp.DensityProfile(ctx.grid, u.values * rng.uniform(0.0, 2.0, ctx.grid.n))
            for v in (u, noisy):                                  # and per-node noise
                P = sp.integrate(ctx.grid, v)
                R = sp.net_reproduction_R(ctx, v)
                assert R <= model.beta_sup(model.params, P) * S_hi
                if model.beta_inf is not None:
                    assert model.beta_inf(model.params, P) * S_lo <= R

    def test_beta_sup_per_variant(self):
        P = 0.75

        def beta_sup(name):
            model = BOUND_MODELS[name]
            return model.beta_sup(model.params, P)

        assert beta_sup("constant_mixed") == 1.0
        assert beta_sup("counterexample") == 5.0 * sp.counterexample_f(P)
        assert beta_sup("hierarchical") == 2.0 / (1.0 + P)
        assert beta_sup("composite_norm") == pytest.approx(
            0.3 + 0.7 + (0.4 * P + 1.5) / (1.0 + P), rel=1e-15)
        for name in ("composite_tail", "composite_weighted"):
            assert beta_sup(name) == BOUND_MODELS[name].bounds.beta_max

    @pytest.mark.parametrize("n", [11, 301])
    def test_S_hi_is_at_most_the_widened_envelope_quadrature(self, n):
        # g in [0.5, 1], mu in [0.8, 1.2]; at n = 11 the envelope is the smaller bound
        model = sp.composite_model(g=sp.CompositeRate(const=0.5, x_amp=0.5),
                                   mu=sp.CompositeRate(const=0.8, x_amp=0.4),
                                   beta=sp.CompositeRate(const=2.0))
        b, g = model.bounds, sp.build_grid(30.0, n)
        quadrature = envelope_quadrature(b, g)
        e2 = sp.envelope_profiles(b, g)[1]
        assert quadrature > sp.integrate(g, e2)
        assert quadrature == pytest.approx(sp.integrate(g, e2), rel=1e-10)
        margin = sp.solver._rounding_margin(g)
        widened = quadrature * (1.0 + margin)
        S_hi = sp.solver._computed_mass_interval(sp.make_context(model, g))[1]
        assert S_hi <= widened
        assert (S_hi == widened) == (n == 11)
        # the per-segment lemma's bound, the smaller one at n = 301, is widened too; no
        # computed R has been seen past either bound unwidened, so the margin is pinned here
        ctx = sp.make_context(model, g)
        assert S_hi == pytest.approx(
            segment_interval(ctx, np.maximum.accumulate(g.steps))[1], rel=1e-14)
        # within the widest step's bound, which it matches on this uniform grid
        assert S_hi <= widest_step_interval(ctx)[1]
        assert S_hi == pytest.approx(widest_step_interval(ctx)[1], rel=1e-12)

    @pytest.mark.parametrize("scheme", ["uniform_trapezoid", "graded_trapezoid", "narrowing"])
    def test_interval_in_blocks_is_near_the_per_segment_interval(self, scheme):
        # at 100001 nodes the step bound is the widest step per block of 391 segments,
        # which vary by 1.8% on the graded grid: each end moves by 1.3e-5 there, and
        # the interval is 21 times narrower than the widest step's. On the graded
        # grid mirrored, whose steps narrow, the bound is the first step throughout
        model = BOUND_MODELS["hierarchical_stiff"]
        x_max = sp.default_x_max(model.bounds)
        grid = sp.build_grid(x_max, 100001, scheme.replace("narrowing", "graded_trapezoid"))
        if scheme == "narrowing":
            grid = sp.Grid(x_max - grid.nodes[::-1])
        ctx = sp.make_context(model, grid)
        S_lo, S_hi = sp.solver._computed_mass_interval(ctx)
        seg_lo, seg_hi = segment_interval(ctx, np.maximum.accumulate(ctx.grid.steps))
        assert seg_lo * (1.0 - 1e-4) <= S_lo <= seg_lo * (1.0 + 1e-12)
        assert seg_hi * (1.0 - 1e-12) <= S_hi <= seg_hi * (1.0 + 1e-4)
        widest_lo, widest_hi = widest_step_interval(ctx)
        if scheme == "graded_trapezoid":
            assert S_hi - S_lo < 0.05 * (widest_hi - widest_lo)

    def test_coarse_stiff_grid_has_no_lower_bound_and_the_envelope_above(self):
        # steps of 13 at mu_high / g_low = 100: the lemma's ratios are 0 and about
        # 1300, past where e^D overflows, so only the envelope bounds the mass
        model = sp.hierarchical_model(g_low=0.01, g_high=1.0, mu0=1.0, b0=10.0)
        grid = sp.build_grid(sp.default_x_max(model.bounds), 3)
        ctx = sp.make_context(model, grid)
        margin = sp.solver._rounding_margin(grid)
        S_lo, S_hi = sp.solver._computed_mass_interval(ctx)
        assert S_lo == 0.0
        assert S_hi == envelope_quadrature(model.bounds, grid) * (1.0 + margin)

    @pytest.mark.parametrize("low", ["g0", "mu0"])
    def test_interval_is_zero_to_inf_below_the_check_tolerance(self, low):
        # the check admits rates down to low - 1e-12, which is not positive here
        kwargs = dict(mu0=1.0, g0=1.0, beta0=0.5)
        kwargs[low] = 1e-13
        model = sp.constant_model(**kwargs)
        ctx = sp.make_context(model, sp.build_grid(30.0, 301))
        assert sp.solver._computed_mass_interval(ctx) == (0.0, math.inf)


class TestValidateHypotheses:
    def _samples(self, model, grid, seed=0):
        rng = np.random.default_rng(seed)
        return sp.random_onion_samples(
            model.bounds, grid, [1e-3, 1e-1, 1.0, 1e1, 1e3], 2, rng
        )

    def test_constant_model(self):
        m = sp.constant_model(1.0, 1.0, 0.5)
        g = sp.build_grid(20.0, 801)
        rep = sp.validate_hypotheses(sp.make_context(m, g), self._samples(m, g))
        assert rep.bounds_ok
        assert rep.gx_sup == 0.0
        assert not rep.lbeta_pass  # constant fertility never decays

    def test_counterexample_model(self):
        m = sp.counterexample_model(1.0)
        g = sp.build_grid(40.0, 2001)
        rep = sp.validate_hypotheses(sp.make_context(m, g), self._samples(m, g))
        assert rep.bounds_ok
        assert rep.lbeta_pass

    def test_hierarchical_model(self):
        m = sp.hierarchical_model(g_low=0.5, g_high=1.0, mu0=1.0, b0=2.0)
        g = sp.build_grid(sp.default_x_max(m.bounds), 2001)
        rep = sp.validate_hypotheses(sp.make_context(m, g), self._samples(m, g))
        assert rep.bounds_ok
        assert rep.lbeta_pass

    def test_empty_samples_rejected(self):
        m = sp.constant_model(1.0, 1.0, 0.5)
        g = sp.build_grid(20.0, 801)
        with pytest.raises(ParameterError):
            sp.validate_hypotheses(sp.make_context(m, g), [])

    def test_samples_from_another_grid_rejected(self):
        m = sp.hierarchical_model(g_low=0.5, g_high=1.0, mu0=1.0, b0=2.0)
        g = sp.build_grid(20.0, 801)
        other = sp.build_grid(20.0, 801, "graded_trapezoid")
        with pytest.raises(GridMismatchError):
            sp.validate_hypotheses(sp.make_context(m, g), self._samples(m, other))
