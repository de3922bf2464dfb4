"""Rates split into what a context freezes and what each evaluation reads from u.

The reference below is the per-variant rate code that evaluated every rate,
x-shapes included, at each call, with the survival shape rebuilt each time.
The split must reproduce it bit for bit, and do the u-independent work once.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steadypop as sp
from steadypop import _accel
from steadypop.config import load_config
from steadypop.errors import BoundsViolationError
from steadypop.grid import integrate, reverse_cumulative_integral
from steadypop.kernel import rates_and_survival
from steadypop.model import counterexample_f
from steadypop.solver import PicardResult

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# -- reference: the rate code before the split, kept verbatim -----------------


def _fill(grid, value):
    return np.full(grid.n, value, dtype=float)


def _scalar_input(rate, grid, u_values):
    if rate.functional == "norm":
        return integrate(grid, u_values)
    if rate.functional == "tail":
        tail = reverse_cumulative_integral(grid, u_values)
        return float(np.interp(rate.tail_from, grid.nodes, tail))
    return _accel.weighted_sum(
        grid.weights, np.exp(-rate.weight_decay * grid.nodes) * u_values
    )


def _value(rate, x, s):
    sig = s / (1.0 + s)
    return (
        rate.const
        + rate.x_amp * (1.0 - np.exp(-rate.x_rate * x))
        + rate.u_sat * sig
        + rate.u_inv / (1.0 + s)
    )


def _constant_rates(p, grid, u):
    return _fill(grid, p["g0"]), _fill(grid, p["mu0"]), _fill(grid, p["beta0"])


def _counterexample_rates(p, grid, u):
    fval = counterexample_f(integrate(grid, u))
    beta = 2.0 * p["g"] * (1.0 - np.exp(-grid.nodes)) * fval
    return _fill(grid, p["g"]), _fill(grid, p["g"]), beta


def _hierarchical_rates(p, grid, u):
    tail = reverse_cumulative_integral(grid, u)
    g = p["g_low"] + (p["g_high"] - p["g_low"]) * np.exp(-tail)
    beta = p["b0"] / (1.0 + integrate(grid, u))
    return g, _fill(grid, p["mu0"]), _fill(grid, beta)


def _composite_rates(p, grid, u):
    inputs = {}  # rates reading the same functional of u share its value

    def value(rate):
        key = (rate.functional, rate.tail_from, rate.weight_decay)
        if key not in inputs:
            inputs[key] = _scalar_input(rate, grid, u)
        return _value(rate, grid.nodes, inputs[key])

    return value(p["g"]), value(p["mu"]), value(p["beta"])


REFERENCE = {"constant": _constant_rates, "counterexample": _counterexample_rates,
             "hierarchical": _hierarchical_rates, "composite": _composite_rates}


def _cumtrapz(steps, f):
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum(0.5 * (f[1:] + f[:-1]) * steps, out=out[1:])
    return out


def survival_from_rates(steps, g, ratio):
    # survival shape (1/g) * exp(-running trapezoid integral of mu/g)
    return np.exp(-_cumtrapz(steps, ratio)) / g


def _checked(value, low, high, name):
    tol = lambda bound: 1e-12 * max(1.0, abs(bound))   # noqa: E731
    if not (low - tol(low) <= np.min(value) and np.max(value) <= high + tol(high)):
        raise BoundsViolationError(
            "%s evaluated outside declared bounds [%g, %g]" % (name, low, high)
        )
    return value


def _reference_rates(model, grid, u):
    g, mu, beta = REFERENCE[model.variant](model.params, grid, u)
    b = model.bounds
    return (_checked(g, b.g_low, b.g_high, "g"), _checked(mu, b.mu_low, b.mu_high, "mu"),
            _checked(beta, 0.0, b.beta_max, "beta"))


# -- the sweep ----------------------------------------------------------------


def _bits(value, n):
    """A rate as the int64 bit patterns of its values at n nodes (-0.0 differs from 0.0)."""
    return np.broadcast_to(np.asarray(value, dtype=float), (n,)).view(np.int64)


def _same(got, expected, n):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(_bits(a, n), _bits(b, n))


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except BoundsViolationError as exc:
        return None, str(exc)


zeros = st.sampled_from([0.0, -0.0])
amounts = st.one_of(zeros, st.floats(0.05, 3.0))


@st.composite
def composite_rates(draw, positive):
    const = draw(st.floats(0.1, 2.0)) if positive else draw(st.one_of(zeros, st.floats(0.0, 2.0)))
    return sp.CompositeRate(
        const=const, x_amp=draw(amounts), x_rate=draw(st.floats(0.1, 3.0)),
        u_sat=draw(amounts), u_inv=draw(amounts),
        functional=draw(st.sampled_from(["norm", "tail", "weighted"])),
        tail_from=draw(st.floats(0.0, 5.0)), weight_decay=draw(st.floats(0.1, 3.0)),
    )


@st.composite
def models(draw):
    # composite has the most cases: zero or nonzero x_amp, u_sat and u_inv, three functionals
    variant = draw(st.sampled_from(["constant", "counterexample", "hierarchical"]
                                   + ["composite"] * 3))
    if variant == "constant":
        return sp.constant_model(mu0=draw(st.floats(0.2, 3.0)), g0=draw(st.floats(0.2, 3.0)),
                                 beta0=draw(st.one_of(zeros, st.floats(0.0, 3.0))))
    if variant == "counterexample":
        return sp.counterexample_model(draw(st.floats(0.2, 3.0)))
    if variant == "hierarchical":
        g_low = draw(st.floats(0.05, 1.0))
        return sp.hierarchical_model(g_low=g_low, g_high=g_low + draw(st.floats(0.0, 2.0)),
                                     mu0=draw(st.floats(0.2, 3.0)), b0=draw(st.floats(0.1, 5.0)))
    return sp.composite_model(g=draw(composite_rates(True)), mu=draw(composite_rates(True)),
                              beta=draw(composite_rates(False)))


class TestBitIdenticalToReference:
    @settings(max_examples=200, deadline=None)
    @given(
        model=models(),
        scheme=st.sampled_from(["uniform_trapezoid", "graded_trapezoid"]),
        n=st.sampled_from([3, 61, 400]),
        scale=st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
        decay=st.floats(0.01, 50.0),
    )
    def test_raw_checked_and_survival(self, model, scheme, n, scale, decay):
        # the horizon of 100 makes exp(-decay x) underflow to 0 for decay >~ 7.5
        grid = sp.build_grid(100.0, n, scheme)
        u = scale * np.exp(-decay * grid.nodes)
        frozen = sp.model.freeze_rates(model, grid)
        _same(frozen.rates(u), REFERENCE[model.variant](model.params, grid, u), n)

        got, error = _outcome(frozen.checked, u)
        expected, expected_error = _outcome(_reference_rates, model, grid, u)
        assert error == expected_error
        ctx = sp.make_context(model, grid)
        if error is None:
            _same(got, expected, n)
            g, mu, beta = expected
            pi = survival_from_rates(grid.steps, g, mu / g)
            _same(rates_and_survival(ctx, u), (g, beta, pi), n)
        else:
            with pytest.raises(BoundsViolationError, match="^" + error.split(" [")[0]):
                rates_and_survival(ctx, u)

    @pytest.mark.parametrize("signs", list(itertools.product([0.0, -0.0], repeat=4)))
    def test_zero_signs_follow_the_reference(self, signs):
        # a beta that ignores u is frozen at s = 0 (and x_amp = 0 at x = 0): the
        # zeros its terms add must keep the signs they have at every node and s
        const, x_amp, u_sat, u_inv = signs
        beta = sp.CompositeRate(const=const, x_amp=x_amp, u_sat=u_sat, u_inv=u_inv)
        model = sp.composite_model(g=sp.CompositeRate(const=1.0), mu=sp.CompositeRate(const=1.0),
                                   beta=beta)
        grid = sp.build_grid(10.0, 11)
        u = np.ones(grid.n)
        _same(sp.model.freeze_rates(model, grid).rates(u), _composite_rates(model.params, grid, u),
              grid.n)


# -- the work done once --------------------------------------------------------


def _count(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _assert_fixed_passed_through(ctx, u):
    # each evaluation hands out the context's own fixed arrays, never a recomputed copy
    for evaluate in (ctx.rates.rates, ctx.rates.checked):
        values = evaluate(u)
        for value, fixed in zip(values, ctx.rates.fixed):
            if fixed is not None:
                assert value is fixed


# families whose survival shape reads no u, so ctx.pi is fixed
FIXED_SURVIVAL = {
    "counterexample": lambda: sp.counterexample_model(1.0),
    "constant": lambda: sp.constant_model(mu0=1.3, g0=0.9, beta0=1.0),
    # g grows with x, so the envelopes differ from pi and a cold solve takes two steps
    "composite": lambda: sp.composite_model(
        g=sp.CompositeRate(const=1.0, x_amp=0.5), mu=sp.CompositeRate(const=1.0),
        beta=sp.CompositeRate(const=0.5, u_inv=2.0)),
}


def _context(model, scheme):
    return sp.make_context(model, sp.build_grid(sp.default_x_max(model.bounds), 2001, scheme))


def _picard_bits(pr):
    n = pr.pi.size
    return (_bits(pr.v.values, n).tobytes(), pr.iterations, _bits(pr.residual_l1, 1).tobytes(),
            _bits(pr.R, 1).tobytes(), _bits(pr.pi, n).tobytes())


def _picard_reference(ctx, lam, cfg):
    """A cold inner_picard that sums |v - pi| at every step."""
    grid = ctx.grid
    v = 0.5 * (ctx.e1.values + ctx.e2.values)
    for k in range(1, cfg.picard_max_iter + 1):
        _, beta, pi = rates_and_survival(ctx, lam * v)
        res = _accel.weighted_sum(grid.weights, np.abs(v - pi))
        if res <= cfg.picard_tol:
            R = _accel.weighted_sum(grid.weights, beta * pi)
            return PicardResult(sp.DensityProfile(grid, v), k, res, R, pi)
        v = pi
    raise AssertionError("reference solve did not converge")


def _shipped_context(name):
    run = load_config(str(CONFIGS / ("%s.cfg" % name)))
    return sp.make_context(run.model, run.grid), run.solver


class TestWorkDoneOnce:
    def test_fixed_survival_shape_is_built_once_per_context(self, monkeypatch):
        # counterexample: g = mu = const, so its survival shape never reads u
        shapes = _count(monkeypatch, _accel, "survival_from_rates")
        ctx, cfg = _shipped_context("counterexample")
        assert len(shapes) == 1
        _, results = sp.solve_all(ctx, cfg)
        assert len(results) == 2
        assert len(shapes) == 1

    def test_survival_shape_reading_u_is_built_per_evaluation(self, monkeypatch):
        shapes = _count(monkeypatch, _accel, "survival_from_rates")
        evaluations = _count(monkeypatch, sp.model.FrozenRates, "checked")
        ctx, cfg = _shipped_context("hierarchical")
        assert ctx.pi is None and shapes == []
        # the full scan, since the one that solve and scan run skips most of its points
        lams = sp.solver._scan_lambdas(ctx, cfg)
        scan = sp.solver._scan(ctx, cfg, lams, np.full(lams.shape, np.nan))
        assert len(scan.brackets) == 1
        assert len(shapes) == len(evaluations) > 100

    def test_context_arrays_are_read_only(self, ce_ctx):
        frozen = ce_ctx.rates
        for value in [*frozen.fixed[:2], ce_ctx.pi, ce_ctx.start.values]:
            assert not value.flags.writeable
        with pytest.raises(ValueError):
            ce_ctx.pi[0] = 0.0
        with pytest.raises(ValueError):
            ce_ctx.start.values[0] = 0.0

    @pytest.mark.parametrize("family", sorted(FIXED_SURVIVAL) + ["hierarchical"])
    def test_cold_start_is_the_one_envelope_midpoint(self, family):
        builders = {**FIXED_SURVIVAL,
                    "hierarchical": lambda: sp.hierarchical_model(0.5, 1.0, 1.0, 2.0)}
        ctx = _context(builders[family](), "graded_trapezoid")
        mid = 0.5 * (ctx.e1.values + ctx.e2.values)
        assert np.array_equal(_bits(ctx.start.values, ctx.grid.n), _bits(mid, ctx.grid.n))
        assert sp.solver._sample_shapes(ctx, np.random.default_rng(0))[2] is ctx.start
        if ctx.pi is None:
            assert ctx.start_gap is None
        else:
            gap = _accel.weighted_sum(ctx.grid.weights, np.abs(mid - ctx.pi))
            assert _bits(ctx.start_gap, 1) == _bits(gap, 1)

    @pytest.mark.parametrize("scheme", ["uniform_trapezoid", "graded_trapezoid"])
    @pytest.mark.parametrize("family", sorted(FIXED_SURVIVAL))
    def test_fixed_survival_cold_solve_sums_no_residual(self, monkeypatch, family, scheme):
        ctx = _context(FIXED_SURVIVAL[family](), scheme)
        assert ctx.pi is not None
        cfg = sp.SolverConfig()
        sums = _count(monkeypatch, _accel, "weighted_sum")
        for lam in (0.5, 3.0):
            sums.clear()
            want = _picard_reference(ctx, lam, cfg)
            reference_sums = len(sums)
            sums.clear()
            got = sp.inner_picard(ctx, lam, cfg)
            assert _picard_bits(got) == _picard_bits(want)
            # the reference sums |v - pi| once per step, the solve not at its cold start
            assert len(sums) == reference_sums - 1
            if family == "counterexample":
                # the size its fertility reads and R
                assert got.iterations == 1 and len(sums) == 2
            if family == "composite":
                # step 2 starts at pi itself and sums |pi - pi|, exactly 0.0
                assert got.iterations == 2 and got.v.values is ctx.pi
                assert _bits(got.residual_l1, 1) == _bits(0.0, 1)

    @pytest.mark.parametrize("variant,fixed", [
        ("constant", (True, True, True)),
        ("counterexample", (True, True, False)),
        ("hierarchical", (False, True, False)),
    ])
    def test_what_each_variant_freezes(self, variant, fixed):
        model = {
            "constant": lambda: sp.constant_model(1.0, 1.0, 0.5),
            "counterexample": lambda: sp.counterexample_model(1.0),
            "hierarchical": lambda: sp.hierarchical_model(0.5, 1.0, 1.0, 2.0),
        }[variant]()
        grid = sp.build_grid(10.0, 101)
        ctx = sp.make_context(model, grid)
        assert tuple(value is not None for value in ctx.rates.fixed) == fixed
        assert (ctx.pi is not None) == (fixed[0] and fixed[1])
        _assert_fixed_passed_through(ctx, np.exp(-grid.nodes))

    def test_composite_freezes_the_rates_without_u_terms(self):
        model = sp.composite_model(
            g=sp.CompositeRate(const=0.5, x_amp=0.5),
            mu=sp.CompositeRate(const=1.0, u_sat=0.5, functional="weighted"),
            beta=sp.CompositeRate(const=0.1, u_inv=2.0),
        )
        grid = sp.build_grid(10.0, 101)
        ctx = sp.make_context(model, grid)
        assert [value is not None for value in ctx.rates.fixed] == [True, False, False]
        _assert_fixed_passed_through(ctx, np.exp(-grid.nodes))
        g, beta, _ = rates_and_survival(ctx, np.exp(-grid.nodes))
        # x_amp = 0: beta is constant in x and comes as a float
        assert isinstance(g, np.ndarray) and isinstance(beta, float)
        assert math.isclose(beta, 0.1 + 2.0 / (1.0 + integrate(grid, np.exp(-grid.nodes))))
