import math
from dataclasses import replace

import numpy as np
import pytest

import steadypop as sp


@pytest.fixture(scope="session")
def ce_ctx():
    """Counterexample model on the graded high-accuracy grid."""
    model = sp.counterexample_model(1.0)
    grid = sp.build_grid(40.0, 4001, "graded_trapezoid")
    return sp.make_context(model, grid)


@pytest.fixture(scope="session")
def hier_ctx():
    model = sp.hierarchical_model(g_low=0.5, g_high=1.0, mu0=1.0, b0=2.0)
    grid = sp.build_grid(sp.default_x_max(model.bounds), 4001, "graded_trapezoid")
    return sp.make_context(model, grid)


@pytest.fixture()
def const_ctx_factory():
    def make(mu0, g0, beta0, n=4001, scheme="graded_trapezoid"):
        model = sp.constant_model(mu0=mu0, g0=g0, beta0=beta0)
        grid = sp.build_grid(sp.default_x_max(model.bounds), n, scheme)
        return sp.make_context(model, grid)

    return make


def misdeclared_constant(rate):
    """A constant model whose ``rate`` (g, mu or beta) is 2, outside its declared bounds [1, 1]."""
    params = {"mu0": 1.0, "g0": 1.0, "beta0": 1.0, rate + "0": 2.0}
    bounds = sp.RateBounds(g_low=1.0, g_high=1.0, mu_low=1.0, mu_high=1.0, beta_max=1.0)
    return replace(sp.constant_model(**params), bounds=bounds)


def misdeclared_hierarchical():
    """A hierarchical model whose mu0 = 2 lies outside its declared mu bounds [1, 1]."""
    bounds = sp.RateBounds(g_low=0.5, g_high=1.0, mu_low=1.0, mu_high=1.0, beta_max=2.0)
    return replace(sp.hierarchical_model(g_low=0.5, g_high=1.0, mu0=2.0, b0=2.0), bounds=bounds)


def _rising_fertility(p, grid):
    g = mu = np.ones(grid.n)
    return (g, mu, None), lambda u: (g, mu, p["b0"] + sp.integrate(grid, u))


def _rising_fertility_beta_sup(p, P):
    return p["b0"] + P


def rising_fertility_model(b0=0.5):
    """beta = b0 + P with g = mu = 1: beta leaves its declared beta_max = b0 at every P > 0."""
    bounds = sp.RateBounds(1.0, 1.0, 1.0, 1.0, b0)
    return sp.ModelSpec("rising_fertility", bounds, {"b0": b0}, _rising_fertility,
                        _rising_fertility_beta_sup)


def exp_profile(grid, scale=1.0, decay=1.0):
    return sp.DensityProfile(grid, scale * np.exp(-decay * grid.nodes))


def envelope_quadrature(bounds, grid):
    """The quadrature of exp(-c x)/(g_low - t), the largest survival shape the bounds
    check admits (c = (mu_low - t)/(g_high + t), t its tolerances)."""
    t = sp.model._tolerance
    c = (bounds.mu_low - t(bounds.mu_low)) / (bounds.g_high + t(bounds.g_high))
    return sp.integrate(grid, np.exp(-c * grid.nodes)) / (bounds.g_low - t(bounds.g_low))


def segment_interval(ctx, W):
    """``(S_lo, S_hi)`` of ``solver._computed_mass_interval``'s lemma, summed over every
    segment with ``W``, a non-decreasing bound on the steps, and widened and capped as
    that function does; a reference without its blocks."""
    b, grid, t = ctx.model.bounds, ctx.grid, sp.model._tolerance
    mu_low, mu_high = b.mu_low - t(b.mu_low), b.mu_high + t(b.mu_high)
    c_low = mu_low / (b.g_high + t(b.g_high))
    D = W * mu_high / (b.g_low - t(b.g_low))
    r = D / -np.expm1(-D)
    m = r * np.exp(-D)                                 # D/(e^D - 1), without overflow
    x = grid.nodes[1:-1]                               # where segments 1, 2, ... start
    upper = r[0] + np.sum(np.diff(r) * np.exp(-c_low * x))
    lower = m[-1] * -math.expm1(-c_low * grid.x_max) + np.sum(-np.diff(m) * -np.expm1(-c_low * x))
    margin = sp.solver._rounding_margin(grid)
    return (lower / mu_high / (1.0 + margin),
            min(upper / mu_low, envelope_quadrature(b, grid)) * (1.0 + margin))


def widest_step_interval(ctx):
    """The interval from the grid's widest step alone, which the package used before it
    summed segment by segment."""
    steps = ctx.grid.steps
    return segment_interval(ctx, np.full(steps.shape, steps.max()))


def write_config(path, text):
    path.write_text(text)
    return str(path)
