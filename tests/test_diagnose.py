"""``diagnose``'s sampled checks compute what does not read u once per call.

Each check is compared, bit for bit, with a plain per-sample reference kept
here: every rate, survival shape and translation evaluated afresh for each
sample, as the checks did before they reused the u-independent parts.
"""

import dataclasses
import math

import numpy as np
import pytest

import steadypop as sp
import steadypop.kernel as kernel
from steadypop.errors import BoundsViolationError
from steadypop.grid import _density_values, integrate, translate
from steadypop.kernel import TranslationRow, rates_and_survival
from steadypop.model import (
    HypothesisReport,
    _at_nodes,
    envelope_tail_mass,
    envelope_values,
    freeze_rates,
)
from test_open_model import PARAMS, _same, competition_model

LAMBDAS = [10.0**k for k in range(-3, 4)]
SHIFTS = (0.1, 0.01, 0.001)


def _nan_max(values):
    """Largest of ``values`` from 0.0, NaN when any is NaN."""
    return math.nan if any(math.isnan(v) for v in values) else max([0.0, *values])


def reference_compactness(ctx, samples, h_list, T):
    b, grid, nodes = ctx.model.bounds, ctx.grid, ctx.grid.nodes
    iT = int(np.searchsorted(nodes, T, side="right")) - 1
    T_eff = float(nodes[iT])
    wmask = grid.weights * (nodes <= T_eff)
    wtail = grid.weights * (nodes > T_eff)
    if iT + 1 < grid.n:
        wtail[iT] = 0.5 * grid.steps[iT]
    h_max = float(np.max(grid.steps))
    decay = b.mu_low / b.g_high
    norm_bound = ctx.norm_e2 + (h_max * h_max / 12.0) * decay / b.g_low
    tail_bound = (envelope_tail_mass(b, T_eff)
                  + (h_max * h_max / 12.0) * decay * math.exp(-decay * T) / b.g_low)
    g_low2 = b.g_low * b.g_low
    norm_rows, tail_rows, trans_rows, ok = [], [], [], True
    for idx, s in enumerate(samples):
        g, _, pi = rates_and_survival(ctx, _density_values(grid, s))
        g = _at_nodes(grid, g)
        l1 = integrate(grid, pi)
        norm_ok = math.isfinite(norm_bound) and l1 <= norm_bound * (1.0 + 1e-9)
        norm_rows.append((idx, l1, norm_bound, norm_ok))
        tail = float(np.dot(wtail, pi))
        tail_ok = math.isfinite(tail_bound) and tail <= tail_bound * (1.0 + 1e-9) + 1e-15
        tail_rows.append((idx, tail, tail_bound, tail_ok))
        ok = ok and norm_ok and tail_ok
        for h in h_list:
            measured = float(np.dot(wmask, np.abs(translate(grid, pi, h) - pi)))
            g_term = float(np.dot(wmask, np.abs(translate(grid, g, h) - g)))
            bound = (T_eff * b.mu_high / g_low2) * h + (T_eff / g_low2) * g_term
            row_ok = math.isfinite(bound) and measured <= bound + 1e-6 * max(1.0, bound)
            trans_rows.append(TranslationRow(idx, h, measured, bound, row_ok))
            ok = ok and row_ok
    return kernel.CompactnessReport(T_eff, tuple(norm_rows), tuple(tail_rows),
                                    tuple(trans_rows), ok)


def reference_hypotheses(model, grid, samples):
    b, nodes = model.bounds, grid.nodes
    T = 0.5 * grid.x_max
    frozen = freeze_rates(model, grid)

    def raw(u):
        return tuple(_at_nodes(grid, value) for value in frozen.raw(u))

    values = [_density_values(grid, s) for s in samples]
    terms, slopes = [], []
    for u in values:
        g, mu, beta = raw(u)
        terms += [float(np.max(b.g_low - g, initial=0.0)),
                  float(np.max(g - b.g_high, initial=0.0)),
                  float(np.max(b.mu_low - mu, initial=0.0)),
                  float(np.max(mu - b.mu_high, initial=0.0)),
                  float(np.max(-beta, initial=0.0)),
                  float(np.max(beta - b.beta_max, initial=0.0))]
        gx = np.abs(np.diff(g) / grid.steps)
        slopes.append(float(np.max(gx[(nodes <= T)[:-1]], initial=0.0)))
    worst, gx_sup = _nan_max(terms), _nan_max(slopes)
    gx_bound = gx_ok = None
    if model.gx_bound is not None:
        gx_bound = model.gx_bound(model.params, b, T)
        gx_ok = math.isfinite(gx_bound) and gx_sup <= gx_bound * (1.0 + 1e-6)
    _, e2 = envelope_values(b, nodes)
    lams = (1.0, 10.0, 1e2, 1e3, 1e4)
    sweep = [float(np.max(raw(lam * e2)[2])) for lam in lams]
    nonincreasing = all(sweep[i + 1] <= sweep[i] + 1e-12 for i in range(len(sweep) - 1))
    delta = 1e-6 / max(integrate(grid, e2), 1e-300)
    responses = [float(np.max(np.abs(a1 - a0))) / max(float(np.max(np.abs(a0))), 1e-300)
                 for a0, a1 in zip(raw(values[0]), raw(values[0] + delta * e2))]
    return HypothesisReport(
        bounds_ok=worst <= 1e-12 * max(1.0, b.g_high, b.mu_high, b.beta_max),
        worst_bound_violation=worst, gx_window=T, gx_sup=gx_sup,
        gx_analytic_bound=gx_bound, gx_bound_ok=gx_ok, lbeta_lambdas=lams,
        lbeta_values=tuple(sweep),
        lbeta_pass=nonincreasing and sweep[-1] <= 1e-3 * max(sweep[0], 1e-300),
        continuity_response=_nan_max(responses),
        notes=("verdicts are sampled evidence over the admissible set, not proofs",),
    )


MODELS = {
    "constant": sp.constant_model(1.0, 1.0, 0.5),
    "counterexample": sp.counterexample_model(1.0),
    "hierarchical": sp.hierarchical_model(**PARAMS),
    # g and beta read u, mu rises with x
    "composite": sp.composite_model(
        g=sp.CompositeRate(const=0.5, u_inv=0.5, functional="tail", tail_from=1.0),
        mu=sp.CompositeRate(const=1.0, x_amp=0.5),
        beta=sp.CompositeRate(const=0.1, u_inv=2.0)),
    # neither g nor mu reads u, yet g varies in x: pi is fixed, its g-term is not 0
    "composite_fixed_shape": sp.composite_model(
        g=sp.CompositeRate(const=0.5, x_amp=0.5, x_rate=0.3),
        mu=sp.CompositeRate(const=1.0),
        beta=sp.CompositeRate(const=0.1, u_inv=2.0, functional="weighted")),
    "competition": competition_model(0.3, **PARAMS),
}


def _context(name, n=1001):
    model = MODELS[name]
    x_max = 40.0 if name == "counterexample" else sp.default_x_max(model.bounds)
    return sp.make_context(model, sp.build_grid(x_max, n))


def _samples(ctx, seed=0):
    # cmd_diagnose's draws: two per scale 1e-3 .. 1e3
    rng = np.random.default_rng(seed)
    return sp.random_onion_samples(ctx.model.bounds, ctx.grid, LAMBDAS, 2, rng)


@pytest.mark.parametrize("name", sorted(MODELS))
class TestSameAsPerSample:
    def test_compactness(self, name):
        ctx = _context(name)
        T = 0.5 * ctx.grid.x_max
        samples = _samples(ctx)[:6]
        _same(sp.compactness_diagnostics(ctx, samples, SHIFTS, T),
              reference_compactness(ctx, samples, SHIFTS, T))

    def test_hypotheses(self, name):
        ctx = _context(name)
        samples = _samples(ctx)
        _same(sp.validate_hypotheses(ctx.model, ctx.grid, samples),
              reference_hypotheses(ctx.model, ctx.grid, samples))


@pytest.mark.parametrize("name, fixed", [("counterexample", True), ("constant", True),
                                         ("composite_fixed_shape", True),
                                         ("hierarchical", False), ("composite", False)])
def test_translations_per_shift(monkeypatch, name, fixed):
    ctx = _context(name)
    assert (ctx.pi is not None) == fixed
    calls = []

    def counting(grid, f, h):
        calls.append(h)
        return translate(grid, f, h)

    monkeypatch.setattr(kernel, "translate", counting)
    samples = _samples(ctx)[:6]
    sp.compactness_diagnostics(ctx, samples, SHIFTS, 0.5 * ctx.grid.x_max)
    # pi and g are each translated once per shift and shape: with a fixed pi there is one shape
    shapes = 1 if fixed else len(samples)
    assert sorted(calls) == sorted(2 * shapes * list(SHIFTS))


def test_every_sample_is_still_checked():
    # beta_max = 2 g admits f <= 1 only: a large population passes, one of size 1/2 does not
    model = dataclasses.replace(sp.counterexample_model(1.0),
                                bounds=sp.RateBounds(1.0, 1.0, 1.0, 1.0, 2.0))
    grid = sp.build_grid(40.0, 401)
    ctx = sp.make_context(model, grid)
    good, bad = (sp.DensityProfile(grid, P * np.exp(-grid.nodes)) for P in (100.0, 0.5))
    sp.net_reproduction_R(ctx, good)
    with pytest.raises(BoundsViolationError):
        sp.compactness_diagnostics(ctx, [good, bad], SHIFTS, 5.0)


def test_cold_start_returned_unchanged(ce_ctx):
    # the counterexample's envelopes meet, so a cold solve converges at its start
    result = sp.inner_picard(ce_ctx, 0.7, sp.SolverConfig())
    assert result.iterations == 1
    assert result.v is ce_ctx.start
