"""Core functionals: survival shape, birth output, net reproduction, and the
fixed-point map whose fixed points are the stationary population densities.

Rates and survival are computed from plain arrays on the context's grid; each
public function checks the density it takes (a profile, or an array of the
grid's length) once, on entry: against that grid, and for its sign.

A :class:`KernelContext` holds, computed once by :func:`make_context`, what
does not depend on u: the rates that ignore u (bounds-checked there), the
x-only shapes of the others, the cold start of the inner solve (the envelope
midpoint), and, when neither g nor mu reads u, the survival shape and its L1
distance from that start. It is immutable, every array it exposes is
read-only, and all operations are pure functions of it, so they are safe to
call concurrently.
The survival shape is always computed as the exponential of one running
integral of mu/g (never as products of per-interval survivals), shared between
the net reproduction value and the fixed-point map within a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import ParameterError
from .grid import DensityProfile, Grid, _density_values, _values, integrate, translate
from .model import (
    FrozenRates,
    ModelSpec,
    _at_nodes,
    envelope_norms,
    envelope_profiles,
    envelope_tail_mass,
    freeze_rates,
)


@dataclass(frozen=True)
class KernelContext:
    """Model + grid with the envelopes, their analytic norms and the u-independent rate parts."""

    model: ModelSpec
    grid: Grid
    e1: DensityProfile
    e2: DensityProfile
    norm_e1: float
    norm_e2: float
    rates: FrozenRates
    pi: np.ndarray | None          # survival shape when neither g nor mu reads u, else None
    start: DensityProfile          # cold start of the inner solve: 0.5 * (e1 + e2)
    start_gap: float | None        # quadrature of |start - pi| when pi is fixed, else None


def _survival(grid: Grid, g, mu) -> np.ndarray:
    # mu/g is a float when both are constant in x; the running integral needs an array
    return _accel.survival_from_rates(grid.steps, g, _at_nodes(grid, mu / g))


def make_context(model: ModelSpec, grid: Grid) -> KernelContext:
    e1, e2 = envelope_profiles(model.bounds, grid)
    norm_e1, norm_e2 = envelope_norms(model.bounds)
    frozen = freeze_rates(model, grid)
    (g, mu, _), (g_error, mu_error, _) = frozen.fixed, frozen.errors
    start = DensityProfile(grid, 0.5 * (e1.values + e2.values))
    pi = start_gap = None
    # a fixed rate outside its bounds raises at every evaluation, before pi is used
    if g is not None and mu is not None and g_error is None and mu_error is None:
        pi = _survival(grid, g, mu)
        pi.setflags(write=False)
        start_gap = _accel.weighted_sum(grid.weights, np.abs(start.values - pi))
    return KernelContext(model=model, grid=grid, e1=e1, e2=e2,
                         norm_e1=norm_e1, norm_e2=norm_e2, rates=frozen, pi=pi,
                         start=start, start_gap=start_gap)


def rates_and_survival(ctx: KernelContext, u_values: np.ndarray):
    """(g, beta, pi) on the grid nodes from one rate evaluation under density ``u_values``.

    pi is the survival shape (1/g) exp(-int_0^x mu/g) as a plain array, the
    context's own when it does not depend on u. g and beta are arrays at the
    nodes, or floats where they are constant in x.
    """
    g, mu, beta = ctx.rates.checked(u_values)
    return g, beta, _survival(ctx.grid, g, mu) if ctx.pi is None else ctx.pi


def survival_pi(ctx: KernelContext, u: DensityProfile) -> DensityProfile:
    """Survival shape (1/g) exp(-int_0^x mu/g) under environment u."""
    return DensityProfile(ctx.grid, rates_and_survival(ctx, _density_values(ctx.grid, u))[2])


def birth_G(ctx: KernelContext, u: DensityProfile) -> float:
    """Total birth output of profile u: integral of beta(x, u) u(x)."""
    u = _density_values(ctx.grid, u)
    beta = ctx.rates.checked(u)[2]
    return _accel.weighted_sum(ctx.grid.weights, beta * u)


def net_reproduction_R(ctx: KernelContext, u: DensityProfile) -> float:
    """Expected offspring per individual over its life in environment u."""
    _, beta, pi = rates_and_survival(ctx, _density_values(ctx.grid, u))
    return _accel.weighted_sum(ctx.grid.weights, beta * pi)


def apply_T(ctx: KernelContext, u: DensityProfile) -> DensityProfile:
    """One application of the fixed-point map: birth output times survival shape."""
    u = _density_values(ctx.grid, u)
    _, beta, pi = rates_and_survival(ctx, u)
    return DensityProfile(ctx.grid, _accel.weighted_sum(ctx.grid.weights, beta * u) * pi)


def residual(ctx: KernelContext, u: DensityProfile) -> float:
    """L1 distance between u and its image under the fixed-point map (grid part)."""
    Tu = apply_T(ctx, u)           # checks u
    return _accel.weighted_sum(ctx.grid.weights, np.abs(_values(ctx.grid, u) - Tu.values))


@dataclass(frozen=True)
class TranslationRow:
    sample_index: int
    h: float
    measured: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class CompactnessReport:
    """Numerical evidence for boundedness, tail decay and translation continuity."""

    T: float
    norm_rows: tuple          # (index, |pi|_1, analytic envelope norm, ok)
    tail_rows: tuple          # (index, tail mass beyond T, analytic envelope tail, ok)
    translation_rows: tuple   # TranslationRow per (sample, h)
    all_ok: bool

    def rows(self):
        for i, val, bound, ok in self.norm_rows:
            yield ("l1_bound", "pass" if ok else "fail",
                   "sample=%d value=%.6g bound=%.6g" % (i, val, bound))
        for i, val, bound, ok in self.tail_rows:
            yield ("tail_decay", "pass" if ok else "fail",
                   "sample=%d value=%.6g bound=%.6g" % (i, val, bound))
        for r in self.translation_rows:
            yield ("translation", "pass" if r.ok else "fail",
                   "sample=%d h=%.6g measured=%.6g bound=%.6g"
                   % (r.sample_index, r.h, r.measured, r.bound))


def _abs_change(shifted: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``|shifted - f|``, written over ``shifted``, a fresh array of translate's."""
    return np.abs(np.subtract(shifted, f, out=shifted), out=shifted)


def compactness_diagnostics(ctx: KernelContext, samples, h_list, T: float) -> CompactnessReport:
    """Check the three relative-compactness conditions on sampled survival shapes.

    The translation modulus over [0, T] is compared against the explicit bound
    (T mu_high / g_low^2) h + (T / g_low^2) * int_0^T |g(x+h, u) - g(x, u)| dx.

    Every sample's rates are evaluated and bounds-checked. When the survival
    shape is the context's fixed ``ctx.pi``, g is fixed too, so every sample
    has the same norm, tail and translation values: they are computed once,
    before any sample is drawn, translating pi and g once per shift, and
    reported for each sample. ``samples`` may be any iterable, a one-shot
    generator included; none is stored.
    """
    if not (0 < T < ctx.grid.x_max):
        raise ParameterError("T must lie strictly inside (0, x_max)")
    for h in h_list:
        if not (0 <= h < ctx.grid.x_max):
            raise ParameterError("shifts must satisfy 0 <= h < x_max")

    b = ctx.model.bounds
    grid = ctx.grid
    nodes = grid.nodes
    # snap T to a node so both sides of the inequality use the same window
    iT = int(np.searchsorted(nodes, T, side="right")) - 1
    T_eff = float(nodes[iT])
    wmask = grid.weights * (nodes <= T_eff)

    # trapezoid overshoots convex integrands; certified bias bounds via e2''.
    # Products, not powers: a huge finite spacing gives inf, not OverflowError,
    # and a row whose bound is not finite fails.
    h_max = float(np.max(grid.steps))
    decay = b.mu_low / b.g_high
    norm_bound = ctx.norm_e2 + (h_max * h_max / 12.0) * decay / b.g_low
    tail_bound = (envelope_tail_mass(b, T_eff)
                  + (h_max * h_max / 12.0) * decay * math.exp(-decay * T) / b.g_low)
    g_low2 = b.g_low * b.g_low

    def tail_mass(pi):
        # trapezoid weights restricted to [T_eff, x_max]: only half an interval at T_eff;
        # made per call, so that they are not held through the translations
        wtail = grid.weights * (nodes > T_eff)
        if iT + 1 < grid.n:
            wtail[iT] = 0.5 * grid.steps[iT]
        return _accel.weighted_sum(wtail, pi)

    def shape_values(g, pi):
        """|pi|_1, pi's tail mass beyond T_eff, and (measured, bound) per shift."""
        g = _at_nodes(grid, g)
        moduli = []
        for h in h_list:
            measured = _accel.weighted_sum(wmask, _abs_change(translate(grid, pi, h), pi))
            # the zero extension of g beyond x_max is irrelevant on [0, T]
            g_term = _accel.weighted_sum(wmask, _abs_change(translate(grid, g, h), g))
            # g_low^2 underflows to 0 below about 1.5e-154: the bound is inf, and its row fails
            bound = ((T_eff * b.mu_high / g_low2) * h + (T_eff / g_low2) * g_term
                     if g_low2 > 0 else math.inf)
            moduli.append((measured, bound))
        return integrate(grid, pi), tail_mass(pi), moduli

    norm_rows = []
    tail_rows = []
    trans_rows = []
    ok = True
    values = None if ctx.pi is None else shape_values(ctx.rates.fixed[0], ctx.pi)
    for s in samples:              # not enumerate: its reused tuple would hold the last sample
        idx = len(norm_rows)
        g, beta, pi = rates_and_survival(ctx, _density_values(grid, s))
        del s, beta                # neither is read again: free them for shape_values
        if ctx.pi is None:
            values = shape_values(g, pi)
        l1, tail, moduli = values
        norm_ok = math.isfinite(norm_bound) and l1 <= norm_bound * (1.0 + 1e-9)
        norm_rows.append((idx, l1, norm_bound, norm_ok))
        tail_ok = math.isfinite(tail_bound) and tail <= tail_bound * (1.0 + 1e-9) + 1e-15
        tail_rows.append((idx, tail, tail_bound, tail_ok))
        ok = ok and norm_ok and tail_ok

        for h, (measured, bound) in zip(h_list, moduli):
            row_ok = math.isfinite(bound) and measured <= bound + 1e-6 * max(1.0, bound)
            trans_rows.append(TranslationRow(idx, h, measured, bound, row_ok))
            ok = ok and row_ok

    if not norm_rows:
        raise ParameterError("need at least one onion sample")
    return CompactnessReport(
        T=T_eff,
        norm_rows=tuple(norm_rows),
        tail_rows=tuple(tail_rows),
        translation_rows=tuple(trans_rows),
        all_ok=ok,
    )
