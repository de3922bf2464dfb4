"""Vital rates (mortality, growth, fertility) and their bound constants.

Every model exposes the three rates as functions of size x and of the whole
population profile u, together with hard lower/upper bounds. Rates never leave
their declared bounds; evaluation raises if a misconfigured model does.

Builtin variants:

* ``constant`` -- all three rates constant.
* ``counterexample`` -- mortality equals growth (a single constant), fertility
  ``2 g (1 - e^{-x}) f(|u|_1)`` with the nonmonotone piecewise ``f`` below;
  the corresponding fixed-point problem has two positive equilibria.
* ``hierarchical`` -- growth ``g_low + (g_high - g_low) exp(-tail integral of u)``,
  constant mortality, saturating fertility ``b0 / (1 + |u|_1)``.
* ``composite`` -- each rate is a separable descriptor combining an x-shape
  with a dependence on one scalar functional of u (L1 norm, tail integral,
  or exponentially weighted integral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import _accel
from .errors import BoundsViolationError, ParameterError
from .grid import DensityProfile, Grid, _density_values, integrate, reverse_cumulative_integral

CONSTANT = "constant"
COUNTEREXAMPLE = "counterexample"
HIERARCHICAL = "hierarchical"
COMPOSITE = "composite"
VARIANTS = (CONSTANT, COUNTEREXAMPLE, HIERARCHICAL, COMPOSITE)

# sup of the counterexample fertility modulation f (attained at a = 1/2)
_F_SUP = 2.0


@dataclass(frozen=True)
class RateBounds:
    """Hard bounds: 0 < g_low <= g <= g_high, 0 < mu_low <= mu <= mu_high, beta <= beta_max."""

    g_low: float
    g_high: float
    mu_low: float
    mu_high: float
    beta_max: float

    def __post_init__(self):
        if not (0 < self.g_low <= self.g_high):
            raise ParameterError("need 0 < g_low <= g_high")
        if not (0 < self.mu_low <= self.mu_high):
            raise ParameterError("need 0 < mu_low <= mu_high")
        if not self.beta_max > 0:
            raise ParameterError("beta_max must be positive")
        # the envelopes divide by products of the bounds, which can underflow
        try:
            derived = (*envelope_norms(self), default_x_max(self))
        except (ArithmeticError, ValueError):
            derived = (math.nan,)
        if not all(0 < d < math.inf for d in derived):
            raise ParameterError(
                "rate bounds give envelope norms or a default horizon that are not "
                "finite and positive"
            )


@dataclass(frozen=True)
class CompositeRate:
    """Separable rate descriptor.

    value(x, u) = const + x_amp * (1 - exp(-x_rate * x))
                  + u_sat * s/(1+s) + u_inv / (1+s)

    where s is the chosen scalar functional of u:
      * ``norm``     -- the L1 norm of u,
      * ``tail``     -- the integral of u over [tail_from, x_max],
      * ``weighted`` -- the integral of exp(-weight_decay * x) * u(x).
    """

    const: float
    x_amp: float = 0.0
    x_rate: float = 1.0
    u_sat: float = 0.0
    u_inv: float = 0.0
    functional: str = "norm"
    tail_from: float = 0.0
    weight_decay: float = 1.0

    def __post_init__(self):
        # each error names the first field at fault; the negated forms also reject NaN
        for name in ("const", "x_amp", "u_sat", "u_inv"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ParameterError("coefficients must be finite and nonnegative", name)
        for name in ("x_rate", "weight_decay"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError("x_rate and weight_decay must be positive", name)
        if self.functional not in ("norm", "tail", "weighted"):
            raise ParameterError("unknown functional %r" % (self.functional,), "functional")
        if not 0 <= self.tail_from < math.inf:
            raise ParameterError("tail_from must be nonnegative", "tail_from")

    def low(self) -> float:
        return self.const + min(self.u_sat, self.u_inv)

    def high(self) -> float:
        return self.const + self.x_amp + max(self.u_sat, self.u_inv)

    def decay(self, grid: Grid) -> np.ndarray:
        """The weights exp(-weight_decay * x) of the ``weighted`` functional at the nodes."""
        return np.exp(-self.weight_decay * grid.nodes)

    def scalar_input(self, grid: Grid, u_values: np.ndarray, decay=None) -> float:
        """s under density ``u_values``; ``decay``, if given, is :meth:`decay` on ``grid``."""
        if self.functional == "norm":
            return integrate(grid, u_values)
        if self.functional == "tail":
            tail = reverse_cumulative_integral(grid, u_values)
            return float(np.interp(self.tail_from, grid.nodes, tail))
        if decay is None:
            decay = self.decay(grid)
        return _accel.weighted_sum(grid.weights, decay * u_values)

    def x_shape(self, x):
        """The part that reads only x: const + x_amp * (1 - exp(-x_rate * x))."""
        return self.const + self.x_amp * (1.0 - np.exp(-self.x_rate * x))

    def at(self, shape, s: float):
        """The rate from its x-shape ``shape`` and the value ``s`` of its functional."""
        sig = s / (1.0 + s)
        return shape + self.u_sat * sig + self.u_inv / (1.0 + s)

    def value(self, x, s: float):
        return self.at(self.x_shape(x), s)


@dataclass(frozen=True)
class ModelSpec:
    variant: str
    bounds: RateBounds
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParameterError("unknown model variant %r" % (self.variant,))


def constant_model(mu0: float, g0: float, beta0: float) -> ModelSpec:
    if min(mu0, g0) <= 0 or beta0 < 0:
        raise ParameterError("constant model needs mu0 > 0, g0 > 0, beta0 >= 0")
    bounds = RateBounds(g0, g0, mu0, mu0, max(beta0, 1e-300))
    return ModelSpec(CONSTANT, bounds, {"mu0": mu0, "g0": g0, "beta0": beta0})


def counterexample_model(g: float = 1.0) -> ModelSpec:
    if g <= 0:
        raise ParameterError("counterexample model needs g > 0")
    bounds = RateBounds(g, g, g, g, 2.0 * g * _F_SUP)
    return ModelSpec(COUNTEREXAMPLE, bounds, {"g": g})


def hierarchical_model(g_low: float, g_high: float, mu0: float, b0: float) -> ModelSpec:
    if not (0 < g_low <= g_high) or mu0 <= 0 or b0 <= 0:
        raise ParameterError("hierarchical model needs 0 < g_low <= g_high, mu0 > 0, b0 > 0")
    bounds = RateBounds(g_low, g_high, mu0, mu0, b0)
    return ModelSpec(
        HIERARCHICAL, bounds, {"g_low": g_low, "g_high": g_high, "mu0": mu0, "b0": b0}
    )


def composite_model(g: CompositeRate, mu: CompositeRate, beta: CompositeRate) -> ModelSpec:
    if g.low() <= 0 or mu.low() <= 0:
        raise ParameterError("composite g and mu must have positive lower bounds")
    bounds = RateBounds(g.low(), g.high(), mu.low(), mu.high(), max(beta.high(), 1e-300))
    return ModelSpec(COMPOSITE, bounds, {"g": g, "mu": mu, "beta": beta})


def counterexample_f(a: float) -> float:
    """Piecewise fertility modulation with exactly two solutions of f(a) = 1."""
    if a < 0:
        raise ParameterError("argument must be nonnegative")
    if a <= 0.5:
        return 0.5 + 3.0 * a
    if a <= 1.25:
        return 3.0 - 2.0 * a
    return 0.5 * math.exp(1.25) * math.exp(-a)


# -- rate evaluation ---------------------------------------------------------
#
# Rates are evaluated at a grid's nodes under a plain density array on that
# grid, in two parts. freeze_rates computes, once per model and grid, what does
# not read u, and judges its bounds there: every rate that ignores u, and the
# x-only shapes and functional weights of the others. Each evaluation then
# computes and checks only the rates that read u, each functional of u once;
# a rate constant in x is a float there. Per variant, _RATES holds these two
# functions and a bound on beta over all x for every u of a given integral; it
# is the only place a variant is dispatched to rate code.


def _fill(grid: Grid, value) -> np.ndarray:
    """``value`` at every node, as a fresh float array (callers may pass ints)."""
    return np.full(grid.n, value, dtype=float)


def _at_nodes(grid: Grid, value) -> np.ndarray:
    """A rate as an array at the nodes: a float is filled, an array returned as it is."""
    return value if isinstance(value, np.ndarray) else _fill(grid, value)


def _constant_frozen(p, grid: Grid):
    return (_fill(grid, p["g0"]), _fill(grid, p["mu0"]), _fill(grid, p["beta0"])), None


def _constant_rates(p, frozen, u: np.ndarray):
    return frozen.fixed


def _counterexample_frozen(p, grid: Grid):
    g = _fill(grid, p["g"])
    return (g, g, None), 2.0 * p["g"] * (1.0 - np.exp(-grid.nodes))


def _counterexample_rates(p, frozen, u: np.ndarray):
    g = frozen.fixed[0]
    return g, g, frozen.shapes * counterexample_f(integrate(frozen.grid, u))


def _hierarchical_frozen(p, grid: Grid):
    return (None, _fill(grid, p["mu0"]), None), None


def _hierarchical_rates(p, frozen, u: np.ndarray):
    tail = reverse_cumulative_integral(frozen.grid, u)
    g = p["g_low"] + (p["g_high"] - p["g_low"]) * np.exp(-tail)
    return g, frozen.fixed[1], p["b0"] / (1.0 + integrate(frozen.grid, u))


def _composite_frozen(p, grid: Grid):
    # per rate: its array if it ignores u, else its x-shape (a float when
    # x_amp = 0) and the weights of a weighted functional
    fixed, shapes = [], []
    for rate in (p["g"], p["mu"], p["beta"]):
        shape = rate.x_shape(0.0) if rate.x_amp == 0 else rate.x_shape(grid.nodes)
        if rate.u_sat == 0 and rate.u_inv == 0:
            # the u-terms add zeros, of the same signs for every s >= 0
            fixed.append(_at_nodes(grid, rate.at(shape, 0.0)))
            shapes.append(None)
        else:
            fixed.append(None)
            shapes.append((shape, rate.decay(grid) if rate.functional == "weighted" else None))
    return tuple(fixed), tuple(shapes)


def _composite_rates(p, frozen, u: np.ndarray):
    inputs = {}  # rates reading the same functional of u share its value
    out = []
    for rate, value, parts in zip((p["g"], p["mu"], p["beta"]), frozen.fixed, frozen.shapes):
        if value is None:
            shape, decay = parts
            key = (rate.functional, rate.tail_from, rate.weight_decay)
            if key not in inputs:
                inputs[key] = rate.scalar_input(frozen.grid, u, decay)
            value = rate.at(shape, inputs[key])
        out.append(value)
    return tuple(out)


def _composite_beta_sup(p, P):
    beta = p["beta"]
    if beta.functional == "norm":
        # the x-shape rises to x_amp as x -> inf; the u-terms read P itself
        return float(beta.value(math.inf, P))
    return beta.high()


class _Variant(NamedTuple):
    frozen: Callable         # (params, grid) -> (fixed, shapes) of a FrozenRates
    rates: Callable          # (params, FrozenRates, u_values) -> unchecked (g, mu, beta)
    beta_sup: Callable       # (params, P) -> bound on beta over all x, any u of integral P


_RATES = {
    CONSTANT: _Variant(_constant_frozen, _constant_rates, lambda p, P: p["beta0"]),
    # 1 - e^{-x} <= 1
    COUNTEREXAMPLE: _Variant(_counterexample_frozen, _counterexample_rates,
                             lambda p, P: 2.0 * p["g"] * counterexample_f(P)),
    HIERARCHICAL: _Variant(_hierarchical_frozen, _hierarchical_rates,
                           lambda p, P: p["b0"] / (1.0 + P)),
    COMPOSITE: _Variant(_composite_frozen, _composite_rates, _composite_beta_sup),
}


def _tolerance(bound):
    """How far past ``bound`` the bounds check lets a rate go."""
    return 1e-12 * max(1.0, abs(bound))


def _limits(bounds: RateBounds):
    return ((bounds.g_low, bounds.g_high, "g"), (bounds.mu_low, bounds.mu_high, "mu"),
            (0.0, bounds.beta_max, "beta"))


def _violation(value, low, high, name):
    """Why ``value`` (an array, or a float) fails the bounds check, or None if it passes."""
    if isinstance(value, float):
        lo = hi = value
    else:                           # what np.min and np.max run, without their dispatch
        lo, hi = np.minimum.reduce(value), np.maximum.reduce(value)
    # the negated form also flags NaN
    if not (low - _tolerance(low) <= lo and hi <= high + _tolerance(high)):
        return "%s evaluated outside declared bounds [%g, %g]" % (name, low, high)
    return None


@dataclass(frozen=True, eq=False)
class FrozenRates:
    """A model's rates on one grid, with what does not read u computed and judged once.

    ``fixed`` holds (g, mu, beta): an array at the nodes for each rate that
    ignores u, None for each that reads it. ``errors`` holds each fixed rate's
    bounds-check failure (None when it passes); every checked evaluation
    raises it. ``shapes`` holds the x-only factors and functional weights of
    the rates that read u, laid out by the variant. Every array is read-only.
    """

    model: ModelSpec
    grid: Grid
    fixed: tuple
    errors: tuple
    shapes: object

    def raw(self, u_values: np.ndarray):
        """Unchecked (g, mu, beta) under density ``u_values``; a rate constant in x is a float."""
        return _RATES[self.model.variant].rates(self.model.params, self, u_values)

    def checked(self, u_values: np.ndarray):
        """:meth:`raw`, raising :class:`BoundsViolationError` if any rate leaves its bounds.

        Only the rates that read u are checked here; a fixed rate's verdict is the
        one :func:`freeze_rates` reached.
        """
        values = _RATES[self.model.variant].rates(self.model.params, self, u_values)
        for value, fixed, error, limits in zip(values, self.fixed, self.errors,
                                               _limits(self.model.bounds)):
            if fixed is None:
                error = _violation(value, *limits)
            if error is not None:
                raise BoundsViolationError(error)
        return values


def _read_only(parts) -> None:
    """Make every array in ``parts``, nested in tuples, read-only."""
    if isinstance(parts, np.ndarray):
        parts.setflags(write=False)
    elif isinstance(parts, tuple):
        for part in parts:
            _read_only(part)


def freeze_rates(model: ModelSpec, grid: Grid) -> FrozenRates:
    """Compute ``model``'s u-independent rates and x-shapes on ``grid``, and judge their bounds.

    Never raises for a fixed rate outside its bounds: its evaluations do.
    """
    fixed, shapes = _RATES[model.variant].frozen(model.params, grid)
    _read_only((fixed, shapes))
    errors = tuple(None if value is None else _violation(value, *limits)
                   for value, limits in zip(fixed, _limits(model.bounds)))
    return FrozenRates(model, grid, fixed, errors, shapes)


def _node_arrays(grid: Grid, values) -> tuple:
    return tuple(_at_nodes(grid, value) for value in values)


def raw_rates(model: ModelSpec, grid: Grid, u_values: np.ndarray):
    """(g, mu, beta) at the grid's nodes under density ``u_values``, without the bounds check."""
    return _node_arrays(grid, freeze_rates(model, grid).raw(u_values))


def beta_sup(model: ModelSpec, P: float) -> float:
    """Bound on beta(x, u) over all x, for every profile u whose integral is P."""
    return _RATES[model.variant].beta_sup(model.params, P)


def rates(model: ModelSpec, grid: Grid, u_values: np.ndarray):
    """(g, mu, beta) at the grid's nodes under density ``u_values``; raises if any leaves its bounds."""
    return _node_arrays(grid, freeze_rates(model, grid).checked(u_values))


def eval_g(model: ModelSpec, u: DensityProfile) -> np.ndarray:
    """Growth rate at the nodes of ``u``'s grid under population profile u."""
    return rates(model, u.grid, u.values)[0]


def eval_mu(model: ModelSpec, u: DensityProfile) -> np.ndarray:
    """Mortality rate at the nodes of ``u``'s grid under population profile u."""
    return rates(model, u.grid, u.values)[1]


def eval_beta(model: ModelSpec, u: DensityProfile) -> np.ndarray:
    """Fertility rate at the nodes of ``u``'s grid under population profile u."""
    return rates(model, u.grid, u.values)[2]


# -- exponential envelopes and the admissible "onion" region ----------------


def envelope_values(bounds: RateBounds, x):
    """Lower/upper exponential envelopes sandwiching every survival shape."""
    x = np.asarray(x, dtype=float)
    e1 = np.exp(-(bounds.mu_high / bounds.g_low) * x) / bounds.g_high
    e2 = np.exp(-(bounds.mu_low / bounds.g_high) * x) / bounds.g_low
    return e1, e2


def envelope_profiles(bounds: RateBounds, grid: Grid):
    e1, e2 = envelope_values(bounds, grid.nodes)
    return DensityProfile(grid, e1), DensityProfile(grid, e2)


def envelope_norms(bounds: RateBounds):
    """Closed-form L1 norms of the envelopes over the full half line."""
    norm_e1 = bounds.g_low / (bounds.g_high * bounds.mu_high)
    norm_e2 = bounds.g_high / (bounds.g_low * bounds.mu_low)
    return norm_e1, norm_e2


def envelope_tail_mass(bounds: RateBounds, T: float) -> float:
    """Closed-form integral of the upper envelope over [T, infinity)."""
    return (bounds.g_high / (bounds.g_low * bounds.mu_low)) * math.exp(
        -bounds.mu_low * T / bounds.g_high
    )


def survival_mass_bound(bounds: RateBounds, grid: Grid) -> float:
    """``I`` with ``R(u) <= beta_sup(P) * I`` for every u of integral P whose rates pass the check.

    The check admits ``g >= g_low - t`` and ``mu/g >= c = (mu_low - t)/(g_high + t)``
    (``t`` its tolerances), so the running trapezoid of mu/g at node x is at least
    ``c x`` and the survival shape is at most ``exp(-c x)/(g_low - t)``; ``I`` is the
    quadrature of that bound. It is inf when ``g_low - t`` or ``c`` is not positive.
    """
    g_low = bounds.g_low - _tolerance(bounds.g_low)
    c = ((bounds.mu_low - _tolerance(bounds.mu_low))
         / (bounds.g_high + _tolerance(bounds.g_high)))
    if not (g_low > 0 and c > 0):
        return math.inf
    return _accel.weighted_sum(grid.weights, np.exp(-c * grid.nodes)) / g_low


def default_x_max(bounds: RateBounds, tail_tol: float = 1e-10) -> float:
    """Truncation horizon putting the upper-envelope tail below ``tail_tol``."""
    b = bounds
    return (b.g_high / b.mu_low) * math.log(b.g_high / (b.g_low * b.mu_low * tail_tol))


def random_onion_samples(bounds, grid, lambdas, per_lambda, rng) -> list:
    """Seeded onion samples: profiles ``lam * v``, shapes ``v`` random between the envelopes."""
    e1, e2 = envelope_values(bounds, grid.nodes)
    out = []
    for lam in lambdas:
        if not lam > 0:
            raise ParameterError("onion sample scale must be positive")
        for _ in range(per_lambda):
            r = rng.random(grid.n)
            out.append(DensityProfile(grid, lam * (e1 + r * (e2 - e1))))
    return out


# -- sampled hypothesis checks ----------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    """Sampled evidence for the standing hypotheses; never a proof."""

    bounds_ok: bool
    worst_bound_violation: float
    gx_window: float
    gx_sup: float
    gx_analytic_bound: float | None
    gx_bound_ok: bool | None
    lbeta_lambdas: tuple
    lbeta_values: tuple
    lbeta_pass: bool
    continuity_response: float
    notes: tuple

    def rows(self):
        yield ("bounds_A", "pass" if self.bounds_ok else "fail",
               "worst_violation=%.6g" % self.worst_bound_violation)
        detail = "sup|g_x|=%.6g on [0,%.6g]" % (self.gx_sup, self.gx_window)
        if self.gx_analytic_bound is not None:
            detail += " analytic_bound=%.6g" % self.gx_analytic_bound
        verdict = "evidence" if self.gx_bound_ok is None else (
            "pass" if self.gx_bound_ok else "fail")
        yield ("derivative_D", verdict, detail)
        sweep = " ".join("%.3g:%.6g" % (l, v)
                         for l, v in zip(self.lbeta_lambdas, self.lbeta_values))
        yield ("beta_limit", "pass" if self.lbeta_pass else "fail", sweep)
        yield ("continuity_in_u", "evidence",
               "relative_response=%.6g" % self.continuity_response)
        for note in self.notes:
            yield ("note", "info", note)


def validate_hypotheses(model: ModelSpec, grid: Grid, samples) -> HypothesisReport:
    """Check rate bounds, a finite-difference derivative sup, and fertility decay.

    All verdicts come from the supplied onion samples plus a fixed scale sweep;
    they are sampled evidence over an uncountable admissible set.
    """
    if not samples:
        raise ParameterError("need at least one onion sample")
    b = model.bounds
    nodes = grid.nodes
    T = 0.5 * grid.x_max
    in_window = nodes <= T

    frozen = freeze_rates(model, grid)

    def raw(u):
        return _node_arrays(grid, frozen.raw(u))

    values = [_density_values(grid, s) for s in samples]
    worst = 0.0
    gx_sup = 0.0
    for u in values:
        g, mu, beta = raw(u)
        worst = max(
            worst,
            float(np.max(b.g_low - g, initial=0.0)),
            float(np.max(g - b.g_high, initial=0.0)),
            float(np.max(b.mu_low - mu, initial=0.0)),
            float(np.max(mu - b.mu_high, initial=0.0)),
            float(np.max(-beta, initial=0.0)),
            float(np.max(beta - b.beta_max, initial=0.0)),
        )
        gx = np.abs(np.diff(g) / grid.steps)
        gx_sup = max(gx_sup, float(np.max(gx[in_window[:-1]], initial=0.0)))
    tol = 1e-12 * max(1.0, b.g_high, b.mu_high, b.beta_max)
    bounds_ok = worst <= tol

    gx_bound = None
    gx_ok = None
    if model.variant == HIERARCHICAL:
        # sup over scales of lam*v*exp(-lam*tail) is bounded via sup lam*e^(-a*lam)=1/(a*e)
        _, e2_at_0 = envelope_values(b, 0.0)
        tail_e1 = (b.g_low / (b.g_high * b.mu_high)) * math.exp(-b.mu_high * T / b.g_low)
        # the exponential underflows to 0 once mu_high T / g_low passes ~745,
        # and a tiny tail can overflow the quotient: neither bound is formed
        gx_bound = (
            (model.params["g_high"] - model.params["g_low"])
            * float(e2_at_0)
            / (math.e * tail_e1)
            if tail_e1 > 0 else math.inf
        )
        gx_ok = math.isfinite(gx_bound) and gx_sup <= gx_bound * (1.0 + 1e-6)

    _, e2 = envelope_values(b, nodes)
    lams = (1.0, 10.0, 1e2, 1e3, 1e4)
    beta_sweep = [float(np.max(raw(lam * e2)[2])) for lam in lams]
    nonincreasing = all(
        beta_sweep[i + 1] <= beta_sweep[i] + 1e-12 for i in range(len(beta_sweep) - 1)
    )
    lbeta_pass = nonincreasing and beta_sweep[-1] <= 1e-3 * max(beta_sweep[0], 1e-300)

    # continuity evidence: relative rate response to a 1e-6 L1 perturbation
    base = values[0]
    delta = 1e-6 / max(integrate(grid, e2), 1e-300)
    resp = 0.0
    for a0, a1 in zip(raw(base), raw(base + delta * e2)):
        scale = max(float(np.max(np.abs(a0))), 1e-300)
        resp = max(resp, float(np.max(np.abs(a1 - a0))) / scale)

    notes = ("verdicts are sampled evidence over the admissible set, not proofs",)
    return HypothesisReport(
        bounds_ok=bounds_ok,
        worst_bound_violation=worst,
        gx_window=T,
        gx_sup=gx_sup,
        gx_analytic_bound=gx_bound,
        gx_bound_ok=gx_ok,
        lbeta_lambdas=lams,
        lbeta_values=tuple(beta_sweep),
        lbeta_pass=lbeta_pass,
        continuity_response=resp,
        notes=notes,
    )
