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

import numpy as np

from . import _accel
from .errors import BoundsViolationError, ParameterError
from .grid import DensityProfile, Grid, integrate, reverse_cumulative_integral

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
        if min(self.const, self.x_amp, self.u_sat, self.u_inv) < 0:
            raise ParameterError("composite rate coefficients must be nonnegative")
        if self.x_rate <= 0 or self.weight_decay <= 0:
            raise ParameterError("x_rate and weight_decay must be positive")
        if self.functional not in ("norm", "tail", "weighted"):
            raise ParameterError("unknown functional %r" % (self.functional,))
        if self.tail_from < 0:
            raise ParameterError("tail_from must be nonnegative")

    def low(self) -> float:
        return self.const + min(self.u_sat, self.u_inv)

    def high(self) -> float:
        return self.const + self.x_amp + max(self.u_sat, self.u_inv)

    def scalar_input(self, u: DensityProfile) -> float:
        g = u.grid
        if self.functional == "norm":
            return integrate(g, u)
        if self.functional == "tail":
            tail = reverse_cumulative_integral(g, u)
            return float(np.interp(self.tail_from, g.nodes, tail))
        return _accel.weighted_sum(
            g.weights, np.exp(-self.weight_decay * g.nodes) * u.values
        )

    def value(self, x, s: float):
        sig = s / (1.0 + s)
        return (
            self.const
            + self.x_amp * (1.0 - np.exp(-self.x_rate * np.asarray(x, dtype=float)))
            + self.u_sat * sig
            + self.u_inv / (1.0 + s)
        )


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
# One function per variant maps (params, x, u) to the unchecked (g, mu, beta)
# and computes each functional of u once; _RATES is the only place a variant
# is dispatched to rate code.


def _fill(x, value):
    """``value`` at every x: a fresh array for array x, the scalar itself otherwise."""
    return np.full(np.shape(x), value, dtype=float) if np.ndim(x) else value


def _constant_rates(p, x, u: DensityProfile):
    return _fill(x, p["g0"]), _fill(x, p["mu0"]), _fill(x, p["beta0"])


def _counterexample_rates(p, x, u: DensityProfile):
    fval = counterexample_f(integrate(u.grid, u))
    beta = 2.0 * p["g"] * (1.0 - np.exp(-np.asarray(x, dtype=float))) * fval
    return _fill(x, p["g"]), _fill(x, p["g"]), beta


def _hierarchical_rates(p, x, u: DensityProfile):
    tail = reverse_cumulative_integral(u.grid, u)
    if x is not u.grid.nodes:  # on the grid's own nodes interpolation is the identity
        tail = np.interp(np.asarray(x, dtype=float), u.grid.nodes, tail)
    g = p["g_low"] + (p["g_high"] - p["g_low"]) * np.exp(-tail)
    beta = p["b0"] / (1.0 + integrate(u.grid, u))
    return g, _fill(x, p["mu0"]), _fill(x, beta)


def _composite_rates(p, x, u: DensityProfile):
    inputs = {}  # rates reading the same functional of u share its value

    def value(rate: CompositeRate):
        key = (rate.functional, rate.tail_from, rate.weight_decay)
        if key not in inputs:
            inputs[key] = rate.scalar_input(u)
        return rate.value(x, inputs[key])

    return value(p["g"]), value(p["mu"]), value(p["beta"])


_RATES = {
    CONSTANT: _constant_rates,
    COUNTEREXAMPLE: _counterexample_rates,
    HIERARCHICAL: _hierarchical_rates,
    COMPOSITE: _composite_rates,
}


def raw_rates(model: ModelSpec, x, u: DensityProfile):
    """(g, mu, beta) at x (scalar or array) under profile u, without the bounds check."""
    return _RATES[model.variant](model.params, x, u)


def _checked(value, low, high, name):
    tol_lo = 1e-12 * max(1.0, abs(low))
    tol_hi = 1e-12 * max(1.0, abs(high))
    # one min and one max pass; the negated form also flags NaN
    if not (low - tol_lo <= np.min(value) and np.max(value) <= high + tol_hi):
        raise BoundsViolationError(
            "%s evaluated outside declared bounds [%g, %g]" % (name, low, high)
        )
    return value


def rates(model: ModelSpec, x, u: DensityProfile):
    """(g, mu, beta) at x under profile u; raises if any leaves its declared bounds."""
    g, mu, beta = raw_rates(model, x, u)
    b = model.bounds
    return (
        _checked(g, b.g_low, b.g_high, "g"),
        _checked(mu, b.mu_low, b.mu_high, "mu"),
        _checked(beta, 0.0, b.beta_max, "beta"),
    )


def eval_g(model: ModelSpec, x, u: DensityProfile):
    """Growth rate at x (scalar or array) under population profile u."""
    return rates(model, x, u)[0]


def eval_mu(model: ModelSpec, x, u: DensityProfile):
    """Mortality rate at x under population profile u."""
    return rates(model, x, u)[1]


def eval_beta(model: ModelSpec, x, u: DensityProfile):
    """Fertility rate at x under population profile u."""
    return rates(model, x, u)[2]


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

    worst = 0.0
    gx_sup = 0.0
    for s in samples:
        g, mu, beta = raw_rates(model, nodes, s)
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

    _, e2 = envelope_profiles(b, grid)
    lams = (1.0, 10.0, 1e2, 1e3, 1e4)
    beta_sweep = []
    for lam in lams:
        u = DensityProfile(grid, lam * e2.values)
        beta_sweep.append(float(np.max(raw_rates(model, nodes, u)[2])))
    nonincreasing = all(
        beta_sweep[i + 1] <= beta_sweep[i] + 1e-12 for i in range(len(beta_sweep) - 1)
    )
    lbeta_pass = nonincreasing and beta_sweep[-1] <= 1e-3 * max(beta_sweep[0], 1e-300)

    # continuity evidence: relative rate response to a 1e-6 L1 perturbation
    base = samples[0]
    delta = 1e-6 / max(integrate(grid, e2), 1e-300)
    pert = DensityProfile(grid, base.values + delta * e2.values)
    resp = 0.0
    for a0, a1 in zip(raw_rates(model, nodes, base), raw_rates(model, nodes, pert)):
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
