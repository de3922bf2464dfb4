"""Vital rates (mortality, growth, fertility) and their bound constants.

Every model exposes the three rates as functions of size x and of the whole
population profile u, together with hard lower/upper bounds. Rates never leave
their declared bounds; evaluation raises if a misconfigured model does.

Built-in families, each made by its builder (``constant_model``, ...):

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _accel
from .errors import BoundsViolationError, ParameterError
from .grid import DensityProfile, Grid, _density_values, integrate, reverse_cumulative_integral

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
        # the lower envelope's decay rate, which can overflow: e1 would be inf * 0 at x = 0
        if not math.isfinite(self.mu_high / self.g_low):
            raise ParameterError(
                "rate bounds give mu_high / g_low, the decay rate of the lower envelope, "
                "that is not finite"
            )
        # the a-priori bounds on beta pi at a node and on R, which can overflow
        if not (math.isfinite(self.beta_max / self.g_low)
                and math.isfinite(self.beta_max * envelope_norms(self)[1])):
            raise ParameterError(
                "rate bounds give beta_max / g_low or beta_max * |e2|_1, the bounds on "
                "beta pi at a node and on R, that are not finite"
            )


@dataclass(frozen=True)
class CompositeRate:
    """Separable rate descriptor.

    rate(x, u) = const + x_amp * (1 - exp(-x_rate * x))
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

    def scalar_input(self, grid: Grid, u_values: np.ndarray, decay) -> float:
        """s under density ``u_values``; ``decay``, read if ``weighted``, is :meth:`decay`."""
        if self.functional == "norm":
            return integrate(grid, u_values)
        if self.functional == "tail":
            tail = reverse_cumulative_integral(grid, u_values)
            return float(np.interp(self.tail_from, grid.nodes, tail))
        return _accel.weighted_sum(grid.weights, decay * u_values)

    def x_shape(self, x):
        """The part that reads only x: const + x_amp * (1 - exp(-x_rate * x))."""
        return self.const + self.x_amp * (1.0 - np.exp(-self.x_rate * x))

    def at(self, shape, s: float):
        """The rate from its x-shape ``shape`` and the value ``s`` of its functional."""
        sig = s / (1.0 + s)
        return shape + self.u_sat * sig + self.u_inv / (1.0 + s)


@dataclass(frozen=True)
class ModelSpec:
    """A model: its rate bounds, its parameters and its family's functions of them.

    ``variant`` only names the family. ``bind(params, grid) -> (fixed, rates)``
    evaluates the rates (see the note on rate evaluation below), and ``beta_sup(params,
    P)`` bounds beta over all x for every u of integral P. The optional
    ``beta_inf(params, P)`` is a lower bound on beta over all x for every u of
    integral P. A family that gives it promises that ``beta_inf``
    and ``beta_sup`` are both monotone in P, so that over an interval of sizes
    their extremes lie at its ends, and that both also take an array of sizes,
    giving a bound per size; the solver's scan reads both to skip the
    scales whose sign of R - 1 the bounds prove. Give them as module-level
    functions, so that equal models compare equal.
    """

    variant: str
    bounds: RateBounds
    params: dict
    bind: Callable
    beta_sup: Callable
    beta_inf: Callable | None = None


def constant_model(mu0: float, g0: float, beta0: float) -> ModelSpec:
    if min(mu0, g0) <= 0 or beta0 < 0:
        raise ParameterError("constant model needs mu0 > 0, g0 > 0, beta0 >= 0")
    bounds = RateBounds(g0, g0, mu0, mu0, max(beta0, 1e-300))
    return ModelSpec("constant", bounds, {"mu0": mu0, "g0": g0, "beta0": beta0},
                     _constant, _constant_beta_sup)


def counterexample_model(g: float = 1.0) -> ModelSpec:
    if g <= 0:
        raise ParameterError("counterexample model needs g > 0")
    bounds = RateBounds(g, g, g, g, 2.0 * g * _F_SUP)
    return ModelSpec("counterexample", bounds, {"g": g}, _counterexample,
                     _counterexample_beta_sup)


def hierarchical_model(g_low: float, g_high: float, mu0: float, b0: float) -> ModelSpec:
    if not (0 < g_low <= g_high) or mu0 <= 0 or b0 <= 0:
        raise ParameterError("hierarchical model needs 0 < g_low <= g_high, mu0 > 0, b0 > 0")
    bounds = RateBounds(g_low, g_high, mu0, mu0, b0)
    return ModelSpec(
        "hierarchical", bounds, {"g_low": g_low, "g_high": g_high, "mu0": mu0, "b0": b0},
        _hierarchical, _hierarchical_beta, _hierarchical_beta,
    )


def composite_model(g: CompositeRate, mu: CompositeRate, beta: CompositeRate) -> ModelSpec:
    if g.low() <= 0 or mu.low() <= 0:
        raise ParameterError("composite g and mu must have positive lower bounds")
    bounds = RateBounds(g.low(), g.high(), mu.low(), mu.high(), max(beta.high(), 1e-300))
    return ModelSpec("composite", bounds, {"g": g, "mu": mu, "beta": beta}, _composite,
                     _composite_beta_sup, beta_inf=_composite_beta_inf)


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
# grid, by the model's own binder (``ModelSpec.bind``). A binder computes, once
# per model and grid, what does not read u: every rate that ignores u (as an
# array in ``fixed``, None for the others) and the x-only shapes and functional
# weights of the rest. It returns ``fixed`` and a closure over these parts that
# computes only the rates that read u, each functional of u once, and passes a
# fixed rate through as it is; a rate constant in x is a float there.


def _fill(grid: Grid, value) -> np.ndarray:
    """``value`` at every node, as a fresh float array (callers may pass ints)."""
    return np.full(grid.n, value, dtype=float)


def _at_nodes(grid: Grid, value) -> np.ndarray:
    """A rate as an array at the nodes: a float is filled, an array returned as it is."""
    return value if isinstance(value, np.ndarray) else _fill(grid, value)


def _constant(p, grid: Grid):
    fixed = (_fill(grid, p["g0"]), _fill(grid, p["mu0"]), _fill(grid, p["beta0"]))
    return fixed, lambda u: fixed


def _constant_beta_sup(p, P):
    return p["beta0"]


def _counterexample(p, grid: Grid):
    g = _fill(grid, p["g"])
    shape = 2.0 * p["g"] * (1.0 - np.exp(-grid.nodes))

    def rates(u):
        return g, g, shape * counterexample_f(integrate(grid, u))

    return (g, g, None), rates


def _counterexample_beta_sup(p, P):
    return 2.0 * p["g"] * counterexample_f(P)     # 1 - e^{-x} <= 1


def _hierarchical(p, grid: Grid):
    mu = _fill(grid, p["mu0"])
    g_low, g_span, b0 = p["g_low"], p["g_high"] - p["g_low"], p["b0"]

    def rates(u):
        g = g_low + g_span * np.exp(-reverse_cumulative_integral(grid, u))
        return g, mu, b0 / (1.0 + integrate(grid, u))

    return (None, mu, None), rates


def _hierarchical_beta(p, P):
    # beta reads only P, so this is both beta_sup and beta_inf
    return p["b0"] / (1.0 + P)


def _composite(p, grid: Grid):
    # per rate that reads u: its index, functional, x-shape (a float when
    # x_amp = 0) and, for a weighted functional, the weights
    fixed, reading = [], []
    for i, rate in enumerate((p["g"], p["mu"], p["beta"])):
        shape = rate.x_shape(0.0) if rate.x_amp == 0 else rate.x_shape(grid.nodes)
        if rate.u_sat == 0 and rate.u_inv == 0:
            # the u-terms add zeros, of the same signs for every s >= 0
            fixed.append(_at_nodes(grid, rate.at(shape, 0.0)))
        else:
            fixed.append(None)
            key = (rate.functional, rate.tail_from, rate.weight_decay)
            reading.append((i, rate, key, shape,
                            rate.decay(grid) if rate.functional == "weighted" else None))
    fixed = tuple(fixed)

    def rates(u):
        out = list(fixed)
        inputs = {}  # rates reading the same functional of u share its value
        for i, rate, key, shape, decay in reading:
            if key not in inputs:
                inputs[key] = rate.scalar_input(grid, u, decay)
            out[i] = rate.at(shape, inputs[key])
        return tuple(out)

    return fixed, rates


def _composite_beta_sup(p, P):
    beta = p["beta"]
    if beta.functional == "norm":
        # the x-shape rises to x_amp as x -> inf; the u-terms read P itself
        return beta.at(float(beta.x_shape(math.inf)), P)
    return beta.high()


def _composite_beta_inf(p, P):
    beta = p["beta"]
    if beta.functional == "norm":
        # the x-shape is least at x = 0
        return beta.at(float(beta.x_shape(0.0)), P)
    return beta.low()


def _tolerance(bound):
    """How far past ``bound`` the bounds check lets a rate go."""
    return 1e-12 * max(1.0, abs(bound))


def _limits(bounds: RateBounds):
    return ((bounds.g_low, bounds.g_high, "g"), (bounds.mu_low, bounds.mu_high, "mu"),
            (0.0, bounds.beta_max, "beta"))


def _check(value, low, high):
    """(min, max, passes) of a rate, an array or a float, under the bounds check; NaN fails."""
    if isinstance(value, float):
        lo = hi = value
    else:                           # what np.min and np.max run, without their dispatch
        lo, hi = np.minimum.reduce(value), np.maximum.reduce(value)
    return lo, hi, low - _tolerance(low) <= lo and hi <= high + _tolerance(high)


def _violation(value, low, high, name):
    """Why ``value`` (an array, or a float) fails the bounds check, or None if it passes."""
    if not _check(value, low, high)[2]:
        return "%s evaluated outside declared bounds [%g, %g]" % (name, low, high)
    return None


@dataclass(frozen=True, eq=False)
class FrozenRates:
    """A model's rates on one grid, with what does not read u computed and judged once.

    ``fixed`` holds (g, mu, beta): a read-only array at the nodes for each rate
    that ignores u, None for each that reads it. ``errors`` holds each fixed
    rate's bounds-check failure (None when it passes); every checked evaluation
    raises it. ``limits`` holds each rate's (low, high, name) for the check, and
    ``rates`` is the binder's closure from a density to the unchecked (g, mu,
    beta); a rate constant in x is a float there.
    """

    fixed: tuple
    errors: tuple
    limits: tuple
    rates: Callable

    def checked(self, u_values: np.ndarray):
        """``rates(u_values)``, raising :class:`BoundsViolationError` if a rate leaves its bounds.

        Only the rates that read u are checked here; a fixed rate's verdict is the
        one :func:`freeze_rates` reached.
        """
        values = self.rates(u_values)
        for value, fixed, error, limits in zip(values, self.fixed, self.errors, self.limits):
            if fixed is None:
                error = _violation(value, *limits)
            if error is not None:
                raise BoundsViolationError(error)
        return values


def freeze_rates(model: ModelSpec, grid: Grid) -> FrozenRates:
    """Compute ``model``'s u-independent rates and x-shapes on ``grid``, and judge their bounds.

    Never raises for a fixed rate outside its bounds: its evaluations do.
    """
    fixed, rates = model.bind(model.params, grid)
    for value in fixed:
        if value is not None:
            value.setflags(write=False)
    limits = _limits(model.bounds)
    errors = tuple(None if value is None else _violation(value, *lim)
                   for value, lim in zip(fixed, limits))
    return FrozenRates(fixed, errors, limits, rates)


def eval_g(model: ModelSpec, u: DensityProfile) -> np.ndarray:
    """Growth rate at the nodes of ``u``'s grid under population profile u."""
    return _at_nodes(u.grid, freeze_rates(model, u.grid).checked(u.values)[0])


def eval_mu(model: ModelSpec, u: DensityProfile) -> np.ndarray:
    """Mortality rate at the nodes of ``u``'s grid under population profile u."""
    return _at_nodes(u.grid, freeze_rates(model, u.grid).checked(u.values)[1])


def eval_beta(model: ModelSpec, u: DensityProfile) -> np.ndarray:
    """Fertility rate at the nodes of ``u``'s grid under population profile u."""
    return _at_nodes(u.grid, freeze_rates(model, u.grid).checked(u.values)[2])


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


# the upper envelope's mass that the default horizon leaves beyond it
_TAIL_TOL = 1e-10


def default_x_max(bounds: RateBounds) -> float:
    """Truncation horizon putting the upper-envelope tail below ``_TAIL_TOL``."""
    b = bounds
    return (b.g_high / b.mu_low) * math.log(b.g_high / (b.g_low * b.mu_low * _TAIL_TOL))


def random_onion_samples(bounds, grid, lambdas, per_lambda, rng):
    """Seeded onion samples: profiles ``lam * v``, shapes ``v`` random between the envelopes.

    Yields them one at a time, each drawn from ``rng`` when it is asked for,
    so a caller that keeps none holds one sample's n values at a time; the
    envelopes are made at the first draw. A scale that is not positive
    raises here, before anything is drawn.
    """
    lambdas = tuple(lambdas)
    if not all(lam > 0 for lam in lambdas):
        raise ParameterError("onion sample scale must be positive")

    def draws():
        e1, e2 = envelope_values(bounds, grid.nodes)
        for lam in lambdas:
            for _ in range(per_lambda):
                yield DensityProfile(grid, lam * (e1 + rng.random(grid.n) * (e2 - e1)))

    return draws()


# -- sampled hypothesis checks ----------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    """Sampled evidence for the standing hypotheses; never a proof."""

    bounds_ok: bool
    worst_bound_violation: float
    gx_window: float
    gx_sup: float
    lbeta_lambdas: tuple
    lbeta_values: tuple
    lbeta_pass: bool
    continuity_response: float
    notes: tuple

    def rows(self):
        yield ("bounds_A", "pass" if self.bounds_ok else "fail",
               "worst_violation=%.6g" % self.worst_bound_violation)
        yield ("derivative_D", "evidence",
               "sup|g_x|=%.6g on [0,%.6g]" % (self.gx_sup, self.gx_window))
        sweep = " ".join("%.3g:%.6g" % (l, v)
                         for l, v in zip(self.lbeta_lambdas, self.lbeta_values))
        yield ("beta_limit", "pass" if self.lbeta_pass else "fail", sweep)
        yield ("continuity_in_u", "evidence",
               "relative_response=%.6g" % self.continuity_response)
        for note in self.notes:
            yield ("note", "info", note)


def _sup(values) -> float:
    """``max(0.0, *values)``, but NaN when any value is NaN, which Python's max can drop."""
    return math.nan if any(math.isnan(v) for v in values) else max([0.0, *values])


def validate_hypotheses(ctx, samples) -> HypothesisReport:
    """Check rate bounds, a finite-difference derivative sup, and fertility decay.

    Reads the grid, frozen rates and upper envelope of the context
    ``ctx`` and builds none of them again. The verdicts are sampled evidence
    over an uncountable admissible set, from ``samples`` and a fixed scale sweep.
    ``bounds_A`` passes exactly when every evaluation passes the bounds check
    (a fixed rate's verdict is ``ctx.rates.errors``); its worst violation, the
    largest excess past a declared bound, is NaN when a rate is NaN. A rate
    that ignores u, and g's slope when it is one, is taken once per call.
    ``samples`` may be any iterable; only the first is kept, for the
    continuity row.
    """
    grid, frozen = ctx.grid, ctx.rates
    T = 0.5 * grid.x_max
    in_window = (grid.nodes <= T)[:-1]

    def raw(u):
        return tuple(_at_nodes(grid, value) for value in frozen.rates(u))

    def check(i, value):           # with rate i's declared bounds
        low, high, _ = frozen.limits[i]
        return (*_check(value, low, high), low, high)

    def slope(g):
        return float(np.max(np.abs(np.diff(g) / grid.steps)[in_window], initial=0.0))

    fixed = frozen.fixed
    checks = [check(i, value) for i, value in enumerate(fixed) if value is not None]
    judged = len(checks)           # freeze_rates already judged these
    slopes = [] if fixed[0] is None else [slope(fixed[0])]
    base = None
    for s in samples:
        u = _density_values(grid, s)
        if base is None:
            base = u
        rates = raw(u)
        checks += [check(i, value) for i, value in enumerate(rates) if fixed[i] is None]
        if fixed[0] is None:
            slopes.append(slope(rates[0]))
        del s, u, rates            # before the next sample is drawn
    if base is None:
        raise ParameterError("need at least one onion sample")
    bounds_ok = (all(error is None for error in frozen.errors)
                 and all(passes for _, _, passes, _, _ in checks[judged:]))
    # rounding is monotone, so low - min(v) is max(low - v) bit for bit
    worst = _sup([float(t) for lo, hi, _, low, high in checks for t in (low - lo, hi - high)])
    gx_sup = _sup(slopes)

    e2 = ctx.e2.values
    lams = (1.0, 10.0, 1e2, 1e3, 1e4)
    beta_sweep = [float(np.max(raw(lam * e2)[2])) for lam in lams]
    nonincreasing = all(
        beta_sweep[i + 1] <= beta_sweep[i] + 1e-12 for i in range(len(beta_sweep) - 1)
    )
    lbeta_pass = nonincreasing and beta_sweep[-1] <= 1e-3 * max(beta_sweep[0], 1e-300)

    # continuity evidence: relative rate response to a 1e-6 L1 perturbation
    delta = 1e-6 / max(integrate(grid, e2), 1e-300)
    responses = []
    for a0, a1 in zip(raw(base), raw(base + delta * e2)):
        scale = max(float(np.max(np.abs(a0))), 1e-300)
        responses.append(float(np.max(np.abs(a1 - a0))) / scale)
    resp = _sup(responses)

    notes = ("verdicts are sampled evidence over the admissible set, not proofs",)
    return HypothesisReport(
        bounds_ok=bounds_ok,
        worst_bound_violation=worst,
        gx_window=T,
        gx_sup=gx_sup,
        lbeta_lambdas=lams,
        lbeta_values=tuple(beta_sweep),
        lbeta_pass=lbeta_pass,
        continuity_response=resp,
        notes=notes,
    )
