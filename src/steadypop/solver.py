"""Equilibrium solver: fixed-point iteration in the shape variable, scalar
root scan in the scale variable, and existence/nonexistence certificates.

The primary route nests a fixed-point iteration for the shape v at
frozen scale lam inside a root search on the scalar residual R(lam v) - 1:
a scan brackets each sign change, and ITP refines it from the scan's own
bracket ends, each inner solve starting from the last shape solved.
Compactness guarantees a fixed point of the clamped joint map
but not convergence of its raw iterates, so that map is kept only as a
secondary cross-validation route: when it fails to settle it returns an
explicitly flagged trace, never a guess.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .errors import ConvergenceError, ParameterError
from .grid import DensityProfile, _density_values, integrate, zero_profile
from .kernel import KernelContext, net_reproduction_R, rates_and_survival, residual
from .model import (
    COUNTEREXAMPLE,
    beta_sup,
    envelope_tail_mass,
    random_onion_samples,
    raw_rates,
    survival_mass_bound,
)


@dataclass(frozen=True)
class SolverConfig:
    picard_tol: float = 1e-10
    picard_max_iter: int = 200        # caps the inner solve and map A alike
    lambda_min: float | None = None   # default: root_tol
    lambda_max: float | None = None   # default: the invariant-box scale bound
    scan_points: int = 256
    root_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        # negated forms also reject NaN; each error names the field at fault
        for name in ("picard_tol", "root_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError("tolerances must be finite and positive", name)
        if self.scan_points < 2:
            raise ParameterError("scan_points must be at least 2", "scan_points")
        if self.picard_max_iter < 1:
            raise ParameterError("iteration caps must be at least 1", "picard_max_iter")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative", "seed")
        if self.lambda_min is not None and not (0 <= self.lambda_min < math.inf):
            raise ParameterError("lambda_min must be finite and nonnegative", "lambda_min")
        if self.lambda_max is not None and not (self.scan_min < self.lambda_max < math.inf):
            raise ParameterError(
                "lambda_max must be finite and exceed lambda_min (root_tol when unset)",
                "lambda_max")

    @property
    def scan_min(self) -> float:
        """Smallest scale scanned: ``lambda_min``, or ``root_tol`` when unset."""
        return self.root_tol if self.lambda_min is None else self.lambda_min


@dataclass(frozen=True)
class PicardResult:
    v: DensityProfile
    iterations: int
    residual_l1: float
    R: float                       # net reproduction at lam * v
    pi: np.ndarray                 # survival shape at lam * v


@dataclass(frozen=True)
class EquilibriumResult:
    lambda_star: float
    v_star: DensityProfile
    u_star: DensityProfile
    P_star: float
    R_at_u: float
    residual_l1: float
    pi: DensityProfile             # survival shape at u_star
    inner_iterations: int


@dataclass(frozen=True)
class MapATrace:
    lambdas: tuple
    changes: tuple
    v_last: DensityProfile
    converged: bool = False


@dataclass(frozen=True)
class ScanResult:
    lambdas: np.ndarray
    residuals: np.ndarray          # nan where the inner iteration failed
    brackets: tuple                # (lo, hi) pairs with a sign change
    ends: tuple                    # per bracket ((r_lo, v_lo), (r_hi, v_hi)) from the scan
    failed: tuple                  # scan indices whose inner iteration failed
    degenerate: bool               # residual ~ 0 across the scan


@dataclass(frozen=True)
class Certificate:
    kind: str                      # existence | nonexistence | inconclusive
    R0: float
    rho0_estimate: float | None
    M: float
    evidence: dict = field(default_factory=dict)


def inner_picard(
    ctx: KernelContext, lam: float, cfg: SolverConfig, start: DensityProfile | None = None
) -> PicardResult:
    """Fixed-point iteration v <- Pi(., lam v) for the shape at frozen scale lam.

    Starts from the shape ``start`` when given, else from the envelope
    midpoint. Raises :class:`ConvergenceError` carrying the last step's
    residual when ``picard_max_iter`` steps do not reach ``picard_tol``.
    """
    if lam < 0:
        raise ParameterError("lam must be nonnegative")
    grid = ctx.grid
    v = 0.5 * (ctx.e1.values + ctx.e2.values) if start is None else _density_values(grid, start)
    for k in range(1, cfg.picard_max_iter + 1):
        _, beta, pi = rates_and_survival(ctx, lam * v)
        res = _accel.weighted_sum(grid.weights, np.abs(v - pi))
        if res <= cfg.picard_tol:
            R = _accel.weighted_sum(grid.weights, beta * pi)
            return PicardResult(DensityProfile(grid, v), k, res, R, pi)
        v = pi
    raise ConvergenceError(
        "inner iteration did not reach %g after %d steps (last residual %g)"
        % (cfg.picard_tol, cfg.picard_max_iter, res),
        last_residual=res,
        iterations=cfg.picard_max_iter,
    )


def lambda_residual(ctx: KernelContext, lam: float, cfg: SolverConfig) -> float:
    """Scalar residual R(lam v(lam)) - 1; positive roots are equilibria."""
    return inner_picard(ctx, lam, cfg).R - 1.0


def compute_M(ctx: KernelContext, rho0: float) -> float:
    """Scale bound keeping the clamped joint map inside its invariant box."""
    if not rho0 > 0:
        raise ParameterError("rho0 must be positive")
    b = ctx.model.bounds
    return rho0 / ctx.norm_e1 + b.beta_max * ctx.norm_e2 - 1.0


def _rho0_proxy(ctx: KernelContext) -> float:
    # conservative stand-in when no population-size threshold was estimated
    return ctx.norm_e2 * ctx.model.bounds.beta_max


def _scan_lambdas(ctx: KernelContext, cfg: SolverConfig) -> np.ndarray:
    lo = cfg.scan_min
    if cfg.lambda_max is not None:
        hi = cfg.lambda_max
    else:
        # the invariant-box bound can drop below 1 when no equilibrium exists;
        # keep a positive scan range so the empty result is still observed
        hi = max(compute_M(ctx, _rho0_proxy(ctx)), 1.0, 10.0 * lo)
    if lo > 0:
        return np.geomspace(lo, hi, cfg.scan_points)
    return np.linspace(lo, hi, cfg.scan_points)


def scan_roots(ctx: KernelContext, cfg: SolverConfig) -> ScanResult:
    """Evaluate the scalar residual on a scale grid and collect sign-change brackets.

    Every point starts cold, so each residual equals ``lambda_residual`` at
    that scale. Each bracket keeps its two end residuals and shapes, for the
    refinement to reuse. Completeness is not guaranteed: only sign changes at
    scan resolution are found. A residual that is ~0 at >= 90% of the points
    is reported as a degenerate family and yields no brackets.
    """
    lams = _scan_lambdas(ctx, cfg)
    residuals = np.full(lams.shape, np.nan)
    failed = []
    brackets = []
    ends = []
    prev = None                    # (lam, (residual, shape)) of the last good point
    for i, lam in enumerate(lams):
        try:
            pr = inner_picard(ctx, float(lam), cfg)
        except ConvergenceError:
            failed.append(i)
            continue
        r = residuals[i] = pr.R - 1.0
        if prev is not None:
            r_prev = prev[1][0]
            if r_prev != 0.0 and (r_prev * r < 0 or r == 0.0):
                brackets.append((float(prev[0]), float(lam)))
                ends.append((prev[1], (r, pr.v)))
        prev = (lam, (r, pr.v))
    good = ~np.isnan(residuals)
    n_good = int(np.count_nonzero(good))
    degenerate = bool(
        n_good > 0
        and np.count_nonzero(np.abs(residuals[good]) < cfg.root_tol) >= 0.9 * n_good
    )
    if degenerate:
        brackets, ends = [], []
    return ScanResult(
        lambdas=lams,
        residuals=residuals,
        brackets=tuple(brackets),
        ends=tuple(ends),
        failed=tuple(failed),
        degenerate=degenerate,
    )


def _assemble_result(ctx: KernelContext, lam: float, pr: PicardResult) -> EquilibriumResult:
    u = DensityProfile(ctx.grid, lam * pr.v.values)
    res = residual(ctx, u) + lam * envelope_tail_mass(ctx.model.bounds, ctx.grid.x_max)
    return EquilibriumResult(
        lambda_star=lam,
        v_star=pr.v,
        u_star=u,
        P_star=integrate(ctx.grid, u),
        R_at_u=pr.R,
        residual_l1=res,
        pi=DensityProfile(ctx.grid, pr.pi),
        inner_iterations=pr.iterations,
    )


def bisect_root(ctx: KernelContext, bracket, cfg: SolverConfig, ends=None) -> EquilibriumResult:
    """Refine a sign-change bracket of the scalar residual by ITP.

    ``ends`` holds the scan's ``((r_lo, v_lo), (r_hi, v_hi))`` for the
    bracket; without it both ends are solved here. ITP (Oliveira & Takahashi,
    ACM TOMS 47, 2021) keeps a sign-change bracket, converges superlinearly
    on smooth residuals, and needs at most one evaluation more than
    bisection. It stops at width <= root_tol, or when the bracket can no
    longer be split in floating point, and returns the midpoint, so
    ``lambda*`` lies within root_tol/2 of a sign change of the discrete
    residual. Each inner solve starts from the shape of the last scale
    evaluated.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if ends is None:
        ends = []
        for lam in (lo, hi):
            pr = inner_picard(ctx, lam, cfg)
            ends.append((pr.R - 1.0, pr.v))
    (r_lo, v_lo), (r_hi, v) = ends      # v: shape at the last scale solved
    if r_lo == 0.0:
        return _assemble_result(ctx, lo, inner_picard(ctx, lo, cfg, v_lo))
    if r_hi == 0.0:
        return _assemble_result(ctx, hi, inner_picard(ctx, hi, cfg, v))
    if r_lo * r_hi > 0:
        raise ParameterError("bracket endpoints must have opposite residual signs")
    eps = 0.5 * cfg.root_tol
    k1 = 0.2 / (hi - lo)
    n_max = max(math.ceil(math.log2((hi - lo) / cfg.root_tol)), 0) + 1   # n0 = 1
    j = 0
    while hi - lo > cfg.root_tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        # interpolate (regula falsi), truncate towards the midpoint, then
        # project into the ball that preserves bisection's worst case
        x_f = (hi * r_lo - lo * r_hi) / (r_lo - r_hi)
        sigma = math.copysign(1.0, mid - x_f)
        delta = k1 * (hi - lo) ** 2
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        rad = max(eps * 2.0 ** (n_max - j) - 0.5 * (hi - lo), 0.0)
        x = x_t if abs(x_t - mid) <= rad else mid - sigma * rad
        if not lo < x < hi:        # rounding can land x_f + delta on an end
            x = mid
        pr = inner_picard(ctx, x, cfg, v)
        r, v = pr.R - 1.0, pr.v
        if r == 0.0:
            return _assemble_result(ctx, x, pr)
        if r_lo * r < 0:
            hi, r_hi = x, r
        else:
            lo, r_lo = x, r
        j += 1
    lam = 0.5 * (lo + hi)
    return _assemble_result(ctx, lam, inner_picard(ctx, lam, cfg, v))


def iterate_map_A(ctx: KernelContext, v0: DensityProfile, lambda0: float, cfg: SolverConfig):
    """Raw iteration of the clamped joint update (secondary route).

    Returns an :class:`EquilibriumResult` when the pair settles at a positive
    scale; otherwise the full trace, flagged non-convergent.
    """
    if lambda0 < 0:
        raise ParameterError("lambda0 must be nonnegative")
    grid = ctx.grid
    v = _density_values(grid, v0)
    lam = float(lambda0)
    lam_hist = [lam]
    changes = []
    for k in range(1, cfg.picard_max_iter + 1):
        _, beta, pi = rates_and_survival(ctx, lam * v)
        lam_new = max(lam + _accel.weighted_sum(grid.weights, beta * pi) - 1.0, 0.0)
        change = _accel.weighted_sum(grid.weights, np.abs(pi - v)) + abs(lam_new - lam)
        v, lam = pi, lam_new
        lam_hist.append(lam)
        changes.append(change)
        if change < cfg.picard_tol:
            if lam > 0:
                _, beta, pi = rates_and_survival(ctx, lam * v)
                R = _accel.weighted_sum(grid.weights, beta * pi)
                pr = PicardResult(DensityProfile(grid, v), k, change, R, pi)
                return _assemble_result(ctx, lam, pr)
            break
    return MapATrace(
        lambdas=tuple(lam_hist),
        changes=tuple(changes),
        v_last=DensityProfile(grid, v),
        converged=False,
    )


def _sample_shapes(ctx: KernelContext, rng, n_random: int = 5):
    """Both envelopes, their midpoint and ``n_random`` seeded shapes between them."""
    mid = DensityProfile(ctx.grid, 0.5 * (ctx.e1.values + ctx.e2.values))
    return [ctx.e1, ctx.e2, mid] + random_onion_samples(
        ctx.model.bounds, ctx.grid, (1.0,), n_random, rng)


def _ray_R(ctx: KernelContext, w: DensityProfile, lams) -> list:
    """R at ``lam * w`` for each scale ``lam`` in ``lams``."""
    return [net_reproduction_R(ctx, DensityProfile(ctx.grid, lam * w.values)) for lam in lams]


def find_rho0(ctx: KernelContext, cfg: SolverConfig) -> float | None:
    """Smallest sampled population size at and beyond which every sample has R <= 1.

    Sampled over scaled envelope shapes; heuristic evidence, not a proof.
    Sizes are visited from the largest down, and the walk stops at the first
    size with a sample of R > 1, since no smaller size can then qualify.
    A size P with ``beta_sup(P) * I <= 1`` (``I`` from
    :func:`survival_mass_bound`, with a rounding margin) is passed without
    evaluating its samples: every profile of that size whose rates pass the
    bounds check has R <= 1. Every sample that is evaluated is checked.
    """
    rng = np.random.default_rng(cfg.seed)
    samples = [
        (integrate(ctx.grid, lam * w.values), lam, w)
        for w in _sample_shapes(ctx, rng)
        for lam in np.geomspace(1e-3, 1e4, 100)
    ]
    samples.sort(key=lambda s: s[0], reverse=True)
    # The computed R differs from the exact sum that beta_sup(P) * I bounds by
    # relative rounding only. The ratio mu/g, c and each trapezoid segment
    # carry a few ulps and a running sum of n positive terms at most n, so the
    # integral C of mu/g is off by a factor within (n + 8) ulps; exp(-C) is 0
    # past C ~ 745, so before that it moves by a factor within
    # exp(745 (n + 8) ulps). exp, the division by g, beta (its P included) and
    # the two dot products of nonnegative terms add under n + 10 ulps. The
    # n-term covers all of it; the 1e-6 keeps R below 1 by more than
    # subnormal exp values can add.
    margin = 1e-6 + 1e3 * ctx.grid.n * np.finfo(float).eps
    bound = survival_mass_bound(ctx.model.bounds, ctx.grid) * (1.0 + margin)
    rho0 = None
    for size, group in itertools.groupby(samples, key=lambda s: s[0]):
        # the negated form evaluates when the product is NaN (0 * inf)
        if not beta_sup(ctx.model, size) * bound <= 1.0 and any(
                _ray_R(ctx, w, (lam,))[0] > 1.0 for _, lam, w in group):
            break
        rho0 = size
    return rho0


def _monotonicity_evidence(ctx: KernelContext, cfg: SolverConfig) -> dict:
    """Sampled check of the monotonicity assumption in both strict/non-strict forms.

    One rate evaluation per distinct profile (a row): each shape at four scales,
    neighbours paired, then ten random pairs. Pairs index (lower, higher) rows.
    """
    grid = ctx.grid
    stride = max(1, grid.n // 40)
    rng = np.random.default_rng(cfg.seed + 1)
    shapes = _sample_shapes(ctx, rng, n_random=3)
    scales = (0.1, 0.5, 2.0, 10.0)
    rows = [s * w.values for w in shapes for s in scales]
    pairs = [(i, i + 1) for i in range(len(rows)) if (i + 1) % len(scales)]
    for _ in range(10):
        w = shapes[int(rng.integers(len(shapes)))]
        u2 = (1.0 + 2.0 * rng.random()) * w.values
        pairs.append((len(rows), len(rows) + 1))
        rows += [u2 * rng.random(grid.n), u2]

    mg, bm = [], []
    for u in rows:
        g, mu, beta = (a[::stride] for a in raw_rates(ctx.model, grid, u))
        mg.append(mu / g)
        bm.append(beta / mu)
    mg, bm = np.array(mg), np.array(bm)
    lo, hi = np.array(pairs).T
    tol = strict = 1e-12
    mg_nondec = bool(np.all(mg[hi] >= mg[lo] - tol))
    mg_strict = bool(np.all(mg[hi] > mg[lo] + strict))
    bm_dec = bool(np.all(bm[hi] < bm[lo] - strict))
    bm_noninc = bool(np.all(bm[hi] <= bm[lo] + tol))
    d = np.diff(bm, axis=1)
    bm_x_nondec = bool(np.all(d >= -tol))
    bm_x_strict = bool(np.all(d > strict))

    alt_strict_bm = bm_dec and mg_nondec and bm_x_nondec
    alt_strict_others = bm_noninc and mg_strict and bm_x_strict

    r_decreasing = True
    for w in shapes[:4]:
        vals = _ray_R(ctx, w, (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0))
        r_decreasing &= all(b < a - 1e-14 for a, b in zip(vals, vals[1:]))

    return {
        "assumption_M_pass": alt_strict_bm or alt_strict_others,
        "assumption_M_strict_beta_mu": alt_strict_bm,
        "assumption_M_strict_others": alt_strict_others,
        "R_decreasing_along_rays": r_decreasing,
        "pairs_sampled": len(pairs),
    }


def certify(ctx: KernelContext, cfg: SolverConfig) -> Certificate:
    """Classify the model as existence / nonexistence / inconclusive.

    Existence: supercritical extinct state plus either a sampled population
    threshold beyond which R <= 1, or sampled fertility decay at large
    populations. Nonexistence: subcritical extinct state plus sampled
    monotonicity making R decreasing. Anything else is inconclusive.
    """
    R0 = net_reproduction_R(ctx, zero_profile(ctx.grid))
    rho0 = find_rho0(ctx, cfg)
    M = compute_M(ctx, rho0 if rho0 is not None else _rho0_proxy(ctx))
    # one sweep along the scaled upper envelope: its first four scales test
    # for a degenerate family, its last five for fertility decay
    ray_lams = (0.01, 0.1, 1.0, 10.0, 1e2, 1e3, 1e4)
    ray = _ray_R(ctx, ctx.e2, ray_lams)
    lbeta_R = tuple(ray[2:])
    lbeta_pass = all(b <= a + 1e-12 for a, b in zip(lbeta_R, lbeta_R[1:])) and lbeta_R[-1] < 1e-3
    mono = _monotonicity_evidence(ctx, cfg)

    notes = []
    b = ctx.model.bounds
    # quadrature bias limits how flat "flat" can look, and how far past 1 R0 must be
    tol_deg = max(cfg.root_tol, 1e-6)
    if R0 > 1.0 + tol_deg and b.beta_max * ctx.norm_e2 <= 1.0:
        notes.append("inconsistency: R0 > 1 requires beta_max * |e2|_1 > 1")
    if max(ray[:4]) - min(ray[:4]) < tol_deg and abs(R0 - 1.0) < tol_deg:
        notes.append("degenerate family: R is ~1 along scaled-envelope rays")
    if ctx.model.variant == COUNTEREXAMPLE and R0 < 1.0:
        notes.append("R0 < 1 does not preclude equilibria; run a root scan")

    if R0 > 1.0 and (rho0 is not None or lbeta_pass):
        kind = "existence"
    elif R0 <= 1.0 and mono["assumption_M_pass"] and mono["R_decreasing_along_rays"]:
        kind = "nonexistence"
    else:
        kind = "inconclusive"

    evidence = {
        "lbeta_pass": lbeta_pass,
        "lbeta_sweep_lambdas": ray_lams[2:],
        "lbeta_sweep_R": lbeta_R,
        **mono,
        "notes": tuple(notes),
    }
    return Certificate(kind=kind, R0=R0, rho0_estimate=rho0, M=M, evidence=evidence)


def solve_all(ctx: KernelContext, cfg: SolverConfig):
    """Scan, then refine every bracket by ITP from its scan ends.

    Returns (scan, results sorted by scale).
    """
    scan = scan_roots(ctx, cfg)
    results = [bisect_root(ctx, br, cfg, ends) for br, ends in zip(scan.brackets, scan.ends)]
    results.sort(key=lambda r: r.lambda_star)
    return scan, results
