"""Equilibrium solver: fixed-point iteration in the shape variable, scalar
root scan in the scale variable, and existence/nonexistence certificates.

The primary route nests a fixed-point iteration for the shape v at
frozen scale lam inside a root search on the scalar residual R(lam v) - 1:
a scan brackets each sign change, and a clamped secant refines it from the
scan's own bracket ends, each inner solve starting from the shape
interpolated through the bracket's solved shapes.
Compactness guarantees a fixed point of the clamped joint map
but not convergence of its raw iterates, so that map is kept only as a
secondary cross-validation route: when it fails to settle it returns an
explicitly flagged trace, never a guess.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _accel
from .errors import ConvergenceError, ParameterError
from .grid import (
    MAX_ARRAY_SIZE,
    DensityProfile,
    _count,
    _density_values,
    integrate,
    zero_profile,
)
from .kernel import KernelContext, net_reproduction_R, rates_and_survival, residual
from .model import (
    _at_nodes,
    _tolerance,
    envelope_tail_mass,
    random_onion_samples,
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
        for name in ("picard_max_iter", "scan_points", "seed"):
            _count(getattr(self, name), name)
        for name in ("picard_tol", "root_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError("tolerances must be finite and positive", name)
        if self.scan_points < 2:
            raise ParameterError("scan_points must be at least 2", "scan_points")
        if self.scan_points > MAX_ARRAY_SIZE:
            raise ParameterError("scan_points must be at most %d" % MAX_ARRAY_SIZE, "scan_points")
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
    """Scalar residual on the scan grid, its sign-change brackets and failed points.

    ``residuals`` is the one array the brackets are read from: exact at each
    point solved (see :func:`scan_roots`), NaN at each point in ``failed``,
    and at each point in ``proved``, which no inner solve reached, its proved
    bound on R nearest 1, minus 1. Both index tuples are in scale order.
    """

    lambdas: np.ndarray
    residuals: np.ndarray          # nan where the inner iteration failed
    brackets: tuple                # (lo, hi) pairs with a sign change
    ends: tuple                    # per bracket the scan's (lo, hi) PicardResults;
                                   # () in solve_all's scan, which hands them on
    failed: tuple                  # scan indices whose inner iteration failed
    proved: tuple                  # scan indices whose residual is the proved bound
    degenerate: bool               # residual ~ 0 across the scan


@dataclass(frozen=True)
class BracketFailure:
    """A scan bracket whose refinement raised :class:`ConvergenceError`, and its message."""

    bracket: tuple
    message: str


@dataclass(frozen=True)
class Certificate:
    kind: str                      # existence | nonexistence | inconclusive
    R0: float
    rho0_estimate: float | None
    M: float
    evidence: dict = field(default_factory=dict)


def inner_picard(
    ctx: KernelContext,
    lam: float,
    cfg: SolverConfig,
    start: DensityProfile | np.ndarray | None = None,
) -> PicardResult:
    """Fixed-point iteration v <- Pi(., lam v) for the shape at frozen scale lam.

    Starts from the shape ``start`` when given, else from the context's
    envelope midpoint ``ctx.start``. Raises :class:`ConvergenceError`
    carrying the last step's residual when ``picard_max_iter`` steps do not
    reach ``picard_tol``.
    """
    if not 0 <= lam < math.inf:
        raise ParameterError("lam must be finite and nonnegative", "lam")
    grid = ctx.grid
    v = ctx.start.values if start is None else _density_values(grid, start)
    for k in range(1, cfg.picard_max_iter + 1):
        _, beta, pi = rates_and_survival(ctx, lam * v)
        # the gap between the context's own start and pi is summed once, in make_context
        if pi is ctx.pi and v is ctx.start.values:
            res = ctx.start_gap
        else:
            res = _accel.weighted_sum(grid.weights, np.abs(v - pi))
        if res <= cfg.picard_tol:
            R = _accel.weighted_sum(grid.weights, beta * pi)
            # the cold start was checked once, when the context was made
            shape = ctx.start if v is ctx.start.values else DensityProfile(grid, v)
            return PicardResult(shape, k, res, R, pi)
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
        if not hi < math.inf:
            raise ParameterError("the default lambda_max, the invariant-box scale bound, "
                                 "is not finite; set lambda_max", "lambda_max")
    # a shape is at most 1/g_low at a node and has about |e2|_1 of mass; a factor
    # 4 below overflow leaves room for the trapezoid's pairwise sums of lam * v
    if not 4.0 * hi * max(1.0 / ctx.model.bounds.g_low, ctx.norm_e2) < math.inf:
        raise ParameterError("the densities at the top scale scanned, %g, can overflow; "
                             "set a smaller lambda_max" % hi, "lambda_max")
    try:
        if lo > 0:
            return np.geomspace(lo, hi, cfg.scan_points)
        return np.linspace(lo, hi, cfg.scan_points)
    except MemoryError as exc:
        raise ParameterError("scan_points = %d: the scan grid does not fit in memory"
                             % cfg.scan_points, "scan_points") from exc


def scan_roots(ctx: KernelContext, cfg: SolverConfig) -> ScanResult:
    """Evaluate the scalar residual on a scale grid and collect sign-change brackets.

    One residual array starts at each point that :func:`_proved_R_bounds`
    proves to have ``R - 1`` beyond ``root_tol`` as its proved bound nearest
    1, minus 1, with no rate evaluated, and NaN elsewhere. Each NaN point is
    solved cold to ``picard_tol``, so its residual equals ``lambda_residual``
    there. Brackets, ends and the degenerate flag are those of the full scan,
    which solves every point: each proved bracket end is solved cold, and so
    is every point still proved when one such end fails or contradicts its
    proof, or when the degenerate flag rests on points not solved. No point
    is solved twice. Only sign changes at scan resolution are found. A
    residual ~0 at >= 90% of the points is a degenerate family, with no brackets.
    """
    lams = _scan_lambdas(ctx, cfg)
    lo, hi = (R - 1.0 for R in _proved_R_bounds(ctx, cfg, lams))
    r = np.where(lo > cfg.root_tol, lo, np.where(hi < -cfg.root_tol, hi, np.nan))
    return _scan(ctx, cfg, lams, r)


def _scan(ctx: KernelContext, cfg: SolverConfig, lams: np.ndarray, r: np.ndarray) -> ScanResult:
    """:func:`scan_roots` on the scales ``lams`` from its residual array ``r``,
    filled in place; with no proved point, the full scan."""
    proved = ~np.isnan(r)
    kept = {}                      # index -> PicardResult of each point that may be a bracket end
    _solve(ctx, cfg, lams, r, proved, np.flatnonzero(~proved), kept)
    brackets, degenerate = _read(r, cfg.root_tol)
    # proved points are never ~0, but the full scan may fail some: when the flag
    # is set without them, only solving them can tell
    unsure = not degenerate and _read(np.where(proved, np.nan, r), cfg.root_tol)[1]
    for i in sorted({i for pair in brackets for i in pair if proved[i]}):
        if not unsure:             # a proved end is solved cold; it may fail or be proved wrongly
            sign = np.sign(r[i])
            _solve(ctx, cfg, lams, r, proved, [i], kept)
            unsure = np.sign(r[i]) != sign
    if unsure:
        _solve(ctx, cfg, lams, r, proved, np.flatnonzero(proved), kept)
        brackets, degenerate = _read(r, cfg.root_tol)
    return ScanResult(
        lambdas=lams,
        residuals=r,
        brackets=tuple((float(lams[i]), float(lams[j])) for i, j in brackets),
        ends=tuple((kept[i], kept[j]) for i, j in brackets),
        failed=tuple(np.flatnonzero(np.isnan(r)).tolist()),
        proved=tuple(np.flatnonzero(proved).tolist()),
        degenerate=degenerate,
    )


def _solve(ctx: KernelContext, cfg: SolverConfig, lams, r, proved, points, kept) -> None:
    """Solve ``points`` cold, in scale order, into ``r`` (NaN where a solve fails)
    and clear them from ``proved``. A result leaves ``kept`` once each side of
    its point holds the scan's start or a neighbour solved here with its sign,
    since no bracket can end there."""
    last, joined = None, False     # the last point solved, and whether it joins the one before
    for i in points:
        proved[i] = False
        try:
            pr = inner_picard(ctx, float(lams[i]), cfg)
        except ConvergenceError:
            r[i] = np.nan
            continue
        r[i], kept[i] = pr.R - 1.0, pr
        joins = i == 0 or (last == i - 1 and np.sign(r[last]) == np.sign(r[i]))
        if joins and joined:       # no bracket can end at last
            del kept[last]
        last, joined = i, joins


def _read(r: np.ndarray, root_tol: float):
    """``(brackets, degenerate)`` of the residuals ``r``, NaN where there is none:
    index pairs of consecutive residuals, the first nonzero, whose signs differ
    (signs, since their product can overflow); and whether >= 90% of them lie
    within ``root_tol`` of 0, which leaves no brackets."""
    good = np.flatnonzero(~np.isnan(r))
    a, b = r[good[:-1]], r[good[1:]]
    at = np.flatnonzero((a != 0.0) & (np.sign(a) != np.sign(b)))
    if good.size > 0 and np.count_nonzero(np.abs(r[good]) < root_tol) >= 0.9 * good.size:
        return [], True
    return list(zip(good[at].tolist(), good[at + 1].tolist())), False


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


def _predicted_start(x: float, points) -> np.ndarray:
    """Lagrange interpolant at the scale ``x`` through ``points``, pairs of a
    scale and the shape solved there at distinct scales, clamped at 0: an
    extrapolating weight can be negative, and a start must be a density."""
    start = np.zeros_like(points[0][1])
    for i, (lam, v) in enumerate(points):
        start += math.prod((x - other) / (lam - other)
                           for j, (other, _) in enumerate(points) if j != i) * v
    return np.maximum(start, 0.0, out=start)


def _refine_solve(ctx: KernelContext, x: float, cfg: SolverConfig, points) -> PicardResult:
    """Inner solve at the scale ``x`` from :func:`_predicted_start` through
    ``points``, whose second entry is the bracket's upper end; when that
    solve does not converge, once more from the upper end's shape. When
    both fail, the first solve's :class:`ConvergenceError` is raised."""
    try:
        return inner_picard(ctx, x, cfg, _predicted_start(x, points))
    except ConvergenceError as exc:
        first = exc
    try:
        return inner_picard(ctx, x, cfg, points[1][1])
    except ConvergenceError:
        raise first from None


def bisect_root(ctx: KernelContext, bracket, cfg: SolverConfig, ends) -> EquilibriumResult:
    """Refine a sign-change bracket of the scalar residual by a clamped secant.

    ``ends`` holds the two converged :class:`PicardResult` at the bracket's
    ends, as each entry of a scan's ``ends`` does. An end or step whose
    ``R`` is exactly 1 is the root. Each step solves at the regula falsi
    point kept root_tol/2 inside the bracket, or at the midpoint when that
    rounds onto an end, so a step next to the root lands past it. An end
    kept two steps running has its residual scaled by ``1 - r/f``, or by
    1/2 when that is not positive, ``r`` the new residual and ``f`` the
    moved end's (Anderson & Bjorck, BIT 13, 1973). After ``ceil(log2(width
    / root_tol))`` steps the rest bisect: at most twice bisection's work.
    It stops at width <= root_tol, or when the bracket can no longer be
    split in floating point, and returns the midpoint, so ``lambda*`` lies
    within root_tol/2 of a sign change of the discrete residual. Each inner
    solve, the one at the midpoint included, starts from the shape that
    :func:`_predicted_start` gives through the shapes solved at the
    bracket's two ends and at the end displaced last (before the first
    step, the two ends); when that solve does not converge, it is retried
    once from the upper end's shape (see :func:`_refine_solve`). Only the
    ends' shapes are kept, so their survival shapes are freed when the
    caller, as :func:`solve_all` does, holds no other reference to them.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 <= lo < hi < math.inf:       # also rejects NaN
        raise ParameterError("bracket ends must be finite with 0 <= lo < hi", "bracket")
    for lam, end in zip((lo, hi), ends):
        if end.R == 1.0:
            return _assemble_result(ctx, lam, end)
    (r_lo, v_lo), (r_hi, v_hi) = ((end.R - 1.0, end.v.values) for end in ends)
    del ends, end                  # past here, the ends' survival shapes can be freed
    if r_lo * r_hi > 0:
        raise ParameterError("bracket endpoints must have opposite residual signs")
    displaced, displaced_lo = (), None     # (scale, shape) of the end displaced last; is it lo
    lo_below = r_lo < 0            # the residual's sign at every lo
    half = 0.5 * cfg.root_tol
    secant_steps = math.ceil(math.log2(hi - lo) - math.log2(cfg.root_tol))
    while hi - lo > cfg.root_tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        # the weight lies in [0, 1], so nothing can overflow
        x = min(max(lo + (hi - lo) * (r_lo / (r_lo - r_hi)), lo + half), hi - half)
        if secant_steps <= 0 or not lo < x < hi:
            x = mid
        secant_steps -= 1
        pr = _refine_solve(ctx, x, cfg, ((lo, v_lo), (hi, v_hi), *displaced))
        r, v = pr.R - 1.0, pr.v.values
        if r == 0.0:
            return _assemble_result(ctx, x, pr)
        moves_lo = (r < 0) == lo_below
        m = 1.0                    # the scale of the end this step keeps
        if moves_lo == displaced_lo:
            m = 1.0 - r / (r_lo if moves_lo else r_hi)
            m = m if m > 0 else 0.5
        if moves_lo:
            displaced, displaced_lo = ((lo, v_lo),), True
            lo, r_lo, v_lo, r_hi = x, r, v, r_hi * m
        else:
            displaced, displaced_lo = ((hi, v_hi),), False
            hi, r_hi, v_hi, r_lo = x, r, v, r_lo * m
    lam = 0.5 * (lo + hi)
    return _assemble_result(ctx, lam, _refine_solve(ctx, lam, cfg,
                                                    ((lo, v_lo), (hi, v_hi), *displaced)))


def iterate_map_A(ctx: KernelContext, v0: DensityProfile, lambda0: float, cfg: SolverConfig):
    """Raw iteration of the clamped joint update (secondary route).

    Returns an :class:`EquilibriumResult` when the pair settles at a positive
    scale; otherwise the full trace, flagged non-convergent.
    """
    if not 0 <= lambda0 < math.inf:
        raise ParameterError("lambda0 must be finite and nonnegative", "lambda0")
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
    return [ctx.e1, ctx.e2, ctx.start,
            *random_onion_samples(ctx.model.bounds, ctx.grid, (1.0,), n_random, rng)]


def _ray_R(ctx: KernelContext, w: DensityProfile, lams) -> list:
    """R at ``lam * w`` for each scale ``lam`` in ``lams``."""
    return [net_reproduction_R(ctx, DensityProfile(ctx.grid, lam * w.values)) for lam in lams]


def _rounding_margin(grid) -> float:
    """Relative widening that takes a bound on an exact survival mass to the computed one."""
    # The computed sum(w pi), and R = sum(w beta pi), differ from the exact
    # sums that _computed_mass_interval's lemma and envelope bound by
    # relative rounding only. The ratio mu/g, c_low and each trapezoid
    # segment carry a few ulps and a running sum of n positive terms at most
    # n, so the integral C of mu/g is off by a factor within (n + 8) ulps;
    # exp(-C) is 0 past C ~ 745, so before that it moves by a factor within
    # exp(745 (n + 8) ulps). exp, the division by g, beta (its P included) and
    # the two dot products of nonnegative terms add under n + 10 ulps. The
    # n-term covers all of it; the 1e-6 keeps R below 1 by more than
    # subnormal exp values can add. The margin is a Python float, so S_hi is
    # one: find_rho0 takes 0 * inf as NaN, which numpy's float64 would warn about.
    return 1e-6 + 1e3 * grid.n * math.ulp(1.0)


def _computed_mass_interval(ctx: KernelContext) -> tuple:
    """``(S_lo, S_hi)`` holding the computed mass ``sum(w pi)`` of every survival
    shape on the context whose rates pass the bounds check; ``(0, inf)`` when
    the bounds leave ``g_low - t`` or ``mu_low - t`` not positive. It is the
    package's one proof of how large that mass can be: every R computed from
    rates that pass the check at a profile of integral P is at most
    ``beta_sup(P) S_hi``, which both the scan's skip and :func:`find_rho0` read.

    Let ``a = mu/g``, ``C`` its running trapezoid and ``pi = e^{-C}/g``, so
    ``T = sum(w mu pi) = sum(w a e^{-C})``. On segment i, of width ``h_i``
    from node ``x_i``, with ``d_i = h_i (a_i + a_{i+1})/2``, T's share is
    ``(h_i/2) e^{-C_i} (a_i + a_{i+1} e^{-d_i})`` and its exact share is
    ``s_i = e^{-C_i} (1 - e^{-d_i})``. As ``a_i + a_{i+1} e^{-d_i}`` lies
    between ``(a_i + a_{i+1}) e^{-d_i}`` and ``a_i + a_{i+1}``, their ratio
    lies in ``[d/(e^d - 1), d/(1 - e^{-d})]`` at ``d = d_i``, so in ``[m_i,
    r_i]``, those ends at ``d = D_i >= d_i``, as the first falls and the
    second rises with d. Here ``D_i = W_i c_high``, with ``c_high = (mu_high
    + t)/(g_low - t)`` (``t`` the check's tolerances) and ``W`` a
    non-decreasing bound on the steps, so ``r`` rises and ``m`` falls with i.
    As ``a >= c_low = (mu_low - t)/(g_high + t)``, ``C_i >= c_low x_i``: the
    exact shares from segment i on sum to at most ``e^{-c_low x_i}``, those
    before it to at least ``1 - e^{-c_low x_i}``, and all to at least ``1 -
    e^{-c_low x_max}``. Summing by parts, ``T <= r_0 + sum_{i>=1} (r_i -
    r_{i-1}) e^{-c_low x_i}`` and ``T >= m_last (1 - e^{-c_low x_max}) +
    sum_{i>=1} (m_{i-1} - m_i) (1 - e^{-c_low x_i})``: sums of nonnegative
    terms, within the widest step's bounds and far within them on a graded
    grid, whose wide steps hold little mass. As ``(mu_low - t) S <= T <=
    (mu_high + t) S``, ``S_lo`` is the lower sum over ``mu_high + t`` and
    ``S_hi`` the upper one over ``mu_low - t``.

    ``S_hi`` is capped by the a-priori envelope where that is smaller: as
    ``C >= c_low x`` at every node, ``pi <= e^{-c_low x}/(g_low - t)``, and
    the quadrature of that envelope bounds ``sum(w pi)``. Both ends are
    widened by :func:`_rounding_margin`.
    """
    b, grid = ctx.model.bounds, ctx.grid
    g_low, g_high = b.g_low - _tolerance(b.g_low), b.g_high + _tolerance(b.g_high)
    mu_low, mu_high = b.mu_low - _tolerance(b.mu_low), b.mu_high + _tolerance(b.mu_high)
    if not (g_low > 0 and mu_low > 0):
        return 0.0, math.inf
    c_low = mu_low / g_high
    # W: the running maximum of the widest step per block, at most 256 blocks, so
    # the sums run over block starts; a graded grid's steps vary by 1.8% in a block
    starts = np.arange(0, grid.steps.size, -(-grid.steps.size // 256))
    W = np.maximum.accumulate(np.maximum.reduceat(grid.steps, starts))
    tail = np.exp(-c_low * grid.nodes[starts[1:]])
    # an overflowing D makes the upper sum inf or NaN, and the envelope binds; both
    # ratios tend to 1 as D -> 0, and D/(e^D - 1) is 0 long before expm1 overflows
    with np.errstate(over="ignore", invalid="ignore"):
        D = np.fmax(W * (mu_high / g_low), np.finfo(float).tiny)
        r = D / -np.expm1(-D)
        m = np.where(D < 700, D / np.expm1(D), 0.0)
        upper = float(r[0] + np.dot(np.diff(r), tail))
    lower = float(m[-1] * -math.expm1(-c_low * grid.x_max) - np.dot(np.diff(m), 1.0 - tail))
    envelope = _accel.weighted_sum(grid.weights, np.exp(-c_low * grid.nodes)) / g_low
    margin = _rounding_margin(grid)
    return lower / mu_high / (1.0 + margin), min(envelope, upper / mu_low) * (1.0 + margin)


def _proved_R_bounds(ctx: KernelContext, cfg: SolverConfig, lams: np.ndarray):
    """``(R_lo, R_hi)``, arrays over the scales ``lams``, holding the R of every
    inner solve to ``picard_tol`` at that scale whose rates pass the bounds check.

    They come from the rate bounds alone and evaluate no rate. They prove
    nothing, ``[0, inf]``, when a fixed rate fails its check, since then every
    evaluation raises, or when :func:`_computed_mass_interval` gives no finite
    ``S_hi``.

    A converged solve has ``|sum(w v) - S| <= picard_tol``, with ``S`` in
    ``[S_lo, S_hi]`` of :func:`_computed_mass_interval`, and its rates read
    ``P = lam sum(w v)``. So ``P`` lies in ``[lam (S_lo - picard_tol), lam
    (S_hi + picard_tol)]`` and ``R = sum(w beta pi)`` in ``[beta_inf(P) S_lo,
    beta_sup(P) S_hi]``. A family that gives ``beta_inf`` has both bounds
    monotone in P (see :class:`ModelSpec`), so their extremes over that
    interval lie at its ends; for one that does not, beta lies in ``[0,
    beta_max + t]``.
    """
    model, b = ctx.model, ctx.model.bounds
    S_lo, S_hi = _computed_mass_interval(ctx)
    if any(error is not None for error in ctx.rates.errors) or not S_hi < math.inf:
        return np.zeros(lams.shape), np.full(lams.shape, math.inf)
    if model.beta_inf is None:
        beta_lo, beta_hi = 0.0, b.beta_max + _tolerance(b.beta_max)
    else:
        P = (lams * max(S_lo - cfg.picard_tol, 0.0), lams * (S_hi + cfg.picard_tol))
        beta_lo = np.minimum(*(model.beta_inf(model.params, end) for end in P))
        beta_hi = np.maximum(*(model.beta_sup(model.params, end) for end in P))
    return np.full(lams.shape, beta_lo * S_lo), np.full(lams.shape, beta_hi * S_hi)


def find_rho0(ctx: KernelContext, cfg: SolverConfig) -> float | None:
    """Smallest sampled population size at and beyond which every sample has R <= 1.

    Sampled over scaled envelope shapes; heuristic evidence, not a proof.
    Sizes are visited from the largest down, and the walk stops at the first
    size with a sample of R > 1, since no smaller size can then qualify.
    Each shape's sizes are computed lazily, only as far as the walk goes.
    A size P with ``beta_sup(P) * S_hi <= 1`` (``S_hi`` from
    :func:`_computed_mass_interval`) is passed without evaluating its
    samples: every profile of that size whose rates pass the bounds check
    has R <= 1. Every sample that is evaluated is checked. When
    ``(beta_max + t) * S_hi <= 1``, ``t`` the check's tolerance, every such
    R is at most 1 at every size, so no size is walked: the result is the
    smallest size, that of each shape at the smallest scale (a shape's sizes
    fall with the scale), from one quadrature per shape.
    """
    lams = np.geomspace(1e-3, 1e4, 100)[::-1]
    rng = np.random.default_rng(cfg.seed)
    shapes = _sample_shapes(ctx, rng)
    b = ctx.model.bounds
    S_hi = _computed_mass_interval(ctx)[1]
    # every R is at most (beta_max + t) S_hi, so the walk would pass every size;
    # a NaN or inf product fails the test and walks
    if (b.beta_max + _tolerance(b.beta_max)) * S_hi <= 1.0:
        return min(integrate(ctx.grid, lams[-1] * w.values) for w in shapes)
    scaled = np.empty(ctx.grid.n)  # each size is summed as soon as it is scaled

    def walk(w):
        # lam * w rounds monotonically and the quadrature adds nonnegative
        # terms in a fixed order, so the sizes come out non-increasing
        for lam in lams:
            yield integrate(ctx.grid, np.multiply(lam, w.values, out=scaled)), lam, w

    # the order and groups of a stable sort of all 800 samples by size,
    # largest first, ties in shape order; sizes past the walk's stop are never made
    samples = heapq.merge(*map(walk, shapes), key=lambda s: s[0], reverse=True)
    rho0 = None
    for size, group in itertools.groupby(samples, key=lambda s: s[0]):
        # the negated form evaluates when the product is NaN (0 * inf)
        if not ctx.model.beta_sup(ctx.model.params, size) * S_hi <= 1.0 and any(
                _ray_R(ctx, w, (lam,))[0] > 1.0 for _, lam, w in group):
            break
        rho0 = size
    return rho0


def _monotonicity_evidence(ctx: KernelContext, cfg: SolverConfig, e2_R: dict) -> dict:
    """Sampled check of the monotonicity assumption in both strict/non-strict forms.

    One rate evaluation per distinct profile (a row), made as it is drawn: each shape
    at four scales, neighbours paired, then ten random pairs. Pairs index (lower, higher) rows.
    ``e2_R`` maps scales to R at that scale times ``ctx.e2``, as :func:`certify`'s
    ray computed it; the ray along ``ctx.e2`` reads those and evaluates only the rest.
    """
    grid = ctx.grid
    stride = max(1, grid.n // 40)
    mg, bm = [], []

    def add_row(u):
        g, mu, beta = (_at_nodes(grid, a)[::stride] for a in ctx.rates.rates(u))
        mg.append(mu / g)
        bm.append(beta / mu)

    rng = np.random.default_rng(cfg.seed + 1)
    shapes = _sample_shapes(ctx, rng, n_random=3)
    scales = (0.1, 0.5, 2.0, 10.0)
    for w, s in itertools.product(shapes, scales):
        add_row(s * w.values)
    pairs = [(i, i + 1) for i in range(len(mg)) if (i + 1) % len(scales)]
    for _ in range(10):
        w = shapes[int(rng.integers(len(shapes)))]
        u2 = (1.0 + 2.0 * rng.random()) * w.values
        pairs.append((len(mg), len(mg) + 1))
        add_row(u2 * rng.random(grid.n))
        add_row(u2)
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
        known = e2_R if w is ctx.e2 else {}
        vals = [known[lam] if lam in known else _ray_R(ctx, w, (lam,))[0]
                for lam in (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)]
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

    R is evaluated once per distinct sample: the scaled upper envelope's ray
    hands its R at the scales it shares with the monotonicity evidence's ray
    along the same envelope (0.1, 1, 10 and 100) to that evidence.
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
    mono = _monotonicity_evidence(ctx, cfg, dict(zip(ray_lams, ray)))

    notes = []
    b = ctx.model.bounds
    # quadrature bias limits how flat "flat" can look, and how far past 1 R0 must be
    tol_deg = max(cfg.root_tol, 1e-6)
    if R0 > 1.0 + tol_deg and b.beta_max * ctx.norm_e2 <= 1.0:
        notes.append("inconsistency: R0 > 1 requires beta_max * |e2|_1 > 1")
    if max(ray[:4]) - min(ray[:4]) < tol_deg and abs(R0 - 1.0) < tol_deg:
        notes.append("degenerate family: R is ~1 along scaled-envelope rays")
    if R0 < 1.0 and max(ray) > R0 + tol_deg:
        # R rises above its value at the extinct state somewhere along the ray
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
    """Scan for signs, then refine every bracket by :func:`bisect_root` from its scan ends.

    The scan is :func:`scan_roots`, the one the ``scan`` command runs: it
    skips the points whose sign the rate bounds prove, yet its brackets,
    ends and degenerate flag, and so every result, are those of the full
    scan. Where the bounds prove ``R - 1 < -root_tol`` at every scale, no
    inner solve is made. A skip evaluates no rate, so a model whose rates
    that read u leave their declared bounds (which no built-in family can
    do) gets no error at a skipped point, where the full scan would raise
    :class:`BoundsViolationError`.

    Returns (scan, results): one entry per bracket, in the scan's order,
    which is that of scale. An entry is an :class:`EquilibriumResult`, or a
    :class:`BracketFailure` when the bracket's refinement raised
    :class:`ConvergenceError`. The scan is :func:`scan_roots`'s but for its
    ``ends``, which is empty: each bracket's pair of ends is handed to its
    refinement and held by nothing else, so that no end's shape or survival
    shape outlives the refinement that reads it.
    """
    scan = scan_roots(ctx, cfg)
    ends = list(reversed(scan.ends))
    scan = replace(scan, ends=())
    results = []
    # each root lies in its bracket, and brackets follow one another in scale
    for bracket in scan.brackets:
        try:
            results.append(bisect_root(ctx, bracket, cfg, ends.pop()))
        except ConvergenceError as exc:
            results.append(BracketFailure(bracket, str(exc)))
    return scan, results
