"""Truncated quadrature grids on [0, x_max] standing in for the half line.

A :class:`Grid` derives its spacings and composite-trapezoid weights from its
nodes, once, so plain, cumulative and reverse-cumulative integrals are mutually
consistent. Two node layouts are available: uniform spacing and a
geometrically graded layout that clusters nodes near 0, which cuts the
trapezoid bias on decaying exponentials by more than an order of magnitude at
equal node count.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .errors import GridMismatchError, ParameterError

UNIFORM = "uniform_trapezoid"
GRADED = "graded_trapezoid"
SCHEMES = (UNIFORM, GRADED)

# last/first spacing for the graded layout
_GRADED_SPACING_RATIO = 100.0

# the most float64 values one array can hold: past sys.maxsize bytes numpy
# raises ValueError or worse, where a smaller array that does not fit in
# memory raises MemoryError
MAX_ARRAY_SIZE = sys.maxsize // np.dtype(float).itemsize


def _count(value, field: str) -> int:
    """``value`` as an int, numpy integers included; a float or other non-integer raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError("%s must be an integer, got %r" % (field, value), field) from None


@dataclass(frozen=True)
class Grid:
    """Strictly increasing nodes from 0, with their spacings and trapezoid weights."""

    nodes: np.ndarray
    steps: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)
    is_uniform: bool = field(init=False)

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        if nodes.ndim != 1:
            raise ParameterError("nodes must be a 1-D array")
        if nodes.size < 3:
            raise ParameterError("a grid needs at least 3 nodes")
        if nodes[0] != 0.0:
            raise ParameterError("first node must be exactly 0")
        # NaN passes the ordering check below and inf makes infinite weights
        if not np.all(np.isfinite(nodes)):
            raise ParameterError("nodes must be finite")
        d = np.diff(nodes)
        if np.any(d <= 0):
            raise ParameterError("nodes must be strictly increasing")
        weights = np.empty(nodes.size)
        weights[0] = 0.5 * d[0]
        weights[-1] = 0.5 * d[-1]
        weights[1:-1] = 0.5 * (d[:-1] + d[1:])
        # a subnormal spacing halves to 0
        if np.any(weights <= 0):
            raise ParameterError("all quadrature weights must be positive")
        for name, arr in (("nodes", nodes), ("steps", d), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "is_uniform",
                           bool(np.allclose(d, d[0], rtol=1e-9, atol=0.0)))

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def x_max(self) -> float:
        return float(self.nodes[-1])


@dataclass(frozen=True)
class DensityProfile:
    """Nonnegative samples of an L1 density on a grid; the one owner of the sign check."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if values.shape != self.grid.nodes.shape:
            raise GridMismatchError(
                "profile has %d values for a grid of %d nodes" % (values.size, self.grid.n)
            )
        if not np.all(values >= 0):     # the negated form also rejects NaN
            raise ParameterError("density values must be nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def build_grid(x_max: float, n: int, scheme: str = UNIFORM) -> Grid:
    """Build a composite-trapezoid grid on [0, x_max] with ``n`` nodes; errors name their field."""
    if not 0 < x_max < math.inf:
        raise ParameterError("x_max must be finite and positive, got %r" % (x_max,), "x_max")
    n = _count(n, "n")
    if n < 3:
        raise ParameterError("n must be at least 3, got %r" % (n,), "n")
    if n > MAX_ARRAY_SIZE:
        raise ParameterError("n must be at most %d, got %r" % (MAX_ARRAY_SIZE, n), "n")
    if scheme not in SCHEMES:
        raise ParameterError("unknown scheme %r (expected one of %s)" % (scheme, SCHEMES),
                             "scheme")
    try:
        if scheme == UNIFORM:
            nodes = np.linspace(0.0, x_max, n)
        else:
            # allocated first: past n ~ 4e16, which never fits, q rounds to 1 and h0 is 0/0
            powers = np.arange(n - 1)
            q = _GRADED_SPACING_RATIO ** (1.0 / (n - 2))
            h0 = x_max * (q - 1.0) / (q ** (n - 1) - 1.0)
            nodes = np.concatenate(([0.0], np.cumsum(h0 * q ** powers)))
            nodes[-1] = x_max
        return Grid(nodes)
    except MemoryError as exc:
        raise ParameterError("n = %d: the grid does not fit in memory" % n, "n") from exc
    except ParameterError as exc:      # nodes too close together for floating point
        raise ParameterError(str(exc), "x_max") from exc


def _values(grid: Grid, f) -> np.ndarray:
    """Samples of ``f`` on ``grid`` (a profile, or an array of its length), signed or not."""
    if isinstance(f, DensityProfile):
        if f.grid is not grid and not np.array_equal(f.grid.nodes, grid.nodes):
            raise GridMismatchError("profile belongs to a different grid")
        return f.values
    arr = np.asarray(f, dtype=float)
    if arr.shape != grid.nodes.shape:
        raise GridMismatchError(
            "got %d samples for a grid of %d nodes" % (arr.size, grid.n)
        )
    return arr


def _density_values(grid: Grid, u) -> np.ndarray:
    """Values of the density ``u`` on ``grid``; a plain array gets a profile's checks."""
    if not isinstance(u, DensityProfile):
        # a view, so that the caller's own array stays writable
        u = DensityProfile(grid, np.asarray(u, dtype=float).view())
    return _values(grid, u)


def integrate(grid: Grid, f) -> float:
    """Quadrature approximation of the integral of ``f`` over [0, x_max]."""
    return _accel.weighted_sum(grid.weights, _values(grid, f))


def cumulative_integral(grid: Grid, f) -> np.ndarray:
    """Running trapezoid integral F with F(0) = 0."""
    return _accel.cumtrapz(grid.steps, _values(grid, f))


def reverse_cumulative_integral(grid: Grid, f) -> np.ndarray:
    """Tail trapezoid integral G with G(x_max) = 0."""
    return _accel.revcumtrapz(grid.steps, _values(grid, f))


def translate(grid: Grid, f, h: float) -> np.ndarray:
    """Samples of x -> f(x + h), extending f by 0 outside [0, x_max].

    Shifts off the nodes use linear interpolation, consistent with the
    trapezoid accuracy order, on any grid.
    """
    if abs(h) >= grid.x_max:
        raise ParameterError("|h| must be smaller than x_max")
    vals = _values(grid, f)
    return np.interp(grid.nodes + h, grid.nodes, vals, left=0.0, right=0.0)


def zero_profile(grid: Grid) -> DensityProfile:
    return DensityProfile(grid, np.zeros(grid.n))
