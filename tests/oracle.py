"""Closed-form references for the tests, independent of the solver's discretisation."""

import numpy as np

# 80-point Gauss-Legendre on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(80)


def hierarchical_shape(g_low, g_high, mu0, b0, x):
    """The equilibrium density u* of ``hierarchical_model(g_low, g_high, mu0, b0)`` at ``x``.

    With E(x) = int_x^inf u, the stationary equation (g u)' = -mu0 u integrates
    once to u = mu0 E / G(E), G(E) = g_low + (g_high - g_low) e^{-E}, from
    E(0) = P* = b0/mu0 - 1. Then
      x(E) = [g_high ln(P*/E) + (g_high - g_low) int_E^{P*} (e^{-s} - 1)/s ds] / mu0.
    The integrand is entire, so 80-point Gauss-Legendre computes the integral to
    rounding. x(E) decreases, so 60 bisection steps in log E over
    [-700, log P*] invert it at every x; exp(-800) would be 0.
    """
    p_star = b0 / mu0 - 1.0

    def x_of(E):
        half = 0.5 * (p_star - E)
        s = np.multiply.outer(half, _GL_NODES)
        s += (0.5 * (p_star + E))[:, None]
        f = np.expm1(-s)
        f /= s
        integral = half * (f @ _GL_WEIGHTS)
        return (g_high * np.log(p_star / E) + (g_high - g_low) * integral) / mu0

    def invert(x):
        lo = np.full(x.shape, -700.0)
        hi = np.full(x.shape, np.log(p_star))
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            beyond = x_of(np.exp(mid)) > x      # E too small: x lies nearer 0
            lo = np.where(beyond, mid, lo)
            hi = np.where(beyond, hi, mid)
        return np.exp(0.5 * (lo + hi))

    # chunks of 256 points keep the (points, 80) temporaries in cache
    x = np.asarray(x, dtype=float)
    E = np.concatenate([invert(chunk) for chunk in np.array_split(x, -(-x.size // 256))])
    return mu0 * E / (g_low + (g_high - g_low) * np.exp(-E))
