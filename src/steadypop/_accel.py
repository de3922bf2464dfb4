"""Quadrature inner loops on numpy arrays.

Every running integral, quadrature sum and survival shape in the package goes
through these four functions, so a compiled kernel would replace them here.
None is shipped: no measured workload has shown that one pays off. The running
integrals take a grid's ``steps``, not its nodes.
"""

from __future__ import annotations

import numpy as np

# kept for tools that record which inner loops ran; always the numpy ones
NUMBA_ENABLED = False


def cumtrapz(steps: np.ndarray, f: np.ndarray) -> np.ndarray:
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum(0.5 * (f[1:] + f[:-1]) * steps, out=out[1:])
    return out


def revcumtrapz(steps: np.ndarray, f: np.ndarray) -> np.ndarray:
    seg = 0.5 * (f[1:] + f[:-1]) * steps
    out = np.empty_like(f)
    out[-1] = 0.0
    out[:-1] = seg[::-1].cumsum()[::-1]
    return out


def weighted_sum(w: np.ndarray, f: np.ndarray) -> float:
    return float(np.dot(w, f))


# bound here so that rebinding the public cumtrapz (say, to time or count its
# calls) leaves survival_from_rates on the same loop
_cumtrapz = cumtrapz


def survival_from_rates(steps: np.ndarray, g: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    # survival shape (1/g) * exp(-running trapezoid integral of mu/g)
    return np.exp(-_cumtrapz(steps, ratio)) / g
