"""Reference routes the tests compare the library against.

Plain quadrature against the standard Gaussian, the Mehler smoothing form
of the Ornstein-Uhlenbeck semigroup, the one-atom measure and the
coordinate partials of an exponential combination.  The
library computes none of these itself; the tests use them as second
routes to its closed forms.
"""

import math

import numpy as np

from wickbench.expspan import ExpCombo, exp_combos
from wickbench.measures import DiscreteMeasure
from wickbench.quadrature import QuadratureGrid, _eval_at


def dirac(y) -> DiscreteMeasure:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return DiscreteMeasure(y.size, y[None, :], [1.0])


def integrate_mu(fn, grid: QuadratureGrid) -> float:
    """Weighted node sum approximating int fn dmu."""
    return float(_eval_at(fn, grid.nodes) @ grid.weights)


def mehler_ou(fn, tau: float, grid: QuadratureGrid):
    """Smoothing form of the OU semigroup as a point-evaluable function.

    (P_tau fn)(w) = int fn(e^{-tau} w + sqrt(1 - e^{-2 tau}) u) dmu(u),
    realized on the grid.  Cross-checks the diagonal coefficient action.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    decay = math.exp(-tau)
    spread = math.sqrt(max(0.0, 1.0 - decay * decay))

    def smoothed(w):
        arr = np.asarray(w, dtype=float)
        pts = np.atleast_2d(arr)
        out = np.empty(pts.shape[0])
        for i, point in enumerate(pts):
            out[i] = float(_eval_at(fn, decay * point + spread * grid.nodes) @ grid.weights)
        return out if arr.ndim == 2 else float(out[0])

    return smoothed


def gradient_exp(f: ExpCombo) -> list[ExpCombo]:
    """Coordinate partials: d_k E(h) = h_k E(h), the n of them as one stack."""
    if f.dim == 0:
        return []
    dirs = np.broadcast_to(f.directions, (f.dim, *f.directions.shape))
    return exp_combos(f.dim, f.weights * f.directions.T, dirs)
