"""Unit-sphere surface measures, quadrature nodes, and plane-wave averages.

Everything here treats the sphere S^{d-1} embedded in R^d with its surface
measure (total mass |S^{d-1}| = 2 pi^{d/2} / Gamma(d/2)), which is the
normalization used throughout the jump-rate and correlation formulas.
Plane-wave averages are in closed form (Bessel functions); the
Gauss-Jacobi polar rule only builds the direction nodes for d >= 3.
"""

from functools import lru_cache
import math

import numpy as np
from scipy.special import j0, j1, jv, roots_jacobi


def surface_area(d):
    """Surface measure |S^{d-1}| of the unit sphere in R^d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@lru_cache(maxsize=128)
def polar_rule(d, order):
    """Quadrature for int_{-1}^{1} (1 - eta^2)^{(d-3)/2} f(eta) d eta.

    This is the weight that appears when a sphere integral over S^{d-1}
    is reduced to the polar coordinate eta = cos(angle).  Requires d >= 2.
    """
    if d < 2:
        raise ValueError("polar reduction needs d >= 2")
    alpha = (d - 3) / 2.0
    return roots_jacobi(int(order), alpha, alpha)


def plane_wave_average(d, r):
    """int_{S^{d-1}} ds exp(i r s.e) for unit vector e, as a function of r.

    The integral depends on |r| only and is real and even.  For d = 1 the
    sphere is the two-point set {+1, -1}.  For d >= 2 it is the closed form
    (2 pi)^{d/2} |r|^{1-d/2} J_{d/2-1}(|r|), whose limit at r = 0 is
    |S^{d-1}|.
    """
    r = np.asarray(r, dtype=float)
    if d == 1:
        return 2.0 * np.cos(r)
    nu = d / 2.0 - 1.0
    r = np.abs(r)
    zero = r == 0.0
    safe = np.where(zero, 1.0, r)
    # j0, j1: ten times faster than jv or more, and equal to it within 1.3e-15
    bessel = j0(safe) if d == 2 else j1(safe) if d == 4 else jv(nu, safe)
    value = (2.0 * math.pi) ** (d / 2.0) * bessel / safe ** nu
    return np.where(zero, surface_area(d), value)


def direction_nodes(d, m):
    """Quadrature nodes and weights on S^{d-1}, weights summing to |S^{d-1}|.

    d = 1 ignores m (the sphere is {+1, -1}).  d = 2 uses m equispaced
    angles (m rounded up to an even count so the node set is closed under
    s -> -s).  d >= 3 uses a product of a Gauss-Jacobi polar rule with a
    recursively built sphere rule on S^{d-2}.
    """
    if d == 1:
        nodes = np.array([[1.0], [-1.0]])
        weights = np.array([1.0, 1.0])
    elif d == 2:
        m = max(4, int(m))
        if m % 2:
            m += 1
        angles = 2.0 * np.pi * (np.arange(m) + 0.5) / m
        nodes = np.column_stack([np.cos(angles), np.sin(angles)])
        weights = np.full(m, 2.0 * np.pi / m)
    else:
        n_polar = max(4, int(round(m ** (1.0 / (d - 1)))))
        eta, w_eta = polar_rule(d, n_polar)
        sub_nodes, sub_w = direction_nodes(d - 1, m // n_polar if m >= n_polar else 4)
        sine = np.sqrt(np.clip(1.0 - eta ** 2, 0.0, None))
        nodes = np.concatenate(
            [
                np.column_stack([np.full(len(sub_nodes), e), s * sub_nodes])
                for e, s in zip(eta, sine)
            ]
        )
        weights = np.concatenate([we * sub_w for we in w_eta])
    # pin the total weight to the exact surface area
    weights = weights * (surface_area(d) / weights.sum())
    return nodes, weights
