"""Unit-sphere surface measures, quadrature nodes, and plane-wave averages.

Everything here treats the sphere S^{d-1} embedded in R^d with its surface
measure (total mass |S^{d-1}| = 2 pi^{d/2} / Gamma(d/2)), which is the
normalization used throughout the jump-rate and correlation formulas.
Plane-wave averages are in closed form, a Bessel function that `_bessel`
evaluates in numpy (DLMF 10.2.2, 3.6, 10.17); the Gauss-Jacobi polar rule
only builds the direction nodes for d >= 3, by Golub-Welsch (Math. Comp.
23 (1969) 221).  Neither needs scipy.
"""

from functools import lru_cache
import math

import numpy as np

SERIES_MAX = 2.5    # power series below, Miller's recurrence above
HANKEL_MIN = 25.0   # Hankel expansion from here on


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
    Golub-Welsch: the nodes are the eigenvalues of the weight's Jacobi
    matrix, the weights its mass times the squared first components of the
    eigenvectors; both are symmetrized under eta -> -eta.
    """
    if d < 2:
        raise ValueError("polar reduction needs d >= 2")
    a = (d - 3) / 2.0
    k = np.arange(2.0, order)
    # squared off-diagonal k (k + 2a) / ((2k + 2a)^2 - 1); at k = 1 the
    # factor 2a + 1 cancels, so d = 2 (a = -1/2) gets 1/2, not 0/0
    off = np.sqrt(np.r_[1.0 / (2.0 * a + 3.0), k * (k + 2.0 * a)
                        / ((2.0 * k + 2.0 * a) ** 2 - 1.0)][:order - 1])
    eta, vec = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mass = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)
    weights = mass * vec[0] ** 2
    return 0.5 * (eta - eta[::-1]), 0.5 * (weights + weights[::-1])


def _bessel(nu, r):
    """Gamma(nu + 1) (2/r)^nu J_nu(r) for r >= 0 and nu = 0, 1/2, 1, ...

    1 at r = 0.  14-term power series below SERIES_MAX; Miller's backward
    recurrence from order r + nu + 35 below HANKEL_MIN, normalized by
    J_0 + 2 sum J_2k = 1 (integer nu) or by J_{+-1/2} = sqrt(2 / (pi r))
    (sin r, cos r); beyond, the Hankel expansion to a_k / HANKEL_MIN^k <
    1e-17, a_k(nu) by their recurrence (finite for half-integer nu).
    """
    scale = 2.0 ** nu * math.gamma(nu + 1.0)
    out = np.empty_like(r)
    small, large = r < SERIES_MAX, r >= HANKEL_MIN
    x = -0.25 * r[small] ** 2
    term, total = np.ones_like(x), np.ones_like(x)
    for k in range(1, 15):
        term *= x / (k * (nu + k))
        total += term
    out[small] = total
    middle = ~(small | large)
    z = r[middle]
    half, two_over = nu % 1.0, 2.0 / z
    f_up, f, norm = np.zeros_like(z), np.ones_like(z), np.zeros_like(z)
    for k in range(int(z.max(initial=0.0) + nu) + 35, -1, -1):  # f: k + half
        if k + half == nu:
            keep = f
        if not half and k % 2 == 0:
            norm += f if k == 0 else 2.0 * f
        f_up, f = f, (k + half) * two_over * f - f_up
    if half:  # f_up and f are of orders 1/2 and -1/2
        norm = ((f_up * f_up + f * f) / (f_up * np.sin(z) + f * np.cos(z))
                * np.sqrt(0.5 * math.pi * z))
    out[middle] = scale * keep / (norm * z ** nu)
    z = r[large]
    a = [1.0]
    while abs(a[-1]) > 1e-17 * HANKEL_MIN ** (len(a) - 1) and len(a) < 60:
        k = len(a)
        a.append(a[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    # J_nu = sqrt(2 / (pi z)) (P cos chi - Q sin chi), chi = z - phi, with
    # P = sum (-1)^k a_2k z^-2k and Q = sum (-1)^k a_2k+1 z^-2k-1
    y = -1.0 / (z * z)
    p, q = np.zeros_like(z), np.zeros_like(z)
    for c in a[::2][::-1]:
        p = p * y + c
    for c in a[1::2][::-1]:
        q = q * y + c
    q /= z
    phi = (nu + 0.5) * math.pi / 2.0
    c, s = math.cos(phi), math.sin(phi)
    out[large] = (scale * math.sqrt(2.0 / math.pi) * z ** (-nu - 0.5)
                  * (np.cos(z) * (c * p + s * q) + np.sin(z) * (s * p - c * q)))
    return out


def plane_wave_average(d, r):
    """int_{S^{d-1}} ds exp(i r s.e) for unit vector e, as a function of r.

    The integral depends on |r| only and is real and even.  For d = 1 the
    sphere is the two-point set {+1, -1}.  For d >= 2 it is the closed form
    (2 pi)^{d/2} |r|^{1-d/2} J_{d/2-1}(|r|), |S^{d-1}| times `_bessel`, and
    exactly |S^{d-1}| at r = 0.
    """
    r = np.asarray(r, dtype=float)
    if d == 1:
        return 2.0 * np.cos(r)
    return surface_area(d) * _bessel(d / 2.0 - 1.0, np.abs(r))


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
