"""Spectral analysis of the fiber generator: stationary state, gaps, diffusion.

The population fiber at p = 0 is a Markov generator whose kernel is the
Gibbs-in-level, flat-in-momentum state; its top eigenvalue moves off zero
quadratically in the fiber momentum p, and the (positive definite) matrix
of that quadratic decay rate is the diffusion tensor.  Two independent
routes compute it on the grid: finite differences of the tracked top
eigenvalue, and the resolvent formula solved per Fourier mode, where the
p = 0 fiber is one small level block.  The same per-mode formula with the
exact sphere average gives the grid-free tensor (the `continuum` entry of
`diffusion.json`), which kinetic Monte Carlo estimates.

Gaps, spectra and the Hessian work per Fourier sector of each fiber's
free axes, in the grid's Fourier-mode basis, where a fiber at real p is
real: every eigensolve runs in float64, free axis or none.  The sectors
come from `generator._sectors`, built from p and the shared mode blocks
with the kinetic term as a closed-form stencil, never from a dense fiber;
the tracked eigenvalue and the Hessian need only the x_F = 0 sector.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .generator import (_grid_mode_blocks, _level_pair, _mode_blocks,
                        _sectors, assemble_fiber, build_rate_table,
                        escape_rates)
from .model import NumericError, dispersion_grad
from .sphere import plane_wave_average


class ConvergenceError(NumericError):
    """An iterative solve did not reach its tolerance within its budget."""


class TrackingLossError(NumericError):
    """Eigenvalue continuation lost the branch it was following."""


class FDInconsistencyError(NumericError):
    """Finite-difference step-halving check failed."""


def stationary_state(m00, ansatz=None):
    """Kernel vector of the population generator, normalized to total mass 1.

    Shifted inverse iteration: the shift sits a hair off zero so the
    factorization is regular while the kernel component is amplified by
    ~gap/shift per sweep.  Converges in two sweeps from any start that is
    not orthogonal to the kernel; callers pass the Gibbs ansatz.
    """
    m00 = np.asarray(m00)
    n = m00.shape[0]
    scale = float(np.abs(m00).max())
    shift = 1e-10 * scale
    v = np.ones(n) if ansatz is None else np.asarray(ansatz, dtype=float).copy()
    v /= np.abs(v).sum()
    lu = lu_factor(m00.real - shift * np.eye(n))
    for _ in range(8):
        v = lu_solve(lu, v)
        v /= np.abs(v).sum()
        resid = float(np.abs(m00 @ v).max())
        if resid <= 1e-12 * scale:
            if v.sum() < 0:
                v = -v
            return v
    raise ConvergenceError(
        f"stationary state iteration stalled at residual {resid:.2e}"
    )


def _two_sided_rayleigh(matrix, sigma0, v0, w0):
    """Track a real eigentriple (eig, right, left) near sigma0 from v0, w0."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    eye = np.eye(n)
    scale = float(np.abs(m).max()) or 1.0
    v = np.asarray(v0, dtype=float).copy()
    v /= np.linalg.norm(v)
    w = np.asarray(w0, dtype=float).copy()
    w /= np.linalg.norm(w)
    sigma = float(sigma0)
    resid = math.inf
    for _ in range(60):
        with warnings.catch_warnings():
            # an exactly singular shift (A(0) at sigma = 0) is nudged below
            warnings.simplefilter("error", LinAlgWarning)
            try:
                lu = lu_factor(m - sigma * eye)
                v_new = lu_solve(lu, v)
                w_new = lu_solve(lu, w, trans=1)
            except (LinAlgWarning, ValueError):
                v_new = np.full(n, np.nan)
        if not np.all(np.isfinite(v_new)):
            sigma += 1e-12 * scale
            continue
        v = v_new / np.linalg.norm(v_new)
        w = w_new / np.linalg.norm(w_new)
        denom = w @ v
        if abs(denom) < 1e-14:
            raise TrackingLossError("left/right eigenvectors became orthogonal")
        mv = m @ v
        sigma = (w @ mv) / denom
        resid = float(np.linalg.norm(mv - sigma * v))
        if resid <= 1e-13 * scale:
            return float(sigma), v, w
    raise TrackingLossError(
        f"eigenvalue iteration did not converge (residual {resid:.2e})"
    )


@dataclass(frozen=True)
class FiberScanPoint:
    p: tuple
    eigenvalue: complex
    bulk_top: float      # max real part of the rest of the a = 0 spectrum
    gap: float           # elevation of the tracked eigenvalue above the rest


def _bulk_top(eigvals, tracked):
    rest = eigvals[np.argsort(np.abs(eigvals - tracked))[1:]]
    return float(rest.real.max()) if len(rest) else -math.inf


def _start_vectors(cfg, table):
    """Right Gibbs x delta_{x=0}, left 1 x delta_{x=0}: the p = 0 kernel
    pair in the level-major Fourier-mode basis."""
    v = np.zeros((2, len(table.levels), cfg.grid.points_per_axis ** cfg.dim))
    v[0, :, 0] = np.exp(-cfg.beta * np.asarray(table.levels))
    v[1, :, 0] = 1.0
    return v.reshape(2, -1)


def _track_top(cfg, table, free, block, sigma, right, left):
    """Two-sided Rayleigh on the x_F = 0 sector `block` of `_sectors`, free
    axes F (p_i = 0 or a flat dispersion row); returns (eig, right, left).
    Vectors live in the mode basis of grid x levels: the x_F = 0 slice
    projects, zero padding lifts."""
    full = (len(table.levels),) + (cfg.grid.points_per_axis,) * cfg.dim
    kept = [1 if j - 1 in free else n for j, n in enumerate(full)]

    def project(v):
        return np.reshape(v, full)[tuple(map(slice, kept))].ravel()

    def lift(u):
        pad = [(0, n - k) for n, k in zip(full, kept)]
        return np.pad(u.reshape(kept), pad).ravel()

    eig, v, w = _two_sided_rayleigh(block, sigma, project(right), project(left))
    return eig, lift(v), lift(w)


def perron_curve(cfg, table, p_list):
    """Track the top eigenvalue of the population fiber along a p path.

    Starts from the exact zero mode at p = 0 and follows it by two-sided
    Rayleigh iteration on the x_F = 0 sector; at every step the spectra of
    all sectors are computed to measure the gap to the bulk.  Raises
    TrackingLossError when the followed eigenvalue jumps by more than the
    expected fiber derivative allows (branch collision).
    """
    eig = 0.0
    right, left = _start_vectors(cfg, table)
    grad_scale = float(np.abs(dispersion_grad(
        cfg.dispersion, cfg.grid_points(), dim=cfg.dim)).max())
    points = []
    prev_p = np.zeros(cfg.dim)
    for p in p_list:
        p = np.atleast_1d(np.asarray(p, dtype=float))
        # unused, but pinned per p by perfbench/tests/test_spans.py (ROADMAP 1)
        assemble_fiber(cfg, table, p, 0.0)
        free, stack = _sectors(cfg, table, p)
        eig_new, right, left = _track_top(cfg, table, free, stack[0], eig,
                                          right, left)
        step = float(np.linalg.norm(p - prev_p))
        allowed = 4.0 * grad_scale * step + 1e-8
        if abs(eig_new - eig) > allowed:
            raise TrackingLossError(
                f"eigenvalue moved {abs(eig_new - eig):.3e} over step {step:.3e}"
            )
        bulk = _bulk_top(np.linalg.eigvals(stack).ravel(), eig_new)
        points.append(FiberScanPoint(
            p=tuple(p), eigenvalue=complex(eig_new), bulk_top=bulk,
            gap=float(eig_new.real - bulk),
        ))
        eig, prev_p = eig_new, p
    return points


def coherence_top(table, bohr):
    """Exact max real part of an a != 0 fiber: -(j(e) + j(e')) / 2."""
    rates = escape_rates(table)
    i, j = _level_pair(np.asarray(table.levels), bohr)
    return -0.5 * (rates[i] + rates[j])


@dataclass(frozen=True)
class GapReport:
    g_low: float
    g_high: float
    p_star: float
    gap_at_zero: float
    coherence_tops: dict

    def to_dict(self):
        return {
            "g_low": self.g_low,
            "g_high": self.g_high,
            "p_star": self.p_star,
            "gap_at_zero": self.gap_at_zero,
            "coherence_tops": {str(k): v for k, v in self.coherence_tops.items()},
        }


def spectral_gaps(cfg, table=None):
    """Bulk-separation rates for small and large momentum fibers.

    g_low bounds the bulk below the tracked eigenvalue over the small
    fibers (and above it only the tracked branch survives); g_high bounds
    the whole spectrum away from the axis on the large fibers.  The a != 0
    fibers are diagonal, so their tops come from the escape rates exactly.
    """
    if table is None:
        table = build_rate_table(cfg)
    axis = np.eye(cfg.dim)[0]
    p_small = [s * axis for s in (0.0, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5)]
    p_large = [s * axis for s in (math.pi / 2, 3 * math.pi / 4, math.pi)]

    coherence = {a: coherence_top(table, a)
                 for a in np.unique([c.bohr for c in table.channels])}
    coh_max = max(coherence.values()) if coherence else -math.inf

    points = perron_curve(cfg, table, p_small)
    elevations = []
    for pt in points:
        bulk = max(pt.bulk_top, coh_max)
        elevations.append((float(np.linalg.norm(np.real(pt.p))),
                           pt.eigenvalue.real, bulk))
    g_low = min(-bulk for _, _, bulk in elevations)
    # adaptive small-fiber radius: largest |p| at which the tracked branch
    # stays elevated with at least half the low-fiber gap to spare
    p_star = 0.0
    for radius, re_eig, bulk in elevations:
        if re_eig > -g_low and re_eig - bulk > 0.5 * g_low:
            p_star = max(p_star, radius)
    gap_at_zero = points[0].gap

    g_high = math.inf
    for p in p_large:
        _, stack = _sectors(cfg, table, p)
        top = float(np.linalg.eigvals(stack).real.max())
        g_high = min(g_high, -max(top, coh_max))

    return GapReport(
        g_low=float(g_low), g_high=float(g_high), p_star=float(p_star),
        gap_at_zero=float(gap_at_zero), coherence_tops=coherence,
    )


def _hessian_once(cfg, table, h, start):
    d = cfg.dim
    f = {}

    def at(vec):
        key = tuple(np.round(vec / h).astype(int))
        if key not in f:
            free, stack = _sectors(cfg, table, vec, zero_only=True)
            f[key] = _track_top(cfg, table, free, stack[0], 0.0, *start)[0]
        return f[key]

    center = at(np.zeros(d))
    grad = np.zeros(d)
    hess = np.zeros((d, d))
    steps = h * np.eye(d)
    for i in range(d):
        fp, fm = at(steps[i]), at(-steps[i])
        grad[i] = (fp - fm) / (2 * h)
        hess[i, i] = (fp + fm - 2 * center) / h ** 2
    for i in range(d):
        for j in range(i + 1, d):
            e_ij, e_im = steps[i] + steps[j], steps[i] - steps[j]
            val = (at(e_ij) + at(-e_ij) - at(e_im) - at(-e_im)) / (4 * h ** 2)
            hess[i, j] = hess[j, i] = val
    return grad, hess


@dataclass(frozen=True)
class HessianDiffusion:
    tensor: np.ndarray
    gradient_norm: float
    richardson_defect: float


def diffusion_tensor_hessian(cfg, table=None):
    """Diffusion tensor from central second differences of the fiber curve.

    The top eigenvalue behaves as -(1/2) p . D p near p = 0, so the tensor
    is minus the finite-difference Hessian, at steps 1e-3 and 5e-4.  Both
    the gradient (must vanish by inversion symmetry) and the step-halving
    Richardson defect are diagnostics; the tensor is the extrapolant.
    """
    if table is None:
        table = build_rate_table(cfg)
    start = _start_vectors(cfg, table)
    grad_h, hess_h = _hessian_once(cfg, table, 1e-3, start)
    grad_2, hess_2 = _hessian_once(cfg, table, 1e-3 / 2, start)
    d_h = -hess_h
    d_2 = -hess_2
    tensor = (4.0 * d_2 - d_h) / 3.0
    scale = max(float(np.abs(tensor).max()), 1e-300)
    defect = float(np.abs(d_2 - d_h).max()) / scale
    if defect > 1e-4:
        raise FDInconsistencyError(
            f"Hessian step-halving moved the tensor by {defect:.2e} relative"
        )
    return HessianDiffusion(
        tensor=0.5 * (tensor + tensor.T),
        gradient_norm=float(np.abs(np.concatenate([grad_h, grad_2])).max()),
        richardson_defect=defect,
    )


def _resolvent_contraction(cfg, beta, blocks):
    """D_ij = 2 Re sum_x conj(beta_i(x)) beta_j(x) r(x), symmetrised.

    r(x) = 1^T (-A(x))^-1 pi is the level-summed resolvent of the mode
    block A(x) applied to the Gibbs level weights pi: one batched L x L
    solve over all modes.  beta has shape (d, modes) and blocks
    (modes, L, L); the caller leaves out the kernel mode x = 0.
    """
    gibbs = cfg.spin.gibbs_weights(cfg.beta)
    rhs = np.broadcast_to(gibbs[:, None], (len(blocks), len(gibbs), 1))
    r = np.linalg.solve(-blocks, rhs)[..., 0].sum(axis=1)
    tensor = 2.0 * np.einsum("ix,jx,x->ij", beta.conj(), beta, r).real
    return 0.5 * (tensor + tensor.T)


def diffusion_tensor_formula(cfg, table=None):
    """Diffusion tensor of the grid generator from the resolvent formula.

    With pi the Gibbs x uniform kernel of M(0), the tensor is

        D_ij = 2 sum_{k,e} d_i eps(k) [(-M(0))^-1 (d_j eps pi)](k, e),

    the inverse taken off the kernel.  M(0) is block-diagonal over the
    Fourier modes x of the grid, so with beta_i = ifftn(d_i eps) this is
    the per-mode contraction of `_resolvent_contraction` over x != 0.
    The velocity is odd in k, so beta_i(0) = 0 (solvability) holds exactly
    up to roundoff; a flat dispersion gives beta = 0 and D = 0.
    """
    if table is None:
        table = build_rate_table(cfg)
    d, n_axis = cfg.dim, cfg.grid.points_per_axis
    grad = dispersion_grad(cfg.dispersion, cfg.grid_points(), dim=d)
    beta = np.fft.ifftn(grad.T.reshape((d,) + (n_axis,) * d),
                        axes=tuple(range(1, d + 1))).reshape(d, -1)
    defect = np.abs(beta[:, 0]) > 1e-10 * np.linalg.norm(beta, axis=1)
    if defect.any():
        raise ConvergenceError(f"velocity rows {np.flatnonzero(defect).tolist()}"
                               " are not orthogonal to the kernel")
    blocks = _grid_mode_blocks(table, n_axis)
    return _resolvent_contraction(cfg, beta[:, 1:], blocks[1:])


def diffusion_tensor_continuum(cfg, table=None):
    """Grid-free diffusion tensor D_inf of the same resolvent formula.

    A cosine-series velocity lives on the position modes x = +-m e_i
    alone, with beta_i(+-m e_i) = +-i m c_im / 2, and there a channel of
    radius r transforms as the exact sphere average
    plane_wave_average(d, r |x|) instead of a deposited kernel.  KMC keeps
    the momentum continuous, so it estimates this tensor, which the grid
    tensor approaches at O(N^-2).
    """
    if table is None:
        table = build_rate_table(cfg)
    d = cfg.dim
    coeffs = cfg.dispersion.per_axis(d)
    axis, m, sign = (a.ravel() for a in np.meshgrid(
        np.arange(d), np.arange(1, coeffs.shape[1] + 1), [1, -1],
        indexing="ij"))
    beta = np.zeros((d, axis.size), dtype=complex)
    beta[axis, np.arange(axis.size)] = 0.5j * sign * m * coeffs[axis, m - 1]
    blocks = _mode_blocks(table, lambda r: plane_wave_average(d, r * m))
    return _resolvent_contraction(cfg, beta, blocks)
